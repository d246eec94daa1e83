"""The README's examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # three points, then r and RMS
    assert [line.split()[:2] for line in lines[:3]] == [["s01", "a"], ["s02", "a"], ["s03", "a"]]
    assert (tmp_path / "corpus" / "manifest.csv").exists()
