"""The README's examples run as written, and its settings table names real constants."""
import importlib
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


def test_settings_table_names_resolve():
    """Every backticked ``module.NAME`` in the "defined as" column of the
    settings table is an attribute of ``vtlest.<module>``; a bare ``NAME``
    after it belongs to the same module, and call parentheses are dropped."""
    table = README.read_text().split("| setting | value | defined as |\n", 1)[1].split("\n\n", 1)[0]
    checked = 0
    for row in table.splitlines()[1:]:
        module = None
        for span in re.findall(r"`([^`]*)`", row.rsplit(" | ", 1)[1]):
            for name in re.sub(r"\(.*?\)", "", span).split(","):
                name = name.strip()
                if "." in name:
                    module, name = name.split(".")
                assert module is not None, f"{name!r} names no module: {row}"
                assert hasattr(importlib.import_module(f"vtlest.{module}"), name), f"vtlest.{module}.{name}"
                checked += 1
    assert checked >= 20
