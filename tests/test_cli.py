"""Command-line interface behavior and output files."""
import csv

import numpy as np
import pytest

import vtlest as v
from vtlest import fileio
from vtlest.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSynthCommand:
    def test_default_corpus(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path) == 0
        assert "40 utterances" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.wav"))) == 40
        records = fileio.read_manifest(tmp_path / "manifest.csv")
        assert len(records) == 40

    def test_pair_demo(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--pair-demo") == 0
        records = fileio.read_manifest(tmp_path / "manifest.csv")
        assert [r.f0_hz for r in records] == [182.0, 101.0]
        assert records[0].vtl_cm == pytest.approx(15.0)
        assert records[1].vtl_cm == pytest.approx(18.5)
        assert len(records) == 2  # vowel 'a' only

    def test_invalid_alpha_names_field(self, tmp_path, capsys):
        code = run_cli("synth", "--out", tmp_path, "--speakers", "120:-1")
        assert code != 0
        err = capsys.readouterr().err
        assert "alpha" in err

    def test_custom_speakers(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--speakers", "120:1.0,180:1.1",
                       "--vowels", "a,i") == 0
        records = fileio.read_manifest(tmp_path / "manifest.csv")
        assert len(records) == 4


class TestAnalyzeCommand:
    def test_hundred_row_csv(self, pair_corpus_dir, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run_cli("analyze", pair_corpus_dir / "s01_a.wav", "--rep", "Ep_SSI",
                       "--out", out) == 0
        with open(out) as handle:
            handle.readline()  # metadata
            rows = list(csv.DictReader(handle))
        assert len(rows) == 100
        assert "100-channel Ep_SSI spectrum" in capsys.readouterr().out

    def test_identical_bytes_on_rerun(self, pair_corpus_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("analyze", pair_corpus_dir / "s01_a.wav", "--out", a)
        run_cli("analyze", pair_corpus_dir / "s01_a.wav", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_f0_auto_close_to_f0_fixed(self, pair_corpus_dir, tmp_path):
        auto, fixed = tmp_path / "auto.csv", tmp_path / "fixed.csv"
        run_cli("analyze", pair_corpus_dir / "s01_a.wav", "--f0", "auto", "--out", auto)
        run_cli("analyze", pair_corpus_dir / "s01_a.wav", "--f0", "182", "--out", fixed)
        shift = v.xcorr_shift(fileio.read_spectrum_csv(auto), fileio.read_spectrum_csv(fixed))
        assert abs(shift) < 0.5

    def test_missing_file_fails(self, tmp_path, capsys):
        assert run_cli("analyze", tmp_path / "nope.wav", "--out", tmp_path / "o.csv") != 0
        assert "error" in capsys.readouterr().err


class TestEstimateCommand:
    def test_identical_speakers_zero_shifts(self, tmp_path, capsys):
        samples = v.synth_vowel(v.vowel_spec("a", 150.0))
        fileio.write_wav(tmp_path, "same.wav", samples, 48000.0)
        records = [
            fileio.UtteranceRecord(f"s{i}", "a", 150.0, 1.0, 16.0, "same.wav")
            for i in range(3)
        ]
        fileio.write_manifest(tmp_path, records)
        out = tmp_path / "out"
        assert run_cli("estimate", tmp_path / "manifest.csv", "--out", out) == 0
        with open(out / "estimates.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert all(float(r["S_channels"]) == 0.0 for r in rows)

    def test_bad_external_spectrogram_is_one_error_line(self, pair_corpus_dir, tmp_path, capsys):
        ext = tmp_path / "external"
        for rec in fileio.read_manifest(pair_corpus_dir / "manifest.csv"):
            samples, fs = v.read_audio(rec.path)
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", v.stft_spectrum(samples, fs))
        bad = sorted(ext.glob("*.csv"))[0]
        lines = bad.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",n/a"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("estimate", pair_corpus_dir / "manifest.csv", "--rep", "W_log",
                       "--external-dir", ext, "--out", tmp_path / "out")
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and f"{bad.name}:3:" in err[0]

    def test_default_corpus_row_count_and_matrices(self, default_corpus_dir, tmp_path):
        out = tmp_path / "est"
        assert run_cli("estimate", default_corpus_dir / "manifest.csv",
                       "--rep", "Ep_SSI", "--out", out) == 0
        with open(out / "estimates.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 40
        assert set(rows[0]) == {"speaker_id", "vowel", "S_channels", "L_est_cm", "L_meas_cm"}
        for vowel in "aiueo":
            matrix = np.loadtxt(out / f"shifts_{vowel}.csv", delimiter=",")
            assert matrix.shape == (8, 8)
            np.testing.assert_array_equal(matrix, -matrix.T)

    def test_pair_demo_ratio_in_range(self, pair_corpus_dir, tmp_path):
        out = tmp_path / "pair"
        assert run_cli("estimate", pair_corpus_dir / "manifest.csv",
                       "--rep", "Ep_SSI", "--out", out) == 0
        with open(out / "estimates.csv") as handle:
            rows = list(csv.DictReader(handle))
        lengths = sorted(float(r["L_est_cm"]) for r in rows)
        assert 1.15 <= lengths[1] / lengths[0] <= 1.31

    def test_full_precision_output(self, pair_corpus_dir, tmp_path):
        out = tmp_path / "prec"
        run_cli("estimate", pair_corpus_dir / "manifest.csv", "--out", out)
        with open(out / "estimates.csv") as handle:
            rows = list(csv.DictReader(handle))
        digits = rows[0]["L_est_cm"].replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 9


class TestEvaluateAndSweep:
    def test_evaluate_trials_and_reports(self, default_corpus_dir, tmp_path, capsys):
        assert run_cli(
            "evaluate", "--manifest", default_corpus_dir / "manifest.csv",
            "--rep", "Ep,Ep_SSI", "--trials", "10", "--exclude", "3",
            "--seed", "3", "--out", tmp_path,
        ) == 0
        out = capsys.readouterr().out
        with open(tmp_path / "report.csv") as handle:
            report_rows = list(csv.DictReader(handle))
        assert [r["representation_id"] for r in report_rows] == ["Ep", "Ep_SSI"]
        with open(tmp_path / "trials.csv") as handle:
            trial_rows = list(csv.DictReader(handle))
        assert len(trial_rows) == 20  # 10 per representation
        assert all(len(r["excluded"].split(";")) == 3 for r in trial_rows)
        assert "Ep_SSI" in out

    def test_sweep_rows(self, default_corpus_dir, tmp_path):
        assert run_cli(
            "sweep", "--manifest", default_corpus_dir / "manifest.csv",
            "--rep", "Ep_SSI", "--out", tmp_path,
        ) == 0
        with open(tmp_path / "sweep.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 13
        assert [float(r["h_max"]) for r in rows] == [0.5 * i for i in range(13)]

    def test_config_file_driven(self, pair_corpus_dir, tmp_path):
        import json

        config = {
            "manifest": str(pair_corpus_dir / "manifest.csv"),
            "representations": ["Ep_SSI"],
            "trials": 0,
            "out_dir": str(tmp_path),
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("evaluate", "--config", cfg) == 0
        assert (tmp_path / "report.csv").exists()
        assert not (tmp_path / "trials.csv").exists()

    def test_missing_manifest_and_config_fails(self, tmp_path, capsys):
        assert run_cli("evaluate", "--out", tmp_path) != 0
        assert "error" in capsys.readouterr().err
