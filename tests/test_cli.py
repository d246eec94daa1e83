"""Command-line interface behavior and output files."""
import csv
import warnings

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

    @pytest.mark.parametrize("flag,value,message", [
        ("--fs", "nan", "fs must be a finite whole number of Hz, got nan"),
        ("--fs", "inf", "fs must be a finite whole number of Hz, got inf"),
        ("--fs", "44100.5", "fs must be a finite whole number of Hz, got 44100.5"),
        ("--duration", "nan", "duration must be finite, got nan"),
        ("--duration", "inf", "duration must be finite, got inf"),
        ("--speakers", "100:nan", "alpha must be positive and finite, got nan"),
        ("--speakers", "nan:1.0", "f0 must be positive and finite, got nan"),
        ("--speakers", "inf:1.0", "f0 must be positive and finite, got inf"),
        # a bad later speaker: nothing of the first one is written either
        ("--speakers", "120:1.0,120:nan", "alpha must be positive and finite, got nan"),
    ])
    def test_bad_value_is_one_error_line_and_writes_nothing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", out, flag, value) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--f0", "--hmax"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_pitch_or_knee_is_one_error_line(self, pair_corpus_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "spec.csv"
        assert run_cli("analyze", pair_corpus_dir / "s01_a.wav", "--rep", "Ep_SSI", flag, value,
                       "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        rule = {"--f0": "f0 must be nonnegative", "--hmax": "h_max must be positive"}[flag]
        assert err == [f"error: {rule} and finite, got {value}"]
        assert not out.exists()

    def test_zero_sample_rate_is_one_error_line(self, zero_rate_wav, tmp_path, capsys):
        assert run_cli("analyze", zero_rate_wav, "--out", tmp_path / "o.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "zero.wav" in err[0]

    def test_too_low_sample_rate_is_one_error_line(self, one_hz_wav, tmp_path, capsys):
        assert run_cli("analyze", one_hz_wav, "--out", tmp_path / "o.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {one_hz_wav}: sample rate 1 Hz is too low for channels up to 8000 Hz"]


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

    @pytest.mark.parametrize("rows,line", [("s01,a,182", 2), ("s01,a,182,1.0,15", 2),
                                           ("\ns01,a,182", 3), ("s01,a,182,1.0,15,a.wav,b.wav", 2)])
    def test_ragged_manifest_row_is_one_error_line(self, tmp_path, capsys, rows, line):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("speaker_id,vowel,f0_hz,alpha,vtl_cm,path\n" + rows + "\n")
        assert run_cli("estimate", manifest, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}:{line}: bad manifest row: expected as many cells as the header"]

    def test_bad_external_spectrogram_is_one_error_line(self, pair_corpus_dir, tmp_path, capsys):
        ext = tmp_path / "external"
        for rec in fileio.read_manifest(pair_corpus_dir / "manifest.csv"):
            samples, _ = v.read_audio(rec.path)
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", v.stft_spectrum(samples))
        bad = sorted(ext.glob("*.csv"))[0]
        lines = bad.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",n/a"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("estimate", pair_corpus_dir / "manifest.csv", "--rep", "W_log",
                       "--external-dir", ext, "--out", tmp_path / "out")
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and f"{bad.name}:3:" in err[0]

    def test_bad_external_metadata_names_the_file(self, pair_corpus_dir, tmp_path, capsys):
        ext = tmp_path / "external"
        for rec in fileio.read_manifest(pair_corpus_dir / "manifest.csv"):
            samples, _ = v.read_audio(rec.path)
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", v.stft_spectrum(samples))
        bad = sorted(ext.glob("*.csv"))[0]
        lines = bad.read_text().splitlines()
        lines[0] = lines[0].replace("axis=hz ", "axis=erb_linear ")
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("estimate", pair_corpus_dir / "manifest.csv", "--rep", "W_log",
                       "--external-dir", ext, "--out", tmp_path / "out")
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and f"{bad.name}:1:" in err[0]

    def test_external_dir_unused_by_the_representation_is_not_read(self, pair_corpus_dir, tmp_path, capsys):
        ext = tmp_path / "external"
        ext.mkdir()
        for rec in fileio.read_manifest(pair_corpus_dir / "manifest.csv"):
            (ext / f"{rec.utterance_id}.csv").write_text("not a spectrogram\n")
        code = run_cli("estimate", pair_corpus_dir / "manifest.csv", "--rep", "F_log",
                       "--external-dir", ext, "--out", tmp_path / "out")
        assert code == 0, capsys.readouterr().err
        code = run_cli("estimate", pair_corpus_dir / "manifest.csv", "--rep", "W_log",
                       "--external-dir", ext, "--out", tmp_path / "out_w")
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error: ") and ".csv:1:" in err[0]

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
    def test_each_resampled_file_warns_once_naming_it(self, tmp_path):
        """Two bases read each 44.1 kHz file, one analyzer each: every read
        warns, and Python's default filter shows each file's warning once."""
        v.make_corpus(v.pair_demo_speakers(), ["a"], tmp_path / "pair", fs=44100.0)
        for action, per_file in (("always", 2), ("default", 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                assert run_cli("evaluate", "--manifest", tmp_path / "pair" / "manifest.csv",
                               "--rep", "Ep_SSI,F_SSI_log", "--trials", "0",
                               "--out", tmp_path / action) == 0
            messages = sorted(str(w.message) for w in caught)
            assert len(messages) == 2 * per_file
            for message, name in zip(messages, sorted(("s01_a.wav", "s02_a.wav") * per_file)):
                assert message.startswith("resampling input ")
                assert message.endswith(f"{name} from 44100 Hz to the canonical 48000 Hz")

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

    @pytest.mark.parametrize("flag,value", [("--hmax", "2"), ("--seed", "9"), ("--trials", "3"),
                                            ("--exclude", "99")])
    def test_sweep_rejects_flags_it_would_ignore(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as info:
            run_cli("sweep", "--manifest", "m.csv", "--rep", "F_SSI_log", flag, value, "--out", tmp_path)
        assert info.value.code == 2

    def test_sweep_runs_a_config_shared_with_evaluate(self, pair_corpus_dir, tmp_path):
        import json

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "manifest": str(pair_corpus_dir / "manifest.csv"), "representations": ["F_SSI_log"],
            "h_max": 2.0, "seed": 9, "trials": 3, "exclude": 0, "out_dir": str(tmp_path),
        }))
        assert run_cli("sweep", "--config", cfg) == 0
        with open(tmp_path / "sweep.csv") as handle:
            assert len(list(csv.DictReader(handle))) == 13

    def test_negative_trials_is_one_error_line(self, pair_corpus_dir, tmp_path, capsys):
        assert run_cli("evaluate", "--manifest", pair_corpus_dir / "manifest.csv", "--rep", "F_log",
                       "--trials", "-1", "--out", tmp_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "trials" in err[0]
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("exclude", ["99", "1", "-1"])
    def test_exclude_out_of_range_writes_nothing(self, pair_corpus_dir, tmp_path, capsys, exclude):
        """Of the pair demo's two speakers none can be excluded."""
        assert run_cli("evaluate", "--manifest", pair_corpus_dir / "manifest.csv", "--rep", "F_log",
                       "--exclude", exclude, "--out", tmp_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot exclude {exclude} of 2 speakers and still estimate"]
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("text", ["{not json", "[]"])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run_cli("evaluate", "--config", cfg) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bad.json" in err[0]

    def test_manifest_flag_completes_a_config_without_one(self, pair_corpus_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"trials": 0, "representations": ["Ep"]}')
        out = tmp_path / "o"
        assert run_cli("evaluate", "--config", cfg, "--manifest", pair_corpus_dir / "manifest.csv",
                       "--out", out) == 0
        assert (out / "report.csv").exists() and not (out / "trials.csv").exists()

    @pytest.mark.parametrize(
        "key,value", [("trials", '"ten"'), ("h_max", '"x"'), ("representations", '"F_log"')]
    )
    def test_wrong_config_type_is_one_error_line(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"{key}": {value}}}')
        assert run_cli("evaluate", "--config", cfg, "--manifest", "m.csv", "--out", tmp_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "c.json" in err[0] and repr(key) in err[0]

    def test_every_flag_sets_its_config_field(self, tmp_path):
        from vtlest.cli import _config_from_args, build_parser

        args = build_parser().parse_args([
            "evaluate", "--manifest", "m.csv", "--rep", "Ep,F_log", "--hmax", "2.5",
            "--seed", "4", "--trials", "6", "--exclude", "2", "--f0", "150",
            "--external-dir", "ext", "--out", str(tmp_path / "o"),
        ])
        config = _config_from_args(args)
        assert config == v.EvalConfig(
            manifest="m.csv", representations=("Ep", "F_log"), h_max=2.5, seed=4, trials=6,
            exclude=2, f0="150", external_dir="ext", out_dir=str(tmp_path / "o"),
        )

    def test_missing_manifest_and_config_fails(self, tmp_path, capsys):
        assert run_cli("evaluate", "--out", tmp_path) != 0
        assert "error" in capsys.readouterr().err
