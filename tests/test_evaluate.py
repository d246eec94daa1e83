"""Metrics, exclusion trials, weight sweeps, and config-driven runs."""
import json

import numpy as np
import pytest

import vtlest as v
from vtlest import fileio
from vtlest.errors import ConfigurationError, DegenerateInputError, InputError


class TestPearson:
    def test_affine_is_one(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert v.pearson_r(x, 2 * x + 1) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        x = np.array([1.0, 2.0, 5.0])
        assert v.pearson_r(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_example(self):
        assert v.pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            v.pearson_r([1.0, 2.0], [3.0, 4.0])

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateInputError):
            v.pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestRms:
    def test_equal_vectors(self):
        assert v.rms_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert v.rms_error([2.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_hand_computed(self):
        assert v.rms_error([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5355, abs=1e-4)
        assert v.rms_error([3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.sqrt(12.5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            v.rms_error([1.0], [1.0, 2.0])


class TestReports:
    def test_report_fields(self, pair_corpus):
        report = v.evaluate_representation(pair_corpus, "Ep_SSI", 3.5)
        assert report.representation_id == "Ep_SSI"
        assert report.n_points == 2
        assert report.rms_cm >= 0.0
        # two points per vowel: correlations are undefined, reported as NaN
        assert np.isnan(report.all_r)
        assert np.isnan(report.per_vowel_r["a"])

    def test_default_corpus_report(self, default_corpus):
        report = v.evaluate_representation(default_corpus, "Ep_SSI", 3.5)
        assert set(report.per_vowel_r) == set("aiueo")
        assert -1.0 <= report.all_r <= 1.0
        assert report.n_points == 40


class TestExclusionTrials:
    def test_seeded_determinism(self, default_corpus):
        a = v.exclusion_trials(default_corpus, "Ep_SSI", k=3, trials=5, seed=99)
        b = v.exclusion_trials(default_corpus, "Ep_SSI", k=3, trials=5, seed=99)
        assert a == b
        c = v.exclusion_trials(default_corpus, "Ep_SSI", k=3, trials=5, seed=100)
        assert [t.excluded for t in a.trials] != [t.excluded for t in c.trials]

    def test_k_zero_equals_full_corpus(self, default_corpus):
        full = v.evaluate_representation(default_corpus, "Ep_SSI", 3.5)
        trials = v.exclusion_trials(default_corpus, "Ep_SSI", k=0, trials=3, seed=0)
        for t in trials.trials:
            assert t.excluded == ()
            assert t.rms_cm == pytest.approx(full.rms_cm, rel=1e-12)
        assert trials.std_rms == 0.0

    def test_exact_corpus_gives_zero_rms(self, tmp_path):
        """Identical recordings with identical measured lengths estimate
        perfectly, so every trial's RMS is zero."""
        samples = v.synth_vowel(v.vowel_spec("e", 130.0))
        fileio.write_wav(tmp_path, "same.wav", samples, 48000.0)
        records = [
            fileio.UtteranceRecord(f"s{i}", "e", 130.0, 1.0, 16.0, "same.wav")
            for i in range(5)
        ]
        fileio.write_manifest(tmp_path, records)
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        trials = v.exclusion_trials(corpus, "Ep", k=1, trials=4, seed=1)
        assert all(t.rms_cm == 0.0 for t in trials.trials)

    def test_excluding_too_many_rejected(self, default_corpus):
        with pytest.raises(ConfigurationError):
            v.exclusion_trials(default_corpus, "Ep_SSI", k=7, trials=2, seed=0)

    def test_negative_seed_rejected(self, default_corpus):
        with pytest.raises(ConfigurationError, match="^seed must be at least 0, got -1$"):
            v.exclusion_trials(default_corpus, "Ep_SSI", k=2, trials=2, seed=-1)

    def test_zero_trials_rejected(self, pair_corpus):
        """Once returned no trials, whose mean RMS was NaN, with two numpy
        warnings; ``trials = 0`` of a configured run still means none."""
        with pytest.raises(ConfigurationError,
                           match="^trials must be at least 1 to run exclusion trials, got 0$"):
            v.exclusion_trials(pair_corpus, "F_log", k=1, trials=0, seed=0)

    def test_negative_trials_rejected(self, pair_corpus):
        """Once returned zero trials, whose mean RMS was NaN."""
        with pytest.raises(ConfigurationError, match="^trials must be at least 0, got -3$"):
            v.exclusion_trials(pair_corpus, "F_log", k=0, trials=-3, seed=0)


class TestHmaxSweep:
    def test_grid_size_and_zero_point(self, default_corpus):
        grid = (0.0, 3.5)
        reports = v.hmax_sweep(default_corpus, "Ep_SSI", grid)
        assert len(reports) == 2
        unweighted = v.evaluate_representation(default_corpus, "Ep", 3.5)
        assert reports[0].all_r == pytest.approx(unweighted.all_r, rel=1e-12)
        assert reports[0].rms_cm == pytest.approx(unweighted.rms_cm, rel=1e-12)

    def test_default_grid_has_13_points(self):
        from vtlest.evaluate import DEFAULT_HMAX_GRID

        assert len(DEFAULT_HMAX_GRID) == 13
        assert DEFAULT_HMAX_GRID[0] == 0.0 and DEFAULT_HMAX_GRID[-1] == 6.0


class TestConfigRuns:
    def test_config_json_round_trip(self, tmp_path):
        payload = {
            "manifest": "m.csv",
            "representations": ["Ep", "Ep_SSI"],
            "h_max": 3.0,
            "trials": 4,
            "exclude": 2,
            "seed": 7,
            "out_dir": str(tmp_path),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        config = v.EvalConfig.from_json(path)
        assert config.representations == ("Ep", "Ep_SSI")
        assert config.h_max == 3.0 and config.seed == 7

    @pytest.mark.parametrize("text", ['{"manifest": "m.csv",', '[]'])
    def test_malformed_config_names_file(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="cfg.json"):
            v.EvalConfig.from_json(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("trials", "ten"),
            ("trials", 2.5),
            ("seed", True),
            ("h_max", "x"),
            ("representations", "F_log"),
            ("representations", ["F_log", 3]),
            ("hmax_grid", [0.0, "1"]),
            ("manifest", 7),
            ("out_dir", None),
            ("f0", [150]),
            ("external_dir", 1),
        ],
    )
    def test_wrong_type_names_file_and_key(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"manifest": "m.csv", key: value}))
        with pytest.raises(ConfigurationError, match=f"cfg.json: '{key}' must be"):
            v.EvalConfig.from_json(path)

    def test_json_values_of_every_field_type_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "manifest": "m.csv", "representations": ["F_log"], "h_max": 3, "hmax_grid": [0, 1.5],
            "trials": 2, "exclude": 1, "seed": 3, "out_dir": "o", "f0": 150, "external_dir": None,
        }))
        assert v.EvalConfig.from_json(path) == v.EvalConfig(
            manifest="m.csv", representations=("F_log",), h_max=3, hmax_grid=(0.0, 1.5), trials=2,
            exclude=1, seed=3, out_dir="o", f0=150, external_dir=None,
        )

    def test_config_without_manifest_names_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 0}))
        with pytest.raises(ConfigurationError, match="cfg.json: the config has no 'manifest' key"):
            v.EvalConfig.from_json(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"manifest": "m.csv", "bogus": 1}))
        with pytest.raises(ConfigurationError):
            v.EvalConfig.from_json(path)

    def test_run_evaluation_outputs(self, pair_corpus_dir, tmp_path):
        config = v.EvalConfig(
            manifest=str(pair_corpus_dir / "manifest.csv"),
            representations=("Ep", "Ep_SSI"),
            trials=3,
            exclude=0,
            out_dir=str(tmp_path),
        )
        reports = v.run_evaluation(config)
        assert [r.representation_id for r in reports] == ["Ep", "Ep_SSI"]
        report_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(report_lines) == 3
        scatter_lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert len(scatter_lines) == 1 + 2 * 2
        trial_lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert len(trial_lines) == 1 + 3 * 2

    def test_run_evaluation_deterministic_bytes(self, pair_corpus_dir, tmp_path):
        outputs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            out.mkdir()
            config = v.EvalConfig(
                manifest=str(pair_corpus_dir / "manifest.csv"),
                representations=("Ep_SSI",),
                trials=2,
                exclude=0,
                seed=5,
                out_dir=str(out),
            )
            v.run_evaluation(config)
            outputs.append((out / "report.csv").read_bytes() + (out / "trials.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_run_sweep_checks_every_knee_first(self, pair_corpus_dir, tmp_path, monkeypatch):
        calls = []
        for name in ("gammatone_ep", "stft_spectrum"):
            monkeypatch.setattr(v.pipeline, name, lambda *a, **k: calls.append(a))
        config = v.EvalConfig(
            manifest=str(pair_corpus_dir / "manifest.csv"),
            representations=("Ep_SSI", "F_SSI_log"),
            hmax_grid=(3.5, -1.0),
            out_dir=str(tmp_path),
        )
        with pytest.raises(ConfigurationError, match="^h_max must be nonnegative and finite, got -1.0$"):
            v.run_sweep(config)
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_run_sweep_rows(self, pair_corpus_dir, tmp_path):
        config = v.EvalConfig(
            manifest=str(pair_corpus_dir / "manifest.csv"),
            representations=("Ep_SSI",),
            hmax_grid=(0.0, 2.0, 3.5),
            out_dir=str(tmp_path),
        )
        reports = v.run_sweep(config)
        assert len(reports) == 3
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
