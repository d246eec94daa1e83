"""Representation vocabulary and the corpus estimation pipeline."""
import numpy as np
import pytest

import vtlest as v
from vtlest import fileio
from vtlest.axes import AxisKind
from vtlest.errors import ConfigurationError, InputError
from vtlest.pipeline import DEFAULT_PARAMS


class TestRepresentationIds:
    @pytest.mark.parametrize(
        "rep_id,base,ssi,mode,exponent",
        [
            ("Ep", "Ep", False, "log", None),
            ("Ep_SSI", "Ep", True, "log", None),
            ("F_log", "F", False, "log", None),
            ("F_SSI_log", "F", True, "log", None),
            ("F_0.4", "F", False, "power", 0.4),
            ("M_SSI_0.4", "M", True, "power", 0.4),
            ("M_1.0", "M", False, "power", 1.0),
            ("W_log", "W", False, "log", None),
            ("W_SSI_0.1", "W", True, "power", 0.1),
        ],
    )
    def test_parse_and_format_round_trip(self, rep_id, base, ssi, mode, exponent):
        rep = v.parse_representation(rep_id)
        assert (rep.base, rep.ssi) == (base, ssi)
        assert rep.compression.mode == mode
        assert rep.compression.exponent == exponent
        assert rep.id == rep_id

    @pytest.mark.parametrize(
        "bad", ["X_log", "Ep_log", "F", "F_SSI", "F_0.25", "M_log_extra", "F_2.0"]
    )
    def test_bad_ids_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            v.parse_representation(bad)

    def test_catalog_contents(self):
        ids = v.representation_catalog()
        assert len(ids) == len(set(ids)) == 46
        assert {"Ep", "Ep_SSI", "F_log", "F_SSI_log", "M_log", "M_SSI_log"} <= set(ids)
        for p in range(1, 11):
            assert f"F_{p/10:.1f}" in ids
            assert f"M_SSI_{p/10:.1f}" in ids
        assert not any(i.startswith("W") for i in ids)
        with_w = v.representation_catalog(include_external=True)
        assert len(with_w) == 46 + 22
        assert "W_SSI_log" in with_w
        for rep_id in with_w:
            assert v.parse_representation(rep_id).id == rep_id


@pytest.fixture(scope="module")
def analyzer():
    samples = v.synth_vowel(v.vowel_spec("a", 182.0, 16.0 / 15.0))
    return v.UtteranceAnalyzer(samples, 48000.0)


class TestUtteranceAnalyzer:
    def test_ep_spectrum_grid_and_tag(self, analyzer):
        s = analyzer.base_spectrum(v.parse_representation("Ep"))
        assert s.axis.kind is AxisKind.ERB_LINEAR
        assert s.axis.channels == 100
        assert s.compression == v.LOG_COMPRESSION

    def test_fourier_spectrum_grid(self, analyzer):
        s = analyzer.base_spectrum(v.parse_representation("F_log"))
        assert s.axis.kind is AxisKind.LOG10_HZ
        assert s.axis.channels == 100

    def test_mel_power_spectrum_grid(self, analyzer):
        s = analyzer.base_spectrum(v.parse_representation("M_0.4"))
        assert s.axis.kind is AxisKind.MEL_LINEAR
        assert s.axis.channels == 100
        assert s.compression.exponent == 0.4

    def test_f0_estimated_once(self, analyzer):
        assert analyzer.f0 == pytest.approx(182.0, abs=4.0)

    def test_hmax_zero_is_unweighted(self, analyzer):
        rep = v.parse_representation("Ep_SSI")
        unweighted = analyzer.base_spectrum(v.parse_representation("Ep"))
        weighted_off = analyzer.spectrum(rep, h_max=0.0)
        np.testing.assert_array_equal(weighted_off.values, unweighted.values)
        weighted_on = analyzer.spectrum(rep, h_max=3.5)
        assert not np.array_equal(weighted_on.values, unweighted.values)

    def test_weighting_suppresses_low_channels(self, analyzer):
        rep_w = v.parse_representation("Ep_SSI")
        rep_u = v.parse_representation("Ep")
        w = analyzer.spectrum(rep_w, 3.5).values
        u = analyzer.spectrum(rep_u).values
        u_shifted = u - u.min()
        low = slice(0, 10)
        assert (w[low] < u_shifted[low]).all()

    def test_determinism(self):
        samples = v.synth_vowel(v.vowel_spec("u", 140.0))
        a = v.UtteranceAnalyzer(samples, 48000.0).spectrum(v.parse_representation("Ep_SSI"))
        b = v.UtteranceAnalyzer(samples, 48000.0).spectrum(v.parse_representation("Ep_SSI"))
        assert a.values.tobytes() == b.values.tobytes()

    def test_w_without_external_data_rejected(self, analyzer):
        with pytest.raises(InputError):
            analyzer.base_spectrum(v.parse_representation("W_log"))


class TestEpWindowCut:
    """Ep filters the input only up to the averaging window end."""

    @pytest.mark.parametrize(
        "n_samples",
        [
            24000,  # window end 275 ms, on a frame boundary
            24007,  # window end between frame boundaries
            2400,   # window end at the last sample
        ],
    )
    def test_identical_to_full_signal_average(self, n_samples):
        samples = v.synth_vowel(v.vowel_spec("e", 150.0, duration=0.6))[:n_samples]
        p = DEFAULT_PARAMS
        full = v.gammatone_ep(samples, p.fs, p.axis_for("Ep"), p.ep_frame_period)
        center = n_samples / p.fs / 2.0
        expected = v.compress(v.center_average(full, center, p.avg_half_width), "log")
        got = v.UtteranceAnalyzer(samples, p.fs).base_spectrum(v.parse_representation("Ep"))
        assert got.values.tobytes() == expected.values.tobytes()

    def test_samples_after_window_end_are_not_read(self):
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        rep = v.parse_representation("Ep")
        clean = v.UtteranceAnalyzer(samples, 48000.0).base_spectrum(rep)
        tail = samples.copy()
        tail[13200:] = np.nan  # the 0.5 s window ends at 275 ms
        cut = v.UtteranceAnalyzer(tail, 48000.0).base_spectrum(rep)
        assert cut.values.tobytes() == clean.values.tobytes()


class TestAnalyzeWav:
    def test_spectrum_from_file(self, pair_corpus_dir):
        s = v.analyze_wav(pair_corpus_dir / "s01_a.wav", "Ep_SSI")
        assert s.axis.channels == 100
        assert s.values.min() >= 0.0  # baseline-shifted and weighted

    def test_f0_override_matches_auto_here(self, pair_corpus_dir):
        auto = v.analyze_wav(pair_corpus_dir / "s01_a.wav", "Ep_SSI")
        fixed = v.analyze_wav(pair_corpus_dir / "s01_a.wav", "Ep_SSI", f0_override=182.0)
        assert v.xcorr_shift(auto, fixed) == pytest.approx(0.0, abs=0.5)


class TestCorpusEstimation:
    def test_identical_speakers_give_zero_shifts(self, tmp_path):
        samples = v.synth_vowel(v.vowel_spec("a", 150.0))
        fileio.write_wav(tmp_path, "same.wav", samples, 48000.0)
        records = [
            fileio.UtteranceRecord(f"s{i}", "a", 150.0, 1.0, 16.0, "same.wav")
            for i in range(4)
        ]
        fileio.write_manifest(tmp_path, records)
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        result = corpus.estimate("Ep_SSI")
        assert all(r.shift == 0.0 for r in result.rows)
        assert result.q == 0.0
        assert all(r.l_est_cm == pytest.approx(16.0) for r in result.rows)

    def test_row_count_and_grouping(self, default_corpus):
        result = default_corpus.estimate("Ep_SSI", 3.5)
        assert len(result.rows) == 40
        assert result.vowels() == ["a", "i", "u", "e", "o"]
        assert len(result.speaker_mean_lengths()) == 8

    def test_relative_shift_sum_zero_per_vowel(self, default_corpus):
        result = default_corpus.estimate("Ep_SSI", 3.5)
        for vowel in result.vowels():
            s = sum(r.shift for r in result.rows if r.vowel == vowel)
            assert abs(s) < 1e-9

    def test_subset_equals_fresh_estimation(self, default_corpus, default_corpus_dir):
        subset_ids = default_corpus.speakers[2:6]
        via_subset = default_corpus.estimate("Ep_SSI", 3.5, speakers=subset_ids)
        records = [
            r for r in fileio.read_manifest(default_corpus_dir / "manifest.csv")
            if r.speaker_id in set(subset_ids)
        ]
        fresh = v.CorpusAnalyzer(records).estimate("Ep_SSI", 3.5)
        np.testing.assert_allclose(via_subset.shifts(), fresh.shifts(), atol=1e-12)
        assert via_subset.q == pytest.approx(fresh.q, abs=1e-9)

    def test_duplicate_utterance_rejected(self):
        records = [
            fileio.UtteranceRecord("s1", "a", 100.0, 1.0, 16.0, "x.wav"),
            fileio.UtteranceRecord("s1", "a", 100.0, 1.0, 16.0, "y.wav"),
        ]
        with pytest.raises(InputError, match="duplicate"):
            v.CorpusAnalyzer(records)

    def test_inconsistent_speaker_length_rejected(self):
        records = [
            fileio.UtteranceRecord("s1", "a", 100.0, 1.0, 16.0, "x.wav"),
            fileio.UtteranceRecord("s1", "i", 100.0, 1.0, 17.0, "y.wav"),
        ]
        with pytest.raises(InputError, match="inconsistent"):
            v.CorpusAnalyzer(records)

    def test_single_speaker_rejected(self, default_corpus):
        with pytest.raises(InputError):
            default_corpus.estimate("Ep", speakers=default_corpus.speakers[:1])


class TestExternalSpectra:
    def test_w_representation_from_csv_dir(self, pair_corpus_dir, tmp_path):
        """Externally supplied spectrograms drive the W_* path end to end."""
        records = fileio.read_manifest(pair_corpus_dir / "manifest.csv")
        ext = tmp_path / "external"
        ext.mkdir()
        for rec in records:
            samples, fs = v.read_audio(rec.path)
            sg = v.stft_spectrum(samples, fs)
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", sg)
        corpus = v.CorpusAnalyzer(records, external_dir=ext)
        result = corpus.estimate("W_log", 3.5)
        assert len(result.rows) == 2
        fourier = v.CorpusAnalyzer(records).estimate("F_log", 3.5)
        np.testing.assert_allclose(result.shifts(), fourier.shifts(), atol=0.11)

    def test_compressed_external_rejected(self, pair_corpus_dir, tmp_path):
        records = fileio.read_manifest(pair_corpus_dir / "manifest.csv")
        ext = tmp_path / "external"
        ext.mkdir()
        for rec in records:
            samples, fs = v.read_audio(rec.path)
            sg = v.compress(v.stft_spectrum(samples, fs), "log")
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", sg)
        corpus = v.CorpusAnalyzer(records, external_dir=ext)
        with pytest.raises(InputError, match="uncompressed"):
            corpus.estimate("W_log", 3.5)


def test_default_params_match_canonical_settings():
    p = DEFAULT_PARAMS
    assert (p.channels, p.f_lo, p.f_hi) == (100, 100.0, 8000.0)
    assert p.fs == 48000.0
    assert p.ep_frame_period == 0.0005
    assert p.avg_half_width == 0.025
    assert (p.stft_window, p.stft_hop) == (0.025, 0.005)
    assert p.mel_filters == 25
    assert p.h_max == 3.5
    assert p.interp == 10
    assert p.max_lag == 30
