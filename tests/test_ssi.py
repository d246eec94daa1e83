"""Pitch-adaptive weighting and F0 estimation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vtlest as v
from vtlest.errors import ConfigurationError, InputError
from vtlest.ssi import F0_SEARCH_HI_HZ, F0_SEARCH_LO_HZ, F0_WINDOW_S, UNVOICED, VOICING_THRESHOLD

FS = 48000.0


def full_acf_f0(signal, fs):
    """The F0 search as it was: every lag of the full autocorrelation of the
    centre frame, of which the searched ones are kept."""
    x = np.asarray(signal, dtype=float)
    win = int(round(F0_WINDOW_S * fs))
    start = (x.size - win) // 2
    frame = x[start:start + win]
    frame = frame - frame.mean()
    r0 = float(frame @ frame)
    if r0 <= 0.0:
        return UNVOICED
    lag_lo = max(1, int(np.ceil(fs / F0_SEARCH_HI_HZ)))
    lag_hi = min(win - 1, int(np.floor(fs / F0_SEARCH_LO_HZ)))
    acf = np.correlate(frame, frame, mode="full")[win - 1 + lag_lo:win + lag_hi]
    peak = int(np.argmax(acf))
    if acf[peak] / r0 < VOICING_THRESHOLD:
        return UNVOICED
    return fs / (lag_lo + peak)


@pytest.fixture(scope="module")
def crowd_dir(tmp_path_factory):
    """The benchmark's 32-speaker crowd at 44.1 kHz (``bench/workloads.py``)."""
    alphas = np.random.default_rng(0).uniform(0.80, 1.25, 32)
    speakers = [(100.0 + 120.0 * (a - 0.80) / 0.45, a) for a in alphas]
    out = tmp_path_factory.mktemp("crowd")
    v.make_corpus(speakers, list("aiueo"), out, fs=44100.0)
    return out


class TestSsiWeight:
    def test_boundary_and_half(self):
        # two channels placed exactly at the half-knee and knee frequencies
        axis = v.make_axis("hz", 2, 318.5, 637.0)
        w = v.ssi_weight(axis, 3.5, 182.0)
        np.testing.assert_allclose(w, [0.5, 1.0], rtol=1e-12)

    def test_unvoiced_gives_all_ones(self, erb_axis):
        w = v.ssi_weight(erb_axis, 3.5, UNVOICED)
        np.testing.assert_array_equal(w, 1.0)

    def test_formula_against_centers(self, erb_axis):
        w = v.ssi_weight(erb_axis, 3.5, 182.0)
        expected = np.minimum(erb_axis.center_freqs / (3.5 * 182.0), 1.0)
        np.testing.assert_allclose(w, expected, rtol=1e-12)

    @given(
        h_max=st.floats(min_value=0.1, max_value=10.0),
        f0=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_bounds_and_monotonicity(self, h_max, f0):
        axis = v.make_axis("erb", 100, 100.0, 8000.0)
        w = v.ssi_weight(axis, h_max, f0)
        assert (w >= 0.0).all() and (w <= 1.0).all()
        assert (np.diff(w) >= -1e-15).all()

    @given(h_max=st.floats(min_value=0.5, max_value=8.0))
    def test_saturation_exactly_at_knee(self, h_max):
        axis = v.make_axis("erb", 100, 100.0, 8000.0)
        f0 = 182.0
        w = v.ssi_weight(axis, h_max, f0)
        knee = h_max * f0
        above = axis.center_freqs >= knee
        assert (w[above] == 1.0).all()
        assert (w[~above] < 1.0).all()

    def test_nonincreasing_in_f0_and_hmax(self, erb_axis):
        w_lo = v.ssi_weight(erb_axis, 3.5, 101.0)
        w_hi = v.ssi_weight(erb_axis, 3.5, 182.0)
        assert (w_hi <= w_lo + 1e-15).all()
        w_k35 = v.ssi_weight(erb_axis, 3.5, 182.0)
        w_k50 = v.ssi_weight(erb_axis, 5.0, 182.0)
        assert (w_k50 <= w_k35 + 1e-15).all()

    def test_invalid_params(self, erb_axis):
        with pytest.raises(ConfigurationError):
            v.ssi_weight(erb_axis, 0.0, 100.0)
        with pytest.raises(ConfigurationError):
            v.ssi_weight(erb_axis, 3.5, -1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_knee_or_pitch_rejected(self, erb_axis, bad):
        with pytest.raises(ConfigurationError, match="h_max must be positive and finite"):
            v.ssi_weight(erb_axis, bad, 100.0)
        with pytest.raises(ConfigurationError, match="f0 must be nonnegative and finite"):
            v.ssi_weight(erb_axis, 3.5, bad)


class TestApplyWeight:
    def test_all_ones_leaves_zero_floored_spectrum_unchanged(self, erb_axis):
        values = np.abs(np.sin(np.arange(100)))
        values[7] = 0.0  # floor touches zero, so the baseline shift is a no-op
        s = v.Spectrum(values, erb_axis)
        out = v.apply_weight(s, np.ones(100))
        np.testing.assert_array_equal(out.values, values)

    def test_all_zeros_gives_floor(self, erb_axis):
        s = v.Spectrum(np.arange(100.0), erb_axis)
        out = v.apply_weight(s, np.zeros(100))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_db_spectrum_shifted_before_weighting(self, erb_axis):
        values = np.linspace(-60.0, 0.0, 100)
        s = v.Spectrum(values, erb_axis, v.LOG_COMPRESSION)
        w = np.full(100, 0.5)
        out = v.apply_weight(s, w)
        np.testing.assert_allclose(out.values, (values + 60.0) * 0.5)
        assert out.compression == v.LOG_COMPRESSION
        assert out.axis == s.axis

    def test_suppression_factor_at_first_harmonic(self, female_vowel, erb_axis):
        _, _, spectrum = female_vowel
        w = v.ssi_weight(erb_axis, 3.5, 182.0)
        out = v.apply_weight(spectrum, w)
        c = int(np.argmin(np.abs(erb_axis.to_coord(erb_axis.center_freqs) - erb_axis.to_coord(182.0))))
        shifted = spectrum.values - spectrum.values.min()
        assert out.values[c] == pytest.approx(shifted[c] * w[c], rel=1e-12)
        assert w[c] == pytest.approx(0.286, abs=0.01)

    def test_length_mismatch_rejected(self, erb_axis):
        s = v.Spectrum(np.ones(100), erb_axis)
        with pytest.raises(InputError):
            v.apply_weight(s, np.ones(99))


class TestEstimateF0:
    def test_pulse_train_through_resonator(self):
        from scipy.signal import lfilter

        n = int(0.5 * FS)
        x = np.zeros(n)
        x[(np.round(np.arange(0, 0.5 * 101.0) * FS / 101.0)).astype(int)] = 1.0
        r = np.exp(-np.pi * 80.0 / FS)
        theta = 2 * np.pi * 700.0 / FS
        x = lfilter([1.0], [1.0, -2 * r * np.cos(theta), r * r], x)
        assert v.estimate_f0(x) == pytest.approx(101.0, abs=2.0)

    def test_digital_silence_is_unvoiced(self):
        assert v.estimate_f0(np.zeros(int(0.2 * FS))) == UNVOICED

    def test_white_noise_is_unvoiced(self):
        rng = np.random.default_rng(7)
        assert v.estimate_f0(rng.normal(size=int(0.5 * FS))) == UNVOICED

    def test_synthetic_vowel_round_trip(self):
        x = v.synth_vowel(v.vowel_spec("a", 182.0, 1.0))
        assert v.estimate_f0(x) == pytest.approx(182.0, abs=4.0)

    def test_short_signal_rejected(self):
        with pytest.raises(InputError):
            v.estimate_f0(np.ones(100))

    @pytest.mark.filterwarnings("ignore:resampling input")  # the crowd is at 44.1 kHz
    @pytest.mark.parametrize("corpus", ["default_corpus_dir", "crowd_dir"])
    def test_searched_lags_match_the_full_autocorrelation(self, corpus, request):
        """Computing only the searched lags changes the autocorrelation by
        round-off, and F0 not at all, on every ladder and crowd utterance;
        each analyzer estimates it on the centre 50 ms of the resampled cut
        it holds, whatever its base."""
        records = v.read_manifest(request.getfixturevalue(corpus) / "manifest.csv")
        assert len(records) in (40, 160)
        for rec in records:
            samples, fs = v.read_audio(rec.path)
            resampled = v.fileio.ensure_rate(samples, fs)
            expected = full_acf_f0(resampled, FS)
            assert expected != UNVOICED
            assert v.estimate_f0(resampled) == expected
            for base in ("Ep", "F", "W"):
                assert v.UtteranceAnalyzer(samples, fs, base=base).f0 == expected

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_searched_lags_match_on_noisy_pulse_trains(self, seed, noise):
        rng = np.random.default_rng(seed)
        x = noise * rng.normal(size=int(0.06 * FS))
        x[::int(rng.integers(120, 800))] += 1.0
        assert v.estimate_f0(x) == full_acf_f0(x, FS)

    @pytest.mark.parametrize(
        "plus,minus,scale",
        [
            # the direct autocorrelation peaks at lags 298, 357 and 655 alike
            pytest.param([537, 835, 1192], [470, 768, 1125], 1.1, id="three-way-tie"),
            # its peak is exactly VOICING_THRESHOLD times the energy
            pytest.param([104, 359, 1507, 1624, 1879], [253, 1222, 1831, 2019, 2274], 1.0,
                         id="peak-at-threshold"),
        ],
    )
    def test_fft_round_off_neither_splits_a_tie_nor_crosses_the_threshold(self, plus, minus, scale):
        """Zero-mean pulse frames whose searched autocorrelation is exact:
        the FFT alone puts the tie's peak at lag 655 and the threshold
        peak 8.9e-16 below 3.0 (unvoiced)."""
        x = np.zeros(int(F0_WINDOW_S * FS))
        x[plus], x[minus] = scale, -scale
        acf = np.correlate(x, x, mode="full")[x.size + 119:x.size + 800]  # lags 120-800
        assert (acf == acf.max()).sum() > 1 or acf.max() / (x @ x) == VOICING_THRESHOLD
        expected = full_acf_f0(x, FS)
        assert expected != UNVOICED
        assert v.estimate_f0(x) == expected

    def test_analyzer_f0_of_a_short_vowel_rejected(self):
        analyzer = v.UtteranceAnalyzer(v.synth_vowel(v.vowel_spec("a", 150.0))[:2399], FS, base="W")
        with pytest.raises(InputError, match=r"need at least 50 ms of signal \(2400 samples\)"):
            analyzer.f0

    def test_voicing_threshold_constant(self):
        assert VOICING_THRESHOLD == 0.3


class TestF0Robustness:
    def test_weighted_shift_insensitive_to_f0_error(self, pair_corpus):
        """A +-10% pitch error moves the aligned peak by under half a channel."""
        rep = v.parse_representation("Ep_SSI")
        base = {}
        for scale in (1.0, 0.9, 1.1):
            analyzers = []
            for rec in pair_corpus.records:
                samples, fs = v.read_audio(rec.path)
                analyzers.append(
                    v.UtteranceAnalyzer(samples, fs, base="Ep", f0_override=rec.f0_hz * scale)
                )
            a = analyzers[0].spectrum(rep, 3.5)
            b = analyzers[1].spectrum(rep, 3.5)
            base[scale] = v.xcorr_shift(a, b)
        assert abs(base[0.9] - base[1.0]) < 0.5
        assert abs(base[1.1] - base[1.0]) < 0.5
