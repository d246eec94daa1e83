"""Compression, time averaging, and axis resampling."""
import numpy as np
import pytest

import vtlest as v
from vtlest.errors import ConfigurationError, DegenerateInputError, InputError
from vtlest.spectral import LOG_FLOOR_RATIO


@pytest.fixture
def small_axis():
    return v.make_axis("erb", 4, 100.0, 8000.0)


def sg_of(rows, axis, frame_period=0.01, **kw):
    return v.Spectrogram(np.asarray(rows, dtype=float), frame_period, axis, **kw)


class TestCompress:
    def test_log_of_ten_is_twenty_db(self, small_axis):
        sg = sg_of([[10.0, 10.0, 10.0, 10.0]], small_axis)
        out = v.compress(sg, "log")
        np.testing.assert_allclose(out.frames, 20.0)
        assert out.compression == v.LOG_COMPRESSION

    def test_power_half_of_four_is_two(self, small_axis):
        sg = sg_of([[4.0] * 4], small_axis)
        np.testing.assert_allclose(v.compress(sg, 0.5).frames, 2.0)

    def test_power_one_is_identity(self, small_axis):
        sg = sg_of([[0.0, 0.5, 2.0, 7.25]], small_axis)
        np.testing.assert_array_equal(v.compress(sg, 1.0).frames, sg.frames)

    def test_log_floor(self, small_axis):
        sg = sg_of([[0.0, 1.0, 1.0, 1.0]], small_axis)
        out = v.compress(sg, "log")
        assert out.frames[0, 0] == pytest.approx(20 * np.log10(LOG_FLOOR_RATIO))

    def test_all_zero_log_is_degenerate(self, small_axis):
        with pytest.raises(DegenerateInputError):
            v.compress(sg_of([[0.0] * 4], small_axis), "log")

    def test_double_compression_rejected(self, small_axis):
        once = v.compress(sg_of([[1.0] * 4], small_axis), 0.5)
        with pytest.raises(InputError):
            v.compress(once, "log")

    @pytest.mark.parametrize("bad", [0.25, 1.5, 0.0, -0.3])
    def test_exponent_restricted_to_tenths(self, small_axis, bad):
        with pytest.raises(ConfigurationError):
            v.compress(sg_of([[1.0] * 4], small_axis), bad)

    @pytest.mark.parametrize("mode", ["log", 0.3, 1.0])
    def test_monotone_per_element(self, small_axis, mode):
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.01, 10.0, size=(3, 4))
        hi = lo + rng.uniform(0.01, 5.0, size=(3, 4))
        a = v.compress(sg_of(lo, small_axis), mode).frames
        b = v.compress(sg_of(hi, small_axis), mode).frames
        assert (b >= a).all()

    def test_spectrum_supported_too(self, small_axis):
        s = v.Spectrum([1.0, 10.0, 100.0, 1000.0], small_axis)
        np.testing.assert_allclose(v.compress(s, "log").values, [0.0, 20.0, 40.0, 60.0])


class TestContainers:
    def test_length_mismatch_rejected(self, small_axis):
        with pytest.raises(InputError):
            v.Spectrum([1.0, 2.0], small_axis)

    def test_negative_uncompressed_rejected(self, small_axis):
        with pytest.raises(InputError):
            v.Spectrum([1.0, -0.1, 1.0, 1.0], small_axis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("compression", [v.NO_COMPRESSION, v.LOG_COMPRESSION], ids=str)
    def test_non_finite_rejected(self, small_axis, bad, compression):
        with pytest.raises(InputError, match="finite"):
            v.Spectrum([1.0, bad, 1.0, 1.0], small_axis, compression)
        with pytest.raises(InputError, match="finite"):
            sg_of([[1.0] * 4, [1.0, 1.0, bad, 1.0]], small_axis, compression=compression)

    def test_negative_db_values_fine(self, small_axis):
        s = v.Spectrum([-10.0, -20.0, 0.0, 5.0], small_axis, v.LOG_COMPRESSION)
        assert s.values.min() == -20.0

    def test_frame_times_default_origin(self, small_axis):
        sg = sg_of([[1.0] * 4, [2.0] * 4], small_axis)
        np.testing.assert_allclose(sg.frame_times, [0.005, 0.015])

    def test_frame_times_negative_origin_kept(self, small_axis):
        sg = sg_of([[1.0] * 4, [2.0] * 4], small_axis, t0=-0.0025)
        assert sg.t0 == -0.0025
        np.testing.assert_allclose(sg.frame_times, [-0.0025, 0.0075])


class TestCenterAverage:
    def test_constant_spectrogram(self, small_axis):
        sg = sg_of([[3.0, 1.0, 4.0, 1.5]] * 10, small_axis)
        out = v.center_average(sg, 0.05)
        np.testing.assert_allclose(out.values, [3.0, 1.0, 4.0, 1.5])

    def test_two_frame_window(self, small_axis):
        sg = sg_of([[1.0] * 4, [2.0] * 4, [4.0] * 4, [8.0] * 4], small_axis, frame_period=0.025)
        # centers: 12.5, 37.5, 62.5, 87.5 ms; 50 +- 25 ms selects exactly frames 1 and 2
        out = v.center_average(sg, 0.050)
        np.testing.assert_allclose(out.values, 3.0)

    def test_window_outside_span_rejected(self, small_axis):
        sg = sg_of([[1.0] * 4] * 4, small_axis)
        with pytest.raises(InputError):
            v.center_average(sg, 0.05)

    def test_stationary_vowel_window_matches_long_average(self):
        spec = v.vowel_spec("a", 120.0, 1.0)
        samples = v.synth_vowel(spec)
        ep = v.gammatone_ep(samples)
        windowed = v.center_average(ep, spec.duration / 2)
        # steady portion: skip the filters' startup transient
        steady = ep.frames[200:]
        long_avg = steady.mean(axis=0)
        np.testing.assert_allclose(windowed.values, long_avg, rtol=0.01)


class TestResample:
    def test_same_axis_identity(self, small_axis):
        s = v.Spectrum([1.0, 2.0, 3.0, 4.0], small_axis)
        np.testing.assert_allclose(v.resample_to_axis(s, small_axis).values, s.values)

    def test_exact_on_data_linear_in_source_coordinate(self):
        src = v.make_axis("log10", 50, 100.0, 8000.0)
        dst = v.make_axis("log10", 100, 150.0, 6000.0)
        values = 3.0 * np.log10(src.center_freqs) + 1.0
        out = v.resample_to_axis(v.Spectrum(values, src), dst)
        np.testing.assert_allclose(out.values, 3.0 * np.log10(dst.center_freqs) + 1.0, rtol=1e-12)

    def test_exact_on_linear_hz_data_from_fft_bins(self):
        from vtlest.axes import AxisKind, FrequencyAxis

        src = FrequencyAxis(AxisKind.LINEAR_HZ, 601, 0.0, 24000.0)
        dst = v.make_axis("log10", 100, 100.0, 8000.0)
        values = 0.002 * src.center_freqs + 1.0
        out = v.resample_to_axis(v.Spectrum(values, src), dst)
        np.testing.assert_allclose(out.values, 0.002 * dst.center_freqs + 1.0, rtol=1e-12)

    def test_mel_upsample_delta_peaks_at_matching_channel(self):
        src = v.make_axis("mel", 25, 100.0, 8000.0)
        dst = v.make_axis("mel", 100, 100.0, 8000.0)
        for k in (3, 12, 20):
            delta = np.zeros(25)
            delta[k] = 1.0
            out = v.resample_to_axis(v.Spectrum(delta, src), dst)
            expected = dst.nearest_channel(src.center_freq(k))
            assert abs(int(np.argmax(out.values)) - expected) <= 1
            # triangular profile: values decay away from the peak
            peak = int(np.argmax(out.values))
            left = out.values[max(peak - 4, 0) : peak + 1]
            right = out.values[peak : peak + 5]
            assert (np.diff(left) >= -1e-12).all()
            assert (np.diff(right) <= 1e-12).all()

    def test_range_not_covered_rejected(self):
        src = v.make_axis("log10", 50, 200.0, 4000.0)
        dst = v.make_axis("log10", 100, 100.0, 8000.0)
        with pytest.raises(InputError):
            v.resample_to_axis(v.Spectrum(np.ones(50), src), dst)
