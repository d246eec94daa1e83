"""Frequency scale conversions and channel grid invariants."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

import vtlest as v
from vtlest.errors import ConfigurationError, DomainError


class TestErbScale:
    def test_zero_hz_is_zero(self):
        assert v.hz_to_erbn(0.0) == 0.0

    def test_spot_value_1khz(self):
        assert v.hz_to_erbn(1000.0) == pytest.approx(15.62, abs=0.01)
        assert v.hz_to_erbn(1000.0) == pytest.approx(21.4 * np.log10(5.37), rel=1e-12)

    def test_round_trip_8khz(self):
        assert v.erbn_to_hz(v.hz_to_erbn(8000.0)) == pytest.approx(8000.0, rel=1e-6)

    @given(st.floats(min_value=0.0, max_value=24000.0))
    def test_round_trip_everywhere(self, f):
        assert v.erbn_to_hz(v.hz_to_erbn(f)) == pytest.approx(f, rel=1e-9, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=23999.0))
    def test_monotone(self, f):
        assert v.hz_to_erbn(f + 1.0) > v.hz_to_erbn(f)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            v.hz_to_erbn(-1.0)
        with pytest.raises(DomainError):
            v.erbn_to_hz(-0.5)

    def test_vectorized(self):
        f = np.array([100.0, 1000.0, 8000.0])
        np.testing.assert_allclose(v.erbn_to_hz(v.hz_to_erbn(f)), f, rtol=1e-12)

    def test_bandwidth_formula(self):
        assert v.erb_bandwidth(1000.0) == pytest.approx(24.7 * (0.00437 * 1000 + 1), rel=1e-12)


class TestMelScale:
    def test_1khz_is_about_1000_mel(self):
        assert v.hz_to_mel(1000.0) == pytest.approx(1000.0, abs=0.1)
        assert v.hz_to_mel(1000.0) == pytest.approx(2595 * np.log10(1 + 1000 / 700), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=24000.0))
    def test_round_trip(self, f):
        assert v.mel_to_hz(v.hz_to_mel(f)) == pytest.approx(f, rel=1e-9, abs=1e-9)


class TestMakeAxis:
    @pytest.mark.parametrize("kind", ["erb", "log10", "mel"])
    def test_endpoints(self, kind):
        axis = v.make_axis(kind, 100, 100.0, 8000.0)
        assert axis.center_freq(0) == pytest.approx(100.0, rel=1e-6)
        assert axis.center_freq(99) == pytest.approx(8000.0, rel=1e-6)

    @pytest.mark.parametrize("kind", ["erb", "log10", "mel", "hz"])
    def test_strictly_increasing(self, kind):
        axis = v.make_axis(kind, 100, 100.0, 8000.0)
        assert (np.diff(axis.center_freqs) > 0).all()

    @pytest.mark.parametrize("kind", ["erb", "log10", "mel", "hz"])
    def test_uniform_native_spacing(self, kind):
        axis = v.make_axis(kind, 100, 100.0, 8000.0)
        coords = axis.to_coord(axis.center_freqs)
        steps = np.diff(coords)
        assert np.abs(steps - steps.mean()).max() < 1e-9 * abs(steps.mean())

    def test_erb_channel_spacing(self, erb_axis):
        expected = (v.hz_to_erbn(8000.0) - v.hz_to_erbn(100.0)) / 99
        assert erb_axis.step == pytest.approx(expected, rel=1e-12)
        assert erb_axis.step == pytest.approx(0.302, abs=0.001)

    def test_invalid_configurations(self):
        with pytest.raises(ConfigurationError):
            v.make_axis("erb", 1, 100.0, 8000.0)
        with pytest.raises(ConfigurationError):
            v.make_axis("erb", 100, 0.0, 8000.0)
        with pytest.raises(ConfigurationError):
            v.make_axis("erb", 100, 8000.0, 100.0)
        with pytest.raises(ConfigurationError):
            v.make_axis("bark", 100, 100.0, 8000.0)

    def test_axes_hashable_and_equal(self):
        a = v.make_axis("erb", 100, 100.0, 8000.0)
        b = v.make_axis("erb", 100, 100.0, 8000.0)
        assert a == b and hash(a) == hash(b)
