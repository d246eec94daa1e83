"""Cross-correlation alignment, shift matrices, and length conversion."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vtlest as v
from vtlest.errors import (
    ConfigurationError,
    DegenerateFitError,
    DegenerateInputError,
    InputError,
)
from vtlest.shifts import Q_SEARCH_RANGE

AXIS = v.make_axis("erb", 100, 100.0, 8000.0)


def bumps(positions, heights=None, width=3.0, n=100):
    """Compactly supported multi-bump template on the channel index grid."""
    idx = np.arange(n, dtype=float)
    out = np.zeros(n)
    heights = heights or [1.0] * len(positions)
    for p, h in zip(positions, heights):
        out += h * np.exp(-0.5 * ((idx - p) / width) ** 2)
    out[np.abs(idx[:, None] - np.asarray(positions)).min(axis=1) > 12] = 0.0
    return out


def spectrum_at(offset, **kw):
    return v.Spectrum(bumps([40 + offset, 58 + offset], heights=[1.0, 0.6], **kw), AXIS)


class TestXcorrShift:
    def test_identical_is_zero(self):
        a = spectrum_at(0)
        assert v.xcorr_shift(a, a) == 0.0

    def test_integer_shift_recovered(self):
        assert v.xcorr_shift(spectrum_at(0), spectrum_at(3)) == pytest.approx(3.0)
        assert v.xcorr_shift(spectrum_at(0), spectrum_at(-5)) == pytest.approx(-5.0)

    def test_sign_convention(self):
        # b's features at higher channels than a's -> positive
        assert v.xcorr_shift(spectrum_at(0), spectrum_at(2)) > 0

    def test_half_channel_shift(self):
        a = spectrum_at(0.0)
        b = spectrum_at(0.5)
        assert v.xcorr_shift(a, b) == pytest.approx(0.5, abs=0.1)

    def test_scale_invariance(self):
        a, b = spectrum_at(0), spectrum_at(4)
        scaled = v.Spectrum(b.values * 2.7, AXIS)
        assert v.xcorr_shift(a, b) == v.xcorr_shift(a, scaled)

    def test_flat_spectrum_degenerate(self):
        flat = v.Spectrum(np.full(100, 3.3), AXIS)
        with pytest.raises(DegenerateInputError):
            v.xcorr_shift(flat, spectrum_at(0))

    def test_axis_mismatch_rejected(self):
        other = v.Spectrum(bumps([40, 58]), v.make_axis("log10", 100, 100.0, 8000.0))
        with pytest.raises(InputError):
            v.xcorr_shift(spectrum_at(0), other)

    def test_max_lag_bound(self):
        with pytest.raises(ConfigurationError):
            v.xcorr_shift(spectrum_at(0), spectrum_at(1), max_lag=40)

    def test_tie_breaks_prefer_small_then_negative_lag(self):
        single = np.zeros(100)
        single[50] = 1.0
        double = np.zeros(100)
        double[47] = double[53] = 1.0
        a = v.Spectrum(single, AXIS)
        assert v.xcorr_shift(a, v.Spectrum(double, AXIS)) == -3.0
        triple = double.copy()
        triple[50] = 1.0
        assert v.xcorr_shift(a, v.Spectrum(triple, AXIS)) == 0.0

    def test_resolution_is_tenth_channel(self):
        shift = v.xcorr_shift(spectrum_at(0), spectrum_at(1.24))
        assert shift * 10 == pytest.approx(round(shift * 10))


class TestShiftMatrix:
    def test_identical_spectra_zero_matrix(self):
        m = v.build_shift_matrix([spectrum_at(0)] * 4)
        assert (m.values == 0).all()

    def test_two_spectra(self):
        d = v.xcorr_shift(spectrum_at(0), spectrum_at(3))
        m = v.build_shift_matrix([spectrum_at(0), spectrum_at(3)])
        np.testing.assert_array_equal(m.values, [[0.0, d], [-d, 0.0]])

    def test_shift_composition(self):
        m = v.build_shift_matrix([spectrum_at(0), spectrum_at(2), spectrum_at(5)])
        assert m.values[0, 1] == pytest.approx(2.0)
        assert m.values[0, 2] == pytest.approx(5.0)
        assert m.values[1, 2] == pytest.approx(3.0)

    def test_antisymmetry_exact(self, female_vowel):
        rng = np.random.default_rng(3)
        specs = [spectrum_at(o) for o in rng.uniform(-8, 8, size=5)]
        m = v.build_shift_matrix(specs)
        assert (m.values == -m.values.T).all()
        assert (np.diag(m.values) == 0).all()

    def test_error_names_offending_pair(self):
        flat = v.Spectrum(np.zeros(100), AXIS)
        with pytest.raises(DegenerateInputError, match=r"pair \(0, 2\)"):
            v.build_shift_matrix([spectrum_at(0), spectrum_at(1), flat])

    def test_too_few_spectra(self):
        with pytest.raises(InputError):
            v.build_shift_matrix([spectrum_at(0)])

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(InputError):
            v.ShiftMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def random_antisymmetric(rng, n):
    c = rng.uniform(-10, 10, size=(n, n))
    c = np.triu(c, 1)
    return v.ShiftMatrix(c - c.T)


def pinv_oracle(matrix):
    """Least-squares solution of {x_j - x_i = c_ij, sum(x) = 0}."""
    c = matrix.values
    n = matrix.n
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            row = np.zeros(n)
            row[j], row[i] = 1.0, -1.0
            rows.append(row)
            rhs.append(c[i, j])
    rows.append(np.ones(n))
    rhs.append(0.0)
    return np.linalg.pinv(np.asarray(rows)) @ np.asarray(rhs)


class TestRelativeShifts:
    def test_zero_matrix(self):
        m = v.ShiftMatrix(np.zeros((4, 4)))
        np.testing.assert_array_equal(v.relative_shifts(m), 0.0)

    def test_two_speakers(self):
        d = 3.4
        m = v.ShiftMatrix(np.array([[0.0, d], [-d, 0.0]]))
        np.testing.assert_allclose(v.relative_shifts(m), [-d / 2, d / 2])

    def test_three_speaker_construction(self):
        m = v.build_shift_matrix([spectrum_at(0), spectrum_at(2), spectrum_at(5)])
        s = v.relative_shifts(m)
        np.testing.assert_allclose(s, [-7 / 3, -1 / 3, 8 / 3], atol=1e-9)

    def test_sum_is_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_antisymmetric(rng, int(rng.integers(2, 9)))
            assert abs(v.relative_shifts(m).sum()) < 1e-9

    def test_matches_generalized_inverse_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(120):
            m = random_antisymmetric(rng, int(rng.integers(2, 6)))
            np.testing.assert_allclose(
                v.relative_shifts(m), pinv_oracle(m), atol=1e-9
            )

    def test_translation_equivariance(self):
        for k in (-4, 2, 7):
            base = [spectrum_at(0), spectrum_at(2), spectrum_at(5)]
            moved = [spectrum_at(0 + k), spectrum_at(2 + k), spectrum_at(5 + k)]
            s0 = v.relative_shifts(v.build_shift_matrix(base))
            s1 = v.relative_shifts(v.build_shift_matrix(moved))
            np.testing.assert_allclose(s0, s1, atol=1e-9)


class TestFitQ:
    def test_recovers_exact_model(self):
        s = np.array([-3.0, -1.0, 0.5, 3.5])
        l_bar = 16.0
        measured = l_bar * np.exp(0.2 * s)
        assert v.fit_q(s, measured, l_bar) == pytest.approx(0.2, abs=1e-4)

    def test_recovers_negative_q(self):
        s = np.array([-5.0, 0.0, 2.0, 3.0])
        measured = 15.5 * np.exp(-0.044 * s)
        assert v.fit_q(s, measured, 15.5) == pytest.approx(-0.044, abs=1e-4)

    def test_identical_shifts_degenerate(self):
        with pytest.raises(DegenerateFitError):
            v.fit_q(np.zeros(5), np.full(5, 16.0), 16.0)

    def test_optimum_on_search_bound_rejected(self):
        s = np.array([-0.1, 0.0, 0.0, 0.0, 0.1])
        measured = np.array([16.0, 16.0, 16.0, 16.0, 40.0])
        with pytest.raises(DegenerateFitError, match="search bound"):
            v.fit_q(s, measured, float(measured.mean()))

    def test_nonpositive_lengths_rejected(self):
        with pytest.raises(InputError):
            v.fit_q(np.array([-1.0, 1.0]), np.array([16.0, -2.0]), 16.0)

    @given(q_true=st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_refinement_precision(self, q_true):
        s = np.array([-4.0, -1.0, 1.0, 4.0])
        measured = 16.0 * np.exp(q_true * s)
        assert v.fit_q(s, measured, 16.0) == pytest.approx(q_true, abs=1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_off_model_matches_dense_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-4.0, 4.0, 8)
        q_true = rng.uniform(-0.3, 0.3)
        measured = 16.0 * np.exp(q_true * s) + rng.normal(0.0, 0.8, s.size)
        l_bar = float(measured.mean())

        def sq_err(q):
            return ((l_bar * np.exp(np.outer(q, s)) - measured) ** 2).sum(axis=1)

        # the coarse grid brackets the global optimum; a 1e-7 grid locates it
        coarse = np.linspace(*Q_SEARCH_RANGE, 401)
        best = int(np.argmin(sq_err(coarse)))
        dense = np.arange(coarse[best - 1], coarse[best + 1], 1e-7)
        oracle = dense[np.argmin(sq_err(dense))]
        assert abs(v.fit_q(s, measured, l_bar) - oracle) <= 1e-6


class TestEstimateVtl:
    def test_zero_shift_gives_mean(self):
        np.testing.assert_allclose(v.estimate_vtl([0.0, 0.0], 0.3, 16.0), 16.0)

    def test_zero_q_gives_mean(self):
        np.testing.assert_allclose(v.estimate_vtl([-2.0, 3.0], 0.0, 16.0), 16.0)

    def test_formula(self):
        out = v.estimate_vtl([1.0, -1.0], 0.1, 10.0)
        np.testing.assert_allclose(out, [10.0 * np.exp(0.1), 10.0 * np.exp(-0.1)])


class TestChannelShiftToRatio:
    def test_zero_shift(self):
        assert v.channel_shift_to_ratio(AXIS, 0.0, 2000.0) == 1.0

    def test_log_axis_closed_form(self):
        axis = v.make_axis("log10", 100, 100.0, 8000.0)
        assert v.channel_shift_to_ratio(axis, 6.0, 1234.0) == pytest.approx(
            80.0 ** (6.0 / 99.0), rel=1e-12
        )

    def test_erb_axis_against_independent_evaluation(self):
        step = (21.4 * np.log10(0.00437 * 8000 + 1) - 21.4 * np.log10(0.00437 * 100 + 1)) / 99
        target = 21.4 * np.log10(0.00437 * 2000 + 1) + 6 * step
        expected = ((10 ** (target / 21.4) - 1) / 0.00437) / 2000.0
        assert v.channel_shift_to_ratio(AXIS, 6.0, 2000.0) == pytest.approx(expected, rel=1e-12)

    def test_ref_out_of_range_rejected(self):
        with pytest.raises(InputError):
            v.channel_shift_to_ratio(AXIS, 6.0, 50.0)

    def test_negative_shift_inverts(self):
        up = v.channel_shift_to_ratio(AXIS, 4.0, 1000.0)
        down = v.channel_shift_to_ratio(AXIS, -4.0, 1000.0 * up)
        assert down == pytest.approx(1.0 / up, rel=1e-9)
