"""Cross-correlation alignment, shift matrices, and length conversion."""
import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import vtlest as v
from vtlest import shifts
from vtlest.errors import (
    ConfigurationError,
    DegenerateFitError,
    DegenerateInputError,
    InputError,
)
from vtlest.shifts import INTERP, MAX_LAG, Q_SEARCH_RANGE, Q_TOLERANCE

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
        with lag_settings(max_lag=40), pytest.raises(ConfigurationError):
            v.xcorr_shift(spectrum_at(0), spectrum_at(1))

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


@contextlib.contextmanager
def lag_settings(max_lag=MAX_LAG, interp=INTERP):
    """Run the lag search with other settings than the fixed ones."""
    with mock.patch.object(shifts, "MAX_LAG", max_lag), mock.patch.object(shifts, "INTERP", interp):
        yield


def oracle_lag(a, b, max_lag=MAX_LAG, interp=INTERP):
    """The per-pair ``np.correlate`` search that the batched correlator replaced."""
    def upsample(values):
        n = values.size
        return np.interp(np.arange((n - 1) * interp + 1) / interp, np.arange(n), values)

    af, bf = upsample(a - a.mean()), upsample(b - b.mean())
    corr = np.correlate(bf, af, mode="full")
    corr /= np.sqrt((af @ af) * (bf @ bf))
    lags = np.arange(corr.size) - (af.size - 1)
    within = np.abs(lags) <= max_lag * interp
    corr, lags = corr[within], lags[within]
    best = min(lags[corr == corr.max()], key=lambda lag: (abs(lag), lag))
    return best / interp


def oracle_matrix(spectra, **kw):
    n = len(spectra)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = oracle_lag(spectra[i].values, spectra[j].values, **kw)
            m[j, i] = -m[i, j]
    return m


def oracle_error(spectra, max_lag=MAX_LAG):
    """(type, message) of the first pair the per-pair search rejected, or None."""
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            a, b = spectra[i], spectra[j]
            if a.axis != b.axis:
                return InputError, f"pair ({i}, {j}): spectra must share the same frequency axis"
            if max_lag <= 0 or 3 * max_lag > a.axis.channels:
                return ConfigurationError, (f"max_lag must be in (0, channels/3], got {max_lag} "
                                            f"for {a.axis.channels} channels")
            if not (a.values - a.values.mean()).any() or not (b.values - b.values.mean()).any():
                return DegenerateInputError, f"pair ({i}, {j}): cannot align a flat (zero-variance) spectrum"
    return None


def assert_matches_oracle(values, **kw):
    spectra = [v.Spectrum(x, AXIS) for x in values]
    with lag_settings(**kw):
        got = v.build_shift_matrix(spectra).values
    np.testing.assert_array_equal(got, oracle_matrix(spectra, **kw))


def shifted(values, k):
    """``values`` moved up by ``k`` channels, zero-filled."""
    out = np.zeros_like(values)
    if k >= 0:
        out[k:] = values[: values.size - k]
    else:
        out[:k] = values[-k:]
    return out


def varied(values):
    return np.ptp(values) > 0


# scaled whole numbers make exact ties common, and no square underflows
SPECTRA = st.builds(np.multiply, arrays(np.int64, 100, elements=st.integers(0, 100)), st.floats(1e-3, 10.0))
LAG_SETTINGS = st.sampled_from([{}, {"max_lag": 5}, {"max_lag": 33}, {"interp": 1}, {"interp": 3, "max_lag": 12}])


class TestBatchedCorrelatorParity:
    """The batched FFT correlator returns the per-pair search's lags exactly."""

    @given(st.lists(SPECTRA.filter(varied), min_size=2, max_size=5), LAG_SETTINGS)
    @settings(max_examples=60, deadline=None)
    def test_random_nonnegative_spectra(self, values, kw):
        assert_matches_oracle(values, **kw)

    @given(SPECTRA, st.lists(st.integers(-35, 35), min_size=2, max_size=6), LAG_SETTINGS)
    @settings(max_examples=60, deadline=None)
    def test_integer_shifted_copies(self, base, ks, kw):
        values = [shifted(base, k) for k in ks]
        assume(all(varied(x) for x in values))
        assert_matches_oracle(values, **kw)

    @given(st.lists(SPECTRA.filter(varied), min_size=1, max_size=3), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_duplicated_spectra(self, values, copies):
        assert_matches_oracle([x for x in values for _ in range(copies)])

    @given(st.integers(0, 99), st.lists(st.integers(1, 40), min_size=1, max_size=4),
           st.floats(0.1, 10.0), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_mirror_symmetric_spike_pairs(self, centre, offsets, height, with_centre):
        single = np.zeros(100)
        single[centre] = 1.0
        values = [single]
        for d in offsets:
            pair = np.zeros(100)
            pair[[c for c in (centre - d, centre + d) if 0 <= c < 100]] = height
            pair[centre] = height if with_centre else 0.0
            values.append(pair)
        assume(all(varied(x) for x in values))
        assert_matches_oracle(values)

    @given(st.integers(1, 33), st.integers(-2, 2), st.floats(0.5, 4.0), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_true_shift_at_max_lag(self, max_lag, beyond, width, start):
        base = bumps([start], width=width)
        sign = 1 if start < 50 else -1
        values = [base, shifted(base, sign * (max_lag + beyond)), shifted(base, -sign * max_lag)]
        assume(all(varied(x) for x in values))
        assert_matches_oracle(values, max_lag=max_lag)

    @pytest.mark.parametrize("h_max", [0.0, 3.5])
    def test_every_catalog_id_on_the_default_ladder(self, default_corpus, h_max):
        for rep_id in v.representation_catalog():
            rep = v.parse_representation(rep_id)
            for vowel in default_corpus.vowels:
                spectra = [default_corpus.spectrum(s, vowel, rep, h_max)
                           for s in default_corpus.vowel_speakers(vowel)]
                np.testing.assert_array_equal(
                    v.build_shift_matrix(spectra).values, oracle_matrix(spectra), err_msg=f"{rep_id} {vowel}"
                )


class TestShiftMatrixErrors:
    """Inputs are validated once per matrix, with the per-pair search's errors."""

    @pytest.mark.parametrize("flat_at", [[0], [1], [3], [1, 2], [0, 3]])
    def test_first_flat_pair_named(self, flat_at):
        spectra = [v.Spectrum(np.zeros(100), AXIS) if i in flat_at else spectrum_at(i) for i in range(4)]
        kind, message = oracle_error(spectra)
        with pytest.raises(kind) as info:
            v.build_shift_matrix(spectra)
        assert type(info.value) is kind and str(info.value) == message

    def test_mixed_axes_name_the_pair(self):
        log_axis = v.make_axis("log10", 100, 100.0, 8000.0)
        spectra = [spectrum_at(0), spectrum_at(1), v.Spectrum(bumps([40, 58]), log_axis)]
        with pytest.raises(InputError, match=r"pair \(0, 2\): spectra must share the same frequency axis"):
            v.build_shift_matrix(spectra)

    def test_spectrum_too_faint_to_square_is_flat(self):
        faint = np.zeros(100)
        faint[10] = 1e-200
        with pytest.raises(DegenerateInputError, match=r"pair \(0, 1\)"):
            v.build_shift_matrix([spectrum_at(0), v.Spectrum(faint, AXIS)])

    @pytest.mark.parametrize("max_lag", [34, 40])
    def test_max_lag_out_of_range(self, max_lag):
        spectra = [spectrum_at(0), spectrum_at(1), spectrum_at(2)]
        with lag_settings(max_lag=max_lag), pytest.raises(ConfigurationError, match=f"got {max_lag} for 100"):
            v.build_shift_matrix(spectra)

    @given(st.lists(st.tuples(st.sampled_from(["erb", "log10", "erb60"]), st.booleans()), min_size=2, max_size=6),
           st.sampled_from([30, 21, 40]))
    @settings(max_examples=80, deadline=None)
    def test_error_matches_the_per_pair_search(self, layout, max_lag):
        axes = {"erb": AXIS, "log10": v.make_axis("log10", 100, 100.0, 8000.0),
                "erb60": v.make_axis("erb", 60, 100.0, 8000.0)}
        spectra = []
        for i, (name, flat) in enumerate(layout):
            axis = axes[name]
            values = np.zeros(axis.channels) if flat else bumps([20 + i], n=axis.channels)
            spectra.append(v.Spectrum(values, axis))
        expected = oracle_error(spectra, max_lag)
        with lag_settings(max_lag=max_lag):
            if expected is None:
                v.build_shift_matrix(spectra)
                return
            with pytest.raises(expected[0]) as info:
                v.build_shift_matrix(spectra)
        assert type(info.value) is expected[0] and str(info.value) == expected[1]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        s, measured = np.array([-1.0, 0.0, 1.0]), np.array([15.0, 16.0, 17.0])
        for args in ((np.array([-1.0, bad, 1.0]), measured, 16.0),
                     (s, np.array([15.0, bad, 17.0]), 16.0), (s, measured, bad)):
            with pytest.raises(InputError, match="must be finite"):
                v.fit_q(*args)

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

    @given(points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-1.0, 1.0)),
                           min_size=2, max_size=40),
           q_true=st.floats(-2.5, 2.5), noise=st.floats(0.0, 1.0))
    @example(points=[(-0.1, 0.0), (0.0, 0.0), (0.0, 0.0), (0.1, 0.9)], q_true=0.0, noise=1.0)
    @example(points=[(-0.1, 0.9), (0.0, 0.0), (0.0, 0.0), (0.1, 0.0)], q_true=0.0, noise=1.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_bounded_brent(self, points, q_true, noise):
        """The Newton refinement agrees with Brent's bounded method on the
        same grid bracket, stopped at ``xatol = 1e-6``: both raise for an
        optimum on the search bound, and both fit one well inside it."""
        from scipy.optimize import minimize_scalar

        s, jitter = np.array(points).T
        log_ratio = q_true * s + noise * jitter
        # shifts that can pin q down, and lengths of one order of magnitude:
        # where some are negligible, the error is flat to rounding and Brent
        # cannot resolve its minimum
        assume(np.ptp(s) > 0.1 and np.abs(log_ratio).max() < 1.5)
        measured = 16.0 * np.exp(log_ratio)
        l_bar = float(measured.mean())

        def sq_err(q):
            return np.sum((l_bar * np.exp(np.multiply.outer(q, s)) - measured) ** 2, axis=-1)

        def slope(q):
            model = l_bar * np.exp(q * s)
            return (model - measured) @ (model * s)

        lo, hi = Q_SEARCH_RANGE
        grid = np.linspace(lo, hi, 401)
        best = int(np.argmin(sq_err(grid)))
        bracket = (grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
        ref = float(minimize_scalar(sq_err, bounds=bracket, method="bounded",
                                    options={"xatol": Q_TOLERANCE}).x)
        try:
            q = v.fit_q(s, measured, l_bar)
        except DegenerateFitError:
            q = None
        if (best == 0 and slope(lo) >= 0.0) or (best == grid.size - 1 and slope(hi) <= 0.0):
            assert min(ref - lo, hi - ref) < Q_TOLERANCE and q is None
        elif min(ref - lo, hi - ref) > 2 * Q_TOLERANCE:
            assert type(q) is float
            assert abs(q - ref) <= Q_TOLERANCE


def test_next_fast_len_is_scipys_for_real_transforms():
    from scipy.fft import next_fast_len

    assert [shifts._next_fast_len(n) for n in range(1, 5001)] == \
        [next_fast_len(n, real=True) for n in range(1, 5001)]


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
