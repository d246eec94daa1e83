"""Relative vocal-tract-length estimation from aligned spectra.

Scaling all resonance frequencies by a factor translates a spectrum along a
(near-)logarithmic frequency axis by a constant number of channels, so the
pairwise cross-correlation peak lag between two speakers' same-vowel spectra
measures their tract-length ratio.  This module computes those lags, reduces
the antisymmetric lag matrix to one relative shift per speaker, and converts
shifts to lengths through an exponential with a fitted coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .axes import AxisKind, FrequencyAxis
from .errors import (
    ConfigurationError,
    DegenerateFitError,
    DegenerateInputError,
    InputError,
)
from .spectral import Spectrum

#: Widest lag searched, in channels.
MAX_LAG = 30
#: Upsampling factor of the lag search: lags resolve to ``1 / INTERP`` channel.
INTERP = 10
#: Correlations this close to a pair's peak count as tied with it.
TIE_TOLERANCE = 1e-12


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer ``>= n``: a real FFT length with no
    prime factor above 5, as ``scipy.fft.next_fast_len(n, real=True)`` gives."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def xcorr_shift(a: Spectrum, b: Spectrum) -> float:
    """Cross-correlation peak lag from ``a`` to ``b`` in fractional channels,
    positive when ``b``'s features lie at higher channels: :func:`build_shift_matrix` of the pair."""
    return float(build_shift_matrix([a, b]).values[0, 1])


@dataclass(frozen=True, eq=False)
class ShiftMatrix:
    """Antisymmetric matrix of pairwise peak lags, in channels."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 2:
            raise InputError(f"shift matrix must be square with n >= 2, got shape {v.shape}")
        if (np.diag(v) != 0).any() or (v != -v.T).any():
            raise InputError("shift matrix must be antisymmetric with a zero diagonal")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def build_shift_matrix(spectra) -> ShiftMatrix:
    """Pairwise peak lags in channels; entry ``(i, j)`` is the lag from spectrum i to j.

    Spectra are mean-subtracted, upsampled by :data:`INTERP` via linear
    interpolation (0.1-channel resolution) and normalised; one real FFT each and
    one batched inverse FFT per row of pairs give the zero-padded correlations
    over lags up to :data:`MAX_LAG` channels.  Exact ties go to the smallest ``|lag|``,
    then the negative one; lags within :data:`TIE_TOLERANCE` of a peak are scored
    again by direct dot products, so that FFT round-off cannot split a tie.
    """
    spectra = list(spectra)
    n = len(spectra)
    if n < 2:
        raise InputError(f"need at least 2 spectra, got {n}")
    axis, channels = spectra[0].axis, spectra[0].values.size
    grid = np.arange((channels - 1) * INTERP + 1) / INTERP
    fine = [np.interp(grid, np.arange(s.values.size), s.values - s.values.mean()) for s in spectra]
    power = np.array([f @ f for f in fine])
    too_far = 3 * MAX_LAG > axis.channels
    # every pair that cannot be aligned implies one in row 0, which comes first
    for j in range(1, n):
        if spectra[j].axis != axis:
            raise InputError(f"pair (0, {j}): spectra must share the same frequency axis")
        if too_far:
            raise ConfigurationError(f"max_lag must be in (0, channels/3], got {MAX_LAG} "
                                     f"for {axis.channels} channels")
        if not power[0] or not power[j]:  # flat, or too faint to square
            raise DegenerateInputError(f"pair (0, {j}): cannot align a flat (zero-variance) spectrum")
    reach = MAX_LAG * INTERP
    size = _next_fast_len(grid.size + reach)
    spectra_f = np.fft.rfft(np.array(fine) / np.sqrt(power)[:, None], size)
    # lag columns in tie-break order 0, -1, +1, -2, +2, ...: argmax takes the first peak
    order = np.stack([-np.arange(reach + 1), np.arange(reach + 1)], axis=1).ravel()[1:]
    m = np.zeros((n, n))
    for i in range(n - 1):
        corr = np.fft.irfft(spectra_f[i].conj() * spectra_f[i + 1 :], size)[:, order]
        best = corr.argmax(axis=1)
        peak = corr[np.arange(best.size), best]
        corr[np.arange(best.size), best] = -np.inf  # leaves each pair's runner-up
        for k in np.flatnonzero(corr.max(axis=1) >= peak - TIE_TOLERANCE):
            corr[k, best[k]] = peak[k]
            a, b, tied = fine[i], fine[i + 1 + k], np.flatnonzero(corr[k] >= peak[k] - TIE_TOLERANCE)
            r = [a[: a.size - d] @ b[d:] if d >= 0 else a[-d:] @ b[: b.size + d] for d in order[tied]]
            best[k] = tied[np.argmax(np.divide(r, np.sqrt(power[i] * power[i + 1 + k])))]
        m[i, i + 1 :] = order[best] / INTERP
    return ShiftMatrix(m - m.T)


def relative_shifts(matrix: ShiftMatrix) -> np.ndarray:
    """Per-speaker shift relative to the group mean, in channels.

    Computed as the difference between the vertical and horizontal sums of
    the lag matrix, divided by ``2n``; the result always sums to zero.
    """
    v = matrix.values
    n = matrix.n
    return (v.sum(axis=0) - v.sum(axis=1)) / (2.0 * n)


Q_SEARCH_RANGE = (-2.0, 2.0)
#: An optimum this close to an end of :data:`Q_SEARCH_RANGE` lies on the bound.
Q_TOLERANCE = 1e-6
#: The refinement stops after a step this small, or after this many steps.
_Q_STEP_TOL = 1e-13
_Q_MAX_STEPS = 64


def fit_q(shifts, measured_cm, mean_length_cm: float) -> float:
    """Coefficient ``q`` minimizing ``sum((L_bar * exp(q*S) - L_measured)^2)``.

    The error need not be unimodal in ``q``, so a 401-point grid over
    :data:`Q_SEARCH_RANGE` brackets the global optimum between the grid
    points either side of the best one.  Newton steps on the closed-form
    first and second derivatives then find the stationary point in that
    bracket; a step that would leave the bracket, or one where the error is
    not convex, bisects it instead.  An optimum within :data:`Q_TOLERANCE`
    of an end of the range is not a fit but the bound, and raises
    :class:`DegenerateFitError`.
    """
    s = np.asarray(shifts, dtype=float)
    l_meas = np.asarray(measured_cm, dtype=float)
    if s.shape != l_meas.shape or s.ndim != 1:
        raise InputError(f"shift and length vectors must match, got {s.shape} and {l_meas.shape}")
    if not (np.isfinite(s).all() and np.isfinite(l_meas).all() and np.isfinite(mean_length_cm)):
        raise InputError("shifts, measured lengths and the mean length must be finite")
    if np.ptp(s) == 0.0:
        raise DegenerateFitError("all relative shifts are identical; q is unconstrained")
    if (l_meas <= 0).any() or mean_length_cm <= 0:
        raise InputError("measured lengths must be positive")

    def slope(q):
        """Half the error's first and second derivatives at ``q``."""
        model = mean_length_cm * np.exp(q * s)
        resid, d_model = model - l_meas, model * s
        return float(resid @ d_model), float(d_model @ d_model + resid @ (d_model * s))

    lo, hi = Q_SEARCH_RANGE
    grid = np.linspace(lo, hi, 401)
    err = np.sum((mean_length_cm * np.exp(np.multiply.outer(grid, s)) - l_meas) ** 2, axis=-1)
    best = int(np.argmin(err))
    left, right = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])
    if slope(left)[0] >= 0.0:  # the error rises from the bracket's left end
        q = left
    elif slope(right)[0] <= 0.0:
        q = right
    else:
        q = float(grid[best])
        for _ in range(_Q_MAX_STEPS):
            d1, d2 = slope(q)
            if d1 == 0.0:
                break
            left, right = (q, right) if d1 < 0.0 else (left, q)
            new = q - d1 / d2 if d2 > 0.0 else math.nan  # NaN fails the bracket test
            if not left < new < right:
                new = 0.5 * (left + right)
            q, step = new, new - q
            if abs(step) < _Q_STEP_TOL:
                break
    if min(q - lo, hi - q) < Q_TOLERANCE:
        raise DegenerateFitError(f"q = {q:.9g} lies on the search bound {Q_SEARCH_RANGE}")
    return q


def estimate_vtl(shifts, q: float, mean_length_cm: float) -> np.ndarray:
    """Lengths ``L_bar * exp(q * S)`` in cm."""
    if mean_length_cm <= 0:
        raise InputError(f"mean length must be positive, got {mean_length_cm}")
    return mean_length_cm * np.exp(q * np.asarray(shifts, dtype=float))


def channel_shift_to_ratio(axis: FrequencyAxis, shift: float, ref_freq: float) -> float:
    """Frequency ratio corresponding to a channel shift on an axis.

    On a log10 axis the ratio is exact and independent of ``ref_freq``:
    ``(f_hi/f_lo) ** (shift/(channels-1))``.  On other axes the shift is
    applied in the native coordinate starting from ``ref_freq``, which must
    lie within the axis range.
    """
    if shift == 0.0:
        return 1.0
    if axis.kind is AxisKind.LOG10_HZ:
        return float((axis.f_hi / axis.f_lo) ** (shift / (axis.channels - 1)))
    if not axis.f_lo <= ref_freq <= axis.f_hi:
        raise InputError(
            f"reference frequency {ref_freq} outside axis range [{axis.f_lo}, {axis.f_hi}]"
        )
    coord = axis.to_coord(ref_freq) + shift * axis.step
    return float(axis.from_coord(coord)) / ref_freq
