"""Relative vocal-tract-length estimation from aligned spectra.

Scaling all resonance frequencies by a factor translates a spectrum along a
(near-)logarithmic frequency axis by a constant number of channels, so the
pairwise cross-correlation peak lag between two speakers' same-vowel spectra
measures their tract-length ratio.  This module computes those lags, reduces
the antisymmetric lag matrix to one relative shift per speaker, and converts
shifts to lengths through an exponential with a fitted coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .axes import AxisKind, FrequencyAxis
from .errors import (
    ConfigurationError,
    DegenerateFitError,
    DegenerateInputError,
    InputError,
)
from .spectral import Spectrum

DEFAULT_MAX_LAG = 30
DEFAULT_INTERP = 10


def _upsample(values: np.ndarray, interp: int) -> np.ndarray:
    n = values.size
    fine = np.arange((n - 1) * interp + 1) / interp
    return np.interp(fine, np.arange(n), values)


def xcorr_shift(a: Spectrum, b: Spectrum, max_lag: int = DEFAULT_MAX_LAG, interp: int = DEFAULT_INTERP) -> float:
    """Cross-correlation peak lag from ``a`` to ``b`` in fractional channels.

    Both spectra are mean-subtracted, upsampled by ``interp`` via linear
    interpolation (0.1-channel resolution at the default), and correlated with
    zero padding over lags up to ``max_lag`` channels.  A positive result
    means ``b``'s features lie at higher channels than ``a``'s.  Exact
    correlation ties resolve to the smallest ``|lag|``, preferring the
    negative lag between symmetric ones.
    """
    if a.axis != b.axis:
        raise InputError("spectra must share the same frequency axis")
    if max_lag <= 0 or 3 * max_lag > a.axis.channels:
        raise ConfigurationError(
            f"max_lag must be in (0, channels/3], got {max_lag} for {a.axis.channels} channels"
        )
    av = a.values - a.values.mean()
    bv = b.values - b.values.mean()
    if not av.any() or not bv.any():
        raise DegenerateInputError("cannot align a flat (zero-variance) spectrum")
    af = _upsample(av, interp)
    bf = _upsample(bv, interp)
    # full[i] = sum_k af[k] * bf[k + lag] with lag = i - (len - 1)
    corr = np.correlate(bf, af, mode="full")
    corr /= np.sqrt((af @ af) * (bf @ bf))
    lags = np.arange(corr.size) - (af.size - 1)
    within = np.abs(lags) <= max_lag * interp
    corr, lags = corr[within], lags[within]
    candidates = lags[corr == corr.max()]
    best = min(candidates, key=lambda lag: (abs(lag), lag))
    return best / interp


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


def build_shift_matrix(spectra, max_lag: int = DEFAULT_MAX_LAG, interp: int = DEFAULT_INTERP) -> ShiftMatrix:
    """Pairwise :func:`xcorr_shift` over all spectra; lower triangle negated."""
    spectra = list(spectra)
    n = len(spectra)
    if n < 2:
        raise InputError(f"need at least 2 spectra, got {n}")
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            try:
                d = xcorr_shift(spectra[i], spectra[j], max_lag, interp)
            except InputError as exc:
                raise type(exc)(f"pair ({i}, {j}): {exc}") from exc
            m[i, j] = d
            m[j, i] = -d
    return ShiftMatrix(m)


def relative_shifts(matrix: ShiftMatrix) -> np.ndarray:
    """Per-speaker shift relative to the group mean, in channels.

    Computed as the difference between the vertical and horizontal sums of
    the lag matrix, divided by ``2n``; the result always sums to zero.
    """
    v = matrix.values
    n = matrix.n
    return (v.sum(axis=0) - v.sum(axis=1)) / (2.0 * n)


Q_SEARCH_RANGE = (-2.0, 2.0)
Q_TOLERANCE = 1e-6


def fit_q(shifts, measured_cm, mean_length_cm: float) -> float:
    """Coefficient ``q`` minimizing ``sum((L_bar * exp(q*S) - L_measured)^2)``.

    The error need not be unimodal in ``q``, so a 401-point grid over
    :data:`Q_SEARCH_RANGE` brackets the global optimum; Brent's bounded
    method then refines it to within :data:`Q_TOLERANCE`.  An optimum on an
    end of the range is not a fit but the bound, and raises
    :class:`DegenerateFitError`.
    """
    s = np.asarray(shifts, dtype=float)
    l_meas = np.asarray(measured_cm, dtype=float)
    if s.shape != l_meas.shape or s.ndim != 1:
        raise InputError(f"shift and length vectors must match, got {s.shape} and {l_meas.shape}")
    if np.ptp(s) == 0.0:
        raise DegenerateFitError("all relative shifts are identical; q is unconstrained")
    if (l_meas <= 0).any() or mean_length_cm <= 0:
        raise InputError("measured lengths must be positive")

    def sq_err(q):
        # q is a scalar or a 1-D grid
        return np.sum((mean_length_cm * np.exp(np.multiply.outer(q, s)) - l_meas) ** 2, axis=-1)

    lo, hi = Q_SEARCH_RANGE
    grid = np.linspace(lo, hi, 401)
    best = int(np.argmin(sq_err(grid)))
    bracket = (grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
    q = float(minimize_scalar(sq_err, bounds=bracket, method="bounded",
                              options={"xatol": Q_TOLERANCE}).x)
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
