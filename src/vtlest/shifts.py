"""Relative vocal-tract-length estimation from aligned spectra.

Scaling all resonance frequencies by a factor translates a spectrum along a
(near-)logarithmic frequency axis by a constant number of channels, so the
pairwise cross-correlation peak lag between two speakers' same-vowel spectra
measures their tract-length ratio.  This module computes those lags, reduces
the antisymmetric lag matrix to one relative shift per speaker, and converts
shifts to lengths through an exponential with a fitted coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0


Q_SEARCH_RANGE = (-2.0, 2.0)
Q_TOLERANCE = 1e-6


def fit_q(shifts, measured_cm, mean_length_cm: float, search=Q_SEARCH_RANGE, tol: float = Q_TOLERANCE) -> float:
    """Coefficient ``q`` minimizing ``sum((L_bar * exp(q*S) - L_measured)^2)``.

    A coarse grid over ``search`` brackets the optimum, then golden-section
    refines it to within ``tol``.
    """
    s = np.asarray(shifts, dtype=float)
    l_meas = np.asarray(measured_cm, dtype=float)
    if s.shape != l_meas.shape or s.ndim != 1:
        raise InputError(f"shift and length vectors must match, got {s.shape} and {l_meas.shape}")
    if np.ptp(s) == 0.0:
        raise DegenerateFitError("all relative shifts are identical; q is unconstrained")
    if (l_meas <= 0).any() or mean_length_cm <= 0:
        raise InputError("measured lengths must be positive")

    def err(q):
        return float(np.sum((mean_length_cm * np.exp(q * s) - l_meas) ** 2))

    grid = np.linspace(search[0], search[1], 401)
    best = int(np.argmin([err(q) for q in grid]))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    return _golden_min(err, lo, hi, tol)


def estimate_vtl(shifts, q: float, mean_length_cm: float) -> np.ndarray:
    """Lengths ``L_bar * exp(q * S)`` in cm."""
    if mean_length_cm <= 0:
        raise InputError(f"mean length must be positive, got {mean_length_cm}")
    return mean_length_cm * np.exp(q * np.asarray(shifts, dtype=float))


@dataclass(frozen=True, eq=False)
class VtlEstimate:
    """Per-speaker relative shifts with their fitted length conversion."""

    shifts: np.ndarray
    q: float
    mean_length_cm: float
    lengths_cm: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=float))
        object.__setattr__(
            self, "lengths_cm", estimate_vtl(self.shifts, self.q, self.mean_length_cm)
        )


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
