"""Pitch-adaptive spectral weighting and a self-contained F0 estimator.

Low-order harmonics of the voice pitch are resolved by narrow low-frequency
analysis channels and show up as spectral peaks unrelated to the vocal-tract
resonances, which corrupts cross-correlation alignment between speakers.  The
weight implemented here tapers a spectrum linearly below ``h_max * f0`` and
leaves it untouched above, suppressing exactly that harmonic-dominated region.
"""
from __future__ import annotations

import numbers

import numpy as np

from .axes import FrequencyAxis
from .errors import ConfigurationError, InputError
from .fileio import CANONICAL_FS
from .shifts import TIE_TOLERANCE, _next_fast_len
from .spectral import Spectrum

#: F0 value that encodes "unvoiced / unknown"; it yields an all-ones weight.
UNVOICED = 0.0
#: Taper knee, in harmonics of F0, used wherever none is given.
DEFAULT_H_MAX = 3.5

#: Searched pitch range, Hz, and the autocorrelation lags it spans (120-800).
F0_SEARCH_LO_HZ = 60.0
F0_SEARCH_HI_HZ = 400.0
F0_LAG_LO = int(np.ceil(CANONICAL_FS / F0_SEARCH_HI_HZ))
F0_LAG_HI = int(np.floor(CANONICAL_FS / F0_SEARCH_LO_HZ))
#: Length of the centre frame F0 is estimated on, s, and in samples (2 400).
F0_WINDOW_S = 0.050
F0_WINDOW_N = round(F0_WINDOW_S * CANONICAL_FS)
VOICING_THRESHOLD = 0.3


def check_h_max(h_max: float) -> None:
    """Reject a taper knee that is no real number (a bool is none), or is
    negative, infinite or NaN; ``0`` is allowed and means "no weighting" to
    every estimate."""
    if isinstance(h_max, bool) or not isinstance(h_max, numbers.Real):
        raise ConfigurationError(f"h_max must be a real number, got {h_max!r}")
    if not 0.0 <= h_max < np.inf:  # NaN fails every comparison
        raise ConfigurationError(f"h_max must be nonnegative and finite, got {h_max}")


def ssi_weight(axis: FrequencyAxis, h_max: float, f0: float) -> np.ndarray:
    """Per-channel weight ``min(f_c / (h_max * f0), 1)``, the taper knee at
    ``h_max`` harmonics of ``f0``.

    ``h_max`` must be positive and finite, ``f0`` nonnegative and finite.
    For ``f0 == 0`` (unvoiced/unknown) every channel gets weight 1.  The
    result is nondecreasing along the axis and saturates at 1 for all
    channels at or above ``h_max * f0``.
    """
    if not 0.0 < h_max < np.inf:  # NaN fails every comparison
        raise ConfigurationError(f"h_max must be positive and finite, got {h_max}")
    if not 0.0 <= f0 < np.inf:
        raise ConfigurationError(f"f0 must be nonnegative and finite, got {f0}")
    knee = h_max * f0
    if knee <= 0.0:  # unvoiced, or f0 so small the knee underflows
        return np.ones(axis.channels)
    with np.errstate(over="ignore"):  # a denormal knee overflows to inf -> weight 1
        return np.minimum(axis.center_freqs / knee, 1.0)


def apply_weight(s: Spectrum, weights: np.ndarray) -> Spectrum:
    """Multiply a spectrum by per-channel weights after a baseline shift.

    The per-spectrum minimum is subtracted first so that the product always
    pulls values toward the spectrum floor.  Without the shift, weighting a
    dB-domain spectrum (negative values) would raise rather than suppress the
    low-frequency content.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != s.values.shape:
        raise InputError(
            f"weight length {weights.shape} does not match spectrum length {s.values.shape}"
        )
    shifted = s.values - s.values.min()
    return Spectrum(shifted * weights, s.axis, s.compression)


def estimate_f0(signal) -> float:
    """Autocorrelation pitch estimate on the center 50 ms of a signal at
    :data:`~vtlest.fileio.CANONICAL_FS`.

    Returns the fundamental frequency in Hz, or :data:`UNVOICED` (0.0) when
    the normalized autocorrelation peak at lags :data:`F0_LAG_LO` to
    :data:`F0_LAG_HI` (:data:`F0_SEARCH_HI_HZ` down to
    :data:`F0_SEARCH_LO_HZ`) falls below
    :data:`VOICING_THRESHOLD`.  The biased autocorrelation estimator is used,
    which favors the fundamental over its subharmonics.  The searched lags
    come from one zero-padded real FFT of the frame.  Lags within
    :data:`~vtlest.shifts.TIE_TOLERANCE` times the frame's energy of the
    peak, and a peak that close to the voicing threshold, are scored again
    by direct dot products, so FFT round-off can neither split a tie nor
    cross the threshold.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < F0_WINDOW_N:
        raise InputError(f"need at least {F0_WINDOW_S*1e3:g} ms of signal ({F0_WINDOW_N} samples)")
    start = (x.size - F0_WINDOW_N) // 2
    frame = x[start : start + F0_WINDOW_N]
    frame = frame - frame.mean()
    r0 = float(frame @ frame)
    if r0 <= 0.0:
        return UNVOICED
    # padding to F0_WINDOW_N + F0_LAG_HI keeps the circular wrap off every searched lag
    size = _next_fast_len(F0_WINDOW_N + F0_LAG_HI)
    spectrum = np.fft.rfft(frame, size)
    acf = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[F0_LAG_LO : F0_LAG_HI + 1]
    peak = int(np.argmax(acf))
    value = acf[peak]
    tol = TIE_TOLERANCE * r0
    near = np.flatnonzero(acf >= value - tol)
    if near.size > 1 or abs(value - VOICING_THRESHOLD * r0) <= tol:
        direct = [frame[lag:] @ frame[: F0_WINDOW_N - lag] for lag in F0_LAG_LO + near]
        peak = int(near[np.argmax(direct)])
        value = max(direct)
    if value / r0 < VOICING_THRESHOLD:
        return UNVOICED
    return CANONICAL_FS / (F0_LAG_LO + peak)
