"""Pitch-adaptive spectral weighting and a self-contained F0 estimator.

Low-order harmonics of the voice pitch are resolved by narrow low-frequency
analysis channels and show up as spectral peaks unrelated to the vocal-tract
resonances, which corrupts cross-correlation alignment between speakers.  The
weight implemented here tapers a spectrum linearly below ``h_max * f0`` and
leaves it untouched above, suppressing exactly that harmonic-dominated region.
"""
from __future__ import annotations

import numpy as np

from .axes import FrequencyAxis
from .errors import ConfigurationError, InputError
from .spectral import Spectrum

#: F0 value that encodes "unvoiced / unknown"; it yields an all-ones weight.
UNVOICED = 0.0
#: Taper knee, in harmonics of F0, used wherever none is given.
DEFAULT_H_MAX = 3.5

F0_SEARCH_LO_HZ = 60.0
F0_SEARCH_HI_HZ = 400.0
F0_WINDOW_S = 0.050
VOICING_THRESHOLD = 0.3


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


def estimate_f0(signal, fs: float) -> float:
    """Autocorrelation pitch estimate on the center 50 ms of a signal.

    Returns the fundamental frequency in Hz, or :data:`UNVOICED` (0.0) when
    the normalized autocorrelation peak in the :data:`F0_SEARCH_LO_HZ` to
    :data:`F0_SEARCH_HI_HZ` range falls below
    :data:`VOICING_THRESHOLD`.  The biased autocorrelation estimator is used,
    which favors the fundamental over its subharmonics.
    """
    x = np.asarray(signal, dtype=float)
    win = int(round(F0_WINDOW_S * fs))
    if x.ndim != 1 or x.size < win:
        raise InputError(f"need at least {F0_WINDOW_S*1e3:g} ms of signal ({win} samples)")
    start = (x.size - win) // 2
    frame = x[start : start + win]
    frame = frame - frame.mean()
    r0 = float(frame @ frame)
    if r0 <= 0.0:
        return UNVOICED
    lag_lo = max(1, int(np.ceil(fs / F0_SEARCH_HI_HZ)))
    lag_hi = min(win - 1, int(np.floor(fs / F0_SEARCH_LO_HZ)))
    if lag_lo > lag_hi:
        raise ConfigurationError(f"search range {F0_SEARCH_LO_HZ}-{F0_SEARCH_HI_HZ} Hz is empty at fs={fs}")
    # only the searched lags: acf[k] = sum_n frame[n + lag_lo + k] * frame[n]
    padded = np.concatenate([frame[lag_lo:], np.zeros(lag_hi)])
    acf = np.correlate(padded, frame, mode="valid")
    peak = int(np.argmax(acf))
    if acf[peak] / r0 < VOICING_THRESHOLD:
        return UNVOICED
    return fs / (lag_lo + peak)
