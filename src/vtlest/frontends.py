"""Spectral front ends: gammatone excitation patterns, STFT, mel filterbank.

All three produce a :class:`~vtlest.spectral.Spectrogram` of uncompressed
amplitude; compression, time averaging, and axis resampling are applied
downstream (see :mod:`vtlest.spectral` and :mod:`vtlest.pipeline`).

An excitation pattern can start at a later frame than the signal's first
(:func:`gammatone_ep`'s ``start``).  Each gammatone channel then starts from
rest :data:`EP_PREROLL_TAUS` of its own time constants before that frame
(:func:`ep_lead_frames`), so a fast high channel filters far fewer samples
than the slow 100 Hz one.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.signal import butter, lfilter, sosfilt

from .axes import F_HI, F_LO, AxisKind, FrequencyAxis, erb_bandwidth, hz_to_mel, make_axis
from .errors import ConfigurationError, InputError
from .spectral import NO_COMPRESSION, Spectrogram

#: Gammatone bandwidth scale factor relative to the auditory-filter ERB.
GAMMATONE_BW_FACTOR = 1.019
#: Order of the gammatone filters (number of repeated pole pairs).
GAMMATONE_ORDER = 4
#: Cutoff of the envelope smoothing lowpass, Hz.
ENVELOPE_LP_HZ = 1000.0
#: Frame length of excitation-pattern spectrograms, s.
EP_FRAME_PERIOD = 0.0005
#: How many of its own time constants each gammatone channel starts before
#: the first frame :func:`gammatone_ep` returns.  The filters start from rest,
#: and at 28 the cut moves the default ladder's averaged patterns by at most
#: 2.2e-7 dB; the top channels need more than the 22.7 that 100 ms is at
#: 100 Hz, because the cut's onset is broadband and a vowel is weak at 8 kHz.
EP_PREROLL_TAUS = 28
#: Hamming window length and hop of the STFT, s.
STFT_WINDOW = 0.025
STFT_HOP = 0.005
#: Number of mel filters, spanning the analysis range ``[F_LO, F_HI]``.
MEL_FILTERS = 25


@lru_cache(maxsize=8)
def _envelope_lowpass(fs: float):
    return butter(2, ENVELOPE_LP_HZ / (fs / 2.0))


@lru_cache(maxsize=8)
def ep_lead_frames(fs: float, axis: FrequencyAxis) -> np.ndarray:
    """Whole frames each channel starts before the first frame
    :func:`gammatone_ep` returns.

    Channel ``c`` starts ``ceil(EP_PREROLL_TAUS * tau_c / frame_period)``
    frames early, where ``tau_c = 1 / (2 pi * 1.019 * ERB(fc))`` is the decay
    time constant of its gammatone envelope.
    """
    tau = 1.0 / (2.0 * np.pi * GAMMATONE_BW_FACTOR * erb_bandwidth(axis.center_freqs))
    leads = np.ceil(EP_PREROLL_TAUS * tau * fs / int(round(EP_FRAME_PERIOD * fs))).astype(int)
    leads.flags.writeable = False
    return leads


@lru_cache(maxsize=8)
def _gammatone_sos(fs: float, axis: FrequencyAxis) -> np.ndarray:
    """Second-order sections of every channel's gammatone, shape ``(channels, 4, 6)``.

    The gammatone is the real part of ``g / (1 - p z^-1)^4`` with the
    impulse-invariance pole ``p`` and the gain ``g = 2 (1 - |p|)^4``, which
    normalizes the gain at ``fc`` to unity.  As a real filter that is
    ``g N(z) / D(z)`` with ``D = (1 - 2 Re(p) z^-1 + |p|^2 z^-2)^4``, so every
    section shares one denominator, and ``N`` has the four real zeros
    ``Re[(p - w p*) / (1 - w)]`` for the four roots ``w`` of ``w^4 = -1``.
    Two sections carry the zeros in pairs and the gain sits in the first.
    The closed form stands in for ``tf2sos``, whose root finding on the
    fourfold pole is ill-conditioned.
    """
    fc = axis.center_freqs
    bw = GAMMATONE_BW_FACTOR * erb_bandwidth(fc)
    radius = np.exp(-2.0 * np.pi * bw / fs)
    pole = radius * np.exp(2j * np.pi * fc / fs)
    w = np.exp(1j * np.pi * (2 * np.arange(GAMMATONE_ORDER) + 1) / GAMMATONE_ORDER)
    zeros = ((pole[:, None] - w * pole.conj()[:, None]) / (1.0 - w)).real
    sos = np.zeros((axis.channels, GAMMATONE_ORDER, 6))
    sos[:, :, 0] = 1.0
    sos[:, :, 3] = 1.0
    sos[:, :, 4] = -2.0 * pole.real[:, None]
    sos[:, :, 5] = radius[:, None] ** 2
    for k in range(GAMMATONE_ORDER // 2):
        pair = zeros[:, 2 * k: 2 * k + 2]
        sos[:, k, 1] = -pair.sum(axis=1)
        sos[:, k, 2] = pair.prod(axis=1)
    sos[:, 0, :3] *= (2.0 * (1.0 - radius) ** GAMMATONE_ORDER)[:, None]
    return sos


def _gammatone_envelope(signal: np.ndarray, fs: float, sos: np.ndarray) -> np.ndarray:
    """Envelope of one gammatone channel: bandpass, half-wave rectify, smooth.

    The bandpass runs as a cascade of real second-order sections (see
    :func:`_gammatone_sos`) rather than as one direct-form 8-pole filter, which
    is numerically unstable at low center frequencies where the poles crowd
    ``z = 1``.  Each section places only one conjugate pole pair, so its
    coefficients stay well conditioned down to the lowest channel.
    """
    b, a = _envelope_lowpass(fs)
    env = lfilter(b, a, np.maximum(sosfilt(sos, signal), 0.0))
    return np.maximum(env, 0.0)


def gammatone_ep(signal, fs: float, axis: FrequencyAxis, start: int = 0) -> Spectrogram:
    """Excitation-pattern spectrogram from a gammatone filterbank.

    Each channel filters the signal with a 4th-order gammatone centered at the
    channel frequency (bandwidth ``1.019 * ERB``), extracts the envelope, and
    averages it over consecutive frames of ``round(EP_FRAME_PERIOD * fs)``
    samples.

    Parameters
    ----------
    signal : array_like
        Mono waveform.
    fs : float
        Sample rate; must be at least twice the axis's upper edge.
    axis : FrequencyAxis
        Channel grid; must be ERB-linear.
    start : int
        First sample of the first frame returned; a frame boundary.  Channel
        ``c`` filters from rest :func:`ep_lead_frames` ``[c]`` frames before
        it (from sample 0 if that is sooner), so only ``start = 0`` matches
        filtering the whole signal exactly.

    Returns
    -------
    Spectrogram
        Nonnegative, uncompressed; shape (n_frames, channels), holding the
        whole frames from ``start`` on.  Its frame period is the frame's
        length in samples over ``fs``.
    """
    if axis.kind is not AxisKind.ERB_LINEAR:
        raise ConfigurationError(f"excitation patterns require an ERB-linear axis, got {axis.kind.value}")
    if fs < 2.0 * axis.f_hi:
        raise ConfigurationError(
            f"sample rate {fs} Hz is too low for channels up to {axis.f_hi} Hz"
        )
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("signal must be a non-empty 1-D array")
    frame = int(round(EP_FRAME_PERIOD * fs))
    if frame < 1 or x.size < frame:
        raise InputError(f"signal shorter than one {EP_FRAME_PERIOD*1e3:g} ms frame")
    end = x.size // frame * frame
    if start < 0 or start % frame or start >= end:
        raise ConfigurationError(
            f"start must be a multiple of the {frame}-sample frame below {end}, got {start}"
        )
    x = x[:end]
    ep = np.empty(((end - start) // frame, axis.channels))
    leads = np.minimum(ep_lead_frames(fs, axis) * frame, start)
    for c, (sos, lead) in enumerate(zip(_gammatone_sos(fs, axis), leads)):
        env = _gammatone_envelope(x[start - lead:], fs, sos)
        ep[:, c] = env[lead:].reshape(-1, frame).mean(axis=1)
    return Spectrogram(ep, frame / fs, axis, NO_COMPRESSION, t0=(start + frame / 2.0) / fs)


def stft_spectrum(signal, fs: float) -> Spectrogram:
    """Magnitude STFT with a :data:`STFT_WINDOW` Hamming window every
    :data:`STFT_HOP` seconds, on the linear-Hz FFT-bin axis."""
    x = np.asarray(signal, dtype=float)
    win_n = int(round(STFT_WINDOW * fs))
    hop_n = int(round(STFT_HOP * fs))
    if x.ndim != 1 or x.size < win_n:
        raise InputError(
            f"signal must be at least one window ({win_n} samples) long, got {x.size}"
        )
    window = np.hamming(win_n)
    n_frames = (x.size - win_n) // hop_n + 1
    starts = np.arange(n_frames) * hop_n
    frames = np.abs(np.fft.rfft(x[starts[:, None] + np.arange(win_n)] * window, axis=1))
    axis = FrequencyAxis(AxisKind.LINEAR_HZ, win_n // 2 + 1, 0.0, fs / 2.0)
    return Spectrogram(frames, hop_n / fs, axis, NO_COMPRESSION, t0=win_n / (2.0 * fs))


def mel_filterbank(bin_freqs: np.ndarray, n_filters: int, f_lo: float, f_hi: float) -> np.ndarray:
    """Triangular filters with unit peak, centers equally spaced in mel.

    Centers include both edges of ``[f_lo, f_hi]``; the outer triangles extend
    one (virtual) center step beyond the range.  Returns shape
    ``(n_filters, len(bin_freqs))``.
    """
    centers = np.linspace(hz_to_mel(f_lo), hz_to_mel(f_hi), n_filters)
    dm = centers[1] - centers[0]
    bins_mel = hz_to_mel(np.maximum(bin_freqs, 0.0))
    rising = (bins_mel[None, :] - (centers[:, None] - dm)) / dm
    falling = ((centers[:, None] + dm) - bins_mel[None, :]) / dm
    return np.clip(np.minimum(rising, falling), 0.0, None)


def mel_spectrum(stft: Spectrogram) -> Spectrogram:
    """Mel-filterbank spectrogram from a magnitude STFT.

    The input must be uncompressed and on the linear-Hz FFT-bin axis; the
    result lives on a mel-linear axis with :data:`MEL_FILTERS` channels
    spanning ``[F_LO, F_HI]``.
    """
    if stft.axis.kind is not AxisKind.LINEAR_HZ:
        raise InputError(f"mel filterbank expects a linear-Hz spectrogram, got {stft.axis.kind.value}")
    if stft.compression.mode != "none":
        raise InputError("mel filterbank expects uncompressed magnitudes")
    if stft.axis.f_hi < F_HI:
        raise InputError(
            f"STFT covers only up to {stft.axis.f_hi} Hz; filterbank needs {F_HI} Hz"
        )
    weights = mel_filterbank(stft.axis.center_freqs, MEL_FILTERS, F_LO, F_HI)
    out = stft.frames @ weights.T
    axis = make_axis(AxisKind.MEL_LINEAR, MEL_FILTERS, F_LO, F_HI)
    return Spectrogram(out, stft.frame_period, axis, NO_COMPRESSION, t0=stft.t0)
