"""Spectral front ends: gammatone excitation patterns, STFT, mel filterbank.

All three produce a :class:`~vtlest.spectral.Spectrogram` of uncompressed
amplitude; compression, time averaging, and axis resampling are applied
downstream (see :mod:`vtlest.spectral` and :mod:`vtlest.pipeline`).  They
analyse signals at :data:`~vtlest.fileio.CANONICAL_FS` only, on fixed grids,
so every frame and window length is a whole number of samples defined once
below, and the gammatone sections, the channel leads, the STFT window and
the mel weights are computed once, at import.  The envelope lowpass is not
designed at all: its coefficients are written out below, and a test checks
them against ``scipy.signal.butter``.

An excitation pattern can start at a later frame than the signal's first
(:func:`gammatone_ep`'s ``start``).  Each gammatone channel then starts from
rest :data:`EP_PREROLL_TAUS` of its own time constants before that frame
(:data:`EP_LEAD_FRAMES`), so a fast high channel filters far fewer samples
than the slow 100 Hz one.

The gammatone cascade runs through scipy's compiled second-order-section
kernel (``scipy.signal._sosfilt._sosfilt``), the call that the public
``scipy.signal.sosfilt`` ends with, loaded by :mod:`vtlest._kernels` without
the rest of ``scipy.signal``.  The public wrapper validates, reshapes
and copies on each of the 100 per-channel calls an excitation pattern makes,
which cost about as much as the filtering itself.  The kernel is private to
scipy, so the wrapper's checks that still apply are made once, on the
constant bank at import (:func:`_checked_bank`), and
``tests/test_frontends.py::TestGammatoneKernel`` checks that every channel's
envelope is bit for bit the one the public ``sosfilt`` and ``lfilter`` give.

The channels go in blocks of :data:`EP_BLOCK` adjacent ones, and each block
is rectified, smoothed and clipped by one call each; the smoothing calls the
compiled kernel that ``lfilter`` ends with
(``scipy.signal._sigtools._linear_filter``) directly.  A block's rows share
one length: each channel's samples sit right-aligned behind zeros, up to the
block's longest lead (its first channel's, as :data:`EP_LEAD_FRAMES` never
rises with the channel).  A filter at rest that reads zeros stays at exactly
zero, so the padding changes no bit of any channel's envelope.

The bank runs on the calling thread.  Both kernels release the interpreter
lock, but a second thread must take the lock back after each of the 100
cascade calls: on a 2-CPU machine two threads did not win reliably, and lost
to one thread when another process kept the other CPU busy.  Processes do
not share the lock: :meth:`vtlest.pipeline.CorpusAnalyzer.prepare` computes
half of a cold corpus's excitation patterns in a forked child.
"""
from __future__ import annotations

import numpy as np

from ._kernels import _linear_filter, _sosfilt
from .axes import CHANNELS, F_HI, F_LO, AxisKind, FrequencyAxis, erb_bandwidth, hz_to_mel, make_axis
from .errors import ConfigurationError, InputError
from .fileio import CANONICAL_FS
from .spectral import NO_COMPRESSION, Spectrogram

#: Gammatone bandwidth scale factor relative to the auditory-filter ERB.
GAMMATONE_BW_FACTOR = 1.019
#: Order of the gammatone filters (number of repeated pole pairs).
GAMMATONE_ORDER = 4
#: Cutoff of the envelope smoothing lowpass, Hz.
ENVELOPE_LP_HZ = 1000.0
#: Frame length of excitation-pattern spectrograms, s, and in samples (24).
EP_FRAME_PERIOD = 0.0005
EP_FRAME_N = round(EP_FRAME_PERIOD * CANONICAL_FS)
#: How many of its own time constants each gammatone channel starts before
#: the first frame :func:`gammatone_ep` returns.  The filters start from rest,
#: and at 28 the cut moves the default ladder's averaged patterns by at most
#: 2.2e-7 dB; the top channels need more than the 22.7 that 100 ms is at
#: 100 Hz, because the cut's onset is broadband and a vowel is weak at 8 kHz.
EP_PREROLL_TAUS = 28
#: Adjacent gammatone channels rectified and smoothed together.  Ten pad the
#: shorter leads with more zeros and were slower.
EP_BLOCK = 5
#: Hamming window length and hop of the STFT, s, and in samples (1 200, 240).
STFT_WINDOW = 0.025
STFT_HOP = 0.005
STFT_WINDOW_N = round(STFT_WINDOW * CANONICAL_FS)
STFT_HOP_N = round(STFT_HOP * CANONICAL_FS)
#: Number of mel filters, spanning the analysis range ``[F_LO, F_HI]``.
MEL_FILTERS = 25

#: The gammatone channels: the canonical grid, ERB-linear.
EP_AXIS = make_axis(AxisKind.ERB_LINEAR, CHANNELS, F_LO, F_HI)
#: The STFT's FFT bins, 0 Hz to Nyquist.
STFT_AXIS = FrequencyAxis(AxisKind.LINEAR_HZ, STFT_WINDOW_N // 2 + 1, 0.0, CANONICAL_FS / 2.0)
#: The mel filters' centers, mel-linear over the canonical range.
MEL_AXIS = make_axis(AxisKind.MEL_LINEAR, MEL_FILTERS, F_LO, F_HI)


#: The envelope lowpass ``(b, a)``: ``scipy.signal.butter(2, ENVELOPE_LP_HZ /
#: (CANONICAL_FS / 2))`` bit for bit, written out so that no filter is designed.
_ENVELOPE_B = np.array([0.003916126660547369, 0.007832253321094738, 0.003916126660547369])
_ENVELOPE_A = np.array([1.0, -1.815341082704568, 0.8310055893467575])
_ENVELOPE_B.flags.writeable = False
_ENVELOPE_A.flags.writeable = False


def _gammatone_sos() -> np.ndarray:
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
    fc = EP_AXIS.center_freqs
    bw = GAMMATONE_BW_FACTOR * erb_bandwidth(fc)
    radius = np.exp(-2.0 * np.pi * bw / CANONICAL_FS)
    pole = radius * np.exp(2j * np.pi * fc / CANONICAL_FS)
    w = np.exp(1j * np.pi * (2 * np.arange(GAMMATONE_ORDER) + 1) / GAMMATONE_ORDER)
    zeros = ((pole[:, None] - w * pole.conj()[:, None]) / (1.0 - w)).real
    sos = np.zeros((EP_AXIS.channels, GAMMATONE_ORDER, 6))
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


#: Whole frames each channel starts before the first frame
#: :func:`gammatone_ep` returns: ``ceil(EP_PREROLL_TAUS * tau_c /
#: EP_FRAME_PERIOD)`` for the decay time constant ``tau_c = 1 / (2 pi *
#: 1.019 * ERB(fc))`` of channel ``c``'s envelope, 247 frames (123.5 ms) at
#: 100 Hz and 10 at 8 kHz.
_TAU = 1.0 / (2.0 * np.pi * GAMMATONE_BW_FACTOR * erb_bandwidth(EP_AXIS.center_freqs))
EP_LEAD_FRAMES = np.ceil(EP_PREROLL_TAUS * _TAU * CANONICAL_FS / EP_FRAME_N).astype(int)
EP_LEAD_FRAMES.flags.writeable = False


def _checked_bank(sos: np.ndarray) -> np.ndarray:
    """``sos`` if the compiled cascade can filter with each channel's
    sections as they are: C-contiguous float64 of shape ``(channels,
    GAMMATONE_ORDER, 6)``, every ``a0`` one (the kernel assumes it)."""
    if not (sos.dtype == np.float64 and sos.flags.c_contiguous
            and sos.shape == (EP_AXIS.channels, GAMMATONE_ORDER, 6) and np.all(sos[:, :, 3] == 1.0)):
        raise RuntimeError(f"the gammatone bank must be C-contiguous float64 of shape "
                           f"({EP_AXIS.channels}, {GAMMATONE_ORDER}, 6) with every a0 = 1")
    return sos


_GAMMATONE_SOS = _checked_bank(_gammatone_sos())

# glibc's malloc maps each block above its mmap threshold (128 KiB at start)
# on its own, raises the threshold to the size of such a block when it is
# freed, and returns the top of the heap to the system once more than twice
# the threshold is free there.  A block of the bank allocates three arrays of
# up to 0.33 MB at the pipeline's Ep cut, so with the threshold that a 0.33 MB
# free leaves, each block's arrays went back to the system and were faulted
# in again: about 5 800 page faults and 15% more time per cold Ep_SSI
# estimate of the default ladder, on one CPU.  Freeing one untouched 1 MiB
# array raises the threshold past that; it costs no resident memory, and
# under another allocator it is one allocation and one free.
np.empty(1 << 17)


def gammatone_ep(signal, *, start: int = 0) -> Spectrogram:
    """Excitation-pattern spectrogram from a gammatone filterbank.

    Each channel of :data:`EP_AXIS` filters the signal with a 4th-order
    gammatone centered at the channel frequency (bandwidth ``1.019 * ERB``),
    extracts the envelope, and averages it over consecutive frames of
    :data:`EP_FRAME_N` samples.

    Parameters
    ----------
    signal : array_like
        Mono waveform at :data:`~vtlest.fileio.CANONICAL_FS`.
    start : int
        First sample of the first frame returned; a frame boundary.  Channel
        ``c`` filters from rest :data:`EP_LEAD_FRAMES` ``[c]`` frames before
        it (from sample 0 if that is sooner), so only ``start = 0`` matches
        filtering the whole signal exactly.

    Returns
    -------
    Spectrogram
        Nonnegative, uncompressed; shape (n_frames, channels), holding the
        whole frames from ``start`` on, every :data:`EP_FRAME_PERIOD` s.

    Notes
    -----
    The bandpass runs as a cascade of real second-order sections (see
    :func:`_gammatone_sos`) rather than as one direct-form 8-pole filter, which
    is numerically unstable at low center frequencies where the poles crowd
    ``z = 1``.  Each section places only one conjugate pole pair, so its
    coefficients stay well conditioned down to the lowest channel.  The
    cascade filters each channel's row in place from rest through scipy's
    compiled kernel, and ``TestGammatoneKernel`` checks that every channel is
    bit for bit what the public ``sosfilt`` and ``lfilter`` give.  The lowpass
    stays ``lfilter``'s: through the cascade kernel it differs in the last bits.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("signal must be a non-empty 1-D array")
    frame = EP_FRAME_N
    if x.size < frame:
        raise InputError(f"signal shorter than one {EP_FRAME_PERIOD*1e3:g} ms frame")
    end = x.size // frame * frame
    if start < 0 or start % frame or start >= end:
        raise ConfigurationError(
            f"start must be a multiple of the {frame}-sample frame below {end}, got {start}"
        )
    x = x[:end]
    n = end - start
    ep = np.empty((n // frame, EP_AXIS.channels))
    leads = np.minimum(EP_LEAD_FRAMES * frame, start).tolist()
    for first in range(0, EP_AXIS.channels, EP_BLOCK):
        block = range(first, min(first + EP_BLOCK, EP_AXIS.channels))
        pad = leads[first]
        rows = np.zeros((len(block), pad + n))
        zi = np.zeros((len(block), GAMMATONE_ORDER, 2))
        for i, c in enumerate(block):
            y = rows[i:i + 1, pad - leads[c]:]
            y[0] = x[start - leads[c]:]
            _sosfilt(_GAMMATONE_SOS[c], y, zi[i:i + 1])
        np.maximum(rows, 0.0, out=rows)
        env = _linear_filter(_ENVELOPE_B, _ENVELOPE_A, rows, -1)[:, pad:]
        np.maximum(env, 0.0, out=env)
        ep[:, first:block.stop] = env.reshape(len(block), -1, frame).mean(axis=2).T
    return Spectrogram(ep, frame / CANONICAL_FS, EP_AXIS, NO_COMPRESSION,
                       t0=(start + frame / 2.0) / CANONICAL_FS)


def stft_spectrum(signal) -> Spectrogram:
    """Magnitude STFT of a signal at :data:`~vtlest.fileio.CANONICAL_FS`,
    with a :data:`STFT_WINDOW` Hamming window every :data:`STFT_HOP`
    seconds, on the FFT-bin axis :data:`STFT_AXIS`."""
    x = np.asarray(signal, dtype=float)
    win_n, hop_n = STFT_WINDOW_N, STFT_HOP_N
    if x.ndim != 1 or x.size < win_n:
        raise InputError(
            f"signal must be at least one window ({win_n} samples) long, got {x.size}"
        )
    n_frames = (x.size - win_n) // hop_n + 1
    starts = np.arange(n_frames) * hop_n
    frames = np.abs(np.fft.rfft(x[starts[:, None] + np.arange(win_n)] * _STFT_WINDOW, axis=1))
    return Spectrogram(frames, hop_n / CANONICAL_FS, STFT_AXIS, NO_COMPRESSION,
                       t0=win_n / (2.0 * CANONICAL_FS))


def mel_filterbank(bin_freqs: np.ndarray) -> np.ndarray:
    """:data:`MEL_FILTERS` triangular filters with unit peak, centers equally
    spaced in mel.

    Centers include both edges of ``[F_LO, F_HI]``; the outer triangles
    extend one (virtual) center step beyond the range.  Returns shape
    ``(MEL_FILTERS, len(bin_freqs))``.
    """
    centers = np.linspace(hz_to_mel(F_LO), hz_to_mel(F_HI), MEL_FILTERS)
    dm = centers[1] - centers[0]
    bins_mel = hz_to_mel(np.maximum(bin_freqs, 0.0))
    rising = (bins_mel[None, :] - (centers[:, None] - dm)) / dm
    falling = ((centers[:, None] + dm) - bins_mel[None, :]) / dm
    return np.clip(np.minimum(rising, falling), 0.0, None)


_STFT_WINDOW = np.hamming(STFT_WINDOW_N)
_STFT_WINDOW.flags.writeable = False
_MEL_WEIGHTS_T = mel_filterbank(STFT_AXIS.center_freqs).T


def mel_spectrum(stft: Spectrogram) -> Spectrogram:
    """Mel-filterbank spectrogram from a magnitude STFT.

    The input must be uncompressed and on :data:`STFT_AXIS`; the result
    lives on :data:`MEL_AXIS`.
    """
    if stft.axis != STFT_AXIS:
        raise InputError(f"mel filterbank expects the STFT's {STFT_AXIS.channels}-bin linear-Hz axis, "
                         f"got {stft.axis.channels} {stft.axis.kind.value} channels")
    if stft.compression.mode != "none":
        raise InputError("mel filterbank expects uncompressed magnitudes")
    return Spectrogram(stft.frames @ _MEL_WEIGHTS_T, stft.frame_period, MEL_AXIS, t0=stft.t0)
