"""Spectrum and spectrogram containers plus amplitude-domain transforms."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .axes import FrequencyAxis
from .errors import DegenerateInputError, ConfigurationError, InputError

#: Relative floor applied before log compression so silent channels map to a
#: finite level (-100 dB below the spectrogram maximum).
LOG_FLOOR_RATIO = 1e-5


@dataclass(frozen=True)
class Compression:
    """Amplitude compression tag: none, log (dB), or power with exponent."""

    mode: str
    exponent: float | None = None

    def __post_init__(self):
        if self.mode not in ("none", "log", "power"):
            raise ConfigurationError(f"unknown compression mode {self.mode!r}")
        if self.mode == "power":
            p = self.exponent
            if p is None or not (0.1 - 1e-9 <= p <= 1.0 + 1e-9) or abs(round(p * 10) - p * 10) > 1e-9:
                raise ConfigurationError(
                    f"power exponent must be one of 0.1, 0.2, ..., 1.0, got {p!r}"
                )
        elif self.exponent is not None:
            raise ConfigurationError(f"{self.mode!r} compression takes no exponent")

    def __str__(self):
        return self.mode if self.mode != "power" else f"power({self.exponent:g})"


NO_COMPRESSION = Compression("none")
LOG_COMPRESSION = Compression("log")


def power_compression(exponent: float) -> Compression:
    return Compression("power", float(exponent))


def as_compression(mode) -> Compression:
    """Coerce ``"log"``, a power exponent, or a Compression into a Compression."""
    if isinstance(mode, Compression):
        return mode
    if mode == "log":
        return LOG_COMPRESSION
    if mode == "none":
        return NO_COMPRESSION
    if isinstance(mode, (int, float)):
        return power_compression(mode)
    raise ConfigurationError(f"cannot interpret {mode!r} as a compression mode")


def _check_values(values, axis, compression):
    if values.ndim == 0 or values.shape[-1] != axis.channels:
        raise InputError(
            f"got {values.shape[-1] if values.ndim else 0} channels of data "
            f"for a {axis.channels}-channel axis"
        )
    if not values.size:
        return
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):  # NaN propagates into the min
        raise InputError("values must be finite, got NaN or inf")
    if compression.mode in ("none", "power") and lo < 0:
        raise InputError("uncompressed amplitude values must be nonnegative")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Per-channel amplitude (or compressed amplitude) on a frequency axis."""

    values: np.ndarray
    axis: FrequencyAxis
    compression: Compression = NO_COMPRESSION

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise InputError(f"spectrum values must be 1-D, got shape {self.values.shape}")
        _check_values(self.values, self.axis, self.compression)


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Frames of per-channel values at a fixed frame period.

    ``t0`` is the time of the first frame's center; it defaults to half a
    frame period (contiguous block averaging from t=0).
    """

    frames: np.ndarray
    frame_period: float
    axis: FrequencyAxis
    compression: Compression = NO_COMPRESSION
    t0: float = field(default=-1.0)

    def __post_init__(self):
        object.__setattr__(self, "frames", np.asarray(self.frames, dtype=float))
        if self.frames.ndim != 2:
            raise InputError(f"frames must be 2-D, got shape {self.frames.shape}")
        if self.frame_period <= 0:
            raise ConfigurationError(f"frame_period must be positive, got {self.frame_period}")
        if self.t0 < 0:
            object.__setattr__(self, "t0", self.frame_period / 2.0)
        _check_values(self.frames, self.axis, self.compression)

    @property
    def frame_times(self) -> np.ndarray:
        """Center time of each frame in seconds."""
        return self.t0 + np.arange(self.frames.shape[0]) * self.frame_period

    @property
    def span(self) -> tuple[float, float]:
        """Time interval covered by the frames, edge to edge."""
        half = self.frame_period / 2.0
        return self.t0 - half, float(self.frame_times[-1]) + half


def compress(sg, mode):
    """Apply log (``20*log10``) or power compression element-wise.

    Accepts a :class:`Spectrogram` or :class:`Spectrum` whose compression is
    ``none``.  Log compression floors values at ``LOG_FLOOR_RATIO`` times the
    global maximum first, so silence maps to a finite level.
    """
    mode = as_compression(mode)
    if mode.mode == "none":
        raise ConfigurationError("compress requires a log or power mode")
    if sg.compression.mode != "none":
        raise InputError(f"input is already {sg.compression}-compressed")
    data = sg.frames if isinstance(sg, Spectrogram) else sg.values
    if mode.mode == "log":
        peak = data.max() if data.size else 0.0
        if peak <= 0.0:
            raise DegenerateInputError("cannot log-compress all-zero data")
        out = 20.0 * np.log10(np.maximum(data, LOG_FLOOR_RATIO * peak))
    else:
        out = data ** mode.exponent
    if isinstance(sg, Spectrogram):
        return Spectrogram(out, sg.frame_period, sg.axis, mode, sg.t0)
    return Spectrum(out, sg.axis, mode)


def center_average(sg: Spectrogram, center: float, half_width: float = 0.025) -> Spectrum:
    """Mean over the frames whose centers fall within ``center +- half_width``."""
    lo, hi = center - half_width, center + half_width
    span_lo, span_hi = sg.span
    if lo < span_lo - 1e-12 or hi > span_hi + 1e-12:
        raise InputError(
            f"averaging window [{lo:.4f}, {hi:.4f}] s falls outside the "
            f"spectrogram span [{span_lo:.4f}, {span_hi:.4f}] s"
        )
    t = sg.frame_times
    picked = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    if not picked.any():
        raise InputError("averaging window contains no frame centers")
    return Spectrum(sg.frames[picked].mean(axis=0), sg.axis, sg.compression)


def resample_to_axis(s: Spectrum, target: FrequencyAxis) -> Spectrum:
    """Linearly interpolate a spectrum onto another axis's channel centers.

    Interpolation runs in the source axis's native coordinate (plain Hz for an
    FFT-bin axis, log10 Hz for a log axis, and so on), so data that is linear
    in that coordinate resamples exactly.  The source axis must cover the
    target's frequency range.
    """
    src_hz = s.axis.center_freqs
    dst_hz = target.center_freqs
    if dst_hz[0] < src_hz[0] - 1e-9 or dst_hz[-1] > src_hz[-1] + 1e-9:
        raise InputError(
            f"source range [{src_hz[0]:.6g}, {src_hz[-1]:.6g}] Hz does not cover "
            f"target range [{dst_hz[0]:.6g}, {dst_hz[-1]:.6g}] Hz"
        )
    src = s.axis.to_coord(src_hz)
    dst = s.axis.to_coord(np.clip(dst_hz, src_hz[0], src_hz[-1]))
    return Spectrum(np.interp(dst, src, s.values), target, s.compression)
