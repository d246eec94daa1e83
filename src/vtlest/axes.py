"""Frequency scales and channel grids.

Three warped scales are supported besides plain Hz: the ERB-number scale
(Glasberg & Moore), the mel scale, and log10 frequency.  A
:class:`FrequencyAxis` places a fixed number of channels at equal steps in
one of these coordinates, which is the common grid every spectral
representation in this package is eventually mapped onto.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError

# Glasberg & Moore constants: ERB(f) = 24.7*(0.00437*f + 1),
# ERB-number(f) = 21.4*log10(0.00437*f + 1)
_ERB_C = 0.00437
_ERB_SCALE = 21.4
_ERB_BW_MIN = 24.7

_MEL_SCALE = 2595.0
_MEL_BREAK = 700.0

#: The canonical analysis grid: every representation is compared on
#: ``CHANNELS`` channels spanning ``F_LO``-``F_HI`` Hz.
CHANNELS, F_LO, F_HI = 100, 100.0, 8000.0


def _apply(f, fn, what):
    x = np.asarray(f, dtype=float)
    if np.any(x < 0):
        raise DomainError(f"{what} must be nonnegative, got {f!r}")
    out = fn(x)
    return float(out) if out.ndim == 0 else out


def hz_to_erbn(f):
    """Frequency in Hz to ERB-number (cumulative auditory-filter count)."""
    return _apply(f, lambda x: _ERB_SCALE * np.log10(_ERB_C * x + 1.0), "frequency")


def erbn_to_hz(e):
    """Inverse of :func:`hz_to_erbn`."""
    return _apply(e, lambda x: (10.0 ** (x / _ERB_SCALE) - 1.0) / _ERB_C, "ERB-number")


def erb_bandwidth(f):
    """Equivalent rectangular bandwidth in Hz of the auditory filter at ``f``."""
    return _apply(f, lambda x: _ERB_BW_MIN * (_ERB_C * x + 1.0), "frequency")


def hz_to_mel(f):
    """Frequency in Hz to mel."""
    return _apply(f, lambda x: _MEL_SCALE * np.log10(1.0 + x / _MEL_BREAK), "frequency")


def mel_to_hz(m):
    """Inverse of :func:`hz_to_mel`."""
    return _apply(m, lambda x: _MEL_BREAK * (10.0 ** (x / _MEL_SCALE) - 1.0), "mel value")


class AxisKind(enum.Enum):
    """Coordinate in which channel centers are equally spaced."""

    ERB_LINEAR = "erb"
    LOG10_HZ = "log10"
    MEL_LINEAR = "mel"
    LINEAR_HZ = "hz"


def _as_float(x):
    out = np.asarray(x, dtype=float)
    return float(out) if out.ndim == 0 else out


_TO_COORD = {
    AxisKind.ERB_LINEAR: hz_to_erbn,
    AxisKind.LOG10_HZ: lambda f: _as_float(np.log10(f)),
    AxisKind.MEL_LINEAR: hz_to_mel,
    AxisKind.LINEAR_HZ: _as_float,
}

_FROM_COORD = {
    AxisKind.ERB_LINEAR: erbn_to_hz,
    AxisKind.LOG10_HZ: lambda c: _as_float(10.0 ** np.asarray(c, dtype=float)),
    AxisKind.MEL_LINEAR: mel_to_hz,
    AxisKind.LINEAR_HZ: _as_float,
}


@dataclass(frozen=True)
class FrequencyAxis:
    """A channel grid equally spaced in the native coordinate of ``kind``.

    Channel 0 is centered at ``f_lo`` and channel ``channels - 1`` at
    ``f_hi``; centers are strictly increasing in between.
    """

    kind: AxisKind
    channels: int
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if self.channels < 2:
            raise ConfigurationError(f"channels must be >= 2, got {self.channels}")
        if not 0.0 <= self.f_lo < self.f_hi:
            raise ConfigurationError(
                f"need 0 <= f_lo < f_hi, got f_lo={self.f_lo}, f_hi={self.f_hi}"
            )
        if self.kind is AxisKind.LOG10_HZ and self.f_lo <= 0.0:
            raise ConfigurationError("a log10 axis requires f_lo > 0")

    @cached_property
    def center_freqs(self) -> np.ndarray:
        """Channel center frequencies in Hz, shape ``(channels,)``."""
        to_c = _TO_COORD[self.kind]
        from_c = _FROM_COORD[self.kind]
        coords = np.linspace(to_c(self.f_lo), to_c(self.f_hi), self.channels)
        freqs = np.asarray(from_c(coords), dtype=float)
        # pin the endpoints so round-trip error cannot accumulate there
        freqs[0], freqs[-1] = self.f_lo, self.f_hi
        freqs.flags.writeable = False
        return freqs

    @property
    def step(self) -> float:
        """Channel spacing in the axis's native coordinate."""
        to_c = _TO_COORD[self.kind]
        return (to_c(self.f_hi) - to_c(self.f_lo)) / (self.channels - 1)

    def center_freq(self, channel: int) -> float:
        return float(self.center_freqs[channel])

    def to_coord(self, freq):
        """Map Hz to the axis's native coordinate."""
        return _TO_COORD[self.kind](freq)

    def from_coord(self, coord):
        """Map the axis's native coordinate back to Hz."""
        return _FROM_COORD[self.kind](coord)


def make_axis(kind, channels: int, f_lo: float, f_hi: float) -> FrequencyAxis:
    """Build a :class:`FrequencyAxis`, accepting ``kind`` as enum or string.

    The canonical analysis grid is ``make_axis("erb", CHANNELS, F_LO, F_HI)``.
    """
    if isinstance(kind, str):
        try:
            kind = AxisKind(kind)
        except ValueError:
            valid = ", ".join(k.value for k in AxisKind)
            raise ConfigurationError(f"unknown axis kind {kind!r}; expected one of {valid}")
    if not isinstance(channels, (int, np.integer)) or isinstance(channels, bool):
        raise ConfigurationError(f"channels must be an integer, got {channels!r}")
    if f_lo <= 0:
        raise ConfigurationError(f"f_lo must be positive, got {f_lo}")
    return FrequencyAxis(kind, int(channels), float(f_lo), float(f_hi))
