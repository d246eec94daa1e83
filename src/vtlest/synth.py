"""Source-filter vowel synthesis with controllable pitch and tract scale.

A glottal flow pulse train (Rosenberg shape, phase-accumulated so fractional
periods stay exact) is filtered by a cascade of four second-order resonators.
Scaling every resonance frequency and bandwidth by ``alpha`` models a vocal
tract shortened to ``1/alpha`` of the baseline length, which is how corpora
with exactly known relative tract lengths are generated here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from . import fileio
from .errors import ConfigurationError, InputError

#: Baseline formant centers in Hz (adult-male-like values; only their ratios
#: across speakers matter for shift estimation).
VOWEL_FORMANTS_HZ = {
    "a": (700.0, 1200.0, 2600.0, 3400.0),
    "i": (300.0, 2300.0, 3000.0, 3700.0),
    "u": (330.0, 800.0, 2300.0, 3300.0),
    "e": (480.0, 1900.0, 2600.0, 3500.0),
    "o": (500.0, 900.0, 2500.0, 3400.0),
}
FORMANT_BANDWIDTHS_HZ = (60.0, 90.0, 120.0, 150.0)
BASELINE_VTL_CM = 16.0

#: Rosenberg pulse timing as fractions of the period.
OPEN_QUOTIENT = 0.6
CLOSING_FRACTION = 0.1

MIN_DURATION_S = 0.2
#: Utterance length wherever none is given, s.
DEFAULT_DURATION_S = 0.5
OUTPUT_PEAK = 0.5


@dataclass(frozen=True)
class VowelSpec:
    """One synthetic utterance: formant set, pitch, and tract scale."""

    vowel: str
    formants: tuple[float, float, float, float]
    bandwidths: tuple[float, float, float, float]
    f0: float
    alpha: float
    vtl_cm: float
    duration: float = DEFAULT_DURATION_S
    fs: float = fileio.CANONICAL_FS

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.f0 <= 0:
            raise ConfigurationError(f"f0 must be positive, got {self.f0}")
        if len(self.formants) != 4 or len(self.bandwidths) != 4:
            raise ConfigurationError("exactly four formants and bandwidths are required")
        if any(b <= a for a, b in zip(self.formants, self.formants[1:])):
            raise ConfigurationError(f"formants must be strictly increasing, got {self.formants}")
        if self.formants[-1] >= self.fs / 2:
            raise ConfigurationError(
                f"top formant {self.formants[-1]:.0f} Hz exceeds the Nyquist limit at fs={self.fs}"
            )


def vowel_spec(vowel: str, f0: float, alpha: float = 1.0, duration: float = DEFAULT_DURATION_S,
               fs: float = fileio.CANONICAL_FS) -> VowelSpec:
    """Baseline-table spec for ``vowel``, scaled by ``alpha``."""
    if vowel not in VOWEL_FORMANTS_HZ:
        raise ConfigurationError(f"unknown vowel {vowel!r}; expected one of {sorted(VOWEL_FORMANTS_HZ)}")
    base = VowelSpec(
        vowel=vowel,
        formants=VOWEL_FORMANTS_HZ[vowel],
        bandwidths=FORMANT_BANDWIDTHS_HZ,
        f0=float(f0),
        alpha=1.0,
        vtl_cm=BASELINE_VTL_CM,
        duration=duration,
        fs=fs,
    )
    return base if alpha == 1.0 else scale_vtl(base, alpha)


def scale_vtl(spec: VowelSpec, alpha: float) -> VowelSpec:
    """Shorten the tract to ``1/alpha`` of its length: formant centers and
    bandwidths multiply by ``alpha``, the length divides by it."""
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    return replace(
        spec,
        formants=tuple(f * alpha for f in spec.formants),
        bandwidths=tuple(b * alpha for b in spec.bandwidths),
        alpha=spec.alpha * alpha,
        vtl_cm=spec.vtl_cm / alpha,
    )


def rosenberg_pulse(phase: np.ndarray) -> np.ndarray:
    """Glottal flow for phase in [0, 1): raised-cosine opening, cosine-quarter
    closing, closed for the rest of the period."""
    opening = OPEN_QUOTIENT - CLOSING_FRACTION
    g = np.zeros_like(phase)
    rise = phase < opening
    g[rise] = 0.5 * (1.0 - np.cos(np.pi * phase[rise] / opening))
    fall = (phase >= opening) & (phase < OPEN_QUOTIENT)
    g[fall] = np.cos(np.pi * (phase[fall] - opening) / (2.0 * CLOSING_FRACTION))
    return g


def _resonator_coeffs(freq: float, bandwidth: float, fs: float):
    r = np.exp(-np.pi * bandwidth / fs)
    theta = 2.0 * np.pi * freq / fs
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    return np.array([a.sum()]), a  # unit gain at DC


def synth_vowel(spec: VowelSpec) -> np.ndarray:
    """Synthesize the vowel waveform; deterministic, peak-normalized to 0.5."""
    f4, b4 = spec.formants[-1], spec.bandwidths[-1]
    if spec.fs < 2.0 * (f4 + 2.0 * b4):
        raise ConfigurationError(
            f"fs={spec.fs} too low for a resonance at {f4:.0f} Hz with bandwidth {b4:.0f} Hz"
        )
    if spec.duration < MIN_DURATION_S:
        raise ConfigurationError(
            f"duration must be at least {MIN_DURATION_S} s, got {spec.duration}"
        )
    n = int(round(spec.duration * spec.fs))
    phase = (np.arange(n) * (spec.f0 / spec.fs)) % 1.0
    x = rosenberg_pulse(phase)
    for freq, bandwidth in zip(spec.formants, spec.bandwidths):
        b, a = _resonator_coeffs(freq, bandwidth, spec.fs)
        x = lfilter(b, a, x)
    return OUTPUT_PEAK * x / np.abs(x).max()


def default_speakers() -> list[tuple[float, float]]:
    """(f0, alpha) ladder of 8 speakers: scale factors 0.80-1.25 paired with
    pitches rising 100-220 Hz, so shorter tracts get higher pitch."""
    alphas = np.array([0.80, 0.88, 0.95, 1.00, 1.05, 1.12, 1.20, 1.25])
    f0s = np.linspace(100.0, 220.0, alphas.size)
    return [(float(f), float(a)) for f, a in zip(f0s, alphas)]


def pair_demo_speakers() -> list[tuple[float, float]]:
    """A high-pitched short tract (15.0 cm, 182 Hz) against a low-pitched long
    one (18.5 cm, 101 Hz); length ratio 1.2333."""
    return [
        (182.0, BASELINE_VTL_CM / 15.0),
        (101.0, BASELINE_VTL_CM / 18.5),
    ]


def make_corpus(speakers, vowels, out_dir, duration: float = DEFAULT_DURATION_S,
                fs: float = fileio.CANONICAL_FS):
    """Synthesize one WAV per speaker x vowel and write a manifest CSV.

    ``speakers`` is a list of (f0, alpha) pairs; ids s01, s02, ... are
    assigned in order.  Returns the list of manifest records; the manifest is
    written to ``out_dir / "manifest.csv"`` with WAV paths relative to it.
    """
    speakers = list(speakers)
    vowels = list(vowels)
    if not speakers or not vowels:
        raise InputError("speakers and vowels must be non-empty")
    records = []
    width = max(2, len(str(len(speakers))))
    for idx, (f0, alpha) in enumerate(speakers, start=1):
        speaker_id = f"s{idx:0{width}d}"
        for vowel in vowels:
            spec = vowel_spec(vowel, f0, alpha, duration, fs)
            samples = synth_vowel(spec)
            rel_path = f"{speaker_id}_{vowel}.wav"
            fileio.write_wav(out_dir, rel_path, samples, fs)
            records.append(fileio.UtteranceRecord(
                speaker_id=speaker_id,
                vowel=vowel,
                f0_hz=float(f0),
                alpha=float(alpha),
                vtl_cm=spec.vtl_cm,
                path=rel_path,
            ))
    fileio.write_manifest(out_dir, records)
    return records
