"""Source-filter vowel synthesis with controllable pitch and tract scale.

A glottal flow pulse train (Rosenberg shape, phase-accumulated so fractional
periods stay exact) is filtered by a cascade of four second-order resonators,
one call of the compiled kernel that ``scipy.signal.sosfilt`` ends with
(:mod:`vtlest._kernels`).  The source depends only on pitch, rate and length,
so a corpus builds it once per speaker.
Scaling every resonance frequency and bandwidth by ``alpha`` models a vocal
tract shortened to ``1/alpha`` of the baseline length, which is how corpora
with exactly known relative tract lengths are generated here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _split, fileio
from ._kernels import _sosfilt
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

#: Fewest samples of audio each of the two processes writes when
#: :func:`make_corpus` splits a corpus, so a split needs twice as many: the
#: cost scales with duration times rate, whatever the speaker count.
#: Measured on a 2-CPU Xeon with 5 vowels of 0.5 or 2 s at 44.1 or 48 kHz,
#: two processes against one, in rounds of 9 pairs: with the other CPU
#: idle they won 7 to 9 of 9 from 882 000 samples per process.  With a busy
#: loop holding it, every round up to 1 200 000 had the slower median (0-5
#: of 9 won); from 1 323 000, the smallest size this value lets split, they
#: broke even (2-7 of 9, 11 of 18 medians faster).  The default ladder
#: holds 480 000 per process, so it stays serial.
SYNTH_SPLIT_MIN = 1_320_000


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
        if not 0 < self.alpha < np.inf:
            raise ConfigurationError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.f0 < np.inf:
            raise ConfigurationError(f"f0 must be positive and finite, got {self.f0}")
        if not np.isfinite(self.duration):
            raise ConfigurationError(f"duration must be finite, got {self.duration}")
        if not float(self.fs).is_integer():
            raise ConfigurationError(f"fs must be a finite whole number of Hz, got {self.fs}")
        if len(self.formants) != 4 or len(self.bandwidths) != 4:
            raise ConfigurationError("exactly four formants and bandwidths are required")
        if any(b <= a for a, b in zip(self.formants, self.formants[1:])):
            raise ConfigurationError(f"formants must be strictly increasing, got {self.formants}")
        if self.formants[-1] >= self.fs / 2:
            raise ConfigurationError(
                f"top formant {self.formants[-1]:.0f} Hz exceeds the Nyquist limit at fs={self.fs}"
            )
        f4, b4 = self.formants[-1], self.bandwidths[-1]
        if self.fs < 2.0 * (f4 + 2.0 * b4):
            raise ConfigurationError(
                f"fs={self.fs} too low for a resonance at {f4:.0f} Hz with bandwidth {b4:.0f} Hz"
            )
        if self.duration < MIN_DURATION_S:
            raise ConfigurationError(
                f"duration must be at least {MIN_DURATION_S} s, got {self.duration}"
            )


def vowel_spec(vowel: str, f0: float, alpha: float = 1.0, duration: float = DEFAULT_DURATION_S,
               fs: float = fileio.CANONICAL_FS) -> VowelSpec:
    """Baseline-table spec for ``vowel``, scaled by ``alpha``.

    The fields are those of ``scale_vtl`` applied to the baseline, computed
    directly: only the scaled tract has to fit under ``fs``.
    """
    if vowel not in VOWEL_FORMANTS_HZ:
        raise ConfigurationError(f"unknown vowel {vowel!r}; expected one of {sorted(VOWEL_FORMANTS_HZ)}")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    return VowelSpec(
        vowel=vowel,
        formants=tuple(f * alpha for f in VOWEL_FORMANTS_HZ[vowel]),
        bandwidths=tuple(b * alpha for b in FORMANT_BANDWIDTHS_HZ),
        f0=float(f0),
        alpha=float(alpha),
        vtl_cm=BASELINE_VTL_CM / alpha,
        duration=duration,
        fs=fs,
    )


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


def _resonator_section(freq: float, bandwidth: float, fs: float) -> np.ndarray:
    """One resonator as a second-order section ``[b0, 0, 0, 1, a1, a2]``.

    With ``b1 = b2 = 0`` the section computes the values ``lfilter([b0], a)``
    does: the zero products add exactly.
    """
    r = np.exp(-np.pi * bandwidth / fs)
    theta = 2.0 * np.pi * freq / fs
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    return np.array([a.sum(), 0.0, 0.0, *a])  # unit gain at DC


def _n_samples(spec: VowelSpec) -> int:
    return int(round(spec.duration * spec.fs))


def glottal_source(spec: VowelSpec) -> np.ndarray:
    """The Rosenberg pulse train at ``spec``'s pitch, rate and length."""
    phase = np.arange(_n_samples(spec)) * (spec.f0 / spec.fs)
    phase -= np.floor(phase)  # the bits of ``% 1.0`` for phase >= 0, without its division
    return rosenberg_pulse(phase)


def synth_vowel(spec: VowelSpec, *, source: np.ndarray | None = None) -> np.ndarray:
    """Synthesize the vowel waveform; deterministic, peak-normalized to 0.5.

    ``source`` is ``glottal_source`` of a spec with the same f0, duration and
    fs, shared across a speaker's vowels; it is computed when not given, with
    the same result bit for bit.
    """
    n = _n_samples(spec)
    if source is None:
        source = glottal_source(spec)
    elif source.shape != (n,):
        raise ConfigurationError(f"source must hold {n} samples, got shape {source.shape}")
    sos = np.array([_resonator_section(freq, bandwidth, spec.fs)
                    for freq, bandwidth in zip(spec.formants, spec.bandwidths)])
    # what sosfilt does with 1-D float64 input: filter a C-contiguous (1, n)
    # copy in place, from rest
    x = np.array(source, dtype=float, ndmin=2)
    _sosfilt(sos, x, np.zeros((1, len(sos), 2)))
    return OUTPUT_PEAK * x[0] / np.abs(x[0]).max()


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


def _write_wavs(specs, out_dir, fs: float) -> None:
    """Synthesize and write the WAVs of ``(speaker_id, specs)`` pairs."""
    for speaker_id, speaker_specs in specs:
        # a speaker's vowels share f0, duration and fs, hence the source
        source = glottal_source(speaker_specs[0])
        for spec in speaker_specs:
            fileio.write_wav(out_dir, f"{speaker_id}_{spec.vowel}.wav",
                             synth_vowel(spec, source=source), fs)


def make_corpus(speakers, vowels, out_dir, duration: float = DEFAULT_DURATION_S,
                fs: float = fileio.CANONICAL_FS):
    """Synthesize one WAV per speaker x vowel and write a manifest CSV.

    ``speakers`` is a list of (f0, alpha) pairs; ids s01, s02, ... are
    assigned in order.  Returns the list of manifest records; the manifest is
    written to ``out_dir / "manifest.csv"`` with WAV paths relative to it.

    When each half of the speakers holds at least ``SYNTH_SPLIT_MIN`` samples
    of audio and :func:`vtlest._split.can_split` allows it, the first half is
    written here and the second in one forked child.  The manifest is written
    only after the child has exited with status 0; if the split is dropped,
    this process writes every WAV again, and meets any error as one process
    would.  The files are byte for byte the same either way.
    """
    speakers = list(speakers)
    vowels = list(vowels)
    if not speakers or not vowels:
        raise InputError("speakers and vowels must be non-empty")
    repeated = sorted({vowel for vowel in vowels if vowels.count(vowel) > 1})
    if repeated:
        raise InputError(f"each vowel may be given once; repeated: {', '.join(map(repr, repeated))}")
    width = max(2, len(str(len(speakers))))
    # every spec is checked before the first WAV is written
    specs = [(f"s{idx:0{width}d}", [vowel_spec(vowel, f0, alpha, duration, fs) for vowel in vowels])
             for idx, (f0, alpha) in enumerate(speakers, start=1)]
    if fs >= 2**31:  # a 16-bit WAV header holds the byte rate, 2 * fs, in 32 bits
        raise ConfigurationError(f"fs must be below 2**31 Hz to fit a WAV header, got {fs:g}")
    records = [fileio.UtteranceRecord(
        speaker_id=speaker_id, vowel=spec.vowel, f0_hz=spec.f0, alpha=float(spec.alpha),
        vtl_cm=spec.vtl_cm, path=f"{speaker_id}_{spec.vowel}.wav",
    ) for speaker_id, speaker_specs in specs for spec in speaker_specs]
    least = -(-SYNTH_SPLIT_MIN // (len(vowels) * _n_samples(specs[0][1][0])))  # speakers per half
    if _split.split("make_corpus", specs, lambda speaker: _write_wavs([speaker], out_dir, fs),
                    "speakers", least) is None:
        _write_wavs(specs, out_dir, fs)
    fileio.write_manifest(out_dir, records)
    return records
