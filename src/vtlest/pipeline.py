"""Representation catalog and the corpus-level estimation pipeline.

A representation id names a spectral source, an optional pitch-adaptive
weight, and a compression::

    Ep, Ep_SSI                    excitation pattern (dB) on the ERB grid
    F_log, F_0.4, F_SSI_log, ...  Fourier spectrum on the log10-Hz grid
    M_log, M_SSI_0.4, ...         mel spectrum on the mel grid
    W_log, W_SSI_log, ...         externally supplied spectrograms (CSV),
                                  treated like Fourier spectra

The excitation pattern is computed linear and log-compressed for alignment;
correlating linear patterns lets the largest resonance peak dominate, while
the dB pattern exposes the full formant structure (and, untreated, the
resolved harmonics) to the correlator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .axes import AxisKind, FrequencyAxis, make_axis
from .errors import ConfigurationError, InputError
from .frontends import gammatone_ep, mel_spectrum, stft_spectrum
from .shifts import (
    DEFAULT_INTERP,
    DEFAULT_MAX_LAG,
    ShiftMatrix,
    build_shift_matrix,
    estimate_vtl,
    fit_q,
    relative_shifts,
)
from .spectral import (
    Compression,
    LOG_COMPRESSION,
    Spectrum,
    as_compression,
    center_average,
    compress,
    resample_to_axis,
)
from .ssi import SsiParams, apply_weight, estimate_f0, ssi_weight

_BASES = ("Ep", "F", "M", "W")


@dataclass(frozen=True)
class Representation:
    """Parsed form of a representation id."""

    base: str
    ssi: bool = False
    compression: Compression = LOG_COMPRESSION

    def __post_init__(self):
        if self.base not in _BASES:
            raise ConfigurationError(f"unknown representation base {self.base!r}")
        if self.base == "Ep" and self.compression != LOG_COMPRESSION:
            raise ConfigurationError("the excitation-pattern representation is always dB-valued")

    @property
    def id(self) -> str:
        parts = [self.base]
        if self.ssi:
            parts.append("SSI")
        if self.base != "Ep":
            comp = self.compression
            parts.append("log" if comp.mode == "log" else f"{comp.exponent:.1f}")
        return "_".join(parts)


def parse_representation(rep_id: str) -> Representation:
    """Parse ids like ``Ep_SSI``, ``F_log``, or ``M_SSI_0.4``."""
    parts = rep_id.split("_")
    base = parts[0]
    if base not in _BASES:
        raise ConfigurationError(
            f"unknown representation {rep_id!r}: base must be one of {', '.join(_BASES)}"
        )
    rest = parts[1:]
    ssi = bool(rest) and rest[0] == "SSI"
    if ssi:
        rest = rest[1:]
    if base == "Ep":
        if rest:
            raise ConfigurationError(f"{rep_id!r}: Ep takes no compression suffix")
        return Representation(base, ssi, LOG_COMPRESSION)
    if len(rest) != 1:
        raise ConfigurationError(f"{rep_id!r}: expected a single compression suffix")
    try:
        compression = as_compression("log" if rest[0] == "log" else float(rest[0]))
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"{rep_id!r}: bad compression suffix {rest[0]!r}: {exc}") from None
    return Representation(base, ssi, compression)


def representation_catalog(include_external: bool = False) -> list[str]:
    """Every representation id this package can compute.

    External (``W``) ids appear only on request since they need user-supplied
    spectrogram files.
    """
    ids = ["Ep", "Ep_SSI"]
    bases = ("F", "M") + (("W",) if include_external else ())
    for base in bases:
        for ssi in (False, True):
            tag = f"{base}_SSI" if ssi else base
            ids.append(f"{tag}_log")
            ids.extend(f"{tag}_{p/10:.1f}" for p in range(1, 11))
    return ids


@dataclass(frozen=True)
class AnalysisParams:
    """Analysis defaults shared by every front end."""

    channels: int = 100
    f_lo: float = 100.0
    f_hi: float = 8000.0
    fs: float = 48000.0
    ep_frame_period: float = 0.0005
    avg_half_width: float = 0.025
    stft_window: float = 0.025
    stft_hop: float = 0.005
    mel_filters: int = 25
    h_max: float = 3.5
    interp: int = DEFAULT_INTERP
    max_lag: int = DEFAULT_MAX_LAG

    def axis_for(self, base: str) -> FrequencyAxis:
        kind = {
            "Ep": AxisKind.ERB_LINEAR,
            "F": AxisKind.LOG10_HZ,
            "M": AxisKind.MEL_LINEAR,
            "W": AxisKind.LOG10_HZ,
        }[base]
        return make_axis(kind, self.channels, self.f_lo, self.f_hi)


DEFAULT_PARAMS = AnalysisParams()


class UtteranceAnalyzer:
    """Computes and caches the spectral representations of one utterance.

    The excitation pattern reads the input only up to the end of the
    averaging window: the gammatone bank is causal, so later samples cannot
    change the frames that are averaged.  Only its centre-averaged dB
    spectrum is cached, not the spectrogram.
    """

    def __init__(self, samples, fs, params: AnalysisParams = DEFAULT_PARAMS,
                 f0_override: float | None = None, external_sg=None):
        self.samples = np.asarray(samples, dtype=float)
        if fs != params.fs:
            self.samples, fs = fileio.ensure_rate(self.samples, fs, params.fs)
        self.fs = fs
        self.params = params
        self.center = self.samples.size / self.fs / 2.0
        self._f0_override = f0_override
        self._external_sg = external_sg
        self._cache: dict = {}

    @property
    def f0(self) -> float:
        """Pitch used for weighting: the override if given, else estimated."""
        if self._f0_override is not None:
            return self._f0_override
        if "f0" not in self._cache:
            self._cache["f0"] = estimate_f0(self.samples, self.fs)
        return self._cache["f0"]

    def _source_spectrogram(self, base: str):
        key = ("sg", base)
        if key not in self._cache:
            p = self.params
            if base in ("F", "W"):
                if base == "W":
                    if self._external_sg is None:
                        raise InputError("no external spectrogram was supplied for a W representation")
                    sg = self._external_sg
                    if sg.compression.mode != "none":
                        raise InputError("external spectrograms must hold uncompressed amplitudes")
                else:
                    sg = stft_spectrum(self.samples, self.fs, p.stft_window, p.stft_hop)
            elif base == "M":
                stft = self._source_spectrogram("F")
                sg = mel_spectrum(stft, p.mel_filters, p.f_lo, p.f_hi)
            else:
                raise ConfigurationError(f"unknown base {base!r}")
            self._cache[key] = sg
        return self._cache[key]

    def base_spectrum(self, rep: Representation) -> Spectrum:
        """Compressed, time-averaged spectrum on the representation's grid,
        before any weighting."""
        key = ("spec", rep.base, rep.compression)
        if key not in self._cache:
            p = self.params
            if rep.base == "Ep":
                # whole frames up to the window end; the span check of
                # center_average needs the last one to end at or after it
                frame = int(round(p.ep_frame_period * self.fs))
                n_frames = math.ceil((self.center + p.avg_half_width) / p.ep_frame_period)
                stop = min(n_frames * frame, self.samples.size)
                ep = gammatone_ep(self.samples[:stop], self.fs, p.axis_for("Ep"), p.ep_frame_period)
                avg = center_average(ep, self.center, p.avg_half_width)
                spec = compress(avg, rep.compression)
            else:
                sg = compress(self._source_spectrogram(rep.base), rep.compression)
                avg = center_average(sg, self.center, p.avg_half_width)
                spec = resample_to_axis(avg, p.axis_for(rep.base))
            self._cache[key] = spec
        return self._cache[key]

    def spectrum(self, rep: Representation, h_max: float | None = None) -> Spectrum:
        """The spectrum the estimator correlates; weighted when ``rep.ssi``.

        ``h_max = 0`` is read as "no weighting", so weighted representations
        degrade continuously to their unweighted baseline.
        """
        spec = self.base_spectrum(rep)
        if not rep.ssi:
            return spec
        h_max = self.params.h_max if h_max is None else h_max
        if h_max == 0.0:
            return spec
        weights = ssi_weight(spec.axis, SsiParams(h_max=h_max, f0=self.f0))
        return apply_weight(spec, weights)


def analyze_wav(path, rep, params: AnalysisParams = DEFAULT_PARAMS,
                h_max: float | None = None, f0_override: float | None = None,
                external_sg=None) -> Spectrum:
    """One-shot analysis of a WAV file into a representation spectrum."""
    if isinstance(rep, str):
        rep = parse_representation(rep)
    samples, fs = fileio.read_audio(path, params.fs)
    analyzer = UtteranceAnalyzer(samples, fs, params, f0_override, external_sg)
    return analyzer.spectrum(rep, h_max)


@dataclass(frozen=True)
class EstimateRow:
    speaker_id: str
    vowel: str
    shift: float
    l_meas_cm: float
    l_est_cm: float


@dataclass(frozen=True)
class EstimationResult:
    """Estimates for every (speaker, vowel) along with the fitted conversion."""

    representation_id: str
    h_max: float
    rows: tuple[EstimateRow, ...]
    q: float
    l_bar_cm: float

    def measured(self) -> np.ndarray:
        return np.array([r.l_meas_cm for r in self.rows])

    def estimated(self) -> np.ndarray:
        return np.array([r.l_est_cm for r in self.rows])

    def shifts(self) -> np.ndarray:
        return np.array([r.shift for r in self.rows])

    def vowels(self) -> list[str]:
        seen = dict.fromkeys(r.vowel for r in self.rows)
        return list(seen)

    def speaker_mean_lengths(self) -> dict[str, float]:
        """Across-vowel mean of the estimated length per speaker."""
        sums: dict[str, list[float]] = {}
        for r in self.rows:
            sums.setdefault(r.speaker_id, []).append(r.l_est_cm)
        return {spk: float(np.mean(vals)) for spk, vals in sums.items()}


class CorpusAnalyzer:
    """Caches per-utterance spectra and pairwise shifts for a whole corpus.

    Shift matrices are computed once per (vowel, representation, h_max) over
    all speakers; estimating on a speaker subset reuses the cached pairwise
    lags, which are independent of which other speakers are present.
    """

    def __init__(self, records, params: AnalysisParams = DEFAULT_PARAMS,
                 f0_overrides=None, external_dir=None):
        records = list(records)
        if not records:
            raise InputError("corpus manifest is empty")
        seen = set()
        for r in records:
            key = (r.speaker_id, r.vowel)
            if key in seen:
                raise InputError(f"duplicate utterance for speaker {r.speaker_id}, vowel {r.vowel!r}")
            seen.add(key)
        self.records = records
        self.params = params
        self.f0_overrides = f0_overrides
        self.external_dir = external_dir
        self.speakers = list(dict.fromkeys(r.speaker_id for r in records))
        self.vowels = list(dict.fromkeys(r.vowel for r in records))
        self._by_key = {(r.speaker_id, r.vowel): r for r in records}
        self._analyzers: dict = {}
        self._matrices: dict = {}
        vtls = {}
        for r in records:
            if r.speaker_id in vtls and vtls[r.speaker_id] != r.vtl_cm:
                raise InputError(f"speaker {r.speaker_id} has inconsistent vtl_cm values")
            vtls[r.speaker_id] = r.vtl_cm
        self.measured_vtl = vtls

    def _f0_for(self, record) -> float | None:
        if self.f0_overrides is None:
            return None
        if isinstance(self.f0_overrides, dict):
            return self.f0_overrides.get(record.utterance_id)
        return float(self.f0_overrides)

    def analyzer(self, record) -> UtteranceAnalyzer:
        key = record.utterance_id
        if key not in self._analyzers:
            samples, fs = fileio.read_audio(record.path, self.params.fs)
            external = None
            if self.external_dir is not None:
                external = fileio.read_spectrogram_csv(
                    f"{self.external_dir}/{record.utterance_id}.csv"
                )
            self._analyzers[key] = UtteranceAnalyzer(
                samples, fs, self.params, self._f0_for(record), external
            )
        return self._analyzers[key]

    def spectrum(self, speaker_id: str, vowel: str, rep: Representation, h_max: float) -> Spectrum:
        record = self._by_key.get((speaker_id, vowel))
        if record is None:
            raise InputError(f"no utterance for speaker {speaker_id}, vowel {vowel!r}")
        return self.analyzer(record).spectrum(rep, h_max)

    def vowel_speakers(self, vowel: str) -> list[str]:
        return [s for s in self.speakers if (s, vowel) in self._by_key]

    def shift_matrix(self, vowel: str, rep: Representation, h_max: float) -> ShiftMatrix:
        key = (vowel, rep, None if not rep.ssi else h_max)
        if key not in self._matrices:
            speakers = self.vowel_speakers(vowel)
            if len(speakers) < 2:
                raise InputError(f"vowel {vowel!r} has fewer than 2 speakers")
            specs = [self.spectrum(s, vowel, rep, h_max) for s in speakers]
            self._matrices[key] = build_shift_matrix(
                specs, self.params.max_lag, self.params.interp
            )
        return self._matrices[key]

    def estimate(self, rep, h_max: float | None = None, speakers=None) -> EstimationResult:
        """Full pipeline: shifts per vowel, joint q fit, lengths.

        ``speakers`` restricts the estimation to a subset; pairwise lags from
        the full corpus are reused unchanged.
        """
        if isinstance(rep, str):
            rep = parse_representation(rep)
        h_max = self.params.h_max if h_max is None else h_max
        included = self.speakers if speakers is None else [s for s in self.speakers if s in set(speakers)]
        if len(included) < 2:
            raise InputError(f"need at least 2 speakers, got {len(included)}")
        l_bar = float(np.mean([self.measured_vtl[s] for s in included]))
        per_point: list[tuple[str, str, float]] = []
        for vowel in self.vowels:
            full_speakers = self.vowel_speakers(vowel)
            matrix = self.shift_matrix(vowel, rep, h_max)
            idx = [i for i, s in enumerate(full_speakers) if s in set(included)]
            if len(idx) < 2:
                raise InputError(f"vowel {vowel!r} has fewer than 2 included speakers")
            sub = ShiftMatrix(matrix.values[np.ix_(idx, idx)])
            shifts = relative_shifts(sub)
            for s_id, shift in zip((full_speakers[i] for i in idx), shifts):
                per_point.append((s_id, vowel, float(shift)))
        shift_vec = np.array([p[2] for p in per_point])
        meas_vec = np.array([self.measured_vtl[p[0]] for p in per_point])
        # a corpus of identical spectra carries no scale information: every
        # estimate collapses to the mean length rather than failing the fit
        q = 0.0 if np.ptp(shift_vec) == 0.0 else fit_q(shift_vec, meas_vec, l_bar)
        est_vec = estimate_vtl(shift_vec, q, l_bar)
        rows = tuple(
            EstimateRow(s_id, vowel, shift, float(meas), float(est))
            for (s_id, vowel, shift), meas, est in zip(per_point, meas_vec, est_vec)
        )
        return EstimationResult(rep.id, h_max, rows, q, l_bar)


def load_corpus(manifest_path, params: AnalysisParams = DEFAULT_PARAMS,
                f0_overrides=None, external_dir=None) -> CorpusAnalyzer:
    """Read a manifest CSV and wrap it in a :class:`CorpusAnalyzer`."""
    return CorpusAnalyzer(
        fileio.read_manifest(manifest_path), params, f0_overrides, external_dir
    )
