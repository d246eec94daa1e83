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

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fileio
from .axes import CHANNELS, F_HI, F_LO, AxisKind, FrequencyAxis, make_axis
from .errors import ConfigurationError, DegenerateFitError, InputError
from .frontends import (
    EP_FRAME_PERIOD,
    STFT_HOP,
    STFT_WINDOW,
    ep_lead_frames,
    gammatone_ep,
    mel_spectrum,
    stft_spectrum,
)
from .shifts import (
    ShiftMatrix,
    build_shift_matrix,
    estimate_vtl,
    fit_q,
    relative_shifts,
)
from .spectral import (
    AVG_HALF_WIDTH,
    Compression,
    LOG_COMPRESSION,
    Spectrogram,
    Spectrum,
    as_compression,
    center_average,
    compress,
    resample_to_axis,
    window_frames,
)
from .ssi import DEFAULT_H_MAX, F0_WINDOW_S, apply_weight, estimate_f0, ssi_weight

_AXIS_KINDS = {
    "Ep": AxisKind.ERB_LINEAR,
    "F": AxisKind.LOG10_HZ,
    "M": AxisKind.MEL_LINEAR,
    "W": AxisKind.LOG10_HZ,
}
_BASES = tuple(_AXIS_KINDS)

_log = logging.getLogger("vtlest")


def axis_for(base: str) -> FrequencyAxis:
    """The channel grid a representation base is compared on."""
    return make_axis(_AXIS_KINDS[base], CHANNELS, F_LO, F_HI)


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


class UtteranceAnalyzer:
    """Computes the spectral representations of one utterance and caches
    the averaged spectra and F0, which weight sweeps read again.

    Each front end reads only the samples the +-25 ms averaging window needs,
    and nothing held grows with the duration: the analyzer keeps a copy of
    the one span of samples its bases read (``span``, starting at sample
    ``span_start`` of the ``n_samples`` resampled ones), not the waveform.
    No frames are cached: each spectrum computes the F, M or W frames the
    window picks.  F's are bit for bit those of the whole-signal STFT, and
    log compression floors at their peak.  Ep returns the whole frames from the
    one holding the window start to the window end.  Each gammatone channel
    starts :data:`~vtlest.frontends.EP_PREROLL_TAUS` of its own time
    constants before that frame (from sample 0 if that is sooner), so the
    span reaches back to the slowest (100 Hz) channel's start, 123.5 ms
    early.  Ep averages its linear pattern before compressing it.  F0 is
    estimated on the centre 50 ms.
    ``external_sg`` is a :class:`Spectrogram` or the path of a spectrogram
    CSV, read on the first use of W; its cropped window replaces it.
    """

    def __init__(self, samples, fs, *, f0_override: float | None = None, external_sg=None):
        samples, self.fs = fileio.ensure_rate(samples, fs)
        self.n_samples = samples.size
        self.center = self.n_samples / self.fs / 2.0
        self._f0_override = f0_override
        self._external_sg = external_sg
        self._spectra: dict[tuple[str, Compression], Spectrum] = {}
        # F reads the STFT frames centred in the window: up to half a frame
        # either side of it, plus a sample of slack for round-off
        f_reach = AVG_HALF_WIDTH * self.fs + STFT_WINDOW * self.fs / 2.0 + 1.0
        mid = self.center * self.fs
        (ep, _), f0 = self._ep_samples(), self._f0_samples()
        self.span_start = min(ep.start, f0.start, max(0, math.floor(mid - f_reach)))
        stop = max(ep.stop, f0.stop, math.ceil(mid + f_reach))
        # a copy: a view would keep the whole waveform alive
        self.span = samples[self.span_start:stop].copy()

    def _read(self, cut: slice) -> np.ndarray:
        """Samples ``cut`` of the resampled input, clipped to its end."""
        return self.span[cut.start - self.span_start:cut.stop - self.span_start]

    def _ep_samples(self) -> tuple[slice, int]:
        """Whole EP frames from the slowest channel's start to the window
        end, and the first sample of the frame holding the window start."""
        frame = int(round(EP_FRAME_PERIOD * self.fs))
        first = max(0, math.floor((self.center - AVG_HALF_WIDTH) / EP_FRAME_PERIOD))
        lead = int(ep_lead_frames(self.fs, axis_for("Ep")).max())
        stop = math.ceil((self.center + AVG_HALF_WIDTH) / EP_FRAME_PERIOD)
        return slice(max(0, first - lead) * frame, stop * frame), first * frame

    def _f0_samples(self) -> slice:
        """The centre :data:`~vtlest.ssi.F0_WINDOW_S`, or every sample of a
        shorter input (which :func:`estimate_f0` rejects)."""
        win = int(round(F0_WINDOW_S * self.fs))
        start = max(0, (self.n_samples - win) // 2)
        return slice(start, start + win)

    @cached_property
    def f0(self) -> float:
        """Pitch used for weighting: the override if given, else estimated."""
        if self._f0_override is not None:
            return self._f0_override
        return estimate_f0(self._read(self._f0_samples()), self.fs)

    def _window(self, base: str) -> Spectrogram:
        """The uncompressed F, M or W frames the averaging window picks."""
        if base == "F":
            win_n, hop_n = int(round(STFT_WINDOW * self.fs)), int(round(STFT_HOP * self.fs))
            n_frames = (self.n_samples - win_n) // hop_n + 1
            picked = window_frames(win_n / (2.0 * self.fs), hop_n / self.fs, n_frames, self.center)
            start = picked.start * hop_n
            sg = stft_spectrum(self._read(slice(start, (picked.stop - 1) * hop_n + win_n)), self.fs)
            return replace(sg, t0=sg.t0 + start / self.fs)
        if base == "M":
            return mel_spectrum(self._window("F"))
        sg = self._external_sg
        if sg is None:
            raise InputError("no external spectrogram was supplied for a W representation")
        if not isinstance(sg, Spectrogram):
            sg = fileio.read_spectrogram_csv(sg)
        if sg.compression.mode != "none":
            raise InputError("external spectrograms must hold uncompressed amplitudes")
        # cropping the cropped window again picks all of its frames
        picked = window_frames(sg.t0, sg.frame_period, sg.frames.shape[0], self.center)
        self._external_sg = replace(sg, frames=sg.frames[picked].copy(),
                                    t0=sg.t0 + picked.start * sg.frame_period)
        return self._external_sg

    def base_spectrum(self, rep: Representation) -> Spectrum:
        """Compressed, time-averaged spectrum on the representation's grid,
        before any weighting."""
        key = (rep.base, rep.compression)
        if key not in self._spectra:
            if rep.base == "Ep":
                # the cut keeps every frame the window picks, and center_average
                # needs none past it; the samples before them only warm the bank up
                cut, first = self._ep_samples()
                ep = gammatone_ep(self._read(cut), self.fs, axis_for("Ep"), start=first - cut.start)
                ep = replace(ep, t0=ep.t0 + cut.start / self.fs)
                spec = compress(center_average(ep, self.center), rep.compression)
            else:
                sg = compress(self._window(rep.base), rep.compression)
                spec = resample_to_axis(center_average(sg, self.center), axis_for(rep.base))
            self._spectra[key] = spec
        return self._spectra[key]

    def spectrum(self, rep: Representation, h_max: float | None = None) -> Spectrum:
        """The spectrum the estimator correlates; weighted when ``rep.ssi``.

        ``h_max = 0`` is read as "no weighting", so weighted representations
        degrade continuously to their unweighted baseline.
        """
        spec = self.base_spectrum(rep)
        if not rep.ssi:
            return spec
        h_max = DEFAULT_H_MAX if h_max is None else h_max
        if h_max == 0.0:
            return spec
        weights = ssi_weight(spec.axis, h_max, self.f0)
        return apply_weight(spec, weights)


def analyze_wav(path, rep, *, h_max: float | None = None, f0_override: float | None = None) -> Spectrum:
    """One-shot analysis of a WAV file into a representation spectrum."""
    if isinstance(rep, str):
        rep = parse_representation(rep)
    samples, fs = fileio.read_audio(path)
    return UtteranceAnalyzer(samples, fs, f0_override=f0_override).spectrum(rep, h_max)


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

    def __init__(self, records, *, f0_overrides=None, external_dir=None):
        records = list(records)
        if not records:
            raise InputError("corpus manifest is empty")
        # utterances are cached, and their external CSVs and F0 overrides
        # looked up, by utterance_id, so it must be unique
        seen = {}
        for r in records:
            first = seen.get(r.utterance_id)
            if first is not None:
                raise InputError(
                    f"duplicate utterance id {r.utterance_id!r}: speaker {first.speaker_id}, "
                    f"vowel {first.vowel!r} ({first.path}) and speaker {r.speaker_id}, "
                    f"vowel {r.vowel!r} ({r.path})"
                )
            seen[r.utterance_id] = r
        self.records = records
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
            samples, fs = fileio.read_audio(record.path)
            external = None if self.external_dir is None else f"{self.external_dir}/{record.utterance_id}.csv"
            self._analyzers[key] = UtteranceAnalyzer(
                samples, fs, f0_override=self._f0_for(record), external_sg=external
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
            self._matrices[key] = build_shift_matrix(specs)
        return self._matrices[key]

    def estimate(self, rep, h_max: float | None = None, speakers=None) -> EstimationResult:
        """Full pipeline: shifts per vowel, joint q fit, lengths.

        ``speakers`` restricts the estimation to a subset; pairwise lags from
        the full corpus are reused unchanged.  A fit that cannot pin q down
        falls back to q = 0 and logs one INFO record on the ``vtlest``
        logger that names the representation, ``h_max`` and the reason.
        """
        if isinstance(rep, str):
            rep = parse_representation(rep)
        h_max = DEFAULT_H_MAX if h_max is None else h_max
        wanted = set(self.speakers if speakers is None else speakers)
        included = [s for s in self.speakers if s in wanted]
        if len(included) < 2:
            raise InputError(f"need at least 2 speakers, got {len(included)}")
        l_bar = float(np.mean([self.measured_vtl[s] for s in included]))
        per_point: list[tuple[str, str, float]] = []
        for vowel in self.vowels:
            full_speakers = self.vowel_speakers(vowel)
            matrix = self.shift_matrix(vowel, rep, h_max)
            idx = [i for i, s in enumerate(full_speakers) if s in wanted]
            if len(idx) < 2:
                raise InputError(f"vowel {vowel!r} has fewer than 2 included speakers")
            sub = ShiftMatrix(matrix.values[np.ix_(idx, idx)])
            shifts = relative_shifts(sub)
            for s_id, shift in zip((full_speakers[i] for i in idx), shifts):
                per_point.append((s_id, vowel, float(shift)))
        shift_vec = np.array([p[2] for p in per_point])
        meas_vec = np.array([self.measured_vtl[p[0]] for p in per_point])
        # shifts that cannot pin q down (all equal, or an optimum on the
        # search bound) carry no scale information: every estimate collapses
        # to the mean length rather than failing the fit
        try:
            q = fit_q(shift_vec, meas_vec, l_bar)
        except DegenerateFitError as exc:
            _log.info("%s at h_max %g: %s; q falls back to 0", rep.id, h_max, exc)
            q = 0.0
        est_vec = estimate_vtl(shift_vec, q, l_bar)
        rows = tuple(
            EstimateRow(s_id, vowel, shift, float(meas), float(est))
            for (s_id, vowel, shift), meas, est in zip(per_point, meas_vec, est_vec)
        )
        return EstimationResult(rep.id, h_max, rows, q, l_bar)


def load_corpus(manifest_path, *, f0_overrides=None, external_dir=None) -> CorpusAnalyzer:
    """Read a manifest CSV and wrap it in a :class:`CorpusAnalyzer`."""
    return CorpusAnalyzer(
        fileio.read_manifest(manifest_path), f0_overrides=f0_overrides, external_dir=external_dir
    )
