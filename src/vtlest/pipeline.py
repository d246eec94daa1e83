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

import numpy as np

from . import fileio
from .axes import CHANNELS, F_HI, F_LO, AxisKind, FrequencyAxis, make_axis
from .errors import ConfigurationError, DegenerateFitError, InputError
from .frontends import (
    EP_FRAME_N,
    EP_FRAME_PERIOD,
    EP_LEAD_FRAMES,
    STFT_HOP_N,
    STFT_WINDOW_N,
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
from .ssi import DEFAULT_H_MAX, F0_WINDOW_N, apply_weight, estimate_f0, ssi_weight

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
    """Computes one base's spectral representations of one utterance and
    caches the averaged spectra and F0, which weight sweeps read again.

    The constructor resamples, once, only the native samples behind the cut
    its ``base`` reads, exactly as resampling the whole input would, and
    keeps just that cut (``samples``, from canonical sample ``start``):
    nothing held grows with the duration.  ``fs`` is the input's own rate;
    ``n_samples`` and every cut count samples at
    :data:`~vtlest.fileio.CANONICAL_FS`, in the frame and window lengths the
    front ends define.  The cuts:

    * Ep: the whole frames from the slowest channel's start to the window
      end.  Each gammatone channel starts
      :data:`~vtlest.frontends.EP_PREROLL_TAUS` of its own time constants
      before the frame holding the window start (or at sample 0), so the
      100 Hz channel starts 123.5 ms early.  Ep averages its linear pattern
      before compressing it.
    * F and M: the STFT frames the +-25 ms averaging window picks, bit for
      bit those of the whole-signal STFT; log compression floors at their peak.
    * W: the F0 window.  ``external_sg`` is a :class:`Spectrogram` or the
      path of a spectrogram CSV, read on first use; its cropped window
      replaces it.

    F0 is estimated on the centre 50 ms, which lies inside every cut.
    """

    def __init__(self, samples, fs, *, base: str, f0_override: float | None = None,
                 external_sg=None):
        up, down = fileio.resample_ratio(fs)
        samples = np.asarray(samples, dtype=float)
        self.base = base
        self.n_samples = -(-samples.size * up // down)
        self.center = self.n_samples / fileio.CANONICAL_FS / 2.0
        self._f0 = f0_override
        self._external_sg = external_sg
        self._spectra: dict[Compression, Spectrum] = {}
        if base == "Ep":
            cut = self._ep_samples()[0]
        elif base == "W":
            cut = self._f0_samples()
        else:
            cut = self._f_samples()
        native, first = fileio.native_cut(cut, fs, samples.size)
        self.start = cut.start
        # clipped to the input's end; a copy, as a view would keep the
        # whole waveform alive
        self.samples = fileio.ensure_rate(samples[native], fs)[cut.start - first:cut.stop - first].copy()

    def _ep_samples(self) -> tuple[slice, int]:
        """Whole EP frames from the slowest channel's start to the window
        end, and the first sample of the frame holding the window start."""
        first = max(0, math.floor((self.center - AVG_HALF_WIDTH) / EP_FRAME_PERIOD))
        lead = int(EP_LEAD_FRAMES.max())
        stop = math.ceil((self.center + AVG_HALF_WIDTH) / EP_FRAME_PERIOD)
        return slice(max(0, first - lead) * EP_FRAME_N, stop * EP_FRAME_N), first * EP_FRAME_N

    def _f_samples(self) -> slice:
        """The samples of the STFT frames the averaging window picks."""
        win_n, hop_n = STFT_WINDOW_N, STFT_HOP_N
        n_frames = (self.n_samples - win_n) // hop_n + 1
        picked = window_frames(win_n / (2.0 * fileio.CANONICAL_FS), hop_n / fileio.CANONICAL_FS,
                               n_frames, self.center)
        return slice(picked.start * hop_n, (picked.stop - 1) * hop_n + win_n)

    def _f0_samples(self) -> slice:
        """The centre :data:`~vtlest.ssi.F0_WINDOW_N` samples, or every
        sample of a shorter input (which :func:`estimate_f0` rejects)."""
        start = max(0, (self.n_samples - F0_WINDOW_N) // 2)
        return slice(start, start + F0_WINDOW_N)

    @property
    def f0(self) -> float:
        """Pitch used for weighting: the override if given, else estimated
        once from the F0 window's slice of the held samples."""
        if self._f0 is None:
            f0 = self._f0_samples()
            self._f0 = estimate_f0(self.samples[f0.start - self.start:f0.stop - self.start])
        return self._f0

    def _external_window(self) -> Spectrogram:
        """The uncompressed W frames the averaging window picks."""
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
        if rep.base != self.base:
            raise ConfigurationError(f"this analyzer computes {self.base} representations, not {rep.id}")
        if rep.compression in self._spectra:
            return self._spectra[rep.compression]
        if rep.base == "W":
            frames = self._external_window()
        else:
            if rep.base == "Ep":
                # the cut keeps every frame the window picks, and center_average
                # needs none past it; the samples before them only warm the bank up
                first = self._ep_samples()[1]
                frames = gammatone_ep(self.samples, start=first - self.start)
            else:
                frames = stft_spectrum(self.samples)
            frames = replace(frames, t0=frames.t0 + self.start / fileio.CANONICAL_FS)
            if rep.base == "M":
                frames = mel_spectrum(frames)
        if rep.base == "Ep":
            spec = compress(center_average(frames, self.center), rep.compression)
        else:
            sg = compress(frames, rep.compression)
            spec = resample_to_axis(center_average(sg, self.center), axis_for(rep.base))
        self._spectra[rep.compression] = spec
        return spec

    def spectrum(self, rep: Representation, h_max: float | None = None) -> Spectrum:
        """The spectrum the estimator correlates; weighted when ``rep.ssi``.

        ``h_max = 0`` is read as "no weighting", so weighted representations
        degrade continuously to their unweighted baseline, and no F0 is
        estimated for them.
        """
        h_max = DEFAULT_H_MAX if h_max is None else h_max
        spec = self.base_spectrum(rep)
        if not rep.ssi or h_max == 0.0:
            return spec
        return apply_weight(spec, ssi_weight(spec.axis, h_max, self.f0))


def analyze_wav(path, rep, *, h_max: float | None = None, f0_override: float | None = None) -> Spectrum:
    """One-shot analysis of a WAV file into a representation spectrum."""
    if isinstance(rep, str):
        rep = parse_representation(rep)
    samples, fs = fileio.read_audio(path)
    return UtteranceAnalyzer(samples, fs, base=rep.base, f0_override=f0_override).spectrum(rep, h_max)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Estimates for every (speaker, vowel) point along with the fitted
    conversion, one column per field: point i is speaker
    ``point_speakers[i]`` saying ``point_vowels[i]``, and item i of the
    read-only arrays :meth:`shifts`, :meth:`measured` and :meth:`estimated`."""

    representation_id: str
    h_max: float
    point_speakers: tuple[str, ...]
    point_vowels: tuple[str, ...]
    _shifts: np.ndarray
    _measured: np.ndarray
    _estimated: np.ndarray
    q: float
    l_bar_cm: float

    def measured(self) -> np.ndarray:
        return self._measured

    def estimated(self) -> np.ndarray:
        return self._estimated

    def shifts(self) -> np.ndarray:
        return self._shifts

    def vowels(self) -> list[str]:
        return list(dict.fromkeys(self.point_vowels))

    def speaker_mean_lengths(self) -> dict[str, float]:
        """Across-vowel mean of the estimated length per speaker."""
        speakers = np.array(self.point_speakers)
        return {s: float(np.mean(self._estimated[speakers == s]))
                for s in dict.fromkeys(self.point_speakers)}


class CorpusAnalyzer:
    """Caches per-utterance spectra and pairwise shifts for a whole corpus.

    Each utterance gets one :class:`UtteranceAnalyzer` per base it is read
    with; only W analyzers are given the utterance's external CSV.
    Shift matrices are computed once per (vowel, representation, h_max) over
    all speakers; estimating on a speaker subset reuses the cached pairwise
    lags, which are independent of which other speakers are present.
    """

    def __init__(self, records, *, f0_overrides=None, external_dir=None):
        records = list(records)
        if not records:
            raise InputError("corpus manifest is empty")
        # analyzers are cached, and their external CSVs and F0 overrides
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

    def analyzer(self, record, base: str) -> UtteranceAnalyzer:
        key = (record.utterance_id, base)
        if key not in self._analyzers:
            samples, fs = fileio.read_audio(record.path)
            external = (f"{self.external_dir}/{record.utterance_id}.csv"
                        if base == "W" and self.external_dir is not None else None)
            self._analyzers[key] = UtteranceAnalyzer(
                samples, fs, base=base, f0_override=self._f0_for(record), external_sg=external
            )
        return self._analyzers[key]

    def spectrum(self, speaker_id: str, vowel: str, rep: Representation, h_max: float) -> Spectrum:
        record = self._by_key.get((speaker_id, vowel))
        if record is None:
            raise InputError(f"no utterance for speaker {speaker_id}, vowel {vowel!r}")
        return self.analyzer(record, rep.base).spectrum(rep, h_max)

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
        point_speakers: list[str] = []
        point_vowels: list[str] = []
        shifts = []
        for vowel in self.vowels:
            full_speakers = self.vowel_speakers(vowel)
            matrix = self.shift_matrix(vowel, rep, h_max)
            idx = [i for i, s in enumerate(full_speakers) if s in wanted]
            if len(idx) < 2:
                raise InputError(f"vowel {vowel!r} has fewer than 2 included speakers")
            shifts.append(relative_shifts(ShiftMatrix(matrix.values[np.ix_(idx, idx)])))
            point_speakers.extend(full_speakers[i] for i in idx)
            point_vowels.extend([vowel] * len(idx))
        shift_vec = np.concatenate(shifts)
        meas_vec = np.array([self.measured_vtl[s] for s in point_speakers])
        # shifts that cannot pin q down (all equal, or an optimum on the
        # search bound) carry no scale information: every estimate collapses
        # to the mean length rather than failing the fit
        try:
            q = fit_q(shift_vec, meas_vec, l_bar)
        except DegenerateFitError as exc:
            _log.info("%s at h_max %g: %s; q falls back to 0", rep.id, h_max, exc)
            q = 0.0
        est_vec = estimate_vtl(shift_vec, q, l_bar)
        for column in (shift_vec, meas_vec, est_vec):
            column.flags.writeable = False
        return EstimationResult(rep.id, h_max, tuple(point_speakers), tuple(point_vowels),
                                shift_vec, meas_vec, est_vec, q, l_bar)


def load_corpus(manifest_path, *, f0_overrides=None, external_dir=None) -> CorpusAnalyzer:
    """Read a manifest CSV and wrap it in a :class:`CorpusAnalyzer`."""
    return CorpusAnalyzer(
        fileio.read_manifest(manifest_path), f0_overrides=f0_overrides, external_dir=external_dir
    )
