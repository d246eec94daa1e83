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
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _split, fileio
from .axes import CHANNELS, F_HI, F_LO, AxisKind, FrequencyAxis, make_axis
from .errors import ConfigurationError, DegenerateFitError, InputError
from .frontends import (
    EP_AXIS,
    EP_FRAME_N,
    EP_FRAME_PERIOD,
    EP_LEAD_FRAMES,
    STFT_HOP_N,
    STFT_WINDOW_N,
    gammatone_ep,
    mel_spectrum,
    stft_spectrum,
)
from .shifts import ShiftMatrix, build_shift_matrix, estimate_vtl, fit_q, relative_shifts
from .spectral import (
    AVG_HALF_WIDTH,
    Compression,
    LOG_COMPRESSION,
    POWER_EXPONENTS,
    Spectrogram,
    Spectrum,
    center_average,
    compress,
    power_compression,
    resample_to_axis,
    window_frames,
)
from .ssi import DEFAULT_H_MAX, F0_WINDOW_N, apply_weight, check_h_max, estimate_f0, ssi_weight

#: Each base's channel grid, built once: Ep's is the gammatone bank's own,
#: and W, treated like F, is compared on F's log10-Hz grid.
_AXES = {"Ep": EP_AXIS, "F": make_axis(AxisKind.LOG10_HZ, CHANNELS, F_LO, F_HI),
         "M": make_axis(AxisKind.MEL_LINEAR, CHANNELS, F_LO, F_HI)}
_AXES["W"] = _AXES["F"]

_log = logging.getLogger("vtlest")

#: Fewest missing Ep spectra each of the two processes computes when a cold
#: estimate splits its gammatone banks, so a split needs twice as many.
#: Measured on a 2-CPU Xeon with m spectra missing (about 8.5 ms each), two
#: processes against one, in rounds of 9 pairs: with the other CPU idle
#: they won from m = 6.  With a busy loop holding it they won 4, 7 and 4 of
#: 9 at m = 16 in three rounds, 8, 7 and 6 of 9 at m = 24, the smallest m
#: this value lets split, and 9 of 9 at m = 32.
EP_SPLIT_MIN = 12


def axis_for(base: str) -> FrequencyAxis:
    """The channel grid a representation base is compared on."""
    return _AXES[base]


@dataclass(frozen=True)
class Representation:
    """What a representation id names."""

    base: str
    ssi: bool = False
    compression: Compression = LOG_COMPRESSION

    def __post_init__(self):
        if self.base not in _AXES:
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


#: Every representation by id, in catalog order: Ep and Ep_SSI, then each of F, M
#: and W, unweighted and weighted, log-compressed and at each power exponent.
_CATALOG = {rep.id: rep for rep in (
    Representation("Ep"), Representation("Ep", True),
    *(Representation(base, ssi, compression) for base in ("F", "M", "W") for ssi in (False, True)
      for compression in (LOG_COMPRESSION, *map(power_compression, POWER_EXPONENTS))),
)}


def parse_representation(rep_id: str) -> Representation:
    """The representation an id of ``representation_catalog(include_external=True)``
    names, such as ``Ep_SSI``, ``F_log`` or ``M_SSI_0.4``.  Ids are looked up,
    not parsed: any other spelling (``F_0.40``, ``M_SSI_1``) is rejected."""
    rep = _CATALOG.get(rep_id)
    if rep is None:
        raise ConfigurationError(f"unknown representation {rep_id!r}: not an id of "
                                 "representation_catalog(include_external=True)")
    return rep


def representation_catalog(include_external: bool = False) -> list[str]:
    """Every representation id this package can compute.

    External (``W``) ids appear only on request since they need user-supplied
    spectrogram files.
    """
    return [rep_id for rep_id, rep in _CATALOG.items() if include_external or rep.base != "W"]


def _check_f0(f0: float | None, where: str = "") -> None:
    """Reject an F0 override that is no real number (a bool is none), or is
    negative, infinite or NaN (``None`` is no override)."""
    if f0 is not None and (isinstance(f0, bool) or not isinstance(f0, numbers.Real)):
        raise ConfigurationError(f"f0 must be a real number, got {f0!r}{where}")
    if f0 is not None and not 0.0 <= f0 < math.inf:  # NaN fails every comparison
        raise ConfigurationError(f"f0 must be nonnegative and finite, got {f0}{where}")


class UtteranceAnalyzer:
    """Computes one utterance's spectral representations, of every base,
    and caches the averaged spectra and F0, which weight sweeps read again.

    ``source`` is the input at rate ``fs``, or the path of a WAV file (``fs``
    None), kept as a :class:`~vtlest.fileio.Recording`; no samples are kept.
    Each base's front end reads its :meth:`cut`:

    * Ep: the whole frames from the slowest channel's start to the window
      end.  Each channel starts :data:`~vtlest.frontends.EP_PREROLL_TAUS` of
      its time constants before the frame holding the window start (or at
      sample 0): 123.5 ms at 100 Hz.  Ep averages, then compresses.
    * F and M: the STFT frames the +-25 ms averaging window picks, bit for
      bit those of the whole-signal STFT; log compression floors at their peak.
    * W: none.  ``external_sg`` is a :class:`Spectrogram` or the path of a
      spectrogram CSV, read on first use and then cropped.

    Spectra and F0 come from passes.  A pass reads once the span of the cuts
    it needs, and of the centre 50 ms for F0 (:meth:`fileio.Recording.read`:
    bit for bit whole-input resampling), runs each base's front end on its
    cut and computes every compression asked for, then F0.  :meth:`prepare`
    makes one pass for a plan, and a request outside what is known one
    more.  A pass meets its bases' errors in plan order, cuts' before front
    ends', and names a file once in them.
    """

    def __init__(self, source, fs=None, *, f0_override: float | None = None, external_sg=None):
        _check_f0(f0_override)
        self.recording = fileio.Recording(source, fs)
        self._f0 = f0_override
        self._external_sg = external_sg
        self._spectra: dict[tuple[str, Compression], Spectrum] = {}

    def prepare(self, plan) -> None:
        """One pass for ``plan``'s (representation, h_max) pairs: each (base,
        compression) not yet known, and F0 for a weighted id at a nonzero knee."""
        self._pass([(rep.base, rep.compression) for rep, _ in plan],
                   any(rep.ssi and h_max != 0.0 for rep, h_max in plan))

    def has(self, base: str, compression: Compression) -> bool:
        return (base, compression) in self._spectra

    def _ep_samples(self) -> tuple[slice, int]:
        """Whole EP frames from the slowest channel's start to the window
        end, and the first sample of the frame holding the window start."""
        first = max(0, math.floor((self.recording.center - AVG_HALF_WIDTH) / EP_FRAME_PERIOD))
        lead = int(EP_LEAD_FRAMES.max())
        stop = math.ceil((self.recording.center + AVG_HALF_WIDTH) / EP_FRAME_PERIOD)
        return slice(max(0, first - lead) * EP_FRAME_N, stop * EP_FRAME_N), first * EP_FRAME_N

    def cut(self, base: str) -> slice:
        """The samples the Ep, F or M front end reads (F's and M's: those of
        the STFT frames the averaging window picks)."""
        if base == "Ep":
            return self._ep_samples()[0]
        win_n, hop_n = STFT_WINDOW_N, STFT_HOP_N
        n_frames = (self.recording.size - win_n) // hop_n + 1
        picked = window_frames(win_n / (2.0 * fileio.CANONICAL_FS), hop_n / fileio.CANONICAL_FS,
                               n_frames, self.recording.center)
        return slice(picked.start * hop_n, (picked.stop - 1) * hop_n + win_n)

    def _f0_samples(self) -> slice:
        """The centre :data:`~vtlest.ssi.F0_WINDOW_N` samples, or every
        sample of a shorter input (which :func:`estimate_f0` rejects)."""
        start = max(0, (self.recording.size - F0_WINDOW_N) // 2)
        return slice(start, start + F0_WINDOW_N)

    def _pass(self, keys, f0: bool) -> None:
        """Compute the (base, compression) ``keys`` not yet known and, if
        ``f0``, F0 while it is unknown, from one read of the recording."""
        keys = [key for key in dict.fromkeys(keys) if key not in self._spectra]
        f0 = f0 and self._f0 is None
        if not (keys or f0):
            return
        with fileio.naming(self.recording.path):  # W's front end reads no samples
            cuts = {base: None if base == "W" else self.cut(base) for base, _ in keys}
        needed = [cut for cut in cuts.values() if cut is not None] + ([self._f0_samples()] if f0 else [])
        first = min((cut.start for cut in needed), default=0)
        x = self.recording.read(slice(first, max(cut.stop for cut in needed))) if needed else None
        with fileio.naming(self.recording.path):
            for base, cut in cuts.items():
                frames = self._front_end(base, cut, None if cut is None
                                         else x[cut.start - first:cut.stop - first])
                for compression in [c for b, c in keys if b == base]:
                    if base == "Ep":  # averaged linear, then compressed
                        spec = compress(center_average(frames, self.recording.center), compression)
                    else:
                        spec = compress(frames, compression)
                        spec = resample_to_axis(center_average(spec, self.recording.center), axis_for(base))
                    self._spectra[base, compression] = spec
            if f0:  # after the spectra, whose error a vowel too short for both meets first
                window = self._f0_samples()
                self._f0 = estimate_f0(x[window.start - first:window.stop - first])

    def _front_end(self, base: str, cut: slice | None, x: np.ndarray | None) -> Spectrogram:
        """The uncompressed frames of ``base``'s front end, of ``x``, its
        ``cut`` at the canonical rate (W's come from its external
        spectrogram, cropped to the frames the averaging window picks)."""
        if base == "W":
            sg = self._external_sg
            if sg is None:
                raise InputError("no external spectrogram was supplied for a W representation")
            if not isinstance(sg, Spectrogram):
                sg = fileio.read_spectrogram_csv(sg)
            if sg.compression.mode != "none":
                raise InputError("external spectrograms must hold uncompressed amplitudes")
            # cropping the cropped window again picks all of its frames
            picked = window_frames(sg.t0, sg.frame_period, sg.frames.shape[0], self.recording.center)
            self._external_sg = replace(sg, frames=sg.frames[picked].copy(),
                                        t0=sg.t0 + picked.start * sg.frame_period)
            return self._external_sg
        if base == "Ep":
            # the cut keeps every frame the window picks, and center_average
            # needs none past it; the samples before them only warm the bank up
            frames = gammatone_ep(x, start=self._ep_samples()[1] - cut.start)
        else:
            frames = stft_spectrum(x)
        frames = replace(frames, t0=frames.t0 + cut.start / fileio.CANONICAL_FS)
        return mel_spectrum(frames) if base == "M" else frames

    @property
    def f0(self) -> float:
        """Pitch used for weighting: the override if given, else estimated
        once from the F0 window."""
        self._pass((), True)
        return self._f0

    def spectrum(self, rep: Representation, h_max: float | None = None) -> Spectrum:
        """The spectrum the estimator correlates; weighted when ``rep.ssi``.

        ``h_max = 0`` is read as "no weighting", so weighted representations
        degrade continuously to their unweighted baseline, and no F0 is
        estimated for them.
        """
        h_max = DEFAULT_H_MAX if h_max is None else h_max
        weighted = rep.ssi and h_max != 0.0
        self._pass([(rep.base, rep.compression)], weighted)
        spec = self._spectra[rep.base, rep.compression]
        return apply_weight(spec, ssi_weight(spec.axis, h_max, self._f0)) if weighted else spec


def analyze_wav(path, rep, *, h_max: float | None = None, f0_override: float | None = None) -> Spectrum:
    """One-shot analysis of a WAV file into a representation spectrum."""
    if isinstance(rep, str):
        rep = parse_representation(rep)
    check_h_max(DEFAULT_H_MAX if h_max is None else h_max)  # for every id, before the read
    return UtteranceAnalyzer(path, f0_override=f0_override).spectrum(rep, h_max)


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

    Each utterance gets one :class:`UtteranceAnalyzer` for every base, built
    from its WAV file's path and its external CSV (read by W alone).  Shift
    matrices are computed once per (vowel, representation, h_max) over all
    speakers; estimating on a speaker subset reuses the cached pairwise
    lags, which are independent of which other speakers are present.  An
    input error raised while an utterance is analysed names its WAV file.
    F0 overrides, one value or a dict by utterance id, must be nonnegative
    and finite, and a dict may name only utterances of ``records``.

    :meth:`prepare` brings every utterance's analyzer up to a run's
    (id, h_max) pairs, in the vowel loop's order and one pass each.  When
    the pairs hold Ep, it lists, reading no file, the utterances whose
    analyzer is missing or lacks the Ep pattern.  When ``os.fork`` exists,
    no other thread runs, two or more CPUs are available and at least
    ``2 * EP_SPLIT_MIN`` are listed, it brings the first half's analyzers up
    to the pairs here, F and M spectra and F0 too, and the second half's in
    one forked child (:func:`vtlest._split.split`), also on more CPUs: only
    two processes were measured.  Each process reads and analyses one
    utterance at a time, and the child's analyzers come back pickled, bit
    for bit the serial ones.  Then one loop here does whatever is not done,
    so it meets the first error as one process would, and a run that fails
    may already have read the WAVs of later utterances.
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
        unknown = sorted(set(f0_overrides) - set(seen)) if isinstance(f0_overrides, dict) else []
        if unknown:
            raise InputError("F0 overrides for no utterance of the manifest: "
                             + ", ".join(map(repr, unknown)))
        overrides = f0_overrides.items() if isinstance(f0_overrides, dict) else [(None, f0_overrides)]
        for utterance, f0 in overrides:
            _check_f0(f0, "" if utterance is None else f" for utterance {utterance!r}")
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

    def analyzer(self, record, pairs=()) -> UtteranceAnalyzer:
        """The record's analyzer, built if missing and brought up to the
        (representation, h_max) ``pairs`` in one pass."""
        analyzer = self._analyzers.get(record.utterance_id)
        if analyzer is None:
            external = None if self.external_dir is None else f"{self.external_dir}/{record.utterance_id}.csv"
            analyzer = self._analyzers[record.utterance_id] = UtteranceAnalyzer(
                record.path, f0_override=self._f0_for(record), external_sg=external)
        analyzer.prepare(pairs)
        return analyzer

    def prepare(self, pairs) -> None:
        """Bring every utterance's analyzer up to the (representation id,
        h_max) ``pairs`` about to be estimated, as the class says."""
        pairs = [(parse_representation(rep) if isinstance(rep, str) else rep, h_max) for rep, h_max in pairs]
        for _, h_max in pairs:  # before any file is read
            check_h_max(h_max)
        records = [self._by_key[s, vowel] for vowel in self.vowels for s in self._pairable(vowel)]
        if any(rep.base == "Ep" for rep, _ in pairs):
            have = {u for u, a in self._analyzers.items() if a.has("Ep", LOG_COMPRESSION)}
            missing = [r for r in records if r.utterance_id not in have]
            label = ",".join(dict.fromkeys(rep.id for rep, _ in pairs))
            analyzers = _split.split(label, missing, lambda r: self.analyzer(r, pairs), "spectra", EP_SPLIT_MIN)
            self._analyzers.update(zip((r.utterance_id for r in missing), analyzers or ()))  # the child's
        for record in records:
            self.analyzer(record, pairs)

    def spectrum(self, speaker_id: str, vowel: str, rep: Representation, h_max: float) -> Spectrum:
        record = self._by_key.get((speaker_id, vowel))
        if record is None:
            raise InputError(f"no utterance for speaker {speaker_id}, vowel {vowel!r}")
        return self.analyzer(record).spectrum(rep, h_max)

    def vowel_speakers(self, vowel: str) -> list[str]:
        return [s for s in self.speakers if (s, vowel) in self._by_key]

    def _pairable(self, vowel: str) -> list[str]:
        """The vowel's speakers, at least the 2 its lags need."""
        speakers = self.vowel_speakers(vowel)
        if len(speakers) < 2:
            raise InputError(f"vowel {vowel!r} has fewer than 2 speakers")
        return speakers

    def shift_matrix(self, vowel: str, rep: Representation, h_max: float) -> ShiftMatrix:
        key = vowel, rep, h_max if rep.ssi else None
        if key not in self._matrices:
            specs = [self.spectrum(s, vowel, rep, h_max) for s in self._pairable(vowel)]
            self._matrices[key] = build_shift_matrix(specs)
        return self._matrices[key]

    def estimate(self, rep, h_max: float | None = None, speakers=None) -> EstimationResult:
        """Full pipeline: shifts per vowel, joint q fit, lengths.

        ``speakers`` restricts the estimation to a subset of the manifest's
        speakers, and any other id is rejected before a file is read;
        pairwise lags from the full corpus are reused unchanged.  A fit that
        cannot pin q down falls back to q = 0 and logs one INFO record on
        the ``vtlest`` logger that names the representation, ``h_max`` and
        the reason.
        """
        if isinstance(rep, str):
            rep = parse_representation(rep)
        h_max = DEFAULT_H_MAX if h_max is None else h_max
        check_h_max(h_max)  # for every id, before any file is read
        if isinstance(speakers, str):  # whose characters are no speaker ids
            raise ConfigurationError(f"speakers must be a collection of speaker ids, got the string {speakers!r}")
        wanted = dict.fromkeys(self.speakers if speakers is None else speakers)
        unknown = [s for s in wanted if s not in self.measured_vtl]
        if unknown:
            raise InputError("speakers not in the manifest: " + ", ".join(map(repr, unknown)))
        included = [s for s in self.speakers if s in wanted]
        if len(included) < 2:
            raise InputError(f"need at least 2 speakers, got {len(included)}")
        l_bar = float(np.mean([self.measured_vtl[s] for s in included]))
        picked = {}  # every vowel's included speakers, checked before any file is read
        for vowel in self.vowels:
            picked[vowel] = [i for i, s in enumerate(self._pairable(vowel)) if s in wanted]
            if len(picked[vowel]) < 2:
                raise InputError(f"vowel {vowel!r} has fewer than 2 included speakers")
        if any((vowel, rep, h_max if rep.ssi else None) not in self._matrices for vowel in self.vowels):
            self.prepare([(rep, h_max)])
        point_speakers: list[str] = []
        point_vowels: list[str] = []
        shifts = []
        for vowel, idx in picked.items():
            full_speakers = self.vowel_speakers(vowel)
            matrix = self.shift_matrix(vowel, rep, h_max)
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
