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
from contextlib import nullcontext
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
    """Reject an F0 override that is negative, infinite or NaN (``None``
    is no override)."""
    if f0 is not None and not 0.0 <= f0 < math.inf:  # NaN fails every comparison
        raise ConfigurationError(f"f0 must be nonnegative and finite, got {f0}{where}")


class UtteranceAnalyzer:
    """Computes one base's spectral representations of one utterance and
    caches the averaged spectra and F0, which weight sweeps read again.

    ``source`` is the input at rate ``fs``, or the path of a WAV file (``fs``
    None).  The analyzer keeps its source (a path, or the caller's array by
    reference), the cut geometry (``start``, ``n_samples``, ``center`` and
    ``fs``; samples count at :data:`~vtlest.fileio.CANONICAL_FS`), the
    spectra, F0 and W's cropped external window: no samples.  The cuts:

    * Ep: the whole frames from the slowest channel's start to the window
      end.  Each gammatone channel starts
      :data:`~vtlest.frontends.EP_PREROLL_TAUS` of its own time constants
      before the frame holding the window start (or at sample 0), so the
      100 Hz channel starts 123.5 ms early.  Ep averages its linear pattern
      before compressing it.
    * F and M: the STFT frames the +-25 ms averaging window picks, bit for
      bit those of the whole-signal STFT; log compression floors at their peak.
    * W: the F0 window.  ``external_sg`` is a :class:`Spectrogram` or the
      path of a spectrogram CSV, read on first use and then cropped.

    Spectra and F0 come from passes.  A pass opens the source once, reads
    only the native samples behind the cut (:func:`fileio.read_cut`),
    resamples them once, bit for bit as resampling the whole input does
    (:func:`fileio.native_cut`), and runs the front end once; from that it
    computes every compression asked for, then F0 if asked for, on the
    centre 50 ms, which lies inside every cut.  A pass for F0 alone reads
    the F0 window alone.  The constructor's pass is for ``plan``, the
    (representation, h_max) pairs about to be asked for: every planned
    compression of ``base``, and F0 when a weighted one is planned at a
    nonzero knee.  Ep ignores the plan and computes its one pattern and F0.
    A later request outside the plan makes one more pass.  Of a file, the
    input errors of a pass name it once.
    """

    def __init__(self, source, fs=None, *, base: str, f0_override: float | None = None,
                 external_sg=None, plan=()):
        _check_f0(f0_override)
        self.base = base
        self.fs = fs
        self._source = source if fs is None else np.asarray(source)
        self._f0 = f0_override
        self._external_sg = external_sg
        self._spectra: dict[Compression, Spectrum] = {}
        self.n_samples = None  # the first pass sets the cut geometry
        if base == "Ep":
            self._pass([LOG_COMPRESSION], True)
        else:
            planned = [(rep, h_max) for rep, h_max in plan if rep.base == base]
            self._pass([rep.compression for rep, _ in planned],
                       any(rep.ssi and h_max != 0.0 for rep, h_max in planned))

    def _cut(self) -> slice:
        """The samples this analyzer's base reads."""
        if self.base == "Ep":
            return self._ep_samples()[0]
        return self._f0_samples() if self.base == "W" else self._f_samples()

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

    def _pass(self, compressions, f0: bool) -> None:
        """Compute ``compressions`` not yet known and, if ``f0``, F0 while
        it is unknown, from one read of the source."""
        compressions = [c for c in dict.fromkeys(compressions) if c not in self._spectra]
        f0 = f0 and self._f0 is None
        if not (compressions or f0 or self.n_samples is None):
            return
        cut = first = None

        def locate(fs, size):  # from the input's rate and native length
            nonlocal cut, first
            up, down = fileio.resample_ratio(fs)
            self.fs, self.n_samples = fs, -(-size * up // down)
            self.center = self.n_samples / fileio.CANONICAL_FS / 2.0
            cut = self._cut()
            self.start = cut.start
            if not compressions or self.base == "W":  # W's front end reads no samples
                cut = self._f0_samples() if f0 else None
            if cut is None:
                return slice(0, 0)
            native, first = fileio.native_cut(cut, fs, size)
            return native

        path = not isinstance(self._source, np.ndarray)
        native = (fileio.read_cut(self._source, locate)[0] if path
                  else np.asarray(self._source[locate(self.fs, self._source.size)], dtype=float))
        with fileio.naming(self._source) if path else nullcontext():
            x = None if cut is None else fileio.ensure_rate(fileio.as_float(native), self.fs)[
                cut.start - first:cut.stop - first]
            frames = self._front_end(x) if compressions else None
            for compression in compressions:
                if self.base == "Ep":  # averaged linear, then compressed
                    spec = compress(center_average(frames, self.center), compression)
                else:
                    spec = resample_to_axis(center_average(compress(frames, compression), self.center),
                                            axis_for(self.base))
                self._spectra[compression] = spec
            if f0:  # after the spectra, whose error a vowel too short for both meets first
                window = self._f0_samples()
                self._f0 = estimate_f0(x[window.start - cut.start:window.stop - cut.start])

    def _front_end(self, cut: np.ndarray | None) -> Spectrogram:
        """The uncompressed frames of the base's front end, of ``cut``, the
        base's cut at the canonical rate (W's come from its external
        spectrogram, cropped to the frames the averaging window picks)."""
        if self.base == "W":
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
        if self.base == "Ep":
            # the cut keeps every frame the window picks, and center_average
            # needs none past it; the samples before them only warm the bank up
            frames = gammatone_ep(cut, start=self._ep_samples()[1] - self.start)
        else:
            frames = stft_spectrum(cut)
        frames = replace(frames, t0=frames.t0 + self.start / fileio.CANONICAL_FS)
        return mel_spectrum(frames) if self.base == "M" else frames

    @property
    def f0(self) -> float:
        """Pitch used for weighting: the override if given, else estimated
        once from the F0 window."""
        self._pass((), True)
        return self._f0

    def base_spectrum(self, rep: Representation) -> Spectrum:
        """Compressed, time-averaged spectrum on the representation's grid,
        before any weighting."""
        return self.spectrum(replace(rep, ssi=False))

    def spectrum(self, rep: Representation, h_max: float | None = None) -> Spectrum:
        """The spectrum the estimator correlates; weighted when ``rep.ssi``.

        ``h_max = 0`` is read as "no weighting", so weighted representations
        degrade continuously to their unweighted baseline, and no F0 is
        estimated for them but Ep's, which its constructor estimated.
        """
        if rep.base != self.base:
            raise ConfigurationError(f"this analyzer computes {self.base} representations, not {rep.id}")
        h_max = DEFAULT_H_MAX if h_max is None else h_max
        weighted = rep.ssi and h_max != 0.0
        self._pass([rep.compression], weighted)
        spec = self._spectra[rep.compression]
        return apply_weight(spec, ssi_weight(spec.axis, h_max, self._f0)) if weighted else spec


def analyze_wav(path, rep, *, h_max: float | None = None, f0_override: float | None = None) -> Spectrum:
    """One-shot analysis of a WAV file into a representation spectrum."""
    if isinstance(rep, str):
        rep = parse_representation(rep)
    check_h_max(DEFAULT_H_MAX if h_max is None else h_max)  # for every id, before the read
    analyzer = UtteranceAnalyzer(path, base=rep.base, f0_override=f0_override, plan=[(rep, h_max)])
    return analyzer.spectrum(rep, h_max)


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
    with, built from its WAV file's path for the :meth:`plan`; it keeps no
    samples.  Only W analyzers are given the utterance's external CSV.
    Shift matrices are computed once per (vowel, representation, h_max) over
    all speakers; estimating on a speaker subset reuses the cached pairwise
    lags, which are independent of which other speakers are present.
    An input error raised while an utterance is analysed names its WAV file.
    F0 overrides, one value or a dict by utterance id, must be nonnegative
    and finite, and a dict may name only utterances of ``records``.

    A cold Ep estimate splits its gammatone banks across two processes.
    Before the vowel loop, :meth:`estimate` lists, in the loop's order and
    without reading a file, the utterances with no cached Ep analyzer.  When
    ``os.fork`` exists, no other thread runs, two or more CPUs are available
    and at least ``2 * EP_SPLIT_MIN`` are missing, it builds the first
    half's analyzers here and the second half's in one forked child
    (:func:`vtlest._split.split`), also on a machine with more CPUs: only
    two processes were measured.  Each process reads and analyses one
    utterance at a time.  The child's analyzers come back pickled, bit for
    bit the serial ones, and are cached here, so the loop finds them; any
    error is left to the loop, which raises it as before.  So a run that
    fails, on any number of CPUs, may already have read the WAVs of later
    vowels.  F, M and W spectra (about 0.1 ms each, against 7-13 ms for a
    fork) never split.
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
        self._plan: dict = {}
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

    def plan(self, pairs) -> None:
        """Add (representation id, h_max) pairs about to be estimated to the
        plan, which each analyzer built from now on computes in its first
        pass.  Each lag matrix not yet cached plans its own request, so with
        no call to this the request at hand is the plan.  A plan changes no
        result."""
        for rep, h_max in pairs:
            self._plan[parse_representation(rep) if isinstance(rep, str) else rep, h_max] = None

    def analyzer(self, record, base: str) -> UtteranceAnalyzer:
        key = (record.utterance_id, base)
        if key not in self._analyzers:
            external = (f"{self.external_dir}/{record.utterance_id}.csv"
                        if base == "W" and self.external_dir is not None else None)
            self._analyzers[key] = UtteranceAnalyzer(record.path, base=base, f0_override=self._f0_for(record),
                                                     external_sg=external, plan=self._plan)
        return self._analyzers[key]

    def spectrum(self, speaker_id: str, vowel: str, rep: Representation, h_max: float) -> Spectrum:
        record = self._by_key.get((speaker_id, vowel))
        if record is None:
            raise InputError(f"no utterance for speaker {speaker_id}, vowel {vowel!r}")
        return self.analyzer(record, rep.base).spectrum(rep, h_max)

    def vowel_speakers(self, vowel: str) -> list[str]:
        return [s for s in self.speakers if (s, vowel) in self._by_key]

    def shift_matrix(self, vowel: str, rep: Representation, h_max: float) -> ShiftMatrix:
        key = vowel, rep, h_max if rep.ssi else None
        if key not in self._matrices:
            speakers = self.vowel_speakers(vowel)
            if len(speakers) < 2:
                raise InputError(f"vowel {vowel!r} has fewer than 2 speakers")
            self.plan([(rep, h_max)])
            specs = [self.spectrum(s, vowel, rep, h_max) for s in speakers]
            self._matrices[key] = build_shift_matrix(specs)
        return self._matrices[key]

    def _missing_ep(self) -> list:
        """The records with no cached Ep analyzer, in :meth:`estimate`'s
        vowel loop's order.  A cached one holds its pattern, and every cached
        lag matrix was built from cached analyzers.  Reads no file."""
        records = [self._by_key[(s, vowel)] for vowel in self.vowels for s in self.vowel_speakers(vowel)]
        return [r for r in records if (r.utterance_id, "Ep") not in self._analyzers]

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
        wanted = dict.fromkeys(self.speakers if speakers is None else speakers)
        unknown = [s for s in wanted if s not in self.measured_vtl]
        if unknown:
            raise InputError("speakers not in the manifest: " + ", ".join(map(repr, unknown)))
        included = [s for s in self.speakers if s in wanted]
        if len(included) < 2:
            raise InputError(f"need at least 2 speakers, got {len(included)}")
        l_bar = float(np.mean([self.measured_vtl[s] for s in included]))
        if rep.base == "Ep":
            missing = self._missing_ep()
            analyzers = _split.split(rep.id, missing, lambda record: self.analyzer(record, "Ep"),
                                     "spectra", EP_SPLIT_MIN)
            for record, analyzer in zip(missing, analyzers or ()):  # this process's half is cached
                self._analyzers[(record.utterance_id, rep.base)] = analyzer
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
