"""Evaluation harness: accuracy metrics, stability trials, and weight sweeps.

Everything here consumes a :class:`~vtlest.pipeline.CorpusAnalyzer`, so
repeated runs over the same corpus (sweep points, exclusion trials) reuse the
cached spectra and pairwise lags.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigurationError, DegenerateInputError, InputError
from .pipeline import (
    CorpusAnalyzer,
    EstimationResult,
    load_corpus,
    parse_representation,
)
from .ssi import DEFAULT_H_MAX, check_h_max

DEFAULT_HMAX_GRID = tuple(np.arange(0.0, 6.5, 0.5))


def pearson_r(x, y) -> float:
    """Pearson product-moment correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"vectors must match in length, got {x.shape} and {y.shape}")
    if x.size < 3:
        raise InputError(f"need at least 3 points for a correlation, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("correlation is undefined for a zero-variance vector")
    return float(dx @ dy) / (sx * sy)


def rms_error(est, meas) -> float:
    """Root-mean-square difference between two equal-length vectors."""
    est = np.asarray(est, dtype=float)
    meas = np.asarray(meas, dtype=float)
    if est.shape != meas.shape or est.ndim != 1 or est.size == 0:
        raise InputError(f"vectors must match in length, got {est.shape} and {meas.shape}")
    return float(np.sqrt(np.mean((est - meas) ** 2)))


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary of one representation on one corpus."""

    representation_id: str
    h_max: float
    per_vowel_r: dict[str, float]
    all_r: float
    rms_cm: float
    q: float
    n_points: int


def report_from_estimation(result: EstimationResult) -> EvalReport:
    """Metrics for an estimation run; per-vowel r is NaN when a vowel has too
    few points or degenerate variance."""
    meas = result.measured()
    est = result.estimated()
    per_vowel = {}
    for vowel in result.vowels():
        mask = np.array(result.point_vowels) == vowel
        try:
            per_vowel[vowel] = pearson_r(meas[mask], est[mask])
        except (InputError, DegenerateInputError):
            per_vowel[vowel] = float("nan")
    try:
        all_r = pearson_r(meas, est)
    except (InputError, DegenerateInputError):
        all_r = float("nan")
    return EvalReport(
        representation_id=result.representation_id,
        h_max=result.h_max,
        per_vowel_r=per_vowel,
        all_r=all_r,
        rms_cm=rms_error(est, meas),
        q=result.q,
        n_points=len(result.point_vowels),
    )


def evaluate_representation(corpus: CorpusAnalyzer, rep_id: str, h_max: float | None = None) -> EvalReport:
    return report_from_estimation(corpus.estimate(rep_id, h_max))


@dataclass(frozen=True)
class ExclusionTrial:
    excluded: tuple[str, ...]
    rms_cm: float


@dataclass(frozen=True)
class TrialsResult:
    representation_id: str
    trials: tuple[ExclusionTrial, ...]

    @property
    def mean_rms(self) -> float:
        return float(np.mean([t.rms_cm for t in self.trials]))

    @property
    def std_rms(self) -> float:
        return float(np.std([t.rms_cm for t in self.trials]))


def _check_exclude(corpus: CorpusAnalyzer, k: int) -> None:
    """Reject a ``k`` outside 0 to speakers - 2: at least two must stay."""
    if k < 0 or len(corpus.speakers) - k < 2:
        raise ConfigurationError(
            f"cannot exclude {k} of {len(corpus.speakers)} speakers and still estimate"
        )


def _check_seed(seed: int) -> None:
    """Reject a negative ``seed``, which numpy's generator cannot take."""
    if seed < 0:
        raise ConfigurationError(f"seed must be at least 0, got {seed}")


def _check_trials(trials: int) -> None:
    """Reject a negative number of trials."""
    if trials < 0:
        raise ConfigurationError(f"trials must be at least 0, got {trials}")


def exclusion_trials(corpus: CorpusAnalyzer, rep_id: str, *, k: int, trials: int, seed: int,
                     h_max: float | None = None) -> TrialsResult:
    """Stability check: drop ``k`` random speakers, re-estimate, record RMS.

    Exclusions are drawn uniformly without replacement from a generator
    seeded with ``seed``, so runs are reproducible.  ``trials`` must be at
    least 1: no trials have no mean RMS.
    """
    _check_trials(trials)
    if trials == 0:
        raise ConfigurationError("trials must be at least 1 to run exclusion trials, got 0")
    _check_exclude(corpus, k)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        excluded = sorted(rng.choice(corpus.speakers, size=k, replace=False).tolist())
        dropped = set(excluded)
        kept = [s for s in corpus.speakers if s not in dropped]
        result = corpus.estimate(rep_id, h_max, speakers=kept)
        out.append(ExclusionTrial(tuple(excluded), rms_error(result.estimated(), result.measured())))
    rep = parse_representation(rep_id) if isinstance(rep_id, str) else rep_id
    return TrialsResult(rep.id, tuple(out))


def hmax_sweep(corpus: CorpusAnalyzer, rep_id: str, grid=DEFAULT_HMAX_GRID) -> list[EvalReport]:
    """Evaluate a weighted representation across a grid of taper knees.

    A grid value of 0 means "no weighting", so the first point of the default
    grid is the unweighted baseline.  Every knee is prepared first
    (:meth:`CorpusAnalyzer.prepare`), so each utterance is read, resampled
    and analysed once for the whole grid.
    """
    corpus.prepare((rep_id, h) for h in grid)
    return [evaluate_representation(corpus, rep_id, h) for h in grid]


# --------------------------------------------------------------------------
# config-driven runs

def _is_number(value) -> bool:
    return type(value) in (int, float)  # a JSON bool is no number


#: Per ``EvalConfig`` field type: the check of a JSON value, its wording, and
#: the conversion to the field's type.
_JSON_TYPES = {
    "str": (lambda x: isinstance(x, str), "a string", None),
    "str | None": (lambda x: x is None or isinstance(x, str), "a string or null", None),
    "str | float": (lambda x: isinstance(x, str) or _is_number(x), "a string or a number", None),
    "float": (_is_number, "a number", None),
    "int": (lambda x: type(x) is int, "an integer", None),
    "tuple[str, ...]": (lambda x: isinstance(x, list) and all(isinstance(i, str) for i in x),
                        "a list of strings", tuple),
    "tuple[float, ...]": (lambda x: isinstance(x, list) and all(map(_is_number, x)),
                          "a list of numbers", lambda x: tuple(float(h) for h in x)),
}


@dataclass
class EvalConfig:
    """Experiment description; serializable to/from JSON."""

    manifest: str
    representations: tuple[str, ...] = ("Ep", "Ep_SSI")
    h_max: float = DEFAULT_H_MAX
    hmax_grid: tuple[float, ...] = DEFAULT_HMAX_GRID
    trials: int = 10
    exclude: int = 3
    seed: int = 0
    out_dir: str = "."
    f0: str | float = "auto"
    external_dir: str | None = None

    @classmethod
    def fields_from_json(cls, path) -> dict:
        """The fields a JSON config file sets, each checked against its type;
        a bad file raises ``ConfigurationError`` naming it and the key."""
        with fileio.open_text(path, ConfigurationError) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: malformed JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: the config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys {sorted(unknown)}")
        fields = {}
        for key, value in raw.items():
            check, kind, convert = _JSON_TYPES[cls.__dataclass_fields__[key].type]
            if not check(value):
                raise ConfigurationError(f"{path}: {key!r} must be {kind}, got {value!r}")
            fields[key] = convert(value) if convert else value
        return fields

    @classmethod
    def from_json(cls, path) -> "EvalConfig":
        fields = cls.fields_from_json(path)
        if "manifest" not in fields:
            raise ConfigurationError(f"{path}: the config has no 'manifest' key")
        return cls(**fields)

    def f0_overrides(self):
        return fileio.parse_f0_spec(self.f0)


def open_corpus(config: EvalConfig) -> CorpusAnalyzer:
    """The configured corpus; a bad representation list fails before any file is read."""
    reps = config.representations
    if not reps or len(set(reps)) < len(reps):
        raise ConfigurationError(f"representations must name one or more ids, each once, got {list(reps)}")
    for rep_id in reps:
        parse_representation(rep_id)
    return load_corpus(
        config.manifest, f0_overrides=config.f0_overrides(), external_dir=config.external_dir
    )


def _report_rows(reports, vowels):
    for rep in reports:
        yield [rep.representation_id, rep.h_max, rep.all_r, rep.rms_cm, rep.q, rep.n_points] + [
            rep.per_vowel_r.get(v, float("nan")) for v in vowels
        ]


def write_reports_csv(path, reports, vowels):
    header = ["representation_id", "h_max", "r_all", "rms_cm", "q", "n_points"] + [
        f"r_{v}" for v in vowels
    ]
    fileio.write_csv(path, header, _report_rows(reports, vowels))


def write_scatter_csv(path, results: list[EstimationResult]):
    header = ["representation_id", "h_max", "speaker_id", "vowel", "shift_channels",
              "l_meas_cm", "l_est_cm"]
    rows = [
        [res.representation_id, res.h_max, *point]
        for res in results
        for point in zip(res.point_speakers, res.point_vowels, res.shifts().tolist(),
                         res.measured().tolist(), res.estimated().tolist())
    ]
    fileio.write_csv(path, header, rows)


def write_trials_csv(path, all_trials: list[TrialsResult]):
    header = ["representation_id", "trial", "excluded", "rms_cm"]
    rows = [
        [t.representation_id, i, ";".join(trial.excluded), trial.rms_cm]
        for t in all_trials
        for i, trial in enumerate(t.trials)
    ]
    fileio.write_csv(path, header, rows)


def run_evaluation(config: EvalConfig):
    """Estimate every configured representation; write report, scatter, and
    trial CSVs to the output directory.  Returns the reports.  Every id is
    prepared first (:meth:`CorpusAnalyzer.prepare`), so each utterance is
    read, resampled and analysed once for all of them."""
    _check_trials(config.trials)
    corpus = open_corpus(config)
    if config.trials > 0:  # before anything is written
        _check_exclude(corpus, config.exclude)
        _check_seed(config.seed)
    out = Path(config.out_dir)
    corpus.prepare((rep, config.h_max) for rep in config.representations)
    results = [corpus.estimate(rep, config.h_max) for rep in config.representations]
    reports = [report_from_estimation(res) for res in results]
    write_reports_csv(out / "report.csv", reports, corpus.vowels)
    write_scatter_csv(out / "scatter.csv", results)
    if config.trials > 0:
        all_trials = [
            exclusion_trials(corpus, rep, k=config.exclude, trials=config.trials, seed=config.seed,
                             h_max=config.h_max)
            for rep in config.representations
        ]
        write_trials_csv(out / "trials.csv", all_trials)
    return reports


def run_sweep(config: EvalConfig):
    """Sweep the taper knee for every configured representation; write
    sweep.csv.  Returns the per-representation report lists."""
    if not config.hmax_grid:  # before anything is written
        raise ConfigurationError("hmax_grid must hold at least one taper knee")
    for knee in config.hmax_grid:  # every knee, before the first estimate
        check_h_max(knee)
    corpus = open_corpus(config)
    out = Path(config.out_dir)
    all_reports = []
    for rep in config.representations:
        all_reports.extend(hmax_sweep(corpus, rep, config.hmax_grid))
    write_reports_csv(out / "sweep.csv", all_reports, corpus.vowels)
    return all_reports
