"""The benchmark's workloads: their corpora, the timed calls, and the gate.

The corpora are fixed; the seed draws the exclusion trials of
``crowd_sweep`` and the spectra of the scaling curve.

Every call into vtlest goes through a module attribute looked up at call
time (``vtlest.synth.make_corpus``, ``vtlest.cli.main``, ...) so that the
span wrappers installed by :mod:`layers` see it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vtlest
import vtlest.cli
import vtlest.evaluate
import vtlest.pipeline
import vtlest.synth

VOWELS = list("aiueo")
H_MAX = 3.5
#: Acceptance criterion 3 of the test suite: r >= 0.90, RMS <= 5% of L_bar.
GATE_MIN_R = 0.90
GATE_MAX_RMS_FRAC = 0.05

CROWD_SPEAKERS = 32
CROWD_FS = 44100.0
CROWD_CORPUS_SEED = 0
CROWD_REP = "F_SSI_log"
CROWD_EXCLUDE = 8
CROWD_TRIALS = 50
#: The knees the iterations visit in turn: the default first, so that every
#: run scores it, then the rest of ``DEFAULT_HMAX_GRID`` in order.
CROWD_KNEES = (H_MAX,) + tuple(float(h) for h in vtlest.evaluate.DEFAULT_HMAX_GRID if h != H_MAX)



@dataclass
class Outcome:
    """What one timed iteration produced, after the correctness gate.

    Iterations with the same ``key`` must give the same ``digest``.
    """

    key: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rms_cm: list[float] = field(default_factory=list)
    r_all: list[float] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def count(self, n: int, problem: str | None = None) -> None:
        self.attempted += n
        if problem is not None:
            self.failed += n
            self.problems.append(problem)

    def hash_floats(self, values) -> None:
        values = [float(v) for v in values]
        self.digest.update(struct.pack(f"<{len(values)}d", *values))


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def gate_report(rep_id: str, h_max: float, r_all: float, rms_cm: float, mean_len: float) -> str | None:
    """Why an accuracy report fails the gate, or None when it passes.

    Every report must be finite (a non-finite estimate makes its RMS
    non-finite); weighted ids at the default knee must also meet criterion 3.
    Other knees of a sweep only need to be finite: a small knee leaves the
    harmonics in, which is what the sweep shows.
    """
    if not _finite(r_all, rms_cm):
        return f"{rep_id} at h_max {h_max:g}: non-finite r {r_all} or RMS {rms_cm}"
    if vtlest.parse_representation(rep_id).ssi and h_max == H_MAX:
        if r_all < GATE_MIN_R or rms_cm > GATE_MAX_RMS_FRAC * mean_len:
            return (f"{rep_id} at h_max {h_max:g}: r {r_all:.4f} / RMS {rms_cm:.4f} cm "
                    f"misses r >= {GATE_MIN_R}, RMS <= {GATE_MAX_RMS_FRAC * mean_len:.4f} cm")
    return None


def _mean_length(speakers) -> float:
    return float(np.mean([vtlest.BASELINE_VTL_CM / alpha for _, alpha in speakers]))


def crowd_speakers(n: int = CROWD_SPEAKERS) -> list[tuple[float, float]]:
    """``n`` (f0, alpha) pairs: alpha ~ U(0.80, 1.25), F0 rising linearly with
    alpha over the default ladder's 100-220 Hz range.

    The draw uses a fixed generator seed, so the crowd is one corpus like the
    ladder: the RMS error of a random 32-speaker crowd ranged from 0.41 to
    0.66 cm over ten seeds, a spread no accuracy bound could absorb.
    """
    alphas = np.random.default_rng(CROWD_CORPUS_SEED).uniform(0.80, 1.25, n)
    f0s = 100.0 + 120.0 * (alphas - 0.80) / 0.45
    return [(float(f), float(a)) for f, a in zip(f0s, alphas)]


class Workload:
    """One workload: ``setup`` writes its corpus, ``run`` is the timed call,
    ``check`` applies the gate to what ``run`` returned."""

    name = ""
    fs = 48000.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.speakers = self.corpus_speakers()
        self.mean_len = _mean_length(self.speakers)
        self.manifest = None

    def corpus_speakers(self):
        return vtlest.default_speakers()

    def setup(self, out_dir: Path) -> None:
        vtlest.synth.make_corpus(self.speakers, VOWELS, out_dir, fs=self.fs)
        self.manifest = out_dir / "manifest.csv"

    def run(self):
        raise NotImplementedError

    def check(self, raw) -> Outcome:
        raise NotImplementedError


class LadderCold(Workload):
    name = "ladder_cold"
    reps = ("Ep_SSI", "F_SSI_log", "M_SSI_log")

    def run(self):
        out = []
        for rep in self.reps:
            try:
                corpus = vtlest.pipeline.load_corpus(self.manifest)
                out.append((rep, corpus.estimate(rep, H_MAX)))
            except Exception as exc:  # counted as a failed estimate by the gate
                out.append((rep, exc))
        return out

    def check(self, raw) -> Outcome:
        outcome = Outcome()
        for rep, result in raw:
            if isinstance(result, Exception):
                outcome.count(1, f"{rep}: {type(result).__name__}: {result}")
                continue
            report = vtlest.evaluate.report_from_estimation(result)
            outcome.count(1, gate_report(rep, H_MAX, report.all_r, report.rms_cm, self.mean_len))
            outcome.rms_cm.append(report.rms_cm)
            outcome.r_all.append(report.all_r)
            outcome.hash_floats([result.q, *result.estimated()])
        return outcome


class CrowdSweep(Workload):
    name = "crowd_sweep"
    fs = CROWD_FS

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.out_dir = work_dir / "evaluate"
        self.visits = 0

    def corpus_speakers(self):
        return crowd_speakers()

    def run(self):
        """``vtlest evaluate`` at the next knee of the sweep."""
        h_max = CROWD_KNEES[self.visits % len(CROWD_KNEES)]
        self.visits += 1
        argv = ["evaluate", "--manifest", str(self.manifest), "--rep", CROWD_REP,
                "--hmax", repr(h_max), "--trials", str(CROWD_TRIALS),
                "--exclude", str(CROWD_EXCLUDE), "--seed", str(self.seed),
                "--out", str(self.out_dir)]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            # every read warns that it resamples 44.1 kHz to 48 kHz
            warnings.simplefilter("ignore")
            try:
                code = vtlest.cli.main(argv)
            except Exception as exc:
                code = exc
        return h_max, code

    def check(self, raw) -> Outcome:
        """``vtlest evaluate`` wrote one report row, its scatter rows and one
        row per trial, all finite, and the report passes the gate."""
        h_max, code = raw
        outcome = Outcome(key=f"h_max {h_max:g}")
        try:
            self._check_evaluate(outcome, h_max, code)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return outcome

    def _check_evaluate(self, outcome: Outcome, h_max: float, code) -> None:
        if code != 0:
            outcome.count(1 + CROWD_TRIALS, f"vtlest evaluate --hmax {h_max:g} ended with {code!r}")
            return
        report = _read_csv(self.out_dir / "report.csv")
        trials = _read_csv(self.out_dir / "trials.csv")
        scatter = _read_csv(self.out_dir / "scatter.csv")
        if len(report) != 1 or len(trials) != CROWD_TRIALS or float(report[0]["h_max"]) != h_max:
            outcome.count(1 + CROWD_TRIALS, f"h_max {h_max:g}: report.csv has {len(report)} rows "
                                            f"and trials.csv {len(trials)}; expected 1 and "
                                            f"{CROWD_TRIALS} at that knee")
            return
        row = report[0]
        r_all, rms_cm = float(row["r_all"]), float(row["rms_cm"])
        problem = gate_report(row["representation_id"], h_max, r_all, rms_cm, self.mean_len)
        if not all(_finite(float(r["l_est_cm"])) for r in scatter):
            problem = f"h_max {h_max:g}: non-finite estimate in scatter.csv"
        outcome.count(1, problem)
        if h_max == H_MAX:
            outcome.rms_cm.append(rms_cm)
            outcome.r_all.append(r_all)
        for row in trials:
            rms = float(row["rms_cm"])
            outcome.count(1, None if _finite(rms) else f"trial {row['trial']}: RMS {rms}")
        for name in ("report.csv", "scatter.csv", "trials.csv"):
            outcome.digest.update((self.out_dir / name).read_bytes())


def _read_csv(path: Path) -> list[dict[str, str]]:
    if not path.exists():
        return []
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


WORKLOADS = {w.name: w for w in (LadderCold, CrowdSweep)}


def shifted_spectra(n: int, seed: int):
    """``n`` copies of one formant-like 100-channel log spectrum, each
    translated by a seeded shift of up to 5 channels; returns the spectra
    and their true shifts.  No corpus is synthesized."""
    rng = np.random.default_rng(seed)
    axis = vtlest.make_axis(vtlest.AxisKind.LOG10_HZ, 100, 100.0, 8000.0)
    centers = rng.uniform(25.0, 75.0, 4)
    widths = rng.uniform(2.0, 5.0, 4)
    channels = np.arange(axis.channels, dtype=float)
    shifts = rng.uniform(-5.0, 5.0, n)

    def level(x):
        return 20.0 * np.exp(-0.5 * ((x[:, None] - centers) / widths) ** 2).sum(axis=1)

    spectra = [vtlest.Spectrum(level(channels - s), axis, vtlest.LOG_COMPRESSION) for s in shifts]
    return spectra, shifts


#: Least Pearson r between recovered and true shifts.  Mean removal before
#: the zero-padded correlation shrinks every lag a little toward zero, so the
#: check is on agreement, not on absolute error; a sign, transpose or
#: indexing fault drops r far below this.
SCALING_MIN_R = 0.999
