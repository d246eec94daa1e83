#!/usr/bin/env python3
"""vtlest benchmark: end-to-end and per-layer timings on two workloads.

Run from the root of a checkout of the repository::

    python3 bench/run.py --workload ladder_cold --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 0

One run repeats the workload's timed call until ``--seconds`` is spent, and
between the calls synthesizes the workload's corpus again and again for 8% of
that time; it reports medians.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics instead.  Every iteration's outputs pass a correctness gate.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in a child process of its own, one after the other, so
that peak memory is per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ladder_cold", "crowd_sweep")
#: Share of a run's time spent repeating the set-up, and the fewest set-ups.
SETUP_SHARE = 0.08
MIN_SETUPS = 5
#: Lag-matrix sizes of the scaling curve, with how often each is timed.
SCALING_REPEATS = {8: 15, 32: 3, 128: 1}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("rms_cm", "cm"),
              ("r_all", "1"))


def single_thread_blas() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    The pipeline is single-threaded Python.  On a 2-CPU machine a second BLAS
    thread made ``vtlest evaluate`` over all 44 F_/M_ ids of the 44.1 kHz
    ladder slower (3.5 s against 2.9 s), since the only sizeable BLAS call,
    the mel filterbank product, is too small to split.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_vtlest():
    """Import vtlest from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "vtlest"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import vtlest

    if Path(vtlest.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported vtlest from {vtlest.__file__}, not {package}")
    return vtlest


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timing_line(name: str, values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name:<12} {statistics.median(values):.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def median_dict(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(statistics.median(d[key] for d in dicts)) for key in dicts[0]}


def scaling_curve(seed: int, vtlest, workloads) -> tuple[dict[str, float], list[str]]:
    """Lag-matrix time at n = 8, 32, 128 synthetic spectra (median of a few
    repeats at the small sizes), checked against the known shifts."""
    import numpy as np

    metrics, problems = {}, []
    for n in SCALING_REPEATS:
        spectra, shifts = workloads.shifted_spectra(n, seed)
        times = []
        for _ in range(SCALING_REPEATS[n]):
            start = time.perf_counter()
            matrix = vtlest.shifts.build_shift_matrix(spectra)
            times.append(time.perf_counter() - start)
        r = np.corrcoef(vtlest.shifts.relative_shifts(matrix), shifts)[0, 1]
        if not r >= workloads.SCALING_MIN_R:
            problems.append(f"scaling n={n}: recovered shifts correlate with the true ones "
                            f"at r = {r:.4f}")
        metrics[f"shifts.scaling.n{n}_ms"] = statistics.median(times) * 1e3
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    single_thread_blas()
    vtlest = import_vtlest()
    import numpy
    import scipy

    import layers
    import workloads
    from spans import Tracer, layer_stats

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas_threads": 1,
           "commit": git_commit(), "seed": seed}
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    tracer = Tracer()
    try:
        workload = workloads.WORKLOADS[name](seed, work_dir)

        setup_times, setup_metrics = [], []

        def set_up() -> None:
            """One timed set-up into a fresh directory; the one before is removed."""
            k = len(setup_times)
            if trace:
                layers.install(tracer)
            t0 = time.perf_counter()
            try:
                workload.setup(work_dir / f"corpus{k}")
            finally:
                setup_times.append(time.perf_counter() - t0)
                tracer.unwrap_all()
            if trace:
                stats = layers.iteration_metrics(layer_stats(tracer.take()), len(workloads.VOWELS))
                setup_metrics.append({key: v for key, v in stats.items() if key.startswith("synth.")})
            if k:
                shutil.rmtree(work_dir / f"corpus{k - 1}")

        set_up()  # the corpus the first iteration reads
        times, traced_times, traced_metrics, outcomes = [], [], [], []
        start = time.perf_counter()
        while True:
            traced = trace and len(times) > len(traced_times)
            if traced:
                layers.install(tracer)
            t0 = time.perf_counter()
            try:
                raw = tracer.call(layers.ROOT, workload.run) if traced else workload.run()
            finally:
                elapsed = time.perf_counter() - t0
                tracer.unwrap_all()
            if traced:
                traced_times.append(elapsed)
                traced_metrics.append(layers.iteration_metrics(
                    layer_stats(tracer.take()), len(workloads.VOWELS)))
            else:
                times.append(elapsed)
            outcomes.append(workload.check(raw))
            # Set-ups run between the iterations, not all before them, so that
            # setup_s is sampled over the same minute of machine speed as run_s.
            while sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start):
                set_up()
            spent = time.perf_counter() - start
            typical = statistics.median(times + traced_times)
            if spent + typical / 2 >= seconds and (traced_times or not trace):
                break
        while len(setup_times) < MIN_SETUPS:
            set_up()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = [p for o in outcomes for p in o.problems]
        digests: dict[str, set[str]] = {}
        for o in outcomes:
            digests.setdefault(o.key, set()).add(o.digest.hexdigest())
        for key, found in digests.items():
            if len(found) > 1:
                at = f" at {key}" if key else ""
                problems.append(f"iterations{at} gave {len(found)} different outputs")
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        scored = next((o for o in outcomes if o.rms_cm), None)

        print(timing_line("setup_s", setup_times))
        print(timing_line("run_s", times))
        if trace:
            print(timing_line("traced_run_s", traced_times))
            per_layer = median_dict(traced_metrics)
            per_layer.update(median_dict(setup_metrics))
            scaling, scaling_problems = scaling_curve(seed, vtlest, workloads)
            per_layer.update(scaling)
            problems += scaling_problems
            # iterations alternate, so each traced one is paired with the
            # untraced one just before it
            per_layer["trace.overhead_frac"] = statistics.median(
                t / u for u, t in zip(times, traced_times)) - 1.0
            schema = layers.per_layer_schema()
            metrics = {key: {"value": per_layer[key], "unit": unit} for key, unit, _ in schema}
            top = sorted((k for k in per_layer if k.endswith(".self_s")),
                         key=per_layer.get, reverse=True)[:5]
            print("largest self time: " + ", ".join(f"{k[:-7]} {per_layer[k]:.3f} s" for k in top))
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "run_s": statistics.median(times),
                "peak_rss_mb": peak_rss_mb,
                "rms_cm": statistics.fmean(scored.rms_cm) if scored else 0.0,
                "r_all": statistics.fmean(scored.r_all) if scored else 0.0,
            }
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
            for key, unit in END_TO_END[2:]:
                print(f"{key:<12} {values[key]:.6g} {unit}")
        print(f"error_rate   {failed / attempted if attempted else 1.0:.6g} "
              f"({failed} of {attempted} estimates failed or raised)")
        for key, found in digests.items():
            print(f"digest       {key + ' ' if key else ''}sha256:{' sha256:'.join(sorted(found))}")
        for problem in problems[:20]:
            print(f"problem: {problem}")
        return {"correct": not problems and failed == 0 and attempted > 0,
                "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        tracer.unwrap_all()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it


def run_all(args) -> dict:
    """Each workload in its own child process; prefixes metric names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"error: workload {name} printed no result (exit code {child.returncode})")
        if child.returncode:
            sys.exit(f"error: workload {name} exited with code {child.returncode}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        rows.append((name, result))
    if not args.trace:
        print()
        print(f"{'workload':<12} " + " ".join(f"{k + ' [' + u + ']':>16}" for k, u in END_TO_END)
              + f" {'error_rate [1]':>16}")
        for name, result in rows:
            cells = [f"{result['metrics'][k]['value']:>16.6g}" for k, _ in END_TO_END]
            rate = result["failed"] / result["attempted"]
            print(f"{name:<12} " + " ".join(cells) + f" {rate:>16.6g}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
