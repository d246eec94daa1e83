"""Which vtlest functions are timed, and the per-layer metrics made from them.

Each entry wraps the attribute a caller looks the function up by: the
pipeline imports the front ends, spectral helpers, weight and shift functions
into its own namespace, so those are wrapped on ``vtlest.pipeline``; the
command line calls ``run_evaluation`` from ``vtlest.cli``; the evaluation
module calls ``exclusion_trials`` and ``CorpusAnalyzer.estimate`` itself.
``vtlest.axes`` is left out: its time is negligible.
"""
from __future__ import annotations

import numpy as np

import vtlest.cli
import vtlest.evaluate
import vtlest.fileio
import vtlest.pipeline
import vtlest.synth

from spans import LayerStats, Tracer


def _out_bytes(args, kwargs, result) -> float:
    return float(result.frames.nbytes)


def _in_bytes(args, kwargs, result) -> float:
    data = args[0]
    return float(data.frames.nbytes if hasattr(data, "frames") else data.values.nbytes)


def _pairs(args, kwargs, result) -> float:
    n = result.n
    return n * (n - 1) / 2.0


def _resamples(samples, fs, target_fs=vtlest.fileio.CANONICAL_FS) -> bool:
    return fs != target_fs


#: (owner, attribute, span name, work size, condition)
WRAPS = [
    (vtlest.fileio, "read_audio", "fileio.read_audio", None, None),
    (vtlest.fileio, "ensure_rate", "fileio.ensure_rate", None, _resamples),
    (vtlest.fileio, "write_csv", "fileio.write_csv", None, None),
    (vtlest.synth, "make_corpus", "synth.make_corpus", None, None),
    (vtlest.synth, "synth_vowel", "synth.synth_vowel", None, None),
    (vtlest.pipeline, "gammatone_ep", "frontends.gammatone_ep", _out_bytes, None),
    (vtlest.pipeline, "stft_spectrum", "frontends.stft_spectrum", _out_bytes, None),
    (vtlest.pipeline, "mel_spectrum", "frontends.mel_spectrum", _out_bytes, None),
    (vtlest.pipeline, "compress", "spectral.compress", _in_bytes, None),
    (vtlest.pipeline, "center_average", "spectral.center_average", None, None),
    (vtlest.pipeline, "resample_to_axis", "spectral.resample_to_axis", None, None),
    (vtlest.pipeline, "estimate_f0", "ssi.estimate_f0", None, None),
    (vtlest.pipeline, "ssi_weight", "ssi.ssi_weight", None, None),
    (vtlest.pipeline, "apply_weight", "ssi.apply_weight", None, None),
    (vtlest.pipeline, "build_shift_matrix", "shifts.build_shift_matrix", _pairs, None),
    (vtlest.pipeline, "relative_shifts", "shifts.relative_shifts", None, None),
    (vtlest.pipeline, "fit_q", "shifts.fit_q", None, None),
    (vtlest.pipeline.CorpusAnalyzer, "estimate", "pipeline.estimate", None, None),
    (vtlest.evaluate, "exclusion_trials", "evaluate.exclusion_trials", None, None),
    (vtlest.cli, "run_evaluation", "evaluate.run_evaluation", None, None),
    (vtlest.cli, "main", "cli.main", None, None),
]
SPAN_NAMES = [w[2] for w in WRAPS]
ROOT = "bench.run"


def install(tracer: Tracer) -> None:
    for owner, attr, name, size, when in WRAPS:
        tracer.wrap(owner, attr, name, size, when)


def _quantile_ms(durations, q: float) -> float:
    return float(np.quantile(durations, q)) * 1e3 if durations else 0.0


def per_layer_schema() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    schema = []
    for name in SPAN_NAMES:
        schema += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                   (f"{name}.self_s", "s", "lower"), (f"{name}.failed", "count", "lower")]
    schema += [
        ("frontends.gammatone_ep.ms_p50", "ms", "lower"),
        ("frontends.gammatone_ep.ms_p90", "ms", "lower"),
        ("frontends.out_mb", "MB", "lower"),
        ("spectral.compress.in_mb", "MB", "lower"),
        ("ssi.weight.calls", "count", "lower"),
        ("ssi.weight.busy_s", "s", "lower"),
        ("shifts.pairs", "count", "lower"),
        ("shifts.us_per_pair", "us", "lower"),
        ("shifts.fit_q.ms_p50", "ms", "lower"),
        ("pipeline.matrix_hit_ratio", "ratio", "higher"),
    ]
    schema += [(f"shifts.scaling.n{n}_ms", "ms", "lower") for n in (8, 32, 128)]
    schema += [("trace.overhead_frac", "ratio", "lower"), ("trace.unattributed_frac", "ratio", "lower")]
    return schema


def iteration_metrics(stats: dict[str, LayerStats], vowels: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (``stats`` from its spans).

    ``synth.*`` is filled in from the traced set-ups by the caller.
    """
    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        s = get(name)
        out.update({f"{name}.calls": s.calls, f"{name}.busy_s": s.busy_s,
                    f"{name}.self_s": s.self_s, f"{name}.failed": s.failed})
    gamma = get("frontends.gammatone_ep")
    matrices = get("shifts.build_shift_matrix")
    estimates = get("pipeline.estimate").calls
    weight = [get("ssi.ssi_weight"), get("ssi.apply_weight")]
    fronts = [get(f"frontends.{f}") for f in ("gammatone_ep", "stft_spectrum", "mel_spectrum")]
    out.update({
        "frontends.gammatone_ep.ms_p50": _quantile_ms(gamma.durations, 0.5),
        "frontends.gammatone_ep.ms_p90": _quantile_ms(gamma.durations, 0.9),
        "frontends.out_mb": sum(s.size for s in fronts) / 1e6,
        "spectral.compress.in_mb": get("spectral.compress").size / 1e6,
        "ssi.weight.calls": weight[0].calls,
        "ssi.weight.busy_s": weight[0].busy_s + weight[1].busy_s,
        "shifts.pairs": matrices.size,
        "shifts.us_per_pair": matrices.busy_s / matrices.size * 1e6 if matrices.size else 0.0,
        "shifts.fit_q.ms_p50": _quantile_ms(get("shifts.fit_q").durations, 0.5),
        "pipeline.matrix_hit_ratio":
            1.0 - matrices.calls / (estimates * vowels) if estimates else 0.0,
    })
    root = get(ROOT)
    out["trace.unattributed_frac"] = root.self_s / root.busy_s if root.busy_s else 0.0
    return out
