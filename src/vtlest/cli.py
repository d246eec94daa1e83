"""Command-line front end.

Subcommands mirror the library's workflow stages::

    vtlest synth     --out corpus/ [--pair-demo]        make a synthetic corpus
    vtlest analyze   in.wav --rep Ep_SSI --out spec.csv one spectrum as CSV
    vtlest estimate  manifest.csv --rep Ep_SSI --out d/ lengths + shift matrices
    vtlest evaluate  --manifest m.csv --out d/          accuracy report + trials
    vtlest sweep     --manifest m.csv --out d/          taper-knee sweep table

Every numeric output is written at full precision; all writes are atomic.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio, synth
from .errors import ConfigurationError, VtlestError
from .evaluate import EvalConfig, report_from_estimation, run_evaluation, run_sweep
from .pipeline import analyze_wav, load_corpus, parse_representation
from .ssi import DEFAULT_H_MAX

DEFAULT_VOWELS = "a,i,u,e,o"


def _parse_speakers(value: str):
    """Speaker list like ``182:1.0667,101:0.8649`` into (f0, alpha) pairs."""
    pairs = []
    for item in value.split(","):
        f0_s, sep, alpha_s = item.partition(":")
        if not sep:
            raise ConfigurationError(f"speaker {item!r} must look like F0:ALPHA")
        try:
            f0, alpha = float(f0_s), float(alpha_s)
        except ValueError:
            raise ConfigurationError(f"speaker {item!r}: f0 and alpha must be numbers")
        pairs.append((f0, alpha))
    return pairs


def cmd_synth(args) -> int:
    if args.pair_demo:
        speakers = synth.pair_demo_speakers()
        vowels = args.vowels.split(",") if args.vowels else ["a"]
    else:
        speakers = _parse_speakers(args.speakers) if args.speakers else synth.default_speakers()
        vowels = (args.vowels or DEFAULT_VOWELS).split(",")
    records = synth.make_corpus(speakers, vowels, args.out, duration=args.duration, fs=args.fs)
    print(f"wrote {len(records)} utterances and manifest.csv to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    f0 = fileio.parse_f0_spec(args.f0)
    if isinstance(f0, dict):
        raise ConfigurationError("analyze takes --f0 auto or a number, not a CSV file")
    spectrum = analyze_wav(args.wav, args.rep, h_max=args.hmax, f0_override=f0)
    fileio.write_spectrum_csv(args.out, spectrum)
    print(f"wrote {spectrum.axis.channels}-channel {args.rep} spectrum to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    corpus = load_corpus(args.manifest, f0_overrides=fileio.parse_f0_spec(args.f0),
                         external_dir=args.external_dir)
    rep = parse_representation(args.rep)
    result = corpus.estimate(rep, args.hmax)
    out = Path(args.out)
    fileio.write_csv(
        out / "estimates.csv",
        ["speaker_id", "vowel", "S_channels", "L_est_cm", "L_meas_cm"],
        zip(result.point_speakers, result.point_vowels, result.shifts().tolist(),
            result.estimated().tolist(), result.measured().tolist()),
    )
    for vowel in corpus.vowels:
        matrix = corpus.shift_matrix(vowel, rep, result.h_max)
        fileio.write_csv(out / f"shifts_{vowel}.csv", None, matrix.values.tolist())
    report = report_from_estimation(result)
    print(
        f"{result.representation_id}: n={report.n_points} q={result.q:.6g} "
        f"r_all={report.all_r:.4f} rms={report.rms_cm:.4g} cm -> {out}/estimates.csv"
    )
    return 0


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(value.split(","))


def _config_from_args(args) -> EvalConfig:
    """The ``--config`` file's fields with every flag given on the command
    line applied over them; flag dests are config field names."""
    fields = EvalConfig.fields_from_json(args.config) if args.config else {}
    fields.update((name, value) for name, value in vars(args).items()
                  if name in EvalConfig.__dataclass_fields__ and value is not None)
    if "manifest" not in fields:
        raise ConfigurationError("provide --manifest, or --config with a 'manifest' key")
    config = EvalConfig(**fields)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    return config


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    reports = run_evaluation(config)
    for rep in reports:
        print(
            f"{rep.representation_id}: r_all={rep.all_r:.4f} rms={rep.rms_cm:.4g} cm "
            f"(n={rep.n_points}, h_max={rep.h_max:g})"
        )
    print(f"wrote report.csv, scatter.csv{', trials.csv' if config.trials else ''} to {config.out_dir}")
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    reports = run_sweep(config)
    print(f"wrote sweep.csv with {len(reports)} rows to {config.out_dir}")
    return 0


def _add_shared_flags(p, *, batch: bool, external: bool = True, hmax: bool = True, f0_help=None,
                      hmax_help=None, out_help="output directory") -> None:
    """--rep, --hmax, --f0, --external-dir and --out.  For evaluate and sweep
    (``batch``) they override the config file: their dests are config field
    names and they default to None.  Sweep takes no --hmax."""
    if batch:
        p.add_argument("--rep", dest="representations", type=_comma_list,
                       help="comma-separated representation ids")
    else:
        p.add_argument("--rep", default="Ep_SSI", help="representation id (default Ep_SSI)")
    if hmax:
        p.add_argument("--hmax", dest="h_max" if batch else "hmax", type=float, default=None, help=hmax_help)
    p.add_argument("--f0", default=None if batch else "auto", help=f0_help)
    if external:
        p.add_argument("--external-dir", dest="external_dir", default=None,
                       help="directory of external spectrogram CSVs for W representations")
    p.add_argument("--out", dest="out_dir" if batch else "out", required=not batch, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtlest",
        description="Vocal tract length estimation from vowel sounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a ground-truth vowel corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pair-demo", action="store_true",
                   help="two-speaker corpus: 15.0 cm at 182 Hz vs 18.5 cm at 101 Hz")
    p.add_argument("--speakers", help="custom ladder as F0:ALPHA,F0:ALPHA,...")
    p.add_argument("--vowels", help=f"comma-separated vowels (default {DEFAULT_VOWELS})")
    p.add_argument("--duration", type=float, default=synth.DEFAULT_DURATION_S, help="utterance length in s")
    p.add_argument("--fs", type=float, default=fileio.CANONICAL_FS, help="sample rate in Hz")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="write one representation spectrum as CSV")
    p.add_argument("wav", help="input WAV file (mono)")
    _add_shared_flags(p, batch=False, external=False, f0_help="'auto' or a fixed pitch in Hz",
                      hmax_help=f"weight taper knee (default {DEFAULT_H_MAX:g})", out_help="output CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="estimate lengths for a corpus manifest")
    p.add_argument("manifest", help="corpus manifest CSV")
    _add_shared_flags(p, batch=False, f0_help="'auto', a fixed Hz value, or an overrides CSV")
    p.set_defaults(func=cmd_estimate)

    for name, func, extra_help in (
        ("evaluate", cmd_evaluate, "accuracy report plus random-exclusion trials"),
        ("sweep", cmd_sweep, "evaluate across a grid of weight taper knees"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--manifest", help="corpus manifest CSV (overrides config)")
        if func is cmd_evaluate:  # sweep reads its knees from hmax_grid and runs no trials
            for flag in ("--seed", "--trials", "--exclude"):
                p.add_argument(flag, type=int, default=None)
        _add_shared_flags(p, batch=True, hmax=func is cmd_evaluate)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VtlestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
