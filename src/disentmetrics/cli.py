"""Command-line surface: eval, gen, reproduce, sweep, correlate, compare.

Each subcommand takes only the flags it reads; every one takes
``--out/-o``. Every run is deterministic for a fixed seed (the default
seed is the constant 7, never wall-clock), and output files are written
atomically (write-then-rename) so failed runs leave nothing behind.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import analysis, metrics, reproduce, synth
from .core import (
    DEFAULT_SEED,
    MetricsError,
    UsageError,
    _atomic_write,
    _csv_text,
    _in_range,
    _json_text,
    load_dataset,
    load_matrix,
    reports_to_json,
    save_dataset,
)
from .estimators import BIN_STRATEGIES, IMPORTANCE_METHODS, BinningSpec
from .metrics import InterventionConfig


def _emit(text, out_path):
    if out_path:
        _atomic_write(out_path, [text if text.endswith("\n") else text + "\n"])
    else:
        print(text)


def _flags(parser, seed=False, binning=False, fmt=None):
    """Add the shared flags a subcommand reads; every subcommand takes ``--out``."""
    if seed:
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"PRNG seed (default {DEFAULT_SEED}, fixed, never wall-clock)")
    if binning:
        parser.add_argument("--bins", type=int, default=BinningSpec.bin_count,
                            help=f"histogram bin count (default {BinningSpec.bin_count})")
        parser.add_argument("--bin-strategy", choices=BIN_STRATEGIES, default=BinningSpec.strategy)
    if fmt:
        parser.add_argument("--format", choices=("json", "csv", "table"), default=fmt,
                            help=f"output format (default {fmt})")
    parser.add_argument("--out", "-o", default=None, help="write output to this file instead of stdout")


def _binning(args):
    return BinningSpec(strategy=args.bin_strategy, bin_count=args.bins)


def _reports_table(reports):
    lines = [f"{'metric':<12}{'score':>10}  note"]
    for r in reports:
        if r.skipped:
            lines.append(f"{r.metric:<12}{'-':>10}  skipped: {r.skip_reason}")
        else:
            lines.append(f"{r.metric:<12}{r.score:>10.4f}")
    return "\n".join(lines)


def _reports_csv(reports):
    rows = [[r.metric, None if r.score is None else float(r.score), r.skipped,
             r.skip_reason and r.skip_reason.replace(",", ";")] for r in reports]
    return _csv_text([["metric", "score", "skipped", "skip_reason"], *rows])


def _metric_selection(text):
    """The names in ``--metrics``, or None without it; ``evaluate_all`` refuses an empty selection."""
    return None if text is None else [m.strip() for m in text.split(",") if m.strip()]


def cmd_eval(args):
    selection = _metric_selection(args.metrics)
    inputs = [x for x in (args.dataset, args.oracle, args.matrix) if x is not None]
    if len(inputs) != 1:
        raise UsageError("exactly one of --dataset, --oracle, or --matrix is required")
    # before the oracle spec, whose n is --train-points; each field is the flag of its name
    config = InterventionConfig(**{f.name: getattr(args, f.name) for f in fields(InterventionConfig)})
    if args.matrix:
        source = load_matrix(args.matrix)
    elif args.dataset:
        source = load_dataset(args.dataset, schema=args.schema)
    else:
        if args.oracle not in synth.ORACLE_GENERATOR_NAMES:
            known = ", ".join(synth.ORACLE_GENERATOR_NAMES)
            raise UsageError(f"unknown oracle {args.oracle!r} (known: {known})")
        spec = synth.GeneratorSpec(args.oracle, seed=args.seed, n=args.train_points)
        source = synth.build(spec)[0]
    reports = metrics.evaluate_all(
        source,
        metrics=selection,
        config=config,
        binning=_binning(args),
        importance_method=args.importance_method,
    )
    if selection is not None:
        for r in reports:
            if r.skipped:
                raise MetricsError(f"metric {r.metric!r} not computable on this input: {r.skip_reason}")
    _emit({"json": reports_to_json, "csv": _reports_csv, "table": _reports_table}[args.format](reports), args.out)
    return 0


def cmd_gen(args):
    if not args.out:
        raise UsageError("gen requires --out for the dataset file")
    spec = synth.parse_spec_string(args.spec, seed=args.seed, n=args.n)
    dataset, info = synth.dataset_from_spec(spec)
    save_dataset(dataset, args.out)
    sidecar = {
        "generator": spec.name,
        "params": spec.params,  # each parameter as the generator read it: a flag is a bool
        "seed": spec.seed,
        "n": spec.n,
        "ground_truth": info,
    }
    _emit(_json_text(sidecar), args.out + ".meta.json")
    return 0


def _repro_table(rows):
    header = f"{'case':<26}{'seed':>6}{'expected':>10}{'tol':>9}{'observed':>10}  status"
    lines = [header]
    for r in rows:
        seed = "-" if r["seed"] is None else str(r["seed"])
        lines.append(
            f"{r['case']:<26}{seed:>6}{r['expected']:>10.4f}{r['tolerance']:>9.1g}"
            f"{r['observed']:>10.4f}  {r['status']}"
        )
    return "\n".join(lines)


def cmd_reproduce(args):
    results = reproduce.run(args.case)
    rows = [r.row() for r in results]
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    elif args.format == "csv":
        columns = ["case", "seed", "expected", "tolerance", "observed", "status"]
        _emit(_csv_text([columns] + [[r[c] for c in columns] for r in rows]), args.out)
    else:
        _emit(_repro_table(rows), args.out)
    return 0 if all(r["status"] == "PASS" for r in rows) else 1


def _parse_grid(text, flag):
    try:
        grid = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of numbers") from None
    if not grid:
        raise UsageError(f"{flag} is empty")
    return [_in_range(f"{flag} value", g, 0, 1) for g in grid]


def cmd_sweep(args):
    eps_grid = _parse_grid(args.eps, "--eps")
    eps1_grid = _parse_grid(args.eps1, "--eps1")
    rows = [["eps", "eps1", "three_charm", "mig", "dci"]]
    for eps in eps_grid:
        for eps1 in eps1_grid:
            three, dci, mig = reproduce.parametric_scores(eps, eps1)
            rows.append([eps, eps1, three, mig, dci])
    _emit(_csv_text(rows), args.out)
    return 0


def cmd_correlate(args):
    # a negative count gives no representation, which correlate_metrics refuses
    levels = np.linspace(0.0, 1.0, _in_range("--count", max(args.count, 0), 0, count=True))
    specs = [
        synth.GeneratorSpec("entangled", {"level": float(lv), "K": args.factors},
                            seed=args.seed + i, n=args.n)
        for i, lv in enumerate(levels)
    ]
    selection = _metric_selection(args.metrics)
    matrix, population = analysis.correlate_metrics(
        specs, metrics=selection, binning=_binning(args),
        importance_method=args.importance_method,
    )
    labels = population.metric_labels
    _emit(_csv_text([["metric", *labels]] + [[name, *row] for name, row in zip(labels, matrix.tolist())]), args.out)
    pop_path = args.population_out or (args.out + ".population.json" if args.out else None)
    if pop_path:
        _emit(_json_text(population.to_dict()), pop_path)
    return 0


def cmd_compare(args):
    if args.builtin and args.inputs:
        raise UsageError("compare takes two input paths or --builtin, not both")
    if args.builtin:
        rep_a, rep_b = synth.gen_comparison_matrices(args.builtin)
        labels = (f"{args.builtin}:a", f"{args.builtin}:b")
    else:
        if not args.inputs or len(args.inputs) != 2:
            raise UsageError("compare needs two input paths (or --builtin)")
        rep_a, rep_b = args.inputs
        labels = (rep_a, rep_b)
    selection = _metric_selection(args.metrics)
    report = analysis.compare(rep_a, rep_b, metrics=selection, labels=labels, binning=_binning(args))
    _emit(report.to_json(), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disentmetrics",
        description="Disentanglement metrics, stress-test generators, and cross-metric analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate metrics on a dataset file, matrix file, or built-in oracle")
    p_eval.add_argument("--dataset", help="CSV dataset path")
    p_eval.add_argument("--oracle", help="built-in oracle name: " + ", ".join(synth.ORACLE_GENERATOR_NAMES))
    p_eval.add_argument("--matrix", help=".matrix informativeness file (scores "
                        + "/".join(metrics.MATRIX_METRICS) + " directly)")
    p_eval.add_argument("--schema", help="sidecar schema file for the dataset")
    p_eval.add_argument("--metrics", help="comma-separated metric selection (default: all)")
    for f in fields(InterventionConfig):
        if f.name != "seed":  # the shared --seed
            p_eval.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    p_eval.add_argument("--importance-method", choices=IMPORTANCE_METHODS, default=IMPORTANCE_METHODS[0])
    _flags(p_eval, seed=True, binning=True, fmt="json")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen", help="generate a dataset from a registered generator spec")
    p_gen.add_argument("--spec", required=True,
                       help="generator spec, e.g. entangled:level=0.5,K=5 (known: "
                            + ", ".join(sorted(synth.GENERATORS)) + ")")
    p_gen.add_argument("--n", type=int, default=synth.GeneratorSpec.n,
                       help=f"sample count (default {synth.GeneratorSpec.n})")
    _flags(p_gen, seed=True)
    p_gen.set_defaults(func=cmd_gen)

    p_repro = sub.add_parser("reproduce", help="re-run pinned counterexamples against their targets")
    p_repro.add_argument("case", nargs="?", default="all",
                         help="case name or 'all' (known: " + ", ".join(sorted(reproduce.CASES)) + ")")
    _flags(p_repro, fmt="table")
    p_repro.set_defaults(func=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="score the two-parameter matrix family over a grid")
    p_sweep.add_argument("--eps", required=True, help="comma-separated eps grid in [0,1]")
    p_sweep.add_argument("--eps1", required=True, help="comma-separated eps1 grid in [0,1]")
    _flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_corr = sub.add_parser("correlate", help="Spearman correlation of metrics over entangled representations")
    p_corr.add_argument("--count", type=int, default=50)
    p_corr.add_argument("--factors", type=int, default=synth.GENERATORS["entangled"][0]["K"])
    p_corr.add_argument("--n", type=int, default=2000, help="samples per representation")
    p_corr.add_argument("--metrics", help="comma-separated metric selection (default: "
                        + ",".join(metrics.DATASET_METRICS) + ")")
    p_corr.add_argument("--importance-method", choices=IMPORTANCE_METHODS, default=IMPORTANCE_METHODS[0])
    p_corr.add_argument("--population-out", help="write the raw population JSON here")
    _flags(p_corr, seed=True, binning=True)
    p_corr.set_defaults(func=cmd_correlate)

    p_cmp = sub.add_parser("compare", help="per-metric preference between two representations")
    p_cmp.add_argument("inputs", nargs="*", help="two .matrix or .csv paths")
    p_cmp.add_argument("--builtin", choices=synth.COMPARISON_CASES,
                       help="use a built-in constructed matrix pair")
    p_cmp.add_argument("--metrics", help="comma-separated metric selection")
    _flags(p_cmp, binning=True)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MetricsError, OSError) as exc:  # any other exception is a bug, and shows its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input too large for this machine; outputs are written atomically
        print(f"error: {args.command}: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
