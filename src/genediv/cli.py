"""Command-line interface for running experiments and grid searches.

Subcommands::

    genediv run            --config cfg --out dir [--jobs n]   # variant comparison CSVs
    genediv grid           --config cfg --metric kind --out dir [--jobs n]
    genediv dump-genealogy --config cfg --seed n --out file [--variant kind]

Exit codes: 0 on success, 1 for configuration errors (the message names the
offending key), 2 for I/O errors or command-line usage errors (argparse's
own exit).  Any other exception is a fault and propagates.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ConfigError,
    build_engine_config,
    build_problem,
    lambda_grid,
    load_config,
    parse_metric_kind,
    seeds_from,
)
from .diversity import MetricKind
from .engine import run_evolution
from .experiment import ExperimentSpec, format_real, grid_search, run_experiment
from .genealogy import write_genealogy_log

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _spec(cfg: dict[str, object], args: argparse.Namespace, variants: list) -> ExperimentSpec:
    """The batch of ``variants`` over the configured seeds and problem, written to ``--out``."""
    return ExperimentSpec(variants, seeds_from(cfg), build_problem(cfg), Path(args.out))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    variants = [(kind.value, build_engine_config(cfg, kind)) for kind in cfg["run.variants"]]
    result = run_experiment(_spec(cfg, args, variants), jobs=args.jobs)
    for path in result.raw_paths.values():
        print(f"wrote {path}")
    print(f"wrote {result.aggregate_path}")
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kind = parse_metric_kind("metric", args.metric)
    if kind is MetricKind.NONE:
        raise ConfigError("metric", "grid search needs a diversity metric, not 'none'")
    engine = build_engine_config(cfg, kind)
    # Named by repr, which tells apart any two distinct weights.
    variants = [
        (repr(lam), replace(engine, diversity=replace(engine.diversity, weight=lam)))
        for lam in lambda_grid(cfg, kind)
    ]
    result = grid_search(_spec(cfg, args, variants), jobs=args.jobs)
    for lam, mean, std in result.rows:
        print(f"lambda={lam!r} mean_final={format_real(mean)} std={format_real(std)}")
    print(f"best lambda for {kind.value}: {result.best_lambda!r}")
    print(f"wrote {result.path}")
    return EXIT_OK


def _cmd_dump_genealogy(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.variant is None:
        kind = cfg["run.variants"][0]
    else:
        kind = parse_metric_kind("variant", args.variant)
    if args.seed < 0:
        raise ConfigError("seed", f"expected an integer >= 0, got {args.seed}")
    result = run_evolution(build_engine_config(cfg, kind), build_problem(cfg), seed=args.seed)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_genealogy_log(result.graph, path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genediv",
        description="Diversity-aware evolutionary runs on the robot-routing benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, out_help, jobs=True):
        """A subcommand with the flags every subcommand shares."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", required=True, help=out_help)
        if jobs:
            p.add_argument(
                "--jobs", type=int, default=None,
                help="worker processes for the independent runs, at most one per usable CPU "
                     "(default: one per usable CPU; 1 runs in this process)",
            )
        return p

    command("run", _cmd_run, "run all configured variants and write CSVs",
            "output directory for CSV files")
    p_grid = command("grid", _cmd_grid, "sweep diversity weights for one metric",
                     "output directory for CSV files")
    p_grid.add_argument("--metric", required=True, help="metric kind to sweep")
    p_dump = command("dump-genealogy", _cmd_dump_genealogy, "run once and write the ancestry log",
                     "output file for the log", jobs=False)
    p_dump.add_argument("--seed", required=True, type=int, help="run seed")
    p_dump.add_argument("--variant", default=None, help="metric kind to run (default: first configured)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
