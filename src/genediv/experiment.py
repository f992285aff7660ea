"""Batch experiment harness: variant comparison, grid search, CSV artifacts.

Both commands take an :class:`ExperimentSpec`: named variants, each a built
:class:`EngineConfig`, run over a common list of seeds.  ``run_experiment``
writes:

* one raw CSV per variant -- header
  ``variant,seed,generation,mean_raw_fitness,best_raw_fitness,mean_probe_diversity``
  with one row per seed per generation, seeds in order, generations
  ascending within a seed;
* one aggregate CSV -- header
  ``variant,generation,mean_raw_fitness,std_raw_fitness`` with one row per
  variant per generation, where mean and standard deviation are taken
  across seeds of the per-generation population mean.

``grid_search`` reads each variant as one candidate diversity weight of a
single metric, in ascending order, and writes
``lambda,mean_final_fitness,std_final_fitness`` (statistics of the final
generation's mean raw fitness across seeds), reporting the argmax weight
with ties broken toward the smaller value.

Both run their independent (variant, seed) runs on a process pool,
one worker per usable CPU unless ``jobs`` says otherwise; each run draws only
from its own seed's stream and the CSVs are written from the traces in task
order, so any worker count writes the same bytes.

All real numbers are written with fixed six-decimal formatting and ``\n``
line endings, so rerunning with the same configuration reproduces the files
byte for byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .config import ConfigError
from .diversity import sum_left
from .engine import EngineConfig, TraceRow, run_evolution
from .routing import RoutingProblem, SettingError, require_integer

RAW_HEADER = "variant,seed,generation,mean_raw_fitness,best_raw_fitness,mean_probe_diversity"
AGGREGATE_HEADER = "variant,generation,mean_raw_fitness,std_raw_fitness"
GRID_HEADER = "lambda,mean_final_fitness,std_final_fitness"


def format_real(value: float) -> str:
    """Fixed six-decimal rendering used for every real-valued CSV field."""
    return f"{value:.6f}"


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Population mean and std, each summed by :func:`sum_left`."""
    n = len(values)
    mean = sum_left(values) / n
    return mean, math.sqrt(sum_left((v - mean) ** 2 for v in values) / n)


@dataclass
class ExperimentSpec:
    """One batch: each named variant's engine over every seed, and where to write."""

    variants: list[tuple[str, EngineConfig]]
    seeds: list[int]
    problem: RoutingProblem
    output_path: Path

    def validate(self) -> None:
        if not self.variants:
            raise ValueError("experiment needs at least one variant")
        names = [name for name, _ in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"variant names must be unique, got {names}")
        if not self.seeds:
            raise ValueError("experiment needs at least one seed")
        try:
            for seed in self.seeds:
                require_integer("seed", seed, 0)
        except SettingError:
            raise ValueError(f"seeds must be integers >= 0, got {self.seeds}") from None
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be unique, got {self.seeds}")


@dataclass
class ExperimentResult:
    """Paths of the CSVs written plus the in-memory traces behind them."""

    raw_paths: dict[str, Path]
    aggregate_path: Path
    traces: dict[tuple[str, int], list[TraceRow]]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(jobs: int | None, runs: int, cpus: int) -> int:
    """Workers for ``runs`` independent runs: ``jobs`` (default: one per
    CPU), never more than ``cpus`` or ``runs``."""
    if jobs is not None:
        try:
            require_integer("jobs", jobs, 1)
        except SettingError:
            raise ConfigError("jobs", f"expected an integer >= 1, got {jobs}") from None
    return min(cpus if jobs is None else jobs, cpus, runs)


def _run_trace(engine: EngineConfig, problem: RoutingProblem, seed: int) -> list[TraceRow]:
    return run_evolution(engine, problem, seed=seed).trace


def _run_traces(
    tasks: list[tuple[EngineConfig, RoutingProblem, int]], workers: int
) -> list[list[TraceRow]]:
    """The trace of every ``(engine, problem, seed)`` task, in task order.

    One worker runs the tasks in this process; more run them on a process
    pool that is shut down, its workers joined, before this returns or
    raises.  A worker's exception is raised here as itself.
    """
    if workers == 1:
        return [_run_trace(*task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker starts from this process's imports: a pool of two
    # starts in ~15 ms, where spawned workers re-import numpy in ~0.4 s.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    # When a result raises, ``map``'s iterator cancels the tasks not yet
    # started, and leaving the ``with`` joins the workers.
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(_run_trace, *zip(*tasks)))


def _run_batch(spec: ExperimentSpec, jobs: int | None) -> tuple[Path, Iterator[list[TraceRow]]]:
    """Validate ``spec``, make the output directory and run every variant
    over every seed; return the directory and the traces, variants outer and
    seeds inner.  Nothing is written, and no worker started, when the spec
    or ``jobs`` is invalid."""
    spec.validate()
    tasks = [(engine, spec.problem, seed) for _, engine in spec.variants for seed in spec.seeds]
    workers = _worker_count(jobs, len(tasks), _usable_cpus())
    out_dir = Path(spec.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, iter(_run_traces(tasks, workers))


def run_experiment(spec: ExperimentSpec, jobs: int | None = None) -> ExperimentResult:
    """Run every (variant, seed) pair and write the CSVs.

    The runs go to ``jobs`` worker processes (default: one per usable CPU),
    at most one per usable CPU and per run; with one worker they run in
    this process.  The CSVs are the same bytes for every worker count.
    """
    out_dir, done = _run_batch(spec, jobs)

    raw_paths: dict[str, Path] = {}
    traces: dict[tuple[str, int], list[TraceRow]] = {}
    aggregate_lines = [AGGREGATE_HEADER]

    for name, engine in spec.variants:
        per_seed: list[list[TraceRow]] = []
        raw_lines = [RAW_HEADER]
        for seed in spec.seeds:
            rows = next(done)
            traces[(name, seed)] = rows
            per_seed.append(rows)
            for row in rows:
                raw_lines.append(
                    f"{name},{seed},{row.generation},"
                    f"{format_real(row.mean_raw_fitness)},"
                    f"{format_real(row.best_raw_fitness)},"
                    f"{format_real(row.mean_probe_diversity)}"
                )
        raw_path = out_dir / f"raw_{name}.csv"
        _write_lines(raw_path, raw_lines)
        raw_paths[name] = raw_path

        for g in range(engine.generations):
            mean, std = _mean_std([rows[g].mean_raw_fitness for rows in per_seed])
            aggregate_lines.append(
                f"{name},{per_seed[0][g].generation},{format_real(mean)},{format_real(std)}"
            )

    aggregate_path = out_dir / "aggregate.csv"
    _write_lines(aggregate_path, aggregate_lines)
    return ExperimentResult(raw_paths, aggregate_path, traces)


@dataclass
class GridResult:
    """Per-weight statistics and the selected best weight."""

    rows: list[tuple[float, float, float]]  # (lambda, mean final, std final)
    best_lambda: float
    path: Path


def grid_search(spec: ExperimentSpec, jobs: int | None = None) -> GridResult:
    """Evaluate each variant's diversity weight over all seeds; write and return results.

    The variants must share one metric kind, have strictly ascending weights
    and run at least one generation, or nothing is written and no worker
    started.  The runs are spread over workers as in ``run_experiment``.
    """
    kinds = {engine.diversity.kind.value for _, engine in spec.variants}
    if len(kinds) > 1:
        raise ValueError(f"grid search sweeps one metric kind, got {sorted(kinds)}")
    lambdas = [engine.diversity.weight for _, engine in spec.variants]
    for a, b in zip(lambdas, lambdas[1:]):
        if a >= b:
            raise ValueError(f"candidate weights must be sorted ascending, got {lambdas}")
    if any(engine.generations < 1 for _, engine in spec.variants):
        raise ConfigError("engine.generations", "grid search needs at least one generation")
    out_dir, done = _run_batch(spec, jobs)

    rows = [
        (lam, *_mean_std([next(done)[-1].mean_raw_fitness for _ in spec.seeds]))
        for lam in lambdas
    ]
    path = out_dir / f"grid_{kinds.pop()}.csv"
    _write_lines(path, [GRID_HEADER, *(",".join(map(format_real, row)) for row in rows)])
    # max keeps the first of equal means: ties go to the smaller weight.
    best_lambda = max(rows, key=lambda row: row[1])[0]
    return GridResult(rows=rows, best_lambda=best_lambda, path=path)
