import multiprocessing
import os
import re
from pathlib import Path

import pytest

import genediv.experiment
from genediv import DiversityConfig, EngineConfig, MetricKind, RoutingProblem
from genediv.config import ConfigError
from genediv.experiment import (
    AGGREGATE_HEADER,
    GRID_HEADER,
    RAW_HEADER,
    ExperimentSpec,
    _mean_std,
    _worker_count,
    format_real,
    grid_search,
    run_experiment,
)
from genediv.routing import SettingError

REAL = r"\d+\.\d{6}"
PROBLEM = RoutingProblem()


def tiny_engine(generations=10, population_size=8, kind=MetricKind.NONE, weight=0.0):
    return EngineConfig(
        population_size=population_size,
        generations=generations,
        diversity=DiversityConfig(kind=kind, weight=weight),
    )


def tiny_spec(out, variants=None, seeds=(3, 4), generations=10):
    """A spec of ``(name, kind, weight)`` variants, each built into its engine."""
    if variants is None:
        variants = [("none", MetricKind.NONE, 0.0)]
    return ExperimentSpec(
        variants=[
            (name, tiny_engine(generations, kind=kind, weight=weight))
            for name, kind, weight in variants
        ],
        seeds=list(seeds),
        problem=PROBLEM,
        output_path=Path(out),
    )


# ----------------------------------------------------------------------
# run_experiment
# ----------------------------------------------------------------------

def test_raw_csv_shape_and_schema(tmp_path):
    result = run_experiment(tiny_spec(tmp_path))
    lines = result.raw_paths["none"].read_text().splitlines()
    assert lines[0] == RAW_HEADER
    assert len(lines) == 1 + 2 * 10  # 2 seeds x 10 generations
    pattern = re.compile(rf"^none,(3|4),\d+,{REAL},{REAL},{REAL}$")
    for line in lines[1:]:
        assert pattern.match(line), line
    generations = [int(line.split(",")[2]) for line in lines[1:11]]
    assert generations == list(range(1, 11))


def test_aggregate_csv_shape(tmp_path):
    variants = [
        ("none", MetricKind.NONE, 0.0),
        ("trash_bits", MetricKind.TRASH_BITS, 1.0),
    ]
    result = run_experiment(tiny_spec(tmp_path, variants=variants, generations=5))
    lines = result.aggregate_path.read_text().splitlines()
    assert lines[0] == AGGREGATE_HEADER
    assert len(lines) == 1 + 2 * 5  # 2 variants x 5 generations
    pattern = re.compile(rf"^(none|trash_bits),\d+,{REAL},{REAL}$")
    for line in lines[1:]:
        assert pattern.match(line), line
    assert lines[1].startswith("none,1,")
    assert lines[6].startswith("trash_bits,1,")


def test_run_experiment_reruns_byte_identically(tmp_path):
    spec_a = tiny_spec(tmp_path / "a")
    spec_b = tiny_spec(tmp_path / "b")
    a = run_experiment(spec_a)
    b = run_experiment(spec_b)
    assert a.raw_paths["none"].read_bytes() == b.raw_paths["none"].read_bytes()
    assert a.aggregate_path.read_bytes() == b.aggregate_path.read_bytes()


def test_csv_uses_unix_line_endings(tmp_path):
    result = run_experiment(tiny_spec(tmp_path))
    blob = result.raw_paths["none"].read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_run_experiment_validates_spec(tmp_path):
    spec = tiny_spec(tmp_path, variants=[("x", MetricKind.NONE, 0.0), ("x", MetricKind.DOMAIN, 1.0)])
    with pytest.raises(ValueError):
        run_experiment(spec)
    spec = tiny_spec(tmp_path, seeds=())
    with pytest.raises(ValueError):
        run_experiment(spec)


def test_repeated_seed_is_rejected_before_any_write(tmp_path, two_cpus):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="seeds must be unique"):
        run_experiment(tiny_spec(out, seeds=(3, 3)), jobs=2)
    with pytest.raises(ValueError, match="seeds must be unique"):
        grid_search(grid_spec(out, [0.5, 1.0], seeds=(4, 5, 4)), jobs=2)
    assert not out.exists()
    assert multiprocessing.active_children() == []
    # A seed that is negative or not an integer (a bool included) is
    # rejected at the same door.
    for seeds in ((-1,), (1.5,), (3, "4"), (True,)):
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="seeds must be integers >= 0"):
                run_experiment(tiny_spec(out, seeds=seeds), jobs=jobs)
            with pytest.raises(ValueError, match="seeds must be integers >= 0"):
                grid_search(grid_spec(out, [0.5, 1.0], seeds=seeds), jobs=jobs)
            assert not out.exists()
            assert multiprocessing.active_children() == []


def test_variants_may_share_a_kind_and_differ_in_generations(tmp_path):
    spec = ExperimentSpec(
        variants=[
            ("short", tiny_engine(3, kind=MetricKind.TRASH_BITS, weight=1.0)),
            ("long", tiny_engine(5, kind=MetricKind.TRASH_BITS, weight=2.0)),
        ],
        seeds=[3, 4],
        problem=PROBLEM,
        output_path=tmp_path,
    )
    result = run_experiment(spec)
    assert list(result.raw_paths) == ["short", "long"]
    assert [len(result.traces[("short", s)]) for s in (3, 4)] == [3, 3]
    assert [len(result.traces[("long", s)]) for s in (3, 4)] == [5, 5]
    lines = result.aggregate_path.read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        *(["short", str(g)] for g in range(1, 4)),
        *(["long", str(g)] for g in range(1, 6)),
    ]


def test_format_real_is_fixed_width():
    assert format_real(0.5) == "0.500000"
    assert format_real(10) == "10.000000"
    assert format_real(1 / 3) == "0.333333"


# ----------------------------------------------------------------------
# parallel runs
# ----------------------------------------------------------------------

ALL_VARIANTS = [
    ("none", MetricKind.NONE, 0.0),
    ("domain", MetricKind.DOMAIN, 1.0),
    ("genealogical_tree", MetricKind.GENEALOGICAL_TREE, 4.0),
    ("trash_bits", MetricKind.TRASH_BITS, 2.0),
]


class FaultyProblem(RoutingProblem):
    """Fails on its first evaluation, naming the process it ran in."""

    def evaluate(self, genome):
        raise ValueError(f"evaluate failed in process {os.getpid()}")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the machine has, so ``jobs=2`` starts a pool."""
    monkeypatch.setattr(genediv.experiment, "_usable_cpus", lambda: 2)


def trace_fields(traces):
    return {
        key: [
            (r.generation, r.mean_raw_fitness, r.best_raw_fitness,
             r.mean_probe_diversity, r.best_genome.tolist())
            for r in rows
        ]
        for key, rows in traces.items()
    }


def test_worker_count_bounds(tmp_path, two_cpus):
    assert _worker_count(None, runs=40, cpus=2) == 2
    assert _worker_count(None, runs=1, cpus=8) == 1
    assert _worker_count(10**9, runs=12, cpus=10**6) == 12
    assert _worker_count(10**9, runs=10**9, cpus=2) == 2
    assert _worker_count(1, runs=40, cpus=8) == 1
    for jobs in (0, -3, 1.5, 2.0, "2", True):
        with pytest.raises(ConfigError) as info:
            _worker_count(jobs, runs=4, cpus=2)
        assert info.value.key == "jobs"
    # Both batch commands check jobs before they write or start anything.
    out = tmp_path / "out"
    for jobs in (0, 1.5, 2.0):
        with pytest.raises(ConfigError) as info:
            run_experiment(tiny_spec(out), jobs=jobs)
        assert info.value.key == "jobs"
        with pytest.raises(ConfigError) as info:
            grid_search(grid_spec(out, [0.5, 1.0]), jobs=jobs)
        assert info.value.key == "jobs"
        assert not out.exists()
        assert multiprocessing.active_children() == []


def test_run_experiment_jobs_give_identical_outputs(tmp_path, two_cpus):
    one = run_experiment(tiny_spec(tmp_path / "one", variants=ALL_VARIANTS), jobs=1)
    two = run_experiment(tiny_spec(tmp_path / "two", variants=ALL_VARIANTS), jobs=2)
    assert list(two.traces) == list(one.traces)
    assert trace_fields(two.traces) == trace_fields(one.traces)
    paths = [*one.raw_paths.values(), one.aggregate_path]
    assert len(paths) == 5
    for path in paths:
        assert (tmp_path / "two" / path.name).read_bytes() == path.read_bytes()
    assert multiprocessing.active_children() == []


def test_grid_search_jobs_give_identical_outputs(tmp_path, two_cpus):
    one = grid_search(grid_spec(tmp_path / "one", [0.0, 0.5, 2.0]), jobs=1)
    two = grid_search(grid_spec(tmp_path / "two", [0.0, 0.5, 2.0]), jobs=2)
    assert two.rows == one.rows
    assert two.best_lambda == one.best_lambda
    assert two.path.read_bytes() == one.path.read_bytes()
    assert multiprocessing.active_children() == []


def test_worker_fault_surfaces_as_itself(tmp_path, two_cpus):
    spec = tiny_spec(tmp_path / "ok")
    run_experiment(spec, jobs=2)
    assert multiprocessing.active_children() == []

    spec = tiny_spec(tmp_path / "bad")
    spec.problem = FaultyProblem()
    with pytest.raises(ValueError, match=r"^evaluate failed in process \d+$") as info:
        run_experiment(spec, jobs=2)
    assert int(str(info.value).split()[-1]) != os.getpid()  # raised in a worker
    assert multiprocessing.active_children() == []


BAD_SETTINGS = [
    (MetricKind.DOMAIN, float("nan")),
    (MetricKind.DOMAIN, -1.0),
    ("domain", 1.0),
]


@pytest.mark.parametrize("kind, weight", BAD_SETTINGS)
def test_invalid_setting_writes_and_starts_nothing(tmp_path, two_cpus, kind, weight):
    # A variant is a built engine: a bad setting fails when it is built.
    for jobs in (1, 2):
        out = tmp_path / f"run{jobs}"
        with pytest.raises(SettingError):
            run_experiment(tiny_spec(out, variants=[("v", kind, weight)]), jobs=jobs)
        assert not out.exists()
        assert multiprocessing.active_children() == []

        out = tmp_path / f"grid{jobs}"
        with pytest.raises(SettingError):
            grid_search(grid_spec(out, [weight], kind=kind), jobs=jobs)
        assert not out.exists()
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# grid search
# ----------------------------------------------------------------------

def grid_spec(out, lambdas, kind=MetricKind.TRASH_BITS, seeds=(3, 4), generations=10):
    return tiny_spec(out, [(repr(lam), kind, lam) for lam in lambdas], seeds, generations)


def test_grid_zero_weight_equals_baseline(tmp_path):
    grid = grid_search(grid_spec(tmp_path / "g", [0.0]))
    experiment = run_experiment(tiny_spec(tmp_path / "e"))
    baseline_finals = [
        experiment.traces[("none", seed)][-1].mean_raw_fitness for seed in (3, 4)
    ]
    expected = sum(baseline_finals) / len(baseline_finals)
    assert grid.rows[0][1] == pytest.approx(expected)


def test_grid_report_shape_and_argmax(tmp_path):
    lambdas = [0.1, 0.5, 1.0]
    grid = grid_search(grid_spec(tmp_path, lambdas))
    assert [row[0] for row in grid.rows] == lambdas
    best = None
    for lam, mean, _std in grid.rows:
        if best is None or mean > best[1]:
            best = (lam, mean)
    assert grid.best_lambda == best[0]

    lines = grid.path.read_text().splitlines()
    assert lines[0] == GRID_HEADER
    assert len(lines) == 1 + len(lambdas)
    pattern = re.compile(rf"^{REAL},{REAL},{REAL}$")
    for line in lines[1:]:
        assert pattern.match(line), line


def test_grid_ties_go_to_the_smallest_weight(tmp_path, monkeypatch):
    trace = run_experiment(tiny_spec(tmp_path / "e")).traces[("none", 3)]
    monkeypatch.setattr(genediv.experiment, "_run_trace", lambda engine, problem, seed: trace)
    lambdas = [0.1, 0.5, 1.0]
    grid = grid_search(grid_spec(tmp_path / "g", lambdas), jobs=1)
    assert len({row[1:] for row in grid.rows}) == 1
    assert grid.best_lambda == 0.1
    assert len(grid.path.read_text().splitlines()) == 1 + len(lambdas)


def test_grid_validates_spec(tmp_path, two_cpus):
    out = tmp_path / "out"
    mixed = tiny_spec(out, [("a", MetricKind.DOMAIN, 0.1), ("b", MetricKind.TRASH_BITS, 0.5)])
    rejected = [
        (grid_spec(out, []), ValueError, "at least one variant"),
        (grid_spec(out, [0.5, 0.1]), ValueError, "sorted ascending"),
        (grid_spec(out, [0.1, 0.1]), ValueError, "sorted ascending"),
        (grid_spec(out, [0.1], generations=0), ConfigError, "engine.generations"),
        (grid_spec(out, [0.1], seeds=()), ValueError, "at least one seed"),
        (mixed, ValueError, "one metric kind"),
    ]
    for spec, error, message in rejected:
        with pytest.raises(error, match=message):
            grid_search(spec, jobs=2)
        assert not out.exists()
        assert multiprocessing.active_children() == []


def test_mean_std_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16: a left-to-right sum is 0.0 on every
    # Python version, where 3.12's compensated builtin sum gives 1.0.
    mean, std = _mean_std([1e16, 1.0, -1e16])
    assert mean == 0.0
    assert std == ((1e16 ** 2 + 1.0 + 1e16 ** 2) / 3) ** 0.5
    assert _mean_std([2.0, 4.0]) == (3.0, 1.0)
