"""End-to-end acceptance checks.

Nine numbered criteria cover the distance metrics (quantitative
expectations and exact oracle equivalence), the benchmark experiment
(runtime, CSV schema, determinism, qualitative outcome), and the
zero-weight reduction.  Each test prints one ``[criterion N] ... PASS``
or ``... FAIL`` line straight to the terminal, bypassing pytest's
capture, so any run of the suite shows the full scorecard.

Criterion 8 is a stochastic claim about an evolutionary benchmark; it
holds for the shipped seed block (1000-1009) and the grid-searched
default weights, but is sensitive to either by nature.

Run just this file with ``pytest tests/test_acceptance.py -v``; the whole
suite needs a few minutes because criterion 7 executes (and re-executes,
to prove byte-identical output) the full 4-variant x 10-seed x
1000-generation experiment.
"""

from __future__ import annotations

import hashlib
import math
import re
from time import perf_counter

import numpy as np
import pytest
from scipy.stats import spearmanr

from genediv import (
    DiversityConfig,
    EngineConfig,
    GenealogyGraph,
    MetricKind,
    RoutingProblem,
    flip_one_bit,
    random_trash,
    run_evolution,
    tdist,
    uniform_cross,
)
from genediv.cli import main as cli_main

from oracles import (
    adist_matrix,
    brute_earliest,
    brute_edist_from,
    brute_gdist,
    brute_lca,
    random_dag,
)

pytestmark = pytest.mark.acceptance

TAU = 32
DAG_SEED = 777
DAG_COUNT = 1000

VARIANT_NAMES = ("none", "domain", "genealogical_tree", "trash_bits")
RAW_HEADER = "variant,seed,generation,mean_raw_fitness,best_raw_fitness,mean_probe_diversity"
AGGREGATE_HEADER = "variant,generation,mean_raw_fitness,std_raw_fitness"
REAL = r"\d+\.\d{6}"


def announce(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    """Print the scorecard line for one criterion, then let the caller assert."""
    with capsys.disabled():
        print(f"[criterion {number}] {label}: {detail} -- {'PASS' if ok else 'FAIL'}", flush=True)


# ---------------------------------------------------------------------------
# criteria 1-3: trash-bit marker distances
# ---------------------------------------------------------------------------


def test_criterion_1_random_pair_marker_distance(capsys):
    """Mean tdist over 10,000 independent random pairs is 0.5 +/- 0.01."""
    rng = np.random.default_rng(101)
    trials = 10_000
    start = perf_counter()
    total = 0.0
    for _ in range(trials):
        total += tdist(random_trash(TAU, rng), random_trash(TAU, rng))
    elapsed = perf_counter() - start
    mean = total / trials
    ok = 0.49 <= mean <= 0.51 and elapsed < 1.0
    announce(capsys, 1, "random-pair trash distance",
             ok, f"mean={mean:.4f} (target 0.49..0.51) in {elapsed:.2f}s (<1s)")
    assert ok


def test_criterion_2_mutation_marker_distance(capsys):
    """tdist to a one-bit mutant is exactly 1/32, every time."""
    rng = np.random.default_rng(102)
    trials = 1000
    failures = 0
    for _ in range(trials):
        v = random_trash(TAU, rng)
        if tdist(v, flip_one_bit(v, rng)) != 1.0 / TAU:
            failures += 1
    ok = failures == 0
    announce(capsys, 2, "mutation trash distance",
             ok, f"{trials - failures}/{trials} trials exactly 1/{TAU}")
    assert ok


def test_criterion_3_crossover_marker_distance(capsys):
    """Mean tdist from a crossover child to a parent is 0.25 +/- 0.01."""
    rng = np.random.default_rng(103)
    trials = 10_000
    start = perf_counter()
    total = 0.0
    for _ in range(trials):
        p1 = random_trash(TAU, rng)
        p2 = random_trash(TAU, rng)
        total += tdist(uniform_cross(p1, p2, rng), p1)
    elapsed = perf_counter() - start
    mean = total / trials
    ok = 0.24 <= mean <= 0.26 and elapsed < 1.0
    announce(capsys, 3, "crossover parent-child trash distance",
             ok, f"mean={mean:.4f} (target 0.24..0.26) in {elapsed:.2f}s (<1s)")
    assert ok


# ---------------------------------------------------------------------------
# criteria 4-5: ancestry queries against brute-force oracles
# ---------------------------------------------------------------------------


def test_criterion_4_ancestry_queries_match_brute_force(capsys):
    """adist / LCA / earliest ancestor / edist agree exactly with the oracles.

    1000 random birth histories of up to 100 nodes.  Ancestor distances are
    checked for every (ancestor, node) pair via the full distance matrix;
    the pairwise query APIs are cross-checked on seeded random samples.
    """
    dag_rng = np.random.default_rng(DAG_SEED)
    pick = np.random.default_rng(404)
    start = perf_counter()
    mismatches = 0
    comparisons = 0
    for _ in range(DAG_COUNT):
        graph = random_dag(dag_rng)
        n = len(graph)
        m = adist_matrix(graph)

        # every ancestor distance, via each node's full distance map
        lib = np.full((n, n), np.inf)
        for x in graph.nodes():
            for a, d in graph.ancestor_distances(x).items():
                lib[a, x] = float(d)
        if not np.array_equal(lib, m):
            mismatches += 1
        comparisons += n * n

        # the pairwise APIs, on random (and self) pairs
        pairs = [(int(a), int(b)) for a, b in pick.integers(0, n, size=(12, 2))]
        pairs.append((int(pick.integers(0, n)),) * 2)
        for a, b in pairs:
            if float(graph.adist(a, b)) != m[a, b]:
                mismatches += 1
            if graph.latest_common_ancestor(a, b) != brute_lca(m, a, b):
                mismatches += 1
            comparisons += 2
        for x in [int(v) for v in pick.integers(0, n, size=8)]:
            if graph.earliest_ancestor(x) != brute_earliest(m, x):
                mismatches += 1
            comparisons += 1

        # undirected distances from one source to sampled targets
        source = int(pick.integers(0, n))
        want = brute_edist_from(graph, source)
        targets = {int(t) for t in pick.integers(0, n, size=15)} | {source}
        for t in targets:
            if graph.edist_oracle(source, t) != want[t]:
                mismatches += 1
            comparisons += 1
    elapsed = perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    announce(capsys, 4, "ancestry queries vs brute force",
             ok, f"{DAG_COUNT} DAGs, {comparisons} comparisons, "
                 f"{mismatches} mismatches in {elapsed:.1f}s (<30s)")
    assert ok


def test_criterion_5_gdist_properties_and_fixtures(capsys):
    """gdist is symmetric, in [0,1], 0 on identity, 1 on disjoint ancestry.

    Checked on the same 1000 random histories as criterion 4 (the DAG
    generator stream is identical), against the matrix oracle, plus two
    hand-computed fixtures: full siblings sit at exactly 1.0 and a
    parent-child chain pair at exactly 0.0.
    """
    dag_rng = np.random.default_rng(DAG_SEED)
    pick = np.random.default_rng(505)
    violations = 0
    checks = 0
    for _ in range(DAG_COUNT):
        graph = random_dag(dag_rng)
        n = len(graph)
        m = adist_matrix(graph)
        for a, b in pick.integers(0, n, size=(8, 2)):
            a, b = int(a), int(b)
            forward = graph.gdist(a, b)
            if forward != graph.gdist(b, a):
                violations += 1
            if not 0.0 <= forward <= 1.0:
                violations += 1
            if forward != brute_gdist(m, a, b):
                violations += 1
            checks += 3
        x = int(pick.integers(0, n))
        if graph.gdist(x, x) != 0.0:
            violations += 1
        checks += 1
        genesis = [v for v in graph.nodes() if not graph.parents(v)]
        if len(genesis) >= 2:  # two roots never share an ancestor
            if graph.gdist(genesis[0], genesis[1]) != 1.0:
                violations += 1
            checks += 1

    siblings = GenealogyGraph()
    siblings.record_birth((), 0)
    siblings.record_birth((0,), 1)
    siblings.record_birth((0,), 1)
    if siblings.gdist(1, 2) != 1.0:
        violations += 1
    chain = GenealogyGraph()
    chain.record_birth((), 0)
    chain.record_birth((0,), 1)
    chain.record_birth((1,), 2)
    if chain.gdist(1, 2) != 0.0 or chain.gdist(0, 2) != 0.0:
        violations += 1
    checks += 2

    ok = violations == 0
    announce(capsys, 5, "gdist property suite",
             ok, f"{checks} checks over {DAG_COUNT} DAGs + fixtures, {violations} violations")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: genealogical distance tracks the factual edit distance
# ---------------------------------------------------------------------------


def test_criterion_6_gdist_correlates_with_edit_distance(capsys):
    """Spearman correlation between gdist and edist is positive in >=9/10 runs.

    Ten short evolution runs (population 20, 50 generations); in each, 500
    node pairs with a finite undirected genealogy distance are sampled from
    the full birth history.
    """
    problem = RoutingProblem()
    config = EngineConfig(generations=50)
    positives = 0
    coefficients = []
    for i, seed in enumerate(range(2000, 2010)):
        graph = run_evolution(config, problem, seed=seed).graph
        n = len(graph)
        sampler = np.random.default_rng(900 + i)
        gvals, evals = [], []
        attempts = 0
        while len(gvals) < 500 and attempts < 50_000:
            attempts += 1
            a, b = (int(v) for v in sampler.integers(0, n, size=2))
            if a == b:
                continue
            e = graph.edist_oracle(a, b)
            if math.isinf(e):
                continue
            gvals.append(graph.gdist(a, b))
            evals.append(e)
        assert len(gvals) == 500, "could not find 500 connected pairs"
        rho = float(spearmanr(gvals, evals)[0])
        coefficients.append(rho)
        if rho > 0.0:
            positives += 1
    ok = positives >= 9
    announce(capsys, 6, "gdist vs edit-distance rank correlation",
             ok, f"positive in {positives}/10 runs "
                 f"(rho {min(coefficients):+.2f}..{max(coefficients):+.2f})")
    assert ok


# ---------------------------------------------------------------------------
# criteria 7-8: the full benchmark experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def full_experiment(tmp_path_factory):
    """One complete default experiment (4 variants x 10 seeds x 1000 gens)."""
    outdir = tmp_path_factory.mktemp("experiment")
    start = perf_counter()
    rc = cli_main(["run", "--out", str(outdir)])
    elapsed = perf_counter() - start
    assert rc == 0
    return outdir, elapsed


def _check_raw_file(path, variant: str) -> None:
    lines = path.read_text().splitlines()
    assert lines[0] == RAW_HEADER
    assert len(lines) == 1 + 10 * 1000
    row = re.compile(rf"^{variant},(\d+),(\d+),{REAL},{REAL},{REAL}$")
    seen = []
    for line in lines[1:]:
        match = row.match(line)
        assert match, f"malformed row in {path.name}: {line!r}"
        seen.append((int(match.group(1)), int(match.group(2))))
    expected = [(seed, gen) for seed in range(1000, 1010) for gen in range(1, 1001)]
    assert seen == expected, f"{path.name}: seed/generation coverage is off"


def _check_aggregate_file(path) -> None:
    lines = path.read_text().splitlines()
    assert lines[0] == AGGREGATE_HEADER
    assert len(lines) == 1 + len(VARIANT_NAMES) * 1000
    row = re.compile(rf"^({'|'.join(VARIANT_NAMES)}),(\d+),{REAL},{REAL}$")
    seen = []
    for line in lines[1:]:
        match = row.match(line)
        assert match, f"malformed row in {path.name}: {line!r}"
        seen.append((match.group(1), int(match.group(2))))
    expected = [(v, g) for v in VARIANT_NAMES for g in range(1, 1001)]
    assert seen == expected, f"{path.name}: variant/generation coverage is off"


def test_criterion_7_harness_runtime_schema_determinism(capsys, full_experiment, tmp_path):
    """The default experiment finishes in <5 min, emits well-formed CSVs,
    and a rerun with the same base seed reproduces them byte for byte."""
    outdir, elapsed = full_experiment
    filenames = [f"raw_{name}.csv" for name in VARIANT_NAMES] + ["aggregate.csv"]
    for name in VARIANT_NAMES:
        _check_raw_file(outdir / f"raw_{name}.csv", name)
    _check_aggregate_file(outdir / "aggregate.csv")

    rerun_dir = tmp_path / "rerun"
    rerun_dir.mkdir()
    assert cli_main(["run", "--out", str(rerun_dir)]) == 0
    identical = all(
        (outdir / f).read_bytes() == (rerun_dir / f).read_bytes() for f in filenames
    )
    ok = elapsed < 300.0 and identical
    announce(capsys, 7, "experiment harness",
             ok, f"{elapsed:.0f}s (<300s), {len(filenames)} CSVs schema-clean, "
                 f"rerun {'byte-identical' if identical else 'DIFFERS'}")
    assert ok


def test_criterion_8_diversity_variants_vs_baseline(capsys, full_experiment):
    """With the grid-searched default weights, every diversity variant ends
    within 0.5 of the baseline's mean final fitness and at least one beats
    it outright.  Stochastic: holds for seeds 1000-1009."""
    outdir, _ = full_experiment
    final = {}
    for line in (outdir / "aggregate.csv").read_text().splitlines()[1:]:
        variant, generation, mean, _ = line.split(",")
        if generation == "1000":
            final[variant] = float(mean)
    baseline = final["none"]
    shaped = {name: final[name] for name in VARIANT_NAMES if name != "none"}
    ok = (
        all(value >= baseline - 0.5 for value in shaped.values())
        and any(value > baseline for value in shaped.values())
    )
    summary = " ".join(f"{name}={value:.3f}" for name, value in final.items())
    announce(capsys, 8, "diversity variants vs baseline", ok, summary)
    assert ok


# sha256 of the default experiment's CSVs, fixed when that output was first
# recorded: any change to the random stream or to the arithmetic shows here.
REFERENCE_SHA256 = {
    "aggregate.csv": "3d82c95649c9f8ed1bf97a4b30d2aa6d28e4164a9b53b2547b828b4ccd2cc394",
    "raw_none.csv": "8452c58703e4e21ea2ee485883a1adfc865f36f9c5b54f12a6882f88189e7847",
    "raw_domain.csv": "0ae8e7bf8f76a51ee0ebd4a8fbdb3733c94d87992834d3bc8fdf4a9987e85060",
    "raw_genealogical_tree.csv": "519e3fbab0665c8e9d8fd81df3dfda65c2a7005ecc24a78a69561457fc5aebc1",
    "raw_trash_bits.csv": "5f619e436df873388a52cab4abddd8096466480ca6859f6b7b860d8aaaa89d45",
}


def test_default_run_matches_reference_sha256(full_experiment):
    """The default experiment reproduces the recorded CSVs byte for byte,
    not only its own rerun (criterion 7)."""
    outdir, _ = full_experiment
    got = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
           for name in REFERENCE_SHA256}
    assert got == REFERENCE_SHA256


# ---------------------------------------------------------------------------
# criterion 9: zero diversity weight replays the baseline run
# ---------------------------------------------------------------------------


def test_criterion_9_zero_weight_reduces_to_baseline(capsys):
    """With weight 0 the shaped bonus is identically 0, so selection ranks by
    raw fitness alone and each variant replays the baseline run exactly:
    same per-generation fitness trace, same best genomes, same final
    population.  (The probe-diversity observability column reports each
    variant's own metric, so it is excluded from the comparison.)"""
    problem = RoutingProblem()
    seed = 4242
    generations = 300
    baseline = run_evolution(EngineConfig(generations=generations), problem, seed=seed)
    shaped_kinds = (MetricKind.DOMAIN, MetricKind.GENEALOGICAL_TREE, MetricKind.TRASH_BITS)
    ok = True
    for kind in shaped_kinds:
        config = EngineConfig(
            generations=generations,
            diversity=DiversityConfig(kind=kind, weight=0.0),
        )
        result = run_evolution(config, problem, seed=seed)
        same_trace = len(result.trace) == len(baseline.trace) and all(
            ours.generation == theirs.generation
            and ours.mean_raw_fitness == theirs.mean_raw_fitness
            and ours.best_raw_fitness == theirs.best_raw_fitness
            and np.array_equal(ours.best_genome, theirs.best_genome)
            for ours, theirs in zip(result.trace, baseline.trace)
        )
        same_population = len(result.population) == len(baseline.population) and all(
            ours.node == theirs.node
            and ours.raw_fitness == theirs.raw_fitness
            and np.array_equal(ours.genome, theirs.genome)
            and np.array_equal(ours.trash, theirs.trash)
            for ours, theirs in zip(result.population, baseline.population)
        )
        ok = ok and same_trace and same_population
    announce(capsys, 9, "zero-weight reduction",
             ok, f"{len(shaped_kinds)} metrics replay the baseline over {generations} gens")
    assert ok
