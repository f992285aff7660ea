"""Generational evolutionary loop with diversity-shaped truncation selection.

One generation, applied to a population of fixed size N:

1. *Mutation sweep* -- every current member spawns a mutated child with
   probability ``mutation_prob`` (one genome action perturbed, one trash
   bit flipped; recorded as a mutation node).
2. *Recombination sweep* -- every current member, with probability
   ``crossover_prob``, picks a partner from the rest of the population by
   a ``tournament_size``-player tournament on shaped fitness and spawns a
   crossover child (uniform crossover of genome and trash; recorded with
   both parents).
3. *Immigrants* -- ``immigrants_per_gen`` brand-new random individuals
   (genesis nodes) join the offspring.
4. The pool (parents + offspring + immigrants) is scored with shaped
   fitness ``raw + weight * mean distance to sampled peers``.
5. Truncation keeps the N best by shaped fitness (ties go to the smaller,
   i.e. older, node id).

Raw fitness is evaluated once at birth and cached; shaped fitness is
recomputed on every use because the peer sample changes.  All statistics
reported in the trace are computed on raw fitness only.

Reproducibility: a run consumes a single random stream in a fixed order --
per generation: mutation gates (one uniform per member), per-mutant draws,
crossover gates, then per-recombination draws (tournament candidates, the
candidates' peer samples for shaped fitness in draw order, genome mask,
trash mask), immigrant draws, peer samples for the pooled shaped evaluation
in pool order, and finally the probe-sample indices for the trace row.
Every birth -- initial member, mutant, recombinant or immigrant -- follows
one rule: its parent count picks the operators (none: random genome and
markers; one: mutation; two: crossover), the genome operator draws first,
then the marker operator, and recording and evaluating the child draw
nothing.  A tournament scores its candidates together and the pool is
scored at once, each in one :func:`~genediv.diversity.augmented_fitness`
call whose peer plan consumes the stream exactly as one draw per member
would, so the order above holds.  A run builds one distance function, when
the kind has a metric, and each generation builds one reader with it, the
pool's; its view of the survivors serves the trace probe and the next
generation's tournaments.  Each read computes only the peer distances it
selects and draws nothing.  The genealogical function keeps its own ancestry
index, which takes the previous survivors and then the generation's births
when the pool's reader is built, and draws nothing.
Whether shaping is inert is decided by
:func:`~genediv.diversity.augmented_fitness` alone: with no reader, no other
member or a zero weight it returns the raw fitness and draws no peers.  The
``none`` kind has no distance function, so no reader is passed and its
weight never acts.  The probe indices, in contrast, are drawn for every
metric kind -- including ``none`` -- so runs that differ only in an inert
diversity setting replay the exact same evolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .diversity import (
    DistanceFn,
    DistanceReader,
    DiversityConfig,
    MetricKind,
    augmented_fitness,
    draw_distinct_indices,
    make_distance_fn,
    sum_left,
)
from .genealogy import GenealogyGraph
from .routing import RoutingProblem, SettingError, require_integer
from .trash_genes import flip_one_bit, random_trash, uniform_cross

PROBE_SIZE = 5

# Each count of EngineConfig and the least value it takes.
_COUNTS = (
    ("population_size", 1), ("generations", 0), ("tournament_size", 1),
    ("immigrants_per_gen", 0), ("tau", 1),
)


@dataclass(eq=False)
class Individual:
    """A living solution: genome, neutral markers, and its genealogy node."""

    node: int
    genome: np.ndarray
    trash: np.ndarray
    raw_fitness: float


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the generational loop (defaults match the benchmark setup).

    Checked when built: a count that is not an integer, or any field out of
    range, raises a :class:`SettingError` naming it.  Frozen; vary it with
    :func:`dataclasses.replace`.
    """

    population_size: int = 20
    generations: int = 1000
    mutation_prob: float = 0.2
    crossover_prob: float = 0.3
    tournament_size: int = 2
    immigrants_per_gen: int = 2
    tau: int = 32
    diversity: DiversityConfig = field(default_factory=DiversityConfig)

    def __post_init__(self) -> None:
        for name, at_least in _COUNTS:
            require_integer(name, getattr(self, name), at_least)
        for name in ("mutation_prob", "crossover_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SettingError(name, f"{name} must be in [0, 1], got {p}")
        if self.population_size <= self.immigrants_per_gen:
            raise SettingError(
                "immigrants_per_gen",
                "population_size must exceed immigrants_per_gen "
                f"({self.population_size} <= {self.immigrants_per_gen})",
            )


@dataclass(frozen=True, eq=False)
class TraceRow:
    """Per-generation statistics, all computed on raw fitness.

    Holds an ndarray, so rows compare by identity; compare fields directly
    when checking traces for equality.
    """

    generation: int
    mean_raw_fitness: float
    best_raw_fitness: float
    mean_probe_diversity: float
    best_genome: np.ndarray


@dataclass
class RunResult:
    """Everything a finished run leaves behind."""

    trace: list[TraceRow]
    graph: GenealogyGraph
    population: list[Individual]


def _spawner(
    graph: GenealogyGraph,
    problem: RoutingProblem,
    rng: np.random.Generator,
    tau: int,
    generation: int = 0,
) -> Callable[..., Individual]:
    """``spawn(*parents)``: the one way an individual is born, by the birth
    rule above.  No parent makes a random individual, one a mutant and two a
    recombinant.  It records the child in ``graph`` and scores it.  Fitness
    is a function of the genome alone, so a recombinant whose genome is
    byte-equal to a parent's takes that parent's raw fitness, which
    ``problem`` scored at the parent's birth."""

    def spawn(*parents: Individual) -> Individual:
        # The genome operator is evaluated before the marker operator.
        raw = None
        if not parents:
            genome, trash = problem.random_genome(rng), random_trash(tau, rng)
        elif len(parents) == 1:
            (p,) = parents
            genome, trash = problem.mutate(p.genome, rng), flip_one_bit(p.trash, rng)
        else:
            p, q = parents
            genome = problem.crossover(p.genome, q.genome, rng)
            trash = uniform_cross(p.trash, q.trash, rng)
            key = genome.tobytes()
            raw = next((r.raw_fitness for r in parents if r.genome.tobytes() == key), None)
        node = graph.record_birth([p.node for p in parents], generation)
        if raw is None:
            raw = float(problem.evaluate(genome))
        return Individual(node, genome, trash, raw)

    return spawn


def initialize(
    config: EngineConfig,
    rng: np.random.Generator,
    problem: RoutingProblem | None = None,
) -> tuple[list[Individual], GenealogyGraph]:
    """Create the starting population (all genesis nodes) and a fresh graph."""
    if problem is None:
        problem = RoutingProblem()
    graph = GenealogyGraph()
    spawn = _spawner(graph, problem, rng, config.tau)
    return [spawn() for _ in range(config.population_size)], graph


def _ranked(
    scores: list[float], members: list[Individual], at: Sequence[int]
) -> Iterator[tuple[float, int, int]]:
    """``(-score, node, i)`` per position ``i`` of ``at`` in ``members``, with
    ``scores`` in ``at``'s order, so that the tuples' order is the selection
    order: highest score first, ties to the smaller (older) node id."""
    return zip([-s for s in scores], [members[i].node for i in at], at)


def tournament_select(
    population: list[Individual],
    i: int,
    k: int,
    config: DiversityConfig,
    rng: np.random.Generator,
    distances: DistanceReader | None,
) -> Individual:
    """The partner of ``population[i]``: the fittest of ``min(k, n - 1)``
    distinct candidates drawn from the other members.

    The candidates are scored on shaped fitness in one
    :func:`augmented_fitness` call, in draw order, with ``distances`` the
    population's reader.  Ties go to the smaller node id.
    """
    n = len(population)
    if n < 2:
        raise ValueError(f"a tournament needs a population of 2 or more, got {n}")
    candidates = [j + (j >= i) for j in draw_distinct_indices(rng, n - 1, min(k, n - 1))]
    scores = augmented_fitness(population, candidates, config, rng, distances)
    return population[min(_ranked(scores, population, candidates))[2]]


def step_generation(
    population: list[Individual],
    graph: GenealogyGraph,
    config: EngineConfig,
    problem: RoutingProblem,
    rng: np.random.Generator,
    *,
    generation: int = 0,
    distance_fn: DistanceFn | None = None,
    distances: DistanceReader | None = None,
) -> tuple[list[Individual], DistanceReader | None]:
    """Advance one generation; return the survivors and their reader.

    ``generation`` stamps the birth generation of every child created here.
    ``distance_fn`` is the run's :func:`make_distance_fn` of the kind: a
    metric kind needs it and ``none`` has none.  ``distances`` is the
    population's reader (the previous step's survivors' reader), which a
    shaped step's tournaments read.

    The one reader built here is the pool's, when the kind has a metric; the
    survivors' is its view ``read(keep[a], keep[b])``, ``keep`` holding their
    pool positions.  Shaped fitness takes one :func:`augmented_fitness` call
    per tournament, for all its candidates, and one for the whole pool.
    """
    n = len(population)
    if n != config.population_size:
        raise ValueError(f"expected population of {config.population_size}, got {n}")
    div = config.diversity
    if (distance_fn is None) != (div.kind is MetricKind.NONE):
        raise ValueError("a step takes a distance function exactly when its kind has a metric")
    if distance_fn is not None and div.weight != 0.0 and distances is None:
        raise ValueError("a shaped step needs the population's distance reader")

    spawn = _spawner(graph, problem, rng, config.tau, generation)
    offspring: list[Individual] = []

    gates = (rng.random(n) < config.mutation_prob).tolist()
    for i in range(n):
        if gates[i]:
            offspring.append(spawn(population[i]))

    gates = (rng.random(n) < config.crossover_prob).tolist()
    for i in range(n):
        if gates[i] and n > 1:
            partner = tournament_select(population, i, config.tournament_size, div, rng, distances)
            offspring.append(spawn(population[i], partner))

    for _ in range(config.immigrants_per_gen):
        offspring.append(spawn())

    pool = population + offspring
    read = distance_fn and distance_fn(pool)
    scores = augmented_fitness(pool, range(len(pool)), div, rng, read)
    ranked = sorted(_ranked(scores, pool, range(len(pool))))[: config.population_size]
    survivors = [pool[i] for _, _, i in ranked]
    if read is None:
        return survivors, None
    keep = np.array([i for _, _, i in ranked], dtype=np.intp)
    return survivors, lambda a, b: read(keep[a], keep[b])


def _trace_row(
    generation: int,
    population: list[Individual],
    distances: DistanceReader | None,
    rng: np.random.Generator,
) -> TraceRow:
    """Raw-fitness statistics of ``population`` and its mean pairwise
    distance over a small random probe (0.0 without a reader).

    The probe indices are drawn for every metric kind, so the stream never
    depends on it.
    """
    raw = [ind.raw_fitness for ind in population]
    best = population[min(_ranked(raw, population, range(len(population))))[2]]
    k = min(PROBE_SIZE, len(population))
    probe = draw_distinct_indices(rng, len(population), k)
    diversity = 0.0
    if distances is not None and k > 1:
        probe = np.array(probe, dtype=np.intp)
        read = distances(probe[:, None], probe).tolist()
        pairs = list(itertools.combinations(range(k), 2))
        diversity = sum_left(read[a][b] for a, b in pairs) / len(pairs)
    return TraceRow(
        generation=generation,
        mean_raw_fitness=sum_left(raw) / len(population),
        best_raw_fitness=float(best.raw_fitness),
        mean_probe_diversity=diversity,
        best_genome=best.genome.copy(),
    )


def run_evolution(
    config: EngineConfig,
    problem: RoutingProblem | None = None,
    *,
    seed: int,
) -> RunResult:
    """Run a full evolution and return trace, genealogy, and final population.

    ``seed`` seeds the run's single random stream.  The run builds its
    distance function once and passes it to every step.
    """
    if problem is None:
        problem = RoutingProblem()
    rng = np.random.default_rng(seed)
    population, graph = initialize(config, rng, problem)
    distance_fn = make_distance_fn(config.diversity.kind, graph)
    distances = distance_fn and distance_fn(population)
    trace: list[TraceRow] = []
    for gen in range(1, config.generations + 1):
        population, distances = step_generation(
            population,
            graph,
            config,
            problem,
            rng,
            generation=gen,
            distance_fn=distance_fn,
            distances=distances,
        )
        trace.append(_trace_row(gen, population, distances, rng))
    return RunResult(trace=trace, graph=graph, population=population)
