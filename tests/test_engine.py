import dataclasses

import numpy as np
import pytest

import genediv.engine
from genediv.config import build_engine_config, load_config
from genediv.diversity import (
    DiversityConfig,
    MetricKind,
    augmented_fitness,
    draw_distinct_indices,
    make_distance_fn,
)
from genediv.engine import (
    EngineConfig,
    Individual,
    initialize,
    run_evolution,
    step_generation,
    tournament_select,
)
from genediv.genealogy import AncestryIndex, OpKind
from genediv.routing import DEFAULT_ARENA, Rect, RoutingProblem, SettingError

PROBLEM = RoutingProblem()


def small_config(**kwargs):
    defaults = dict(population_size=10, generations=20)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


# ----------------------------------------------------------------------
# initialisation
# ----------------------------------------------------------------------

def test_initialize_population_and_graph():
    rng = np.random.default_rng(51)
    config = EngineConfig()
    population, graph = initialize(config, rng, PROBLEM)
    assert len(population) == 20
    assert len(graph) == 20
    for ind in population:
        assert graph.kind(ind.node) is OpKind.GENESIS
        assert graph.parents(ind.node) == ()
        assert graph.birth_generation(ind.node) == 0
        assert ind.trash.shape == (config.tau,)
        assert ind.raw_fitness == PROBLEM.evaluate(ind.genome)


def test_initialize_fresh_individuals_are_maximally_distant():
    rng = np.random.default_rng(52)
    population, graph = initialize(EngineConfig(), rng, PROBLEM)
    assert graph.gdist(population[0].node, population[7].node) == 1.0
    assert graph.gdist(population[3].node, population[3].node) == 0.0


def test_config_validation():
    EngineConfig()
    with pytest.raises(ValueError):
        EngineConfig(population_size=0)
    with pytest.raises(ValueError):
        EngineConfig(mutation_prob=1.5)
    with pytest.raises(ValueError):
        EngineConfig(crossover_prob=-0.1)
    with pytest.raises(ValueError):
        EngineConfig(tournament_size=0)
    with pytest.raises(ValueError):
        EngineConfig(population_size=2, immigrants_per_gen=2)
    with pytest.raises(ValueError):
        EngineConfig(tau=0)


INTEGER_FIELDS = ["population_size", "generations", "tournament_size", "immigrants_per_gen", "tau"]


@pytest.mark.parametrize("value", [1.5, 20.0, True, False])
@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_counts_must_be_integers(name, value):
    # A fractional tournament size used to hang the run; the others failed
    # mid-run inside numpy or range.  A bool is no count: generations=True
    # used to run one generation.
    with pytest.raises(SettingError) as err:
        EngineConfig(**{name: value})
    assert err.value.field == name
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


def test_numpy_integer_counts_accepted():
    counts = dict.fromkeys(INTEGER_FIELDS, np.int64(3)) | {"population_size": np.int64(4)}
    config = EngineConfig(**counts)
    assert config.tournament_size == 3
    assert DiversityConfig(sample_size=np.int64(3)).sample_size == 3


def test_sample_size_must_be_an_integer():
    for value in (2.5, True, False):
        with pytest.raises(SettingError) as err:
            DiversityConfig(sample_size=value)
        assert err.value.field == "sample_size"
        assert str(err.value) == f"sample_size must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "name, at_least",
    [("population_size", 1), ("generations", 0), ("tournament_size", 1),
     ("immigrants_per_gen", 0), ("tau", 1), ("sample_size", 1)],
)
def test_count_below_its_least_value_names_the_field(name, at_least):
    def build(value):
        if name == "sample_size":
            return DiversityConfig(sample_size=value)
        return EngineConfig(**{"immigrants_per_gen": 0, name: value})

    with pytest.raises(SettingError) as err:
        build(at_least - 1)
    assert err.value.field == name
    assert str(err.value) == f"{name} must be >= {at_least}, got {at_least - 1}"
    assert getattr(build(at_least), name) == at_least


def test_configs_check_themselves_when_built():
    # A copy made by replace is checked like a new config.
    with pytest.raises(SettingError) as err:
        dataclasses.replace(EngineConfig(), tau=0)
    assert err.value.field == "tau"
    # So no checked field can be set past its check.
    with pytest.raises(dataclasses.FrozenInstanceError):
        EngineConfig().tau = 0
    with pytest.raises(SettingError) as err:
        DiversityConfig("domain", 1.0)
    assert err.value.field == "kind"


# ----------------------------------------------------------------------
# tournament selection
# ----------------------------------------------------------------------

def _individual(node, fitness):
    return Individual(node=node, genome=np.zeros((10, 2)), trash=np.zeros(32, np.uint8),
                      raw_fitness=fitness)


RAW = DiversityConfig()


def raw_tournament(pool, k, rng):
    """The partner that a chooser at index 0 picks from ``pool`` on raw fitness."""
    return tournament_select([_individual(-1, 0.0)] + pool, 0, k, RAW, rng, None)


def test_tournament_single_member_pool():
    rng = np.random.default_rng(53)
    pool = [_individual(0, 1.0)]
    assert raw_tournament(pool, 2, rng) is pool[0]


def test_tournament_picks_higher_fitness():
    rng = np.random.default_rng(54)
    pool = [_individual(0, 5.0), _individual(1, 3.0)]
    for _ in range(20):
        assert raw_tournament(pool, 2, rng).node == 0


def test_tournament_tie_goes_to_smaller_node_id():
    rng = np.random.default_rng(55)
    pool = [_individual(3, 5.0), _individual(1, 5.0), _individual(2, 5.0)]
    for _ in range(20):
        assert raw_tournament(pool, 3, rng).node == 1


def test_tournament_rejects_empty_pool():
    rng = np.random.default_rng(56)
    with pytest.raises(ValueError):
        raw_tournament([], 2, rng)
    with pytest.raises(ValueError):
        tournament_select([], 0, 2, RAW, rng, None)


def test_tournament_scores_candidates_in_one_call_as_one_call_each():
    # One augmented_fitness call for all candidates draws their peer sets
    # back to back, as one call per candidate would: same winner, same state.
    # The chooser is never a candidate.
    population = [
        Individual(node=i, genome=PROBLEM.random_genome(np.random.default_rng(i)),
                   trash=np.zeros(32, np.uint8), raw_fitness=float(i % 3))
        for i in range(12)
    ]
    config = DiversityConfig(MetricKind.DOMAIN, weight=0.5, sample_size=5)
    read = make_distance_fn(MetricKind.DOMAIN)(population)
    reads = []

    def recording(a, b):
        reads.append(np.ravel(a).tolist())
        return read(a, b)

    for i in (0, 5, 11):
        others = population[:i] + population[i + 1 :]
        for seed in range(40):
            for k in (1, 2, 3, 12):
                reads.clear()
                rng = np.random.default_rng(seed)
                winner = tournament_select(population, i, k, config, rng, recording)
                assert len(reads) == 1 and len(reads[0]) == min(k, len(others))
                assert i not in reads[0]

                reference = np.random.default_rng(seed)
                drawn = draw_distinct_indices(reference, len(others), min(k, len(others)))
                candidates = [population.index(others[j]) for j in drawn]
                assert reads[0] == candidates
                scores = [
                    augmented_fitness(population, [j], config, reference, read)[0]
                    for j in candidates
                ]
                best = max(zip(scores, (-population[j].node for j in candidates), candidates))[2]
                assert winner is population[best]
                assert rng.bit_generator.state == reference.bit_generator.state
                assert rng.random() == reference.random()


# ----------------------------------------------------------------------
# one generation
# ----------------------------------------------------------------------

def test_step_identity_when_no_operators_fire():
    rng = np.random.default_rng(57)
    config = small_config(mutation_prob=0.0, crossover_prob=0.0, immigrants_per_gen=0)
    population, graph = initialize(config, rng, PROBLEM)
    before = {ind.node for ind in population}
    after, reader = step_generation(population, graph, config, PROBLEM, rng, generation=1)
    assert {ind.node for ind in after} == before
    assert reader is None  # the none kind has no metric
    assert len(graph) == config.population_size


def test_step_keeps_population_size_and_stamps_generation():
    rng = np.random.default_rng(58)
    config = small_config()
    population, graph = initialize(config, rng, PROBLEM)
    for gen in range(1, 6):
        population, _ = step_generation(population, graph, config, PROBLEM, rng, generation=gen)
        assert len(population) == config.population_size
    for node in graph.nodes():
        gen = graph.birth_generation(node)
        assert 0 <= gen <= 5
        for parent in graph.parents(node):
            assert parent < node


@pytest.mark.parametrize(
    "kind", [MetricKind.DOMAIN, MetricKind.GENEALOGICAL_TREE, MetricKind.TRASH_BITS]
)
def test_shaped_step_without_a_reader_raises(kind):
    # Scoring the tournaments on raw fitness instead would change the run
    # silently; at weight 0 no reader is read, so none is needed.
    config = small_config(diversity=DiversityConfig(kind, weight=1.0))
    rng = np.random.default_rng(60)
    population, graph = initialize(config, rng, PROBLEM)
    fn = make_distance_fn(kind, graph)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="reader"):
        step_generation(population, graph, config, PROBLEM, rng, distance_fn=fn)
    assert rng.bit_generator.state == state  # rejected before any draw
    inert = dataclasses.replace(config, diversity=DiversityConfig(kind, weight=0.0))
    survivors, reader = step_generation(population, graph, inert, PROBLEM, rng, distance_fn=fn)
    assert len(survivors) == config.population_size and reader is not None


@pytest.mark.parametrize("kind", list(MetricKind))
def test_step_takes_a_distance_function_exactly_for_a_metric_kind(kind):
    # A metric kind's reader is built for the trace probe even at weight 0,
    # so its step needs the function; the none kind has none to take.
    config = small_config(diversity=DiversityConfig(kind, weight=0.0))
    rng = np.random.default_rng(62)
    population, graph = initialize(config, rng, PROBLEM)
    fn = make_distance_fn(kind, graph)
    wrong = make_distance_fn(MetricKind.DOMAIN) if fn is None else None
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="distance function"):
        step_generation(population, graph, config, PROBLEM, rng, distance_fn=wrong)
    assert rng.bit_generator.state == state  # rejected before any draw
    survivors, reader = step_generation(population, graph, config, PROBLEM, rng, distance_fn=fn)
    assert len(survivors) == config.population_size and (reader is None) == (fn is None)


@pytest.mark.parametrize(
    "kind, weight",
    [(MetricKind.DOMAIN, 1.0), (MetricKind.TRASH_BITS, 2.0),
     (MetricKind.GENEALOGICAL_TREE, 4.0), (MetricKind.DOMAIN, 0.0), (MetricKind.NONE, 0.0)],
)
def test_run_builds_one_reader_per_generation(monkeypatch, kind, weight):
    # A run builds its one distance function, the point a wrapper of every
    # reader sits.  The pool's reader is the generation's one build; the
    # survivors read a view of it, and the run builds one more for its
    # initial population.
    makes, builds = [], []
    make = genediv.engine.make_distance_fn

    def counting(*args):
        fn = make(*args)
        makes.append(args)
        return fn and (lambda members: builds.append(len(members)) or fn(members))

    monkeypatch.setattr(genediv.engine, "make_distance_fn", counting)
    config = small_config(diversity=DiversityConfig(kind, weight=weight))
    result = run_evolution(config, PROBLEM, seed=61)
    assert [args[0] for args in makes] == [kind]
    if kind is MetricKind.NONE:
        assert builds == []
    else:
        assert len(builds) == config.generations + 1
        assert builds[0] == config.population_size
    monkeypatch.undo()
    expected = run_evolution(config, PROBLEM, seed=61)
    assert [r.mean_probe_diversity for r in result.trace] == [
        r.mean_probe_diversity for r in expected.trace
    ]


def test_step_rejects_wrong_population_size():
    rng = np.random.default_rng(59)
    config = small_config()
    population, graph = initialize(config, rng, PROBLEM)
    with pytest.raises(ValueError):
        step_generation(population[:-1], graph, config, PROBLEM, rng, generation=1)


def test_recombination_children_inherit_trash_bitwise(born):
    # The parent count picks the operators: a two-parent child mixes its
    # parents, a one-parent child is a single-bit, single-action mutant.
    config = small_config(generations=30)
    graph = run_evolution(config, PROBLEM, seed=0).graph
    individuals = {ind.node: ind for ind in born}
    assert len(individuals) == len(graph)
    recombinations = [node for node in graph.nodes() if len(graph.parents(node)) == 2]
    mutants = [node for node in graph.nodes() if len(graph.parents(node)) == 1]
    assert recombinations, "expected some recombination births"
    assert mutants, "expected some mutation births"
    for node in recombinations:
        p1, p2 = graph.parents(node)
        child = individuals[node].trash
        t1 = individuals[p1].trash
        t2 = individuals[p2].trash
        assert np.all((child == t1) | (child == t2))
    for node in mutants:
        (p,) = graph.parents(node)
        child, parent = individuals[node], individuals[p]
        assert np.count_nonzero(child.trash != parent.trash) == 1
        assert np.count_nonzero((child.genome != parent.genome).any(axis=1)) <= 1


@dataclasses.dataclass(frozen=True)
class CountingProblem(RoutingProblem):
    """Counts its evaluations."""

    evaluated: list = dataclasses.field(default_factory=list, compare=False)

    def evaluate(self, genome, trajectory=None):
        self.evaluated.append(genome)
        return super().evaluate(genome, trajectory)


@pytest.mark.parametrize("kind", list(MetricKind))
def test_recombinant_that_copies_a_parent_takes_its_fitness(kind, born):
    weight = 0.0 if kind is MetricKind.NONE else 1.0
    config = small_config(generations=40, diversity=DiversityConfig(kind, weight))
    problem = CountingProblem()
    graph = run_evolution(config, problem, seed=57).graph
    individuals = {ind.node: ind for ind in born}
    assert len(individuals) == len(graph)
    copies = 0
    for node, ind in individuals.items():
        assert ind.raw_fitness == PROBLEM.evaluate(ind.genome)
        parents = [individuals[p].genome.tobytes() for p in graph.parents(node)]
        copies += len(parents) == 2 and ind.genome.tobytes() in parents
    assert copies > 0
    assert len(problem.evaluated) == len(individuals) - copies


def test_graph_growth_respects_upper_bound():
    config = small_config(generations=25)
    result = run_evolution(config, PROBLEM, seed=61)
    # each generation: at most one mutant and one crossover child per member
    births_per_gen = 2 * config.population_size + config.immigrants_per_gen
    assert len(result.graph) <= config.population_size + config.generations * births_per_gen


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------

def test_run_evolution_trace_shape_and_bounds():
    config = small_config(generations=40)
    trace = run_evolution(config, PROBLEM, seed=62).trace
    assert len(trace) == 40
    assert [row.generation for row in trace] == list(range(1, 41))
    for row in trace:
        assert 0.0 <= row.mean_raw_fitness <= 10.0
        assert 0.0 <= row.best_raw_fitness <= 10.0
        assert row.best_raw_fitness >= row.mean_raw_fitness
        assert row.best_genome.shape == (10, 2)


def test_run_evolution_is_deterministic():
    config = small_config(generations=30,
                          diversity=DiversityConfig(MetricKind.TRASH_BITS, 1.0))
    a = run_evolution(config, PROBLEM, seed=63).trace
    b = run_evolution(config, PROBLEM, seed=63).trace
    for ra, rb in zip(a, b):
        assert ra.generation == rb.generation
        assert ra.mean_raw_fitness == rb.mean_raw_fitness
        assert ra.best_raw_fitness == rb.best_raw_fitness
        assert ra.mean_probe_diversity == rb.mean_probe_diversity
        assert np.array_equal(ra.best_genome, rb.best_genome)


def test_run_evolution_seed_changes_outcome():
    config = small_config(generations=30)
    a = run_evolution(config, PROBLEM, seed=64).trace
    b = run_evolution(config, PROBLEM, seed=65).trace
    assert any(
        ra.mean_raw_fitness != rb.mean_raw_fitness or not np.array_equal(ra.best_genome, rb.best_genome)
        for ra, rb in zip(a, b)
    )


def _run_recording_the_stream(monkeypatch, config, problem, seed):
    """The run's trace, the final state of its one generator and the parent
    count of every birth, in birth order."""
    made, default_rng = [], np.random.default_rng

    def recording(*args):
        made.append(default_rng(*args))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        result = run_evolution(config, problem, seed=seed)
    (rng,) = made
    counts = [len(parents) for _, _, parents in result.graph.births()]
    return result.trace, rng.bit_generator.state, counts


@pytest.mark.parametrize("seed", [1000, 1001, 7])
@pytest.mark.parametrize("kind", list(MetricKind))
def test_draws_do_not_depend_on_fitness_distances_or_selection(monkeypatch, kind, seed):
    # Which values the run draws is fixed by the configuration's counts
    # alone; what it does with them depends on fitness, distances and
    # selection.  So a variant that changes only what selection sees (the
    # goal, λ, a relabelled distance) draws what its reference run draws.
    shipped = build_engine_config(load_config(None, environ={}), kind)
    config = dataclasses.replace(shipped, generations=150)
    moved_goal = RoutingProblem(dataclasses.replace(DEFAULT_ARENA, goal=Rect(0.1, 0.7, 0.3, 0.95)))
    trace, state, counts = _run_recording_the_stream(monkeypatch, config, PROBLEM, seed)
    other, *stream = _run_recording_the_stream(monkeypatch, config, moved_goal, seed)
    assert stream == [state, counts]
    assert [r.mean_raw_fitness for r in trace] != [r.mean_raw_fitness for r in other]
    if kind is not MetricKind.NONE:
        weight = 3 * config.diversity.weight
        tripled = dataclasses.replace(config, diversity=dataclasses.replace(config.diversity, weight=weight))
        _, *stream = _run_recording_the_stream(monkeypatch, tripled, PROBLEM, seed)
        assert stream == [state, counts]


def test_best_fitness_monotone_without_shaping():
    # truncation on raw fitness never discards the incumbent best
    config = EngineConfig(generations=120)
    trace = run_evolution(config, PROBLEM, seed=66).trace
    best = [row.best_raw_fitness for row in trace]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_truncation_and_trace_best_tie_to_smaller_node_id(born):
    class FlatProblem(RoutingProblem):
        def evaluate(self, genome):
            return 3

    config = small_config(population_size=8, generations=1)
    result = run_evolution(config, FlatProblem(), seed=72)
    assert len(born) > 8  # offspring were born and then dropped
    assert [ind.node for ind in result.population] == list(range(8))
    assert born[0].node == 0
    assert np.array_equal(result.trace[0].best_genome, born[0].genome)


def test_zero_weight_variant_replays_baseline_evolution():
    baseline = small_config(generations=40)
    for kind in (MetricKind.DOMAIN, MetricKind.TRASH_BITS, MetricKind.GENEALOGICAL_TREE):
        variant = small_config(generations=40, diversity=DiversityConfig(kind, 0.0))
        rows_a = run_evolution(baseline, PROBLEM, seed=67).trace
        rows_b = run_evolution(variant, PROBLEM, seed=67).trace
        for ra, rb in zip(rows_a, rows_b):
            assert ra.mean_raw_fitness == rb.mean_raw_fitness
            assert ra.best_raw_fitness == rb.best_raw_fitness
            assert np.array_equal(ra.best_genome, rb.best_genome)


def test_probe_column_reflects_metric_kind():
    config = small_config(generations=15,
                          diversity=DiversityConfig(MetricKind.TRASH_BITS, 1.0))
    trace = run_evolution(config, PROBLEM, seed=68).trace
    assert any(row.mean_probe_diversity > 0.0 for row in trace)
    for row in trace:
        assert 0.0 <= row.mean_probe_diversity <= 1.0

    baseline = small_config(generations=15)
    for row in run_evolution(baseline, PROBLEM, seed=68).trace:
        assert row.mean_probe_diversity == 0.0


def test_engine_ancestry_index_agrees_with_graph():
    config = small_config(generations=30,
                          diversity=DiversityConfig(MetricKind.GENEALOGICAL_TREE, 1.0))
    result = run_evolution(config, PROBLEM, seed=69)
    index = AncestryIndex()
    index.follow(result.graph)
    rng = np.random.default_rng(70)
    nodes = [ind.node for ind in result.population]
    for _ in range(100):
        a = nodes[int(rng.integers(len(nodes)))]
        b = nodes[int(rng.integers(len(nodes)))]
        assert index.gdist(a, b) == result.graph.gdist(a, b)


def test_zero_generations_returns_empty_trace():
    config = small_config(generations=0)
    result = run_evolution(config, PROBLEM, seed=71)
    assert result.trace == []
    assert len(result.graph) == config.population_size
