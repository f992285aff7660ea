import numpy as np
import pytest

from genediv.diversity import (
    DiversityConfig,
    MetricKind,
    augmented_fitness,
    draw_distinct_indices,
    draw_peer_sets,
    make_distance_fn,
)
from genediv.engine import Individual
from genediv.genealogy import AncestryIndex, GenealogyGraph, OpKind
from genediv.routing import domain_distance
from genediv.trash_genes import tdist


def make_population(rng, size=6, graph=None):
    population = []
    for i in range(size):
        node = graph.record_birth((), OpKind.GENESIS) if graph is not None else i
        population.append(
            Individual(
                node=node,
                genome=rng.uniform(-0.5, 0.5, size=(10, 2)),
                trash=rng.integers(0, 2, size=32, dtype=np.uint8),
                raw_fitness=float(i),
            )
        )
    return population


# ----------------------------------------------------------------------
# sampling helpers
# ----------------------------------------------------------------------

def test_draw_distinct_indices_properties():
    rng = np.random.default_rng(31)
    for _ in range(200):
        picked = draw_distinct_indices(rng, 10, 5, exclude=3)
        assert len(picked) == len(set(picked)) == 5
        assert 3 not in picked
        assert all(0 <= j < 10 for j in picked)


def test_draw_distinct_indices_exhaustive_draw():
    rng = np.random.default_rng(32)
    picked = draw_distinct_indices(rng, 4, 3, exclude=0)
    assert sorted(picked) == [1, 2, 3]


def test_draw_distinct_indices_rejects_oversized_request():
    rng = np.random.default_rng(33)
    with pytest.raises(ValueError):
        draw_distinct_indices(rng, 4, 4, exclude=1)


def test_draw_distinct_indices_is_deterministic():
    a = draw_distinct_indices(np.random.default_rng(34), 20, 5)
    b = draw_distinct_indices(np.random.default_rng(34), 20, 5)
    assert a == b


def scalar_draws(rng, n, k, exclude):
    """Reference: one scalar draw at a time, rejecting ``exclude`` and repeats."""
    picked = []
    while len(picked) < k:
        j = int(rng.integers(n))
        if j != exclude and j not in picked:
            picked.append(j)
    return picked


def test_draw_peer_sets_replays_sequential_scalar_draws():
    # One plan must return what one scalar-draw loop per exclude returns, and
    # leave the stream where those loops leave it; so must each one-set call.
    seed = 0
    for n in range(2, 65):
        for k in range(n):
            seed += 1
            sets = int(np.random.default_rng(seed).integers(1, 8))
            excludes = [int(e) for e in np.random.default_rng(seed).integers(-2, n + 2, size=sets)]
            reference = np.random.default_rng(seed)
            want = [scalar_draws(reference, n, k, e) for e in excludes]
            planned = np.random.default_rng(seed)
            assert draw_peer_sets(planned, n, k, excludes) == want, (n, k, excludes)
            one_by_one = np.random.default_rng(seed)
            assert [draw_distinct_indices(one_by_one, n, k, e) for e in excludes] == want
            state = reference.bit_generator.state
            assert planned.bit_generator.state == one_by_one.bit_generator.state == state
            assert planned.random() == one_by_one.random() == reference.random()


def test_draw_peer_sets_rejects_oversized_request_before_drawing():
    rng = np.random.default_rng(38)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        draw_peer_sets(rng, 4, 4, [9, 1])  # all 4 fit beside 9, not beside 1
    with pytest.raises(ValueError):
        draw_peer_sets(rng, 4, -1, [0])
    assert rng.bit_generator.state == state
    assert draw_peer_sets(rng, 4, 0, [0, 1]) == [[], []]
    assert draw_peer_sets(rng, 4, 2, []) == []
    assert rng.bit_generator.state == state


# ----------------------------------------------------------------------
# metric dispatch
# ----------------------------------------------------------------------

def test_make_distance_fn_dispatch():
    rng = np.random.default_rng(37)
    graph = GenealogyGraph()
    population = make_population(rng, size=4, graph=graph)
    a, b = population[0], population[1]

    xs = [a, a, a, b, population[3], b]
    ys = population[1:] + [a, population[2], b]
    assert make_distance_fn(MetricKind.NONE) is None
    assert make_distance_fn(MetricKind.DOMAIN)(xs, ys) == [
        domain_distance(x.genome, y.genome) for x, y in zip(xs, ys)
    ]
    assert make_distance_fn(MetricKind.TRASH_BITS)(xs, ys) == [
        tdist(x.trash, y.trash) for x, y in zip(xs, ys)
    ]
    fn = make_distance_fn(MetricKind.GENEALOGICAL_TREE, AncestryIndex.from_graph(graph))
    assert fn([a], [b]) == [graph.gdist(a.node, b.node)] == [1.0]
    assert fn(xs, ys) == [graph.gdist(x.node, y.node) for x, y in zip(xs, ys)]
    for kind in (MetricKind.DOMAIN, MetricKind.TRASH_BITS):
        assert make_distance_fn(kind)([], []) == []
    assert fn([], []) == []


def test_make_distance_fn_requires_genealogy_source():
    with pytest.raises(ValueError):
        make_distance_fn(MetricKind.GENEALOGICAL_TREE)


# ----------------------------------------------------------------------
# fitness shaping
# ----------------------------------------------------------------------

def recording_distance(seen):
    """A distance of 1 for every pair that notes which peers it was asked about."""
    def fn(xs, ys):
        seen.append([y.node for y in ys])
        return [1.0] * len(ys)
    return fn


def test_augmented_fitness_adds_weighted_mean_distance():
    rng = np.random.default_rng(40)
    population = make_population(rng)
    x = population[0]
    config = DiversityConfig(MetricKind.DOMAIN, weight=2.0, sample_size=3)
    distance_fn = make_distance_fn(MetricKind.DOMAIN)

    shaped, = augmented_fitness(population, [0], config, np.random.default_rng(7), distance_fn)
    picked = draw_distinct_indices(np.random.default_rng(7), len(population), 3, exclude=0)
    expected = x.raw_fitness + 2.0 * (
        sum(domain_distance(x.genome, population[j].genome) for j in picked) / 3
    )
    assert shaped == expected


def test_augmented_fitness_excludes_self_by_index():
    rng = np.random.default_rng(35)
    population = make_population(rng)
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0, sample_size=5)
    seen = []
    for _ in range(50):
        augmented_fitness(population, [2], config, rng, recording_distance(seen))
    for peers in seen:
        assert len(peers) == len(set(peers)) == 5
        assert population[2].node not in peers
    assert len(seen) == 50


def test_augmented_fitness_caps_peers_at_pool_size():
    rng = np.random.default_rng(36)
    population = make_population(rng, size=3)
    config = DiversityConfig(MetricKind.DOMAIN, weight=0.5, sample_size=5)
    seen = []
    shaped = augmented_fitness(population, [0], config, rng, recording_distance(seen))
    assert sorted(seen[0]) == [population[1].node, population[2].node]
    assert shaped == [population[0].raw_fitness + 0.5]


def test_augmented_fitness_lonely_individual_gets_raw():
    rng = np.random.default_rng(41)
    population = make_population(rng, size=1)
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0)
    state_before = rng.bit_generator.state
    seen = []
    shaped = augmented_fitness(population, [0, 0], config, rng, recording_distance(seen))
    assert shaped == [0.0, 0.0]
    assert seen == []
    assert rng.bit_generator.state == state_before


def test_augmented_fitness_batch_replays_one_call_per_index():
    population = make_population(np.random.default_rng(42), size=9)
    indices = [4, 0, 8, 4, 1, 2, 3, 5, 6, 7]
    for kind in (MetricKind.DOMAIN, MetricKind.TRASH_BITS):
        config = DiversityConfig(kind, weight=1.5, sample_size=5)
        distance_fn = make_distance_fn(kind)
        batched = np.random.default_rng(43)
        one_by_one = np.random.default_rng(43)
        assert augmented_fitness(population, indices, config, batched, distance_fn) == [
            augmented_fitness(population, [i], config, one_by_one, distance_fn)[0]
            for i in indices
        ]
        assert batched.random() == one_by_one.random()


def test_diversity_config_validation():
    DiversityConfig(MetricKind.DOMAIN, 0.5, 5).validate()
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, -1.0).validate()
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, 1.0, 0).validate()
    with pytest.raises(ValueError):
        DiversityConfig("domain", 1.0).validate()
