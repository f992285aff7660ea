import numpy as np
import pytest

from genediv import (
    AncestryIndex,
    DiversityConfig,
    GenealogyGraph,
    Individual,
    MetricKind,
    OpKind,
    augmented_fitness,
    average_distance,
    domain_distance,
    make_distance_fn,
    sample_peers,
    tdist,
)
from genediv.diversity import draw_distinct_indices


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


def test_sample_peers_excludes_self_by_identity():
    rng = np.random.default_rng(35)
    population = make_population(rng)
    x = population[2]
    for _ in range(50):
        peers = sample_peers(population, x, 5, rng)
        assert len(peers) == 5
        assert all(p is not x for p in peers)


def test_sample_peers_caps_at_population_size():
    rng = np.random.default_rng(36)
    population = make_population(rng, size=3)
    peers = sample_peers(population, population[0], 5, rng)
    assert len(peers) == 2
    assert sample_peers([population[0]], population[0], 5, rng) == []


# ----------------------------------------------------------------------
# metric dispatch
# ----------------------------------------------------------------------

def test_make_distance_fn_dispatch():
    rng = np.random.default_rng(37)
    graph = GenealogyGraph()
    population = make_population(rng, size=4, graph=graph)
    a, b = population[0], population[1]

    others = population[1:]
    assert make_distance_fn(MetricKind.NONE) is None
    assert make_distance_fn(MetricKind.DOMAIN)(a, others) == [
        domain_distance(a.genome, o.genome) for o in others
    ]
    assert make_distance_fn(MetricKind.TRASH_BITS)(a, others) == [
        tdist(a.trash, o.trash) for o in others
    ]
    fn = make_distance_fn(MetricKind.GENEALOGICAL_TREE, graph)
    assert fn(a, [b]) == [graph.gdist(a.node, b.node)] == [1.0]
    assert fn(a, []) == []
    index = AncestryIndex.from_graph(graph)
    fn = make_distance_fn(MetricKind.GENEALOGICAL_TREE, graph, index)
    assert fn(a, others) == [graph.gdist(a.node, o.node) for o in others]


def test_make_distance_fn_requires_genealogy_source():
    with pytest.raises(ValueError):
        make_distance_fn(MetricKind.GENEALOGICAL_TREE)


def test_average_distance():
    rng = np.random.default_rng(38)
    population = make_population(rng)
    x, rest = population[0], population[1:4]
    expected = sum(domain_distance(x.genome, p.genome) for p in rest) / 3
    assert average_distance(x, rest, MetricKind.DOMAIN) == expected
    batched = make_distance_fn(MetricKind.DOMAIN)
    assert average_distance(x, rest, MetricKind.DOMAIN, distance_fn=batched) == expected
    assert average_distance(x, rest, MetricKind.NONE) == 0.0
    with pytest.raises(ValueError):
        average_distance(x, [], MetricKind.DOMAIN)


# ----------------------------------------------------------------------
# fitness shaping
# ----------------------------------------------------------------------

def test_augmented_fitness_disabled_consumes_no_randomness():
    rng = np.random.default_rng(39)
    population = make_population(rng)
    x = population[0]
    for config in (
        DiversityConfig(MetricKind.NONE, 0.0),
        DiversityConfig(MetricKind.DOMAIN, 0.0),
        DiversityConfig(MetricKind.TRASH_BITS, 0.0),
    ):
        state_before = rng.bit_generator.state
        value = augmented_fitness(x, population, x.raw_fitness, config, rng)
        assert value == x.raw_fitness
        assert rng.bit_generator.state == state_before


def test_augmented_fitness_adds_weighted_mean_distance():
    rng = np.random.default_rng(40)
    population = make_population(rng)
    x = population[0]
    config = DiversityConfig(MetricKind.DOMAIN, weight=2.0, sample_size=3)

    shaped = augmented_fitness(x, population, x.raw_fitness, config, np.random.default_rng(7))
    peers = sample_peers(population, x, 3, np.random.default_rng(7))
    expected = x.raw_fitness + 2.0 * (
        sum(domain_distance(x.genome, p.genome) for p in peers) / 3
    )
    assert shaped == pytest.approx(expected)


def test_augmented_fitness_lonely_individual_gets_raw():
    rng = np.random.default_rng(41)
    population = make_population(rng, size=1)
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0)
    assert augmented_fitness(population[0], population, 4.0, config, rng) == 4.0


def test_diversity_config_validation():
    DiversityConfig(MetricKind.DOMAIN, 0.5, 5).validate()
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, -1.0).validate()
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, 1.0, 0).validate()
    with pytest.raises(ValueError):
        DiversityConfig("domain", 1.0).validate()
