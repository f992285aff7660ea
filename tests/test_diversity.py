import numpy as np
import pytest

from genediv.diversity import (
    DiversityConfig,
    MetricKind,
    augmented_fitness,
    draw_distinct_indices,
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
    fn = make_distance_fn(MetricKind.GENEALOGICAL_TREE, AncestryIndex.from_graph(graph))
    assert fn(a, [b]) == [graph.gdist(a.node, b.node)] == [1.0]
    assert fn(a, []) == []
    assert fn(a, others) == [graph.gdist(a.node, o.node) for o in others]


def test_make_distance_fn_requires_genealogy_source():
    with pytest.raises(ValueError):
        make_distance_fn(MetricKind.GENEALOGICAL_TREE)


# ----------------------------------------------------------------------
# fitness shaping
# ----------------------------------------------------------------------

def recording_distance(seen):
    """A distance of 1 to every peer that notes which peers it was asked about."""
    def fn(x, others):
        seen.append([o.node for o in others])
        return [1.0] * len(others)
    return fn


def test_augmented_fitness_adds_weighted_mean_distance():
    rng = np.random.default_rng(40)
    population = make_population(rng)
    x = population[0]
    config = DiversityConfig(MetricKind.DOMAIN, weight=2.0, sample_size=3)
    distance_fn = make_distance_fn(MetricKind.DOMAIN)

    shaped = augmented_fitness(population, 0, config, np.random.default_rng(7), distance_fn)
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
        augmented_fitness(population, 2, config, rng, recording_distance(seen))
    for peers in seen:
        assert len(peers) == len(set(peers)) == 5
        assert population[2].node not in peers
    assert len(seen) == 50


def test_augmented_fitness_caps_peers_at_pool_size():
    rng = np.random.default_rng(36)
    population = make_population(rng, size=3)
    config = DiversityConfig(MetricKind.DOMAIN, weight=0.5, sample_size=5)
    seen = []
    shaped = augmented_fitness(population, 0, config, rng, recording_distance(seen))
    assert sorted(seen[0]) == [population[1].node, population[2].node]
    assert shaped == population[0].raw_fitness + 0.5


def test_augmented_fitness_lonely_individual_gets_raw():
    rng = np.random.default_rng(41)
    population = make_population(rng, size=1)
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0)
    state_before = rng.bit_generator.state
    seen = []
    assert augmented_fitness(population, 0, config, rng, recording_distance(seen)) == 0.0
    assert seen == []
    assert rng.bit_generator.state == state_before


def test_diversity_config_validation():
    DiversityConfig(MetricKind.DOMAIN, 0.5, 5).validate()
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, -1.0).validate()
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, 1.0, 0).validate()
    with pytest.raises(ValueError):
        DiversityConfig("domain", 1.0).validate()
