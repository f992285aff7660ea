import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import genediv.engine
from genediv.diversity import (
    DiversityConfig,
    MetricKind,
    augmented_fitness,
    draw_distinct_indices,
    draw_peer_sets,
    make_distance_fn,
    sum_left,
)
from genediv.engine import EngineConfig, Individual, initialize, run_evolution, step_generation
from genediv.genealogy import GenealogyGraph
from genediv.routing import RoutingProblem, domain_distance
from genediv.trash_genes import tdist


def make_population(rng, size=6, graph=None):
    population = []
    for i in range(size):
        node = graph.record_birth(()) if graph is not None else i
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

def reference_matrix(members, pair_fn):
    return [[pair_fn(x, y) for y in members] for x in members]


def read_all(read, size):
    """Every distance that the reader of ``size`` members gives, as an ndarray."""
    r = np.arange(size)
    return read(r[:, None], r)


def of(matrix):
    """The reader of a precomputed distance matrix."""
    return lambda a, b: matrix[a, b]


def test_make_distance_fn_dispatch():
    rng = np.random.default_rng(37)
    graph = GenealogyGraph()
    population = make_population(rng, size=4, graph=graph)
    members = population + [population[1], population[0]]  # repeats give zero rows

    assert make_distance_fn(MetricKind.NONE) is None
    domain = make_distance_fn(MetricKind.DOMAIN)(members)
    assert read_all(domain, 6).tolist() == reference_matrix(
        members, lambda x, y: domain_distance(x.genome, y.genome)
    )
    assert read_all(make_distance_fn(MetricKind.TRASH_BITS)(members), 6).tolist() == reference_matrix(
        members, lambda x, y: tdist(x.trash, y.trash)
    )
    pair = make_distance_fn(MetricKind.GENEALOGICAL_TREE, graph)(members[:2])
    assert read_all(pair, 2).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    fn = make_distance_fn(MetricKind.GENEALOGICAL_TREE, graph)
    assert read_all(fn(members), 6).tolist() == reference_matrix(
        members, lambda x, y: graph.gdist(x.node, y.node)
    )
    for read in (domain, fn(members)):
        # A read of single pairs or of a block is the same read of the whole.
        whole = read_all(read, 6)
        assert read(1, 4) == whole[1, 4]
        rows, peers = np.array([5, 0, 2]), np.array([[1, 2], [3, 4], [0, 5]])
        assert read(rows[:, None], peers).tolist() == whole[rows[:, None], peers].tolist()
    for empty in (make_distance_fn(MetricKind.DOMAIN)([]),
                  make_distance_fn(MetricKind.TRASH_BITS)([]), fn([])):
        assert read_all(empty, 0).shape == (0, 0)


def test_make_distance_fn_requires_genealogy_source():
    with pytest.raises(ValueError):
        make_distance_fn(MetricKind.GENEALOGICAL_TREE)


def test_genealogical_fn_reads_the_pools_of_an_evolved_run(monkeypatch):
    # The pools a shaped run read, fed in order to a fresh function while
    # its graph grows as the run's did: every pair is the run's gdist.  A
    # node a call dropped, asked for again, raises KeyError.
    pools = []
    make = genediv.engine.make_distance_fn

    def recording(kind, graph):
        fn = make(kind, graph)
        return lambda members: pools.append([m.node for m in members]) or fn(members)

    monkeypatch.setattr(genediv.engine, "make_distance_fn", recording)
    config = EngineConfig(population_size=8, generations=40,
                          diversity=DiversityConfig(MetricKind.GENEALOGICAL_TREE, 4.0))
    run = run_evolution(config, seed=45).graph
    assert len(pools) == config.generations + 1

    graph = GenealogyGraph()
    fn = make_distance_fn(MetricKind.GENEALOGICAL_TREE, graph)
    births = run.births()
    asked_again = 0
    for previous, pool in zip([[]] + pools, pools):
        for _, gen, parents in itertools.islice(births, max(pool) + 1 - len(graph)):
            graph.record_birth(parents, gen)
        r = np.arange(len(pool))
        read = fn([SimpleNamespace(node=x) for x in pool])
        assert read(r[:, None], r).tolist() == [[run.gdist(x, y) for y in pool] for x in pool]
        for x in set(previous) - set(pool):
            asked_again += 1
            with pytest.raises(KeyError):
                fn([SimpleNamespace(node=y) for y in pool + [x]])
    assert asked_again > 0


def test_distance_matrices_match_pairwise_metrics_on_evolved_pools(born):
    # Every generation's whole pool (survivors, newborns and immigrants) and
    # then its survivors, under every metric: each matrix entry is the
    # pairwise function's value, bit for bit.  So
    # is each entry of the survivors' reader that the step returns, a view
    # of the pool's reader, under each shaping metric in turn.
    problem = RoutingProblem()
    for shaping, weight in [
        (MetricKind.GENEALOGICAL_TREE, 4.0), (MetricKind.DOMAIN, 1.0), (MetricKind.TRASH_BITS, 2.0)
    ]:
        config = EngineConfig(population_size=12, diversity=DiversityConfig(shaping, weight))
        rng = np.random.default_rng(44)
        population, graph = initialize(config, rng, problem)
        fns = {kind: make_distance_fn(kind, graph) for kind in MetricKind if kind is not MetricKind.NONE}
        pair_fns = {
            MetricKind.DOMAIN: lambda x, y: domain_distance(x.genome, y.genome),
            MetricKind.TRASH_BITS: lambda x, y: tdist(x.trash, y.trash),
            MetricKind.GENEALOGICAL_TREE: lambda x, y, graph=graph: graph.gdist(x.node, y.node),
        }

        def check(members):
            for kind, fn in fns.items():
                assert read_all(fn(members), len(members)).tolist() == reference_matrix(
                    members, pair_fns[kind]
                ), kind

        distances = fns[shaping](population)
        for gen in range(1, 41):
            first = len(born)
            survivors, distances = step_generation(
                population, graph, config, problem, rng,
                generation=gen, distance_fn=fns[shaping], distances=distances,
            )
            check(population + born[first:])
            check(survivors)
            assert read_all(distances, len(survivors)).tolist() == reference_matrix(
                survivors, pair_fns[shaping]
            ), shaping
            population = survivors
        if shaping is MetricKind.GENEALOGICAL_TREE:
            # Selection under this shaping still leaves near-clones behind:
            # zero entries off the diagonal are covered.
            trash = read_all(fns[MetricKind.TRASH_BITS](population), len(population))
            assert (trash == 0.0).sum() > len(population)


# ----------------------------------------------------------------------
# fitness shaping
# ----------------------------------------------------------------------

def peer_bits(size):
    """``[i, j] = 2 ** j``: a sum of distinct peers' distances names the peers."""
    return np.tile(2.0 ** np.arange(size), (size, 1))


def decode_peers(total):
    return [j for j in range(64) if round(total) >> j & 1]


def test_augmented_fitness_adds_weighted_mean_distance():
    rng = np.random.default_rng(40)
    population = make_population(rng)
    x = population[0]
    config = DiversityConfig(MetricKind.DOMAIN, weight=2.0, sample_size=3)
    distances = make_distance_fn(MetricKind.DOMAIN)(population)

    shaped, = augmented_fitness(population, [0], config, np.random.default_rng(7), distances)
    picked = draw_distinct_indices(np.random.default_rng(7), len(population), 3, exclude=0)
    total = 0.0
    for j in picked:
        total += domain_distance(x.genome, population[j].genome)
    assert shaped == x.raw_fitness + 2.0 * (total / 3)


def test_augmented_fitness_excludes_self_by_index():
    rng = np.random.default_rng(35)
    population = make_population(rng)
    population[2].raw_fitness = 0.0
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0, sample_size=5)
    for _ in range(50):
        shaped, = augmented_fitness(population, [2], config, rng, of(peer_bits(6)))
        peers = decode_peers(shaped * 5)
        assert len(peers) == 5
        assert 2 not in peers


def test_augmented_fitness_caps_peers_at_pool_size():
    rng = np.random.default_rng(36)
    population = make_population(rng, size=3)
    config = DiversityConfig(MetricKind.DOMAIN, weight=0.5, sample_size=5)
    shaped = augmented_fitness(population, [0], config, rng, of(np.ones((3, 3))))
    assert shaped == [population[0].raw_fitness + 0.5]
    population[0].raw_fitness = 0.0
    shaped, = augmented_fitness(population, [0], config, rng, of(peer_bits(3)))
    assert decode_peers(shaped / 0.5 * 2) == [1, 2]


def test_augmented_fitness_lonely_individual_gets_raw():
    rng = np.random.default_rng(41)
    population = make_population(rng, size=1)
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0)
    state_before = rng.bit_generator.state
    shaped = augmented_fitness(population, [0, 0], config, rng, of(np.zeros((1, 1))))
    assert shaped == [0.0, 0.0]
    assert rng.bit_generator.state == state_before


def test_augmented_fitness_of_no_indices_is_empty():
    population = make_population(np.random.default_rng(47), size=4)
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0, sample_size=3)
    rng = np.random.default_rng(48)
    state = rng.bit_generator.state
    distances = make_distance_fn(MetricKind.DOMAIN)(population)
    assert augmented_fitness(population, [], config, rng, distances) == []
    assert augmented_fitness(population, [], config, rng, of(read_all(distances, 4))) == []
    assert rng.bit_generator.state == state


def test_augmented_fitness_batch_replays_one_call_per_index():
    population = make_population(np.random.default_rng(42), size=9)
    indices = [4, 0, 8, 4, 1, 2, 3, 5, 6, 7]
    for kind in (MetricKind.DOMAIN, MetricKind.TRASH_BITS):
        config = DiversityConfig(kind, weight=1.5, sample_size=5)
        distances = make_distance_fn(kind)(population)
        batched = np.random.default_rng(43)
        one_by_one = np.random.default_rng(43)
        assert augmented_fitness(population, indices, config, batched, distances) == [
            augmented_fitness(population, [i], config, one_by_one, distances)[0]
            for i in indices
        ]
        assert batched.random() == one_by_one.random()


def test_augmented_fitness_sums_peers_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum of these three
    # peer distances is 0.0; a compensated sum would give 1.0.
    population = make_population(np.random.default_rng(45), size=4)
    population[0].raw_fitness = 0.0
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0, sample_size=3)
    rng = np.random.default_rng(46)
    peers = draw_distinct_indices(np.random.default_rng(46), 4, 3, exclude=0)
    distances = np.zeros((4, 4))
    distances[0, peers] = [1e16, 1.0, -1e16]
    assert augmented_fitness(population, [0], config, rng, of(distances)) == [0.0]


def test_augmented_fitness_reads_once_per_call():
    # Every shaped evaluation makes exactly one read, of the whole
    # (members x peers) block; inert shaping makes none.
    population = make_population(np.random.default_rng(51), size=7)
    matrix = read_all(make_distance_fn(MetricKind.DOMAIN)(population), 7)
    reads = []

    def counting(a, b):
        reads.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        return matrix[a, b]

    rng = np.random.default_rng(52)
    for sample_size in (1, 3, 6, 9):
        config = DiversityConfig(MetricKind.DOMAIN, weight=1.0, sample_size=sample_size)
        k = min(sample_size, len(population) - 1)
        for indices in ([], [2], [4, 0, 6, 4]):
            reads.clear()
            assert len(augmented_fitness(population, indices, config, rng, counting)) == len(indices)
            assert reads == [(len(indices), k)]
            reads.clear()
            augmented_fitness(population, indices, config, rng, None)
            assert reads == []
    # A lonely member has no peer to read.
    config = DiversityConfig(MetricKind.DOMAIN, weight=1.0)
    assert augmented_fitness(population[:1], [0], config, rng, counting) == [0.0]
    assert reads == []


def test_sum_left_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; Python 3.12's compensated builtin sum
    # gives 1.0 here.
    assert sum_left([1e16, 1.0, -1e16]) == 0.0
    assert sum_left(iter([1e16, 1.0, -1e16])) == 0.0
    assert sum_left([]) == 0.0
    assert sum_left([0.5, 0.25]) == 0.75


def test_augmented_fitness_without_distances_is_raw():
    population = make_population(np.random.default_rng(49), size=6)
    population[3].raw_fitness = 3  # an int comes back as a float
    rng = np.random.default_rng(50)
    state = rng.bit_generator.state
    for weight in (0.0, 1.0, 7.5):
        for kind in MetricKind:
            config = DiversityConfig(kind, weight=weight, sample_size=3)
            shaped = augmented_fitness(population, [3, 0, 5, 3], config, rng, None)
            assert shaped == [3.0, 0.0, 5.0, 3.0]
            assert all(type(x) is float for x in shaped)
    assert rng.bit_generator.state == state


def test_augmented_fitness_with_zero_weight_is_raw():
    # A zero weight is inert even with a real reader: nothing is drawn, so a
    # zero-weight variant replays the baseline's stream.
    population = make_population(np.random.default_rng(51), size=6)
    population[3].raw_fitness = 3
    rng = np.random.default_rng(52)
    state = rng.bit_generator.state
    for kind in (MetricKind.DOMAIN, MetricKind.TRASH_BITS):
        config = DiversityConfig(kind, weight=0.0, sample_size=3)
        distances = make_distance_fn(kind)(population)
        shaped = augmented_fitness(population, [3, 0, 5, 3], config, rng, distances)
        assert shaped == [3.0, 0.0, 5.0, 3.0]
        assert all(type(x) is float for x in shaped)
    assert rng.bit_generator.state == state


def test_diversity_config_validation():
    DiversityConfig(MetricKind.DOMAIN, 0.5, 5)
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, -1.0)
    with pytest.raises(ValueError):
        DiversityConfig(MetricKind.DOMAIN, 1.0, 0)
    with pytest.raises(ValueError):
        DiversityConfig("domain", 1.0)
