import itertools
import math
import tracemalloc

import numpy as np
import pytest

from genediv import genealogy
from genediv.diversity import DiversityConfig, MetricKind
from genediv.engine import EngineConfig, run_evolution
from genediv.genealogy import (
    _CHUNK,
    _UNREACHED,
    INFINITE,
    AncestryIndex,
    GenealogyGraph,
    OpKind,
    _covered,
    read_genealogy_log,
    write_genealogy_log,
)

from oracles import (
    adist_matrix,
    brute_ancestors,
    brute_depth,
    brute_earliest,
    brute_edist_from,
    brute_gdist,
    brute_lca,
    covered_by_count,
    random_dag,
)


def chain(length=4):
    """0 -> 1 -> 2 -> ... by successive mutations."""
    g = GenealogyGraph()
    g.record_birth((), 0)
    for i in range(1, length):
        g.record_birth((i - 1,), i)
    return g


def siblings():
    """One genesis parent with two mutation children."""
    g = GenealogyGraph()
    g.record_birth((), 0)
    g.record_birth((0,), 1)
    g.record_birth((0,), 1)
    return g


def diamond():
    """Two mutation children of node 0, recombined into node 3."""
    g = siblings()
    g.record_birth((1, 2), 2)
    return g


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_record_birth_assigns_sequential_ids():
    g = GenealogyGraph()
    assert g.record_birth(()) == 0
    assert g.record_birth((0,)) == 1
    assert len(g) == 2
    assert g.parents(1) == (0,)
    assert g.kind(0) is OpKind.GENESIS


def test_record_birth_checks_arity():
    g = GenealogyGraph()
    for _ in range(3):
        g.record_birth(())
    with pytest.raises(ValueError) as err:
        g.record_birth((0, 1, 2))
    assert err.value.args == ("a birth takes at most 2 parents, got 3",)
    assert len(g) == 3


def test_record_birth_rejects_unknown_parent():
    g = GenealogyGraph()
    g.record_birth(())
    with pytest.raises(KeyError):
        g.record_birth((5,))


def test_queries_reject_unknown_nodes():
    g = chain()
    with pytest.raises(KeyError):
        g.adist(0, 99)
    with pytest.raises(KeyError):
        g.gdist(-1, 0)
    with pytest.raises(KeyError):
        g.parents(4)


def test_birth_generation_recorded():
    g = chain(3)
    assert [g.birth_generation(i) for i in g.nodes()] == [0, 1, 2]


def test_births_lists_every_node_in_birth_order():
    g = GenealogyGraph()
    g.record_birth((), 0)
    g.record_birth((0,), 4)
    g.record_birth((1, 0), 4)
    assert list(g.births()) == [(0, 0, ()), (1, 4, (0,)), (2, 4, (1, 0))]
    for node, generation, parents in g.births():
        assert generation == g.birth_generation(node) and parents == g.parents(node)


# ----------------------------------------------------------------------
# directed ancestry distance
# ----------------------------------------------------------------------

def test_adist_on_chain():
    g = chain(4)
    assert g.adist(0, 3) == 3
    assert g.adist(1, 2) == 1
    assert g.adist(2, 2) == 0
    assert g.adist(3, 0) is INFINITE


def test_adist_unrelated_is_infinite():
    g = GenealogyGraph()
    g.record_birth(())
    g.record_birth(())
    assert g.adist(0, 1) is INFINITE
    assert math.isinf(g.adist(1, 0))


def test_adist_takes_shortest_route():
    # 0 -> 1 -> 2 and the shortcut 0 -> 3 (recombining 0 and 2)
    g = chain(3)
    g.record_birth((0, 2), 3)
    assert g.adist(0, 3) == 1


# ----------------------------------------------------------------------
# relatives
# ----------------------------------------------------------------------

def test_latest_common_ancestor_on_fixtures():
    g = diamond()
    assert g.latest_common_ancestor(1, 2) == 0
    assert g.latest_common_ancestor(1, 3) == 1
    assert g.latest_common_ancestor(3, 3) == 3


def test_latest_common_ancestor_none_for_disjoint():
    g = GenealogyGraph()
    g.record_birth(())
    g.record_birth(())
    assert g.latest_common_ancestor(0, 1) is None


def test_earliest_ancestor():
    g = chain(4)
    assert g.earliest_ancestor(3) == 0
    assert g.earliest_ancestor(0) == 0
    assert g.depth(3) == 3
    assert g.depth(0) == 0


def test_earliest_ancestor_tie_breaks_to_smaller_id():
    # 0 and 1 are both roots at distance 1 from node 2.
    g = GenealogyGraph()
    g.record_birth(())
    g.record_birth(())
    g.record_birth((0, 1))
    assert g.earliest_ancestor(2) == 0


# ----------------------------------------------------------------------
# normalised genealogical distance
# ----------------------------------------------------------------------

def test_gdist_identity_is_zero():
    g = diamond()
    for n in g.nodes():
        assert g.gdist(n, n) == 0.0


def test_gdist_siblings_is_one():
    g = siblings()
    assert g.gdist(1, 2) == 1.0


def test_gdist_disjoint_is_one():
    g = GenealogyGraph()
    g.record_birth(())
    g.record_birth(())
    assert g.gdist(0, 1) == 1.0


def test_gdist_chain_parent_child_is_zero():
    g = chain(4)
    assert g.gdist(2, 3) == 0.0
    assert g.gdist(0, 1) == 0.0
    assert g.gdist(0, 3) == 0.0


def test_gdist_two_fresh_genesis_nodes_both_depth_zero():
    # no shared history and no history at all: still maximally distant
    g = GenealogyGraph()
    g.record_birth(())
    g.record_birth(())
    assert g.gdist(0, 1) == 1.0


def test_gdist_recombination_child_close_to_parents():
    g = diamond()
    assert g.gdist(1, 3) == 0.0
    assert g.gdist(2, 3) == 0.0


def test_gdist_symmetric_and_bounded_on_random_dags():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_dag(rng, max_nodes=40)
        n = len(g)
        for _ in range(20):
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            d = g.gdist(a, b)
            assert d == g.gdist(b, a)
            assert 0.0 <= d <= 1.0


def _evolved_graphs():
    """Genealogies of two 40-generation runs, unshaped and shaped by
    ``gdist``, with their survivors."""
    for kind, weight in ((MetricKind.NONE, 0.0), (MetricKind.GENEALOGICAL_TREE, 4.0)):
        config = EngineConfig(
            population_size=20,
            generations=40,
            diversity=DiversityConfig(kind=kind, weight=weight, sample_size=5),
        )
        result = run_evolution(config, seed=1000)
        yield result.graph, [m.node for m in result.population]


def _check_queries(g, m, pairs):
    """Every query of ``g`` on ``pairs`` against the brute oracles over the
    dense ``adist`` matrix ``m``."""
    for a, b in pairs:
        assert g.adist(a, b) == m[a, b] or (math.isinf(g.adist(a, b)) and math.isinf(m[a, b]))
        assert g.latest_common_ancestor(a, b) == brute_lca(m, a, b)
        assert g.gdist(a, b) == brute_gdist(m, a, b)
        for x in (a, b):
            assert g.depth(x) == brute_depth(m, x)
            assert g.earliest_ancestor(x) == brute_earliest(m, x)
            dist = g.ancestor_distances(x)
            assert dist == {int(y): int(m[y, x]) for y in brute_ancestors(m, x)}
            assert list(dist.values()) == sorted(dist.values())


def test_graph_queries_match_brute_force_on_random_dags():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = random_dag(rng, max_nodes=40)
        n = len(g)
        m = adist_matrix(g)
        source = int(rng.integers(n))
        edist_row = brute_edist_from(g, source)
        pairs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(12)]
        _check_queries(g, m, pairs)
        for _, b in pairs:
            ed = g.edist_oracle(source, b)
            assert ed == edist_row[b] or (math.isinf(ed) and math.isinf(edist_row[b]))
    # Evolved genealogies: every survivor pair, either way round, and a
    # sample of pairs from the whole history.
    for g, alive in _evolved_graphs():
        m = adist_matrix(g)
        survivors = [(a, b) for a in alive for b in alive]
        history = [tuple(int(x) for x in rng.integers(len(g), size=2)) for _ in range(300)]
        _check_queries(g, m, survivors + history)


# ----------------------------------------------------------------------
# undirected oracle distance
# ----------------------------------------------------------------------

def test_edist_oracle_on_fixtures():
    g = diamond()
    assert g.edist_oracle(1, 2) == 2
    assert g.edist_oracle(0, 3) == 2
    assert g.edist_oracle(3, 3) == 0


def test_edist_oracle_disconnected():
    g = GenealogyGraph()
    g.record_birth(())
    g.record_birth(())
    assert math.isinf(g.edist_oracle(0, 1))


# ----------------------------------------------------------------------
# log round-trip
# ----------------------------------------------------------------------

def test_log_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    g = random_dag(rng, max_nodes=60)
    path = tmp_path / "genealogy.log"
    write_genealogy_log(g, path)
    back = read_genealogy_log(path)
    assert len(back) == len(g)
    for node in g.nodes():
        assert back.parents(node) == g.parents(node)
        assert back.kind(node) is g.kind(node)
        assert back.birth_generation(node) == g.birth_generation(node)
    for _ in range(50):
        a = int(rng.integers(len(g)))
        b = int(rng.integers(len(g)))
        assert back.gdist(a, b) == g.gdist(a, b)


def test_log_format(tmp_path):
    g = diamond()
    path = tmp_path / "genealogy.log"
    write_genealogy_log(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "0,0,genesis"
    assert lines[1] == "1,1,mutation,0"
    assert lines[3] == "3,2,recombination,1,2"


def test_read_log_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("0,0,genesis\n2,0,mutation,0\n")
    with pytest.raises(ValueError):
        read_genealogy_log(path)
    path.write_text("0,0,teleport\n")
    with pytest.raises(ValueError):
        read_genealogy_log(path)
    path.write_text("0,0\n")
    with pytest.raises(ValueError):
        read_genealogy_log(path)
    path.write_text("x,0,genesis\n")
    with pytest.raises(ValueError):
        read_genealogy_log(path)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("0,0,genesis\n\n 2 ,0,mutation,0\n", ValueError,
         "line 3: node id 2 out of order (expected 1)"),
        ("0,0,genesis\n1,1, teleport ,0\n", ValueError, "line 2: unknown op kind 'teleport'"),
        ("0,0\n", ValueError, "line 1: expected 'id,generation,op_kind[,parents...]'"),
        ("  \n , \n", ValueError, "line 2: expected 'id,generation,op_kind[,parents...]'"),
        ("x,0,genesis\n", ValueError,
         "line 1: non-integer field (invalid literal for int() with base 10: 'x')"),
        ("0,0,genesis\n1,1,mutation, 0 x \n", ValueError,
         "line 2: non-integer field (invalid literal for int() with base 10: '0 x')"),
        ("0,0,genesis\n1,1,mutation,0,0\n", ValueError, "line 2: mutation takes 1 parent(s), got 2"),
        ("0,0,genesis\n1,1,genesis,0\n", ValueError, "line 2: genesis takes 0 parent(s), got 1"),
        ("0,0,genesis\n1,0,genesis\n2,0,genesis\n3,1,recombination,0,1,2\n", ValueError,
         "line 4: recombination takes 2 parent(s), got 3"),
        ("0,0,genesis\n1,1,recombination,0,1\n", KeyError, "line 2: unknown parent node id 1"),
        # Lines end at "\n" alone: a form feed is padding, a separator a character.
        ("0,0,genesis\n1,0,genesis\x0c\n2,0,genesis,7\n", ValueError,
         "line 3: genesis takes 0 parent(s), got 1"),
        ("0,0,genesis\n1,0,gene\x1csis\n", ValueError, "line 2: unknown op kind 'gene\\x1csis'"),
    ],
)
def test_read_log_error_names_line_and_field(tmp_path, text, error, message):
    path = tmp_path / "bad.log"
    path.write_text(text)
    with pytest.raises(error) as err:
        read_genealogy_log(path)
    assert err.value.args == (message,)


def test_read_log_accepts_padding_and_blank_lines(tmp_path):
    path = tmp_path / "padded.log"
    path.write_text("\n 0 , 0 , genesis \n\n1,1,mutation, 0\n2 ,2, recombination ,0 , 1\n  \n")
    g = read_genealogy_log(path)
    assert [g.parents(n) for n in g.nodes()] == [(), (0,), (0, 1)]
    assert [g.kind(n) for n in g.nodes()] == [OpKind.GENESIS, OpKind.MUTATION, OpKind.RECOMBINATION]
    assert [g.birth_generation(n) for n in g.nodes()] == [0, 1, 2]
    assert g.edist_oracle(0, 2) == 1


# ----------------------------------------------------------------------
# incremental index
# ----------------------------------------------------------------------

def following(g):
    """An index that tracks every node of ``g``."""
    index = AncestryIndex()
    index.follow(g)
    return index


def test_ancestry_index_matches_graph_on_random_dags():
    rng = np.random.default_rng(14)
    for _ in range(25):
        g = random_dag(rng, max_nodes=60)
        index = following(g)
        n = len(g)
        for _ in range(40):
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            assert index.gdist(a, b) == g.gdist(a, b)
            assert index.depth(a) == g.depth(a)


def test_follow_tracks_the_nodes_recorded_since_the_last():
    # A random history recorded a few births at a time, followed after each
    # piece: a parent born in the same piece starts a new batch.
    rng = np.random.default_rng(22)
    for _ in range(5):
        whole = random_dag(rng, max_nodes=40)
        g, index = GenealogyGraph(), AncestryIndex()
        births = whole.births()
        while len(g) < len(whole):
            for _, gen, parents in itertools.islice(births, int(rng.integers(1, 10))):
                g.record_birth(parents, gen)
            index.follow(g)
            _check_every_pair(g, index, list(g.nodes()))
        index.follow(g)
        assert index.column_nodes() == list(g.nodes())


def test_ancestry_index_requires_birth_order():
    index = AncestryIndex()
    index.add(0, ())
    with pytest.raises(ValueError):
        index.add(2, ())


def test_ancestry_index_rejects_a_third_parent():
    index = AncestryIndex()
    for node in range(3):
        index.add(node, ())
    with pytest.raises(ValueError) as err:
        index.add(3, (0, 1, 2))
    assert err.value.args == ("a birth takes at most 2 parents, got 3",)
    index.add(3, (0, 1))
    assert index.gdist(3, 1) == 0.0


def test_ancestry_index_grows_past_initial_allocation():
    # Nothing is retained, so every node stays tracked and every node is a
    # column: far more rows and columns than a fresh index allocates.
    rng = np.random.default_rng(15)
    g = GenealogyGraph()
    index = AncestryIndex()
    for i in range(300):
        if i == 0 or rng.random() < 0.1:
            parents = ()
        elif i == 1 or rng.random() < 0.5:
            parents = (int(rng.integers(i)),)
        else:
            parents = tuple(int(p) for p in rng.choice(i, size=2, replace=False))
        index.add(g.record_birth(parents, i), parents)
    assert index.column_nodes() == list(range(300))
    for _ in range(200):
        a, b = (int(v) for v in rng.integers(300, size=2))
        assert index.gdist(a, b) == g.gdist(a, b)
        assert index.depth(a) == g.depth(a)


def _evolving_index(rng, generations, size=8, before_retain=None, batched=False):
    """Random births from a fixed-size population, ``retain`` after each
    generation; yields the graph, the index and the survivors each time.

    ``before_retain(graph, index, pool)``, when given, sees each generation's
    whole pool (survivors, newborns and their siblings) before ``retain``.
    With ``batched`` each generation's births (genesis, mutant and crossover
    children mixed) reach the index in one ``add_births`` call, else one
    ``add`` call each.  The draws do not depend on it.
    """
    g = GenealogyGraph()
    index = AncestryIndex()
    alive = []
    for _ in range(size):
        alive.append(g.record_birth((), 0))
        index.add(alive[-1], ())
    for gen in range(1, generations + 1):
        pool = list(alive)
        births = []
        for _ in range(int(rng.integers(1, 2 * size))):
            roll = rng.random()
            if roll < 0.1:
                parents = ()
            elif roll < 0.55:
                parents = (alive[int(rng.integers(size))],)
            else:
                i, j = rng.choice(size, size=2, replace=False)
                parents = (alive[int(i)], alive[int(j)])
            pool.append(g.record_birth(parents, gen))
            births.append((pool[-1], parents))
            if not batched:
                index.add(pool[-1], parents)
        if batched:
            index.add_births(births)
        if before_retain is not None:
            before_retain(g, index, pool)
        alive = sorted(int(n) for n in rng.choice(pool, size=size, replace=False))
        index.retain(alive)
        yield g, index, alive


def _check_every_pair(g, index, nodes):
    r = np.arange(len(nodes))
    read = index.gdist_among(nodes)
    assert read(r[:, None], r).tolist() == [[g.gdist(x, y) for y in nodes] for x in nodes]
    for x in nodes:
        assert index.depth(x) == g.depth(x)


def test_ancestry_index_matches_graph_under_retain():
    rng = np.random.default_rng(16)
    for g, index, alive in _evolving_index(rng, generations=60, before_retain=_check_every_pair):
        _check_every_pair(g, index, alive)
        assert [index.gdist(alive[0], o) for o in alive] == [g.gdist(alive[0], o) for o in alive]
        empty = np.arange(0)
        assert index.gdist_among([])(empty[:, None], empty).shape == (0, 0)


def test_ancestry_index_reader_outlives_storage_growth():
    # The engine's pattern: the survivors' reader is made before a
    # generation's births and read while they arrive, and the pool's is read
    # through a view of the survivors after retain.  Three small generations
    # stay within the first 16-row allocation; the last one's births grow it
    # past 16 and then 32 rows under the live reader.
    rng = np.random.default_rng(18)
    g = GenealogyGraph()
    index = AncestryIndex()
    alive = [g.record_birth((), 0) for _ in range(8)]
    for node in alive:
        index.add(node, ())
    r = np.arange(len(alive))
    for gen, births in enumerate((7, 7, 7, 40), 1):
        read = index.gdist_among(alive)
        expected = [[g.gdist(x, y) for y in alive] for x in alive]
        pool = list(alive)
        sizes = set()
        for _ in range(births):
            if rng.random() < 0.5:
                parents = (alive[int(rng.integers(len(alive)))],)
            else:
                parents = tuple(alive[int(i)] for i in rng.choice(len(alive), 2, replace=False))
            pool.append(g.record_birth(parents, gen))
            index.add(pool[-1], parents)
            sizes.add(index._state.shape[0])
            assert read(r[:, None], r).tolist() == expected
        pool_read = index.gdist_among(pool)
        keep = np.sort(rng.choice(len(pool), len(alive), replace=False))  # pool is ascending
        alive = [pool[i] for i in keep]
        index.retain(alive)
        expected = [[g.gdist(x, y) for y in alive] for x in alive]
        assert pool_read(keep[r[:, None]], keep[r]).tolist() == expected
    assert sizes == {16, 32, 64}


def _reaches(g, alive):
    """``{ancestor: {alive node: adist}}`` over every ancestor of ``alive``."""
    reach = {}
    for x in alive:
        for a, d in g.ancestor_distances(x).items():
            reach.setdefault(a, {})[x] = d
    return reach


def test_ancestry_index_keeps_live_columns_and_drops_only_covered_ones():
    # A kept column is an ancestor of a survivor.  A dropped ancestor is
    # covered by a kept column: the same survivors descend from both, each
    # at least as far from the kept one, so it can never set a depth.
    rng = np.random.default_rng(17)
    dropped = 0
    for g, index, alive in _evolving_index(rng, generations=60, batched=True):
        reach = _reaches(g, alive)
        kept = index.column_nodes()
        assert set(kept) <= set(reach)
        for c in set(reach) - set(kept):
            dropped += 1
            assert any(
                reach[d].keys() == reach[c].keys()
                and all(reach[d][x] >= reach[c][x] for x in reach[c])
                for d in kept
            ), c
    assert dropped > 0


def _one_row_reach(rng, rows, width, same_row):
    """Depth columns that each reach one row (row 0 for all with
    ``same_row``): every column has the same count of reached rows."""
    live = np.full((rows, width), _UNREACHED, dtype=np.int32)
    row = np.zeros(width, dtype=np.intp) if same_row else rng.integers(rows, size=width)
    live[row, np.arange(width)] = rng.integers(5, size=width)
    return live


def test_covered_columns_match_the_count_pairing_oracle(monkeypatch):
    rng = np.random.default_rng(23)
    inputs = []
    for _ in range(200):
        rows, width = (int(v) for v in rng.integers(12, size=2))
        live = rng.integers(4, size=(rows, width), dtype=np.int32)
        live[rng.random((rows, width)) < rng.random()] = _UNREACHED
        inputs.append(live)
    inputs += [_one_row_reach(rng, 40, 120, same_row) for same_row in (True, False)]
    # What retain prunes in a wide shaped run.
    pruned = []
    monkeypatch.setattr(genealogy, "_covered", lambda live: pruned.append(live.copy()) or _covered(live))
    config = EngineConfig(
        population_size=60,
        generations=60,
        diversity=DiversityConfig(kind=MetricKind.GENEALOGICAL_TREE, weight=4.0, sample_size=5),
    )
    run_evolution(config, seed=1000)
    assert len(pruned) >= 3
    for live in inputs + pruned:
        assert _covered(live).tolist() == covered_by_count(live).tolist()


def test_covered_columns_memory_is_bounded_by_the_chunk():
    # Pairing by count would gather 360,000 column pairs of 400 rows here.
    live = _one_row_reach(np.random.default_rng(24), 400, 600, same_row=True)
    entries = max(live.size, _CHUNK)  # compared at once, at most
    pairs = entries // live.shape[0]
    # Two int32 gathers and one bool mask per entry; the pairs' two index
    # lists and two index arrays; the reach mask and its packed keys.
    bound = 9 * entries + 4 * 8 * pairs + 2 * live.size + (1 << 16)
    tracemalloc.start()
    try:
        covered = _covered(live)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
    # The earliest of the largest entries covers every other column.
    assert np.flatnonzero(~covered).tolist() == [int(np.argmax(live[0]))]


def test_ancestry_index_columns_stay_flat():
    # Twenty survivors a generation, births straight into the index: the live
    # ancestry grows with the horizon, the kept columns do not.
    rng = np.random.default_rng(21)
    for gen, (g, index, alive) in enumerate(
        _evolving_index(rng, generations=5000, size=20, batched=True), 1
    ):
        if gen in (1000, 5000):
            assert len(index.column_nodes()) <= 100
        if gen == 1000:
            assert len(_reaches(g, alive)) > 1000


def test_batched_births_equal_single_births_and_the_graph():
    kinds_in_one_batch = []

    def check(g, index, pool):
        _check_every_pair(g, index, pool)
        newest = max(map(g.birth_generation, pool))
        kinds_in_one_batch.append({g.kind(x) for x in pool if g.birth_generation(x) == newest})

    runs = [
        _evolving_index(np.random.default_rng(19), 50, before_retain=check, batched=batched)
        for batched in (False, True)
    ]
    for (g, single, alive), (_, batched, same_alive) in zip(*runs):
        assert same_alive == alive
        r = np.arange(len(alive))
        block = (r[:, None], r)
        assert batched.gdist_among(alive)(*block).tolist() == single.gdist_among(alive)(*block).tolist()
        _check_every_pair(g, batched, alive)
    assert set(OpKind) in kinds_in_one_batch


@pytest.mark.parametrize(
    "births, error, message",
    [
        ([(3, (0,)), (4, (9,))], KeyError, "parent 9 is not tracked"),
        ([(3, (0,)), (4, (3,))], KeyError, "parent 3 is not tracked"),  # born in the batch
        ([(3, (0,)), (4, (0, 1, 2))], ValueError, "a birth takes at most 2 parents, got 3"),
        ([(3, (0,)), (5, (1,))], ValueError, "expected node id 4 next, got 5"),
    ],
    ids=["untracked", "same-batch", "third-parent", "out-of-order"],
)
def test_add_births_rejects_a_batch_before_changing_anything(births, error, message):
    g = siblings()
    index = following(g)
    with pytest.raises(error) as err:
        index.add_births(births)
    assert err.value.args == (message,)
    assert index.column_nodes() == [0, 1, 2]
    with pytest.raises(KeyError):
        index.depth(3)
    batch = [(g.record_birth(()), ()), (g.record_birth((1, 2)), (1, 2)), (g.record_birth((0,)), (0,))]
    index.add_births(batch)
    _check_every_pair(g, index, list(g.nodes()))


def test_ancestry_index_retain_keeps_alive_queries_working():
    g = chain(6)
    index = following(g)
    expected = g.gdist(4, 5)
    index.retain([4, 5])
    assert index.gdist(4, 5) == expected
    with pytest.raises(KeyError):
        index.depth(3)
    with pytest.raises(KeyError):
        index.gdist(3, 5)


def test_ancestry_index_dropped_node_raises_key_error():
    g = siblings()
    index = following(g)
    index.gdist_among([0, 1])  # a reader holds its own table, not the index
    index.retain([1, 2])
    index.follow(g)  # a dropped node is not tracked again
    assert index.column_nodes() == [0, 1, 2]  # 0 is dropped as a node, kept as a column
    for query in (
        lambda: index.gdist(0, 1),
        lambda: index.gdist(1, 0),
        lambda: index.gdist(0, 0),
        lambda: index.gdist_among([0, 1]),
        lambda: index.gdist_among([0, 1, 2]),
        lambda: index.gdist_among([1, 2, 0]),
        lambda: index.depth(0),
    ):
        with pytest.raises(KeyError):
            query()


def test_ancestry_index_takes_an_empty_batch():
    index = following(GenealogyGraph())
    index.add_births([])
    index.retain([])
    index.add(0, ())
    assert index.column_nodes() == [0] and index.depth(0) == 0


def test_ancestry_index_rejects_dropped_parent():
    index = AncestryIndex()
    index.add(0, ())
    index.retain([])
    with pytest.raises(KeyError):
        index.add(1, (0,))
