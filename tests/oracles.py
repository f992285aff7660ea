"""Brute-force reference implementations of the ancestry queries, and a
reference routing walker.

These deliberately avoid the graph code's search strategy: ancestor
distances come from a dense dynamic program that transcribes the recursive
definition (a node's distance-from-every-source is one more than the best
of its parents'), and undirected distances come from Bellman-Ford edge
relaxation.  Both are slow and obvious, which is the point.  The walker
steps a genome through the arena with one call of
:func:`~genediv.routing.segment_crosses_interior` per move, and
:func:`covered_by_count` is the ancestry index's first covered-column
prune, which pairs columns by their count of reached rows.
"""

from __future__ import annotations

import math

import numpy as np

from genediv import GenealogyGraph, RoutingProblem
from genediv.genealogy import _UNREACHED
from genediv.routing import STEP_BUDGET, segment_crosses_interior


def random_dag(rng: np.random.Generator, max_nodes: int = 100) -> GenealogyGraph:
    """Random birth history: a mixture of genesis, mutation, recombination."""
    n = int(rng.integers(1, max_nodes + 1))
    graph = GenealogyGraph()
    for i in range(n):
        roll = float(rng.random())
        if i == 0 or roll < 0.15:
            graph.record_birth((), i)
        elif i == 1 or roll < 0.60:
            parent = int(rng.integers(i))
            graph.record_birth((parent,), i)
        else:
            a = int(rng.integers(i))
            b = int(rng.integers(i))
            while b == a:
                b = int(rng.integers(i))
            graph.record_birth((a, b), i)
    return graph


def adist_matrix(graph: GenealogyGraph) -> np.ndarray:
    """Dense matrix ``M[a, y]`` = steps from ``a`` down to ``y`` (inf if none).

    Processes nodes in id (= topological) order: column ``y`` is one more
    than the element-wise minimum of its parents' columns, with ``M[y, y]``
    pinned to zero.
    """
    n = len(graph)
    m = np.full((n, n), np.inf)
    for y in graph.nodes():
        parents = graph.parents(y)
        if parents:
            col = m[:, parents[0]].copy()
            for p in parents[1:]:
                np.minimum(col, m[:, p], out=col)
            m[:, y] = col + 1.0
        m[y, y] = 0.0
    return m


def brute_adist(graph: GenealogyGraph, x1: int, x2: int) -> int | float:
    value = adist_matrix(graph)[x1, x2]
    return math.inf if math.isinf(value) else int(value)


def brute_ancestors(m: np.ndarray, x: int) -> np.ndarray:
    """Ids of every ancestor of ``x`` (including itself), from the matrix."""
    return np.flatnonzero(np.isfinite(m[:, x]))


def brute_lca(m: np.ndarray, x1: int, x2: int) -> int | None:
    common = np.flatnonzero(np.isfinite(m[:, x1]) & np.isfinite(m[:, x2]))
    if common.size == 0:
        return None
    scores = np.minimum(m[common, x1], m[common, x2])
    best = None
    for a, s in zip(common.tolist(), scores.tolist()):
        if best is None or (s, a) < best:
            best = (s, a)
    return best[1]


def brute_earliest(m: np.ndarray, x: int) -> int:
    ancestors = brute_ancestors(m, x)
    best = None
    for a in ancestors.tolist():
        key = (-m[a, x], a)
        if best is None or key < best:
            best = key
    return best[1]


def brute_depth(m: np.ndarray, x: int) -> int:
    col = m[:, x]
    return int(col[np.isfinite(col)].max())


def brute_gdist(m: np.ndarray, x1: int, x2: int) -> float:
    if x1 == x2:
        return 0.0
    common = np.flatnonzero(np.isfinite(m[:, x1]) & np.isfinite(m[:, x2]))
    if common.size == 0:
        return 1.0
    num = float(np.minimum(m[common, x1], m[common, x2]).min())
    denom = max(brute_depth(m, x1), brute_depth(m, x2))
    if denom == 0:
        return 0.0
    return num / denom


def undirected_edges(graph: GenealogyGraph) -> list[tuple[int, int]]:
    return [(p, c) for c in graph.nodes() for p in graph.parents(c)]


def brute_edist_from(graph: GenealogyGraph, source: int) -> list[int | float]:
    """Bellman-Ford over undirected parent/child edges from one source."""
    n = len(graph)
    edges = undirected_edges(graph)
    dist: list[float] = [math.inf] * n
    dist[source] = 0
    for _ in range(n):
        changed = False
        for p, c in edges:
            if dist[p] + 1 < dist[c]:
                dist[c] = dist[p] + 1
                changed = True
            if dist[c] + 1 < dist[p]:
                dist[p] = dist[c] + 1
                changed = True
        if not changed:
            break
    return [d if math.isinf(d) else int(d) for d in dist]


def reference_walk(problem: RoutingProblem, genome: np.ndarray, trajectory: list | None) -> int:
    """The fitness of ``genome`` (rows of ``dx, dy``) in ``problem``'s arena;
    appends each step's position to ``trajectory`` unless it is ``None``.
    An action whose size in the problem's norm (``|dx| + |dy|`` for ``"l1"``,
    ``max(|dx|, |dy|)`` for ``"linf"``) exceeds :data:`STEP_BUDGET` is first
    scaled down to it, direction kept."""
    genome = np.asarray(genome, dtype=float)
    if genome.ndim != 2 or genome.shape[1] != 2:
        raise ValueError(f"genome must have shape (n, 2), got {genome.shape}")
    arena, l1 = problem.arena, problem.step_norm == "l1"
    x, y = arena.start
    bounds, obstacle, goal = arena.bounds, arena.obstacle, arena.goal
    fitness = 0
    for dx, dy in genome.tolist():
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError(f"action components must be finite, got ({dx}, {dy})")
        size = abs(dx) + abs(dy) if l1 else max(abs(dx), abs(dy))
        if size > STEP_BUDGET:
            scale = STEP_BUDGET / size
            dx, dy = dx * scale, dy * scale
        nx, ny = x + dx, y + dy
        if bounds.contains(nx, ny) and not segment_crosses_interior((x, y), (nx, ny), obstacle):
            x, y = nx, ny
        if trajectory is not None:
            trajectory.append((x, y))
        if goal.contains(x, y):
            fitness += 1
    return fitness


def covered_by_count(live: np.ndarray) -> np.ndarray:
    """The ancestry index's covered-column mask, pairing every two columns
    of ``live`` with the same count of reached rows (entries below
    ``_UNREACHED``): ``rows x pairs`` entries, twice, for any input."""
    reached = np.count_nonzero(live < _UNREACHED, axis=0)
    c, d = np.nonzero(reached[:, None] == reached)
    lc, ld = live[:, c], live[:, d]
    covered = np.zeros(live.shape[1], dtype=bool)
    covered[c[(lc <= ld).all(axis=0) & ((d < c) | (lc != ld).any(axis=0))]] = True
    return covered
