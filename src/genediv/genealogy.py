"""Ancestry tracking for evolutionary runs, with distance queries.

Every individual ever created is a node in an append-only directed acyclic
graph.  The variation operator that produced a node follows from its parent
count (none for creation from scratch, one for mutation, two for
recombination).  Edges point from parents to children, so node ids are
assigned in birth order and every ancestor of a node has a smaller id than
the node itself.

On top of the raw graph this module provides:

* ``adist`` -- minimal number of variation steps leading from an ancestor
  down to a descendant (directed shortest path).
* ``latest_common_ancestor`` / ``earliest_ancestor`` -- the relatives used
  to normalise genealogical distances.
* ``gdist`` -- a normalised genealogical distance in [0, 1]: how far back
  the latest common ancestor of two individuals sits, relative to the depth
  of their family trees.  Identical individuals score 0, individuals with no
  common ancestor score 1.
* ``edist_oracle`` -- undirected shortest-path length over recorded edges,
  a slower reference distance used to sanity-check ``gdist``.
* ``AncestryIndex`` -- an incremental index over the individuals still
  alive.  It keeps, for every pair of them, how close their nearest common
  ancestor sits, updated from the parents' entries at each birth, and each
  one's depth; a ``gdist`` query derives the distance from these in O(1) per
  pair.  Per-individual ancestor distances over the live ancestry (the
  ancestors of the individuals still alive) are kept only to compute each
  newborn's depth.  Memory is bounded by the living individuals and their
  live ancestry rather than by every node ever born, so it is fast enough
  for use inside a selection loop.

Plain-text logs of the graph (one node per line) can be written and read
back with :func:`write_genealogy_log` / :func:`read_genealogy_log`.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

INFINITE = math.inf


class OpKind(Enum):
    """Variation operator that produced an individual, declared in the order
    of its parent count."""

    GENESIS = "genesis"
    MUTATION = "mutation"
    RECOMBINATION = "recombination"


_KINDS = tuple(OpKind)  # indexed by parent count: 0, 1 or 2


class GenealogyGraph:
    """Append-only DAG of every individual created during a run."""

    __slots__ = ("_parents", "_birth_gen")

    def __init__(self) -> None:
        self._parents: list[tuple[int, ...]] = []
        self._birth_gen: list[int] = []

    def __len__(self) -> int:
        return len(self._parents)

    def nodes(self) -> range:
        """All node ids, in birth order."""
        return range(len(self._parents))

    def record_birth(self, parents: tuple[int, ...] | list[int], generation: int = 0) -> int:
        """Append a new node and return its id.

        The parent count is the operator: none for genesis, one for mutation,
        two for recombination.  ``parents`` must already be recorded.
        """
        parents = tuple(map(int, parents))
        if len(parents) > 2:
            raise ValueError(f"a birth takes at most 2 parents, got {len(parents)}")
        n = len(self._parents)
        for p in parents:
            if not 0 <= p < n:
                raise KeyError(f"unknown parent node id {p}")
        self._parents.append(parents)
        self._birth_gen.append(int(generation))
        return n

    def _check(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < len(self._parents):
            raise KeyError(f"unknown node id {node}")
        return node

    def parents(self, node: int) -> tuple[int, ...]:
        return self._parents[self._check(node)]

    def kind(self, node: int) -> OpKind:
        return _KINDS[len(self._parents[self._check(node)])]

    def birth_generation(self, node: int) -> int:
        return self._birth_gen[self._check(node)]

    # ------------------------------------------------------------------
    # distance queries
    # ------------------------------------------------------------------

    def ancestor_distances(self, node: int) -> dict[int, int]:
        """Map every ancestor of ``node`` (including itself) to its ``adist``.

        Breadth-first search over parent edges; because edges shorten ids,
        this visits each ancestor once.  The map lists ancestors in the
        order visited, so their ``adist`` never decreases along it.
        """
        node = self._check(node)
        dist = {node: 0}
        queue = deque((node,))
        while queue:
            cur = queue.popleft()
            d = dist[cur] + 1
            for p in self._parents[cur]:
                if p not in dist:
                    dist[p] = d
                    queue.append(p)
        return dist

    def adist(self, x1: int, x2: int) -> int | float:
        """Minimal number of variation steps from ``x1`` down to ``x2``.

        Returns 0 for ``x1 == x2`` and :data:`INFINITE` when ``x1`` is not
        an ancestor of ``x2``.
        """
        x1 = self._check(x1)
        x2 = self._check(x2)
        if x1 == x2:
            return 0
        if x1 > x2:
            return INFINITE  # ancestors always carry smaller ids
        dist = {x2: 0}
        queue = deque((x2,))
        while queue:
            cur = queue.popleft()
            d = dist[cur] + 1
            for p in self._parents[cur]:
                if p == x1:
                    return d
                if p > x1 and p not in dist:
                    dist[p] = d
                    queue.append(p)
        return INFINITE

    def _closest_common(self, x1: int, x2: int) -> tuple[int | None, int | None, int]:
        """``(closeness, node, depth)``: the common ancestor closest to either
        individual (ties to the smallest id; both ``None`` without one), and
        the larger of the two individuals' depths."""
        d1 = self.ancestor_distances(x1)
        d2 = self.ancestor_distances(x2)
        # Each map lists its node's farthest ancestor last.
        depth = max(next(reversed(d1.values())), next(reversed(d2.values())))
        if len(d2) < len(d1):
            d1, d2 = d2, d1
        best = node = None
        for a, da in d1.items():
            db = d2.get(a)
            if db is None:
                continue
            if db < da:
                da = db
            if best is None or da < best or (da == best and a < node):
                best, node = da, a
        return best, node, depth

    def latest_common_ancestor(self, x1: int, x2: int) -> int | None:
        """Common ancestor closest to either individual, or ``None``.

        "Closest" minimises ``min(adist(a, x1), adist(a, x2))``; ties go to
        the smallest node id.
        """
        return self._closest_common(x1, x2)[1]

    def earliest_ancestor(self, x: int) -> int:
        """Ancestor with the largest ``adist`` to ``x`` (smallest id on ties).

        A node created from scratch is its own earliest ancestor.
        """
        dist = self.ancestor_distances(x)
        farthest = next(reversed(dist.values()))
        return min(a for a, d in dist.items() if d == farthest)

    def depth(self, x: int) -> int:
        """``adist`` from the earliest ancestor of ``x`` down to ``x``."""
        return next(reversed(self.ancestor_distances(x).values()))

    def gdist(self, x1: int, x2: int) -> float:
        """Normalised genealogical distance between two individuals.

        0.0 for identical ids, 1.0 when no common ancestor exists; otherwise
        the latest common ancestor's closeness score divided by the larger of
        the two family-tree depths (0.0 if both depths are zero).  Always in
        [0, 1].
        """
        x1 = self._check(x1)
        x2 = self._check(x2)
        if x1 == x2:
            return 0.0
        closeness, _, depth = self._closest_common(x1, x2)
        if closeness is None:
            return 1.0
        if depth == 0:
            return 0.0
        return closeness / depth

    def edist_oracle(self, x1: int, x2: int) -> int | float:
        """Shortest-path length between two nodes ignoring edge direction.

        Walks parent and child links alike; returns :data:`INFINITE` when
        the nodes lie in different connected components.  The child links
        are derived from the parent links on every call, so this is linear
        in the graph's size and meant for validation, not for use inside a
        selection loop.
        """
        x1 = self._check(x1)
        x2 = self._check(x2)
        if x1 == x2:
            return 0
        children: list[list[int]] = [[] for _ in self._parents]
        for child, parents in enumerate(self._parents):
            for p in dict.fromkeys(parents):
                children[p].append(child)
        dist = {x1: 0}
        queue = deque((x1,))
        while queue:
            cur = queue.popleft()
            d = dist[cur] + 1
            for nxt in self._parents[cur]:
                if nxt == x2:
                    return d
                if nxt not in dist:
                    dist[nxt] = d
                    queue.append(nxt)
            for nxt in children[cur]:
                if nxt == x2:
                    return d
                if nxt not in dist:
                    dist[nxt] = d
                    queue.append(nxt)
        return INFINITE


# ----------------------------------------------------------------------
# plain-text log round-tripping
# ----------------------------------------------------------------------

def write_genealogy_log(graph: GenealogyGraph, path: str | Path) -> None:
    """Write one line per node: ``id,generation,op_kind[,parent_ids...]``."""
    lines = []
    for node in graph.nodes():
        fields = [str(node), str(graph.birth_generation(node)), graph.kind(node).value]
        fields.extend(str(p) for p in graph.parents(node))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_genealogy_log(path: str | Path) -> GenealogyGraph:
    """Rebuild a graph from the format produced by :func:`write_genealogy_log`.

    Each line is parsed, its ``op_kind`` checked against its parent count and
    its id against its position, then recorded with
    :meth:`GenealogyGraph.record_birth`, which checks its parents.
    """
    graph = GenealogyGraph()
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 3:
            raise ValueError(f"line {lineno}: expected 'id,generation,op_kind[,parents...]'")
        try:
            node = int(fields[0])
            generation = int(fields[1])
            parents = tuple(map(int, fields[3:]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field ({exc})") from None
        name, count, n = fields[2], len(parents), len(graph)
        if count > 2 or name != _KINDS[count].value:
            # Checked in order: the name, then the id, then the parent count.
            named = [arity for arity, kind in enumerate(_KINDS) if kind.value == name]
            if not named:
                raise ValueError(f"line {lineno}: unknown op kind {name!r}")
            if node == n:
                raise ValueError(f"line {lineno}: {name} takes {named[0]} parent(s), got {count}")
        if node != n:
            raise ValueError(f"line {lineno}: node id {node} out of order (expected {n})")
        try:
            graph.record_birth(parents, generation)
        except KeyError as exc:
            raise KeyError(f"line {lineno}: {exc.args[0]}") from None
    return graph


# ----------------------------------------------------------------------
# fast incremental index
# ----------------------------------------------------------------------

# Entry of a pair with no common ancestor, and of a column that is not an
# ancestor of the row's node.  A child adds one to its parents' entries, so
# these stay in [2**30, 2**31), and real distances stay below the bit, for
# any genealogy under 2**30 births deep.
_UNREACHED = 1 << 30


class AncestryIndex:
    """Pairwise closeness of the tracked nodes, for O(1) ``gdist``.

    For every ordered pair of tracked nodes ``(x, y)`` the index keeps an
    int32 entry ``near[x, y]``: the smallest ``adist(c, x)`` over the common
    ancestors ``c`` of ``x`` and ``y``, or the ``_UNREACHED`` bit when they
    have none (``near[x, x] = 0``).  Because ``Anc(z) = {z} ∪ ⋃ Anc(p)`` over
    the parents ``p`` of a child ``z``, and ``adist(c, z) = 1 + min_p
    adist(c, p)``, a child's entries follow from its parents' alone::

        near[z, y] = 1 + min_p near[p, y]        near[y, z] = min_p near[y, p]

    and the numerator of ``gdist(x, y)`` is ``min(near[x, y], near[y, x])``.

    The denominator needs each node's depth, which is a maximum over all of
    its ancestors.  To compute it at birth the index also keeps, per tracked
    node, its ``adist`` from every node of the *live ancestry* (every node
    some tracked node descends from, in birth order); a child's row is the
    element-wise minimum of its parents' rows plus one.  These rows serve
    nothing else.  ``add`` keeps only closeness and depth; a query derives
    ``gdist`` from two closeness entries and two depths per pair.

    Nodes must be added in birth order while their parents are still
    tracked.  :meth:`retain`, called after selection, drops the dead
    individuals and compacts away every live-ancestry column no remaining
    node reaches (the "simplify" step of tree-sequence recording).  A query
    costs O(1) per pair, ``add`` costs O(tracked + live ancestry), and memory
    is bounded by the tracked nodes and their live ancestry rather than by
    every node ever born.  Storage doubles on demand.
    """

    def __init__(self) -> None:
        self._count = 0  # id the next added node must carry
        self._width = 0  # live-ancestry columns in use
        self._rows: dict[int, int] = {}  # tracked node -> row; rows are dense
        self._depth = np.empty(16, dtype=np.int64)  # row -> its node's depth
        self._near = np.empty((16, 16), dtype=np.int32)  # row x row
        self._dist = np.full((16, 64), _UNREACHED, dtype=np.int32)  # row x column
        self._nodes = np.empty(64, dtype=np.int64)  # column -> node id

    @classmethod
    def from_graph(cls, graph: GenealogyGraph) -> "AncestryIndex":
        """Build an index tracking every node already recorded in ``graph``."""
        index = cls()
        for node in graph.nodes():
            index.add(node, graph.parents(node))
        return index

    def __contains__(self, node: int) -> bool:
        return node in self._rows

    def live_ancestry(self) -> list[int]:
        """Node ids of the columns: every ancestor of a tracked node, in birth order."""
        return self._nodes[: self._width].tolist()

    def _reserve(self, rows: int, cols: int) -> None:
        """Double the storage along each axis that is shorter than asked."""
        old_rows, old_cols = self._dist.shape
        if rows <= old_rows and cols <= old_cols:
            return
        new_rows = 2 * old_rows if rows > old_rows else old_rows
        new_cols = 2 * old_cols if cols > old_cols else old_cols
        used = len(self._rows)
        dist = np.full((new_rows, new_cols), _UNREACHED, dtype=np.int32)
        dist[:used, : self._width] = self._dist[:used, : self._width]
        self._dist = dist
        if new_rows > old_rows:
            near = np.empty((new_rows, new_rows), dtype=np.int32)
            near[:used, :used] = self._near[:used, :used]
            self._near = near
            self._depth = np.resize(self._depth, new_rows)
        self._nodes = np.resize(self._nodes, new_cols)

    def add(self, node: int, parents: tuple[int, ...]) -> None:
        """Track a newly born node of at most two parents (ids must arrive in
        birth order)."""
        if node != self._count:
            raise ValueError(f"expected node id {self._count} next, got {node}")
        if len(parents) > 2:
            raise ValueError(f"a birth takes at most 2 parents, got {len(parents)}")
        parent_rows = []
        for p in parents:
            if p not in self._rows:
                raise KeyError(f"parent {p} is no longer tracked")
            parent_rows.append(self._rows[p])
        row, col = len(self._rows), self._width
        self._reserve(row + 1, col + 1)
        dist, near = self._dist, self._near
        vec = dist[row, : col + 1]
        if not parent_rows:
            vec[:col] = _UNREACHED
            near[row, :row] = _UNREACHED
            near[:row, row] = _UNREACHED
        else:
            # A mutant is its own second parent: min(x, x) == x.
            p, q = parent_rows[0], parent_rows[-1]
            np.minimum(dist[p, :col], dist[q, :col], out=vec[:col])
            vec[:col] += 1
            np.minimum(near[p, :row], near[q, :row], out=near[row, :row])
            near[row, :row] += 1
            np.minimum(near[:row, p], near[:row, q], out=near[:row, row])
        vec[col] = 0
        near[row, row] = 0
        self._depth[row] = np.where(vec < _UNREACHED, vec, 0).max()
        self._rows[node] = row
        self._nodes[col] = node
        self._width += 1
        self._count += 1

    def depth(self, node: int) -> int:
        return int(self._depth[self._rows[node]])

    def _gdist_rows(self, ra, rb):
        """``gdist`` between the nodes of rows ``ra`` and ``rb`` (scalars or
        arrays that broadcast together)."""
        near, depth = self._near, self._depth
        # A real numerator never exceeds the larger depth, and an _UNREACHED
        # one always does, so clamping at 1 gives 1.0 exactly to pairs without
        # a common ancestor.  Depth 0 means genesis, whose only common
        # ancestor is itself, so a zero denominator can be read as 1.
        g = np.minimum(near[ra, rb], near[rb, ra]) / np.maximum(
            np.maximum(depth[ra], depth[rb]), 1
        )
        return np.minimum(g, 1.0)

    def gdist(self, a: int, b: int) -> float:
        """Same contract as :meth:`GenealogyGraph.gdist`, for tracked nodes."""
        return float(self._gdist_rows(self._rows[a], self._rows[b]))

    def gdist_among(self, nodes) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``read(a, b)``: ``gdist(nodes[a], nodes[b])`` for integer index
        arrays ``a`` and ``b`` that broadcast together, derived from two
        closeness entries and two depths per pair.  Valid until the next
        :meth:`retain`; births in between do not disturb it."""
        rows = np.array([self._rows[x] for x in nodes], dtype=np.intp)
        return lambda a, b: self._gdist_rows(rows[a], rows[b])

    def retain(self, alive) -> None:
        """Drop every node not listed in ``alive``, then every column that no
        remaining node descends from."""
        kept = [n for n in dict.fromkeys(alive) if n in self._rows]
        rows = np.array([self._rows[n] for n in kept], dtype=np.intp)
        m, width, dist = len(kept), self._width, self._dist
        live = dist[rows, :width]
        keep = live.min(axis=0, initial=_UNREACHED) < _UNREACHED
        # Columns before the first dropped one keep their place; in a typical
        # generation that is nearly all of them.
        first = width if keep.all() else int(np.argmin(keep))
        tail = keep[first:]
        new_width = first + int(np.count_nonzero(tail))
        dist[:m, :first] = live[:, :first]
        dist[:m, first:new_width] = live[:, first:][:, tail]
        dist[:, new_width:width] = _UNREACHED
        self._nodes[first:new_width] = self._nodes[first:width][tail]
        self._near[:m, :m] = self._near.take(rows, 0).take(rows, 1)
        self._depth[:m] = self._depth[rows]
        self._rows = dict(zip(kept, range(m)))
        self._width = new_width
