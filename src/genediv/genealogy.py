"""Ancestry tracking for evolutionary runs, with distance queries.

Every individual ever created is a node in an append-only directed acyclic
graph.  A node records which variation operator produced it (creation from
scratch, mutation of one parent, or recombination of two parents) and edges
point from parents to children, so node ids are assigned in birth order and
every ancestor of a node has a smaller id than the node itself.

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
* ``AncestryIndex`` -- an incremental cache of ancestor distances over the
  live ancestry (the ancestors of the individuals still alive).  A query
  for one individual against a batch of peers costs one stacked pass of
  O(live ancestry) vectorised work, and memory is bounded by the live
  ancestry rather than by every node ever born, so it is fast enough for
  use inside a selection loop.

Plain-text logs of the graph (one node per line) can be written and read
back with :func:`write_genealogy_log` / :func:`read_genealogy_log`.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from pathlib import Path

import numpy as np

INFINITE = math.inf


class OpKind(Enum):
    """Variation operator that produced an individual."""

    GENESIS = "genesis"
    MUTATION = "mutation"
    RECOMBINATION = "recombination"

    @property
    def arity(self) -> int:
        """Number of parents the operator consumes."""
        return _ARITY[self]


_ARITY = {
    OpKind.GENESIS: 0,
    OpKind.MUTATION: 1,
    OpKind.RECOMBINATION: 2,
}


class GenealogyGraph:
    """Append-only DAG of every individual created during a run."""

    __slots__ = ("_parents", "_kinds", "_birth_gen", "_children")

    def __init__(self) -> None:
        self._parents: list[tuple[int, ...]] = []
        self._kinds: list[OpKind] = []
        self._birth_gen: list[int] = []
        self._children: list[list[int]] = []

    def __len__(self) -> int:
        return len(self._parents)

    def nodes(self) -> range:
        """All node ids, in birth order."""
        return range(len(self._parents))

    def record_birth(
        self,
        parents: tuple[int, ...] | list[int],
        kind: OpKind | str,
        generation: int = 0,
    ) -> int:
        """Append a new node and return its id.

        ``parents`` must already be recorded and must match the arity of
        ``kind`` (0 for genesis, 1 for mutation, 2 for recombination).
        """
        kind = OpKind(kind)
        parents = tuple(int(p) for p in parents)
        if len(parents) != kind.arity:
            raise ValueError(
                f"{kind.value} takes {kind.arity} parent(s), got {len(parents)}"
            )
        n = len(self._parents)
        for p in parents:
            if not 0 <= p < n:
                raise KeyError(f"unknown parent node id {p}")
        self._parents.append(parents)
        self._kinds.append(kind)
        self._birth_gen.append(int(generation))
        self._children.append([])
        for p in dict.fromkeys(parents):
            self._children[p].append(n)
        return n

    def _check(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < len(self._parents):
            raise KeyError(f"unknown node id {node}")
        return node

    def parents(self, node: int) -> tuple[int, ...]:
        return self._parents[self._check(node)]

    def kind(self, node: int) -> OpKind:
        return self._kinds[self._check(node)]

    def birth_generation(self, node: int) -> int:
        return self._birth_gen[self._check(node)]

    # ------------------------------------------------------------------
    # distance queries
    # ------------------------------------------------------------------

    def ancestor_distances(self, node: int) -> dict[int, int]:
        """Map every ancestor of ``node`` (including itself) to its ``adist``.

        Breadth-first search over parent edges; because edges shorten ids,
        this visits each ancestor once.
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

    def latest_common_ancestor(self, x1: int, x2: int) -> int | None:
        """Common ancestor closest to either individual, or ``None``.

        "Closest" minimises ``min(adist(a, x1), adist(a, x2))``; ties go to
        the smallest node id.
        """
        d1 = self.ancestor_distances(x1)
        d2 = self.ancestor_distances(x2)
        if len(d2) < len(d1):
            d1, d2 = d2, d1
        best: tuple[int, int] | None = None
        for a, da in d1.items():
            db = d2.get(a)
            if db is None:
                continue
            key = (min(da, db), a)
            if best is None or key < best:
                best = key
        return None if best is None else best[1]

    def earliest_ancestor(self, x: int) -> int:
        """Ancestor with the largest ``adist`` to ``x`` (smallest id on ties).

        A node created from scratch is its own earliest ancestor.
        """
        dist = self.ancestor_distances(x)
        best_node = x
        best = (-1, 0)
        for a, d in dist.items():
            key = (d, -a)
            if key > best:
                best = key
                best_node = a
        return best_node

    def depth(self, x: int) -> int:
        """``adist`` from the earliest ancestor of ``x`` down to ``x``."""
        return max(self.ancestor_distances(x).values())

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
        d1 = self.ancestor_distances(x1)
        d2 = self.ancestor_distances(x2)
        denom = max(max(d1.values()), max(d2.values()))
        if len(d2) < len(d1):
            d1, d2 = d2, d1
        num: int | None = None
        for a, da in d1.items():
            db = d2.get(a)
            if db is None:
                continue
            score = min(da, db)
            if num is None or score < num:
                num = score
        if num is None:
            return 1.0
        if denom == 0:
            return 0.0
        return num / denom

    def edist_oracle(self, x1: int, x2: int) -> int | float:
        """Shortest-path length between two nodes ignoring edge direction.

        Walks parent and child links alike; returns :data:`INFINITE` when
        the nodes lie in different connected components.  Quadratic-ish and
        meant for validation, not for use inside a selection loop.
        """
        x1 = self._check(x1)
        x2 = self._check(x2)
        if x1 == x2:
            return 0
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
            for nxt in self._children[cur]:
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
    """Rebuild a graph from the format produced by :func:`write_genealogy_log`."""
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
            parents = tuple(int(f) for f in fields[3:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field ({exc})") from None
        try:
            kind = OpKind(fields[2])
        except ValueError:
            raise ValueError(f"line {lineno}: unknown op kind {fields[2]!r}") from None
        if node != len(graph):
            raise ValueError(
                f"line {lineno}: node id {node} out of order (expected {len(graph)})"
            )
        graph.record_birth(parents, kind, generation)
    return graph


# ----------------------------------------------------------------------
# fast incremental index
# ----------------------------------------------------------------------

# Entry of a column that is not an ancestor of the row's node.  A child adds
# one to its parents' entries, so these stay in [2**30, 2**31), and real
# distances stay below the bit, for any genealogy under 2**30 births deep.
_UNREACHED = 1 << 30


class AncestryIndex:
    """Ancestor-distance rows over the live ancestry, for fast ``gdist``.

    The columns are the *live ancestry*: every node that some tracked node
    descends from (itself included), in birth order.  For every tracked node
    ``x`` the index keeps an int32 row ``v`` with ``v[c] = adist(a, x)`` for
    the ancestor ``a`` held in column ``c``; columns of non-ancestors carry
    the ``_UNREACHED`` bit.  A child gets a new column of its own, and its row
    is the element-wise minimum of its parents' rows plus one.

    Nodes must be added in birth order while their parents are still
    tracked.  :meth:`retain`, called after selection, drops the rows of dead
    individuals and compacts away every column no remaining row reaches (the
    "simplify" step of tree-sequence recording).  Memory, ``add`` and a
    ``gdist`` query therefore cost O(live ancestry) rather than O(nodes ever
    born); the live ancestry still grows with the run, but far more slowly.
    Storage doubles on demand.
    """

    def __init__(self) -> None:
        self._count = 0  # id the next added node must carry
        self._width = 0  # columns in use
        self._rows: dict[int, int] = {}  # tracked node -> row; rows are dense
        self._col: list[int] = []  # row -> its node's own column
        self._depth: list[int] = []  # row -> its node's depth
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
        dist = np.full((new_rows, new_cols), _UNREACHED, dtype=np.int32)
        used = len(self._rows)
        dist[:used, : self._width] = self._dist[:used, : self._width]
        self._dist = dist
        self._nodes = np.resize(self._nodes, new_cols)

    def add(self, node: int, parents: tuple[int, ...]) -> None:
        """Track a newly born node (ids must arrive in birth order)."""
        if node != self._count:
            raise ValueError(f"expected node id {self._count} next, got {node}")
        parent_rows = []
        for p in parents:
            if p not in self._rows:
                raise KeyError(f"parent {p} is no longer tracked")
            parent_rows.append(self._rows[p])
        row, col = len(self._rows), self._width
        self._reserve(row + 1, col + 1)
        dist = self._dist
        vec = dist[row, : col + 1]
        if not parent_rows:
            vec[:col] = _UNREACHED
        elif len(parent_rows) == 1:
            np.add(dist[parent_rows[0], :col], 1, out=vec[:col])
        else:
            np.minimum(dist[parent_rows[0], :col], dist[parent_rows[1], :col], out=vec[:col])
            vec[:col] += 1
        vec[col] = 0
        self._rows[node] = row
        self._col.append(col)
        self._depth.append(int(vec.max(where=vec < _UNREACHED, initial=0)))
        self._nodes[col] = node
        self._width += 1
        self._count += 1

    def depth(self, node: int) -> int:
        return self._depth[self._rows[node]]

    def gdist(self, a: int, b: int) -> float:
        """Same contract as :meth:`GenealogyGraph.gdist`, for tracked nodes."""
        return self.gdist_many(a, (b,))[0]

    def gdist_many(self, x: int, others) -> list[float]:
        """``gdist(x, o)`` for every ``o`` in ``others``, in one stacked pass."""
        row = self._rows[x]
        rows = [self._rows[o] for o in others]
        if not rows:
            return []
        col = self._col
        # Columns are in birth order, so no common ancestor of a pair lies
        # past the column of its smaller node.
        k = min(col[row], max([col[r] for r in rows])) + 1
        peers = self._dist[rows, :k]
        own = self._dist[row, :k]
        outside = np.bitwise_or(peers, own)
        outside &= _UNREACHED  # set unless the column is a common ancestor
        np.minimum(peers, own, out=peers)
        peers |= outside
        depth = self._depth
        own_depth = depth[row]
        out = []
        for num, r in zip(peers.min(axis=1).tolist(), rows):
            denom = max(own_depth, depth[r])
            out.append(1.0 if num >= _UNREACHED else 0.0 if denom == 0 else num / denom)
        return out

    def retain(self, alive) -> None:
        """Drop every node not listed in ``alive``, then every column that no
        remaining node descends from."""
        kept = [n for n in dict.fromkeys(alive) if n in self._rows]
        rows = [self._rows[n] for n in kept]
        width = self._width
        live = self._dist[rows, :width]
        keep = (live < _UNREACHED).any(axis=0)
        new_width = int(np.count_nonzero(keep))
        self._dist[: len(rows), :new_width] = live[:, keep]
        self._dist[:, new_width:width] = _UNREACHED
        new_col = np.cumsum(keep) - 1
        self._col = new_col[[self._col[r] for r in rows]].tolist()
        self._depth = [self._depth[r] for r in rows]
        self._nodes[:new_width] = self._nodes[:width][keep]
        self._rows = dict(zip(kept, range(len(kept))))
        self._width = new_width
