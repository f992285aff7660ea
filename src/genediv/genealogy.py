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
  ancestor sits, and each one's depth, computed for a whole batch of births
  (a generation's) from the parents' entries; ``gdist`` follows in O(1) per
  pair, read from a table built per list of individuals.  Ancestor distances
  over pruned *depth columns* (ancestors that can still set a depth) serve
  only to compute newborns' depths.  Memory and the cost of a generation
  are bounded by the living individuals and their distinct lineages rather
  than by the horizon (the prune of the depth columns holds a constant
  times living individuals × columns), so it is fast enough for use inside
  a selection loop.

Plain-text logs of the graph (one node per line) can be written and read
back with :func:`write_genealogy_log` / :func:`read_genealogy_log`.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

INFINITE = math.inf


class OpKind(Enum):
    """Variation operator that produced an individual, declared in the order
    of its parent count."""

    GENESIS = "genesis"
    MUTATION = "mutation"
    RECOMBINATION = "recombination"


_KINDS = tuple(OpKind)  # indexed by parent count: 0, 1 or 2
_ARITY = {kind.value: count for count, kind in enumerate(_KINDS)}  # name -> parent count


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

    def births(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """``(node, generation, parents)`` of every node, in birth order."""
        return zip(range(len(self._parents)), self._birth_gen, self._parents)

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

    def _search(self, node: int) -> tuple[dict[int, int], int, list[int]]:
        """``(dist, depth, farthest)``: every ancestor of ``node`` (itself
        included) mapped to its ``adist``, the largest of them, and the
        ancestors at that distance.

        Breadth-first search over parent edges, a level at a time; because
        edges shorten ids, it visits each ancestor once.  The map lists
        ancestors in the order visited, so their ``adist`` never decreases
        along it, and ``farthest`` lists the last level in that order.
        """
        parents = self._parents
        dist = {node: 0}
        level = [node]
        d = 0
        while True:
            d += 1
            found = []
            for cur in level:
                for p in parents[cur]:
                    if p not in dist:
                        dist[p] = d
                        found.append(p)
            if not found:
                return dist, d - 1, level
            level = found

    def ancestor_distances(self, node: int) -> dict[int, int]:
        """Map every ancestor of ``node`` (including itself) to its ``adist``,
        listed in breadth-first order, so their ``adist`` never decreases
        along the map."""
        return self._search(self._check(node))[0]

    def adist(self, x1: int, x2: int) -> int | float:
        """Minimal number of variation steps from ``x1`` down to ``x2``.

        Returns 0 for ``x1 == x2`` and :data:`INFINITE` when ``x1`` is not
        an ancestor of ``x2``.
        """
        x1 = self._check(x1)
        x2 = self._check(x2)
        if x1 >= x2:
            return 0 if x1 == x2 else INFINITE
        # The search of _search, level by level from x2, pruned: ancestors
        # always carry smaller ids, so none below x1 leads to it.
        parents = self._parents
        seen = {x2}
        level = [x2]
        d = 0
        while level:
            d += 1
            found = []
            for cur in level:
                for p in parents[cur]:
                    if p > x1:
                        if p not in seen:
                            seen.add(p)
                            found.append(p)
                    elif p == x1:
                        return d
            level = found
        return INFINITE

    def _closest_common(self, x1: int, x2: int) -> tuple[int | None, int | None, int]:
        """``(closeness, node, depth)``: the common ancestor closest to either
        individual (ties to the smallest id; both ``None`` without one), and
        the larger of the two individuals' depths."""
        d1, depth1, _ = self._search(x1)
        d2, depth2, _ = self._search(x2)
        depth = max(depth1, depth2)
        # Each map is in breadth-first order, so each side's common nodes
        # come closest level first; a side's scan ends past the best level.
        best, node = INFINITE, None
        for mine, other in ((d1, d2), (d2, d1)):
            for x in filter(other.__contains__, mine):
                c = mine[x]
                if c > best:
                    break
                if c < best or x < node:
                    best, node = c, x
            if node is None:  # the other side has no common node either
                return None, None, depth
        return best, node, depth

    def latest_common_ancestor(self, x1: int, x2: int) -> int | None:
        """Common ancestor closest to either individual, or ``None``.

        "Closest" minimises ``min(adist(a, x1), adist(a, x2))``; ties go to
        the smallest node id.
        """
        return self._closest_common(self._check(x1), self._check(x2))[1]

    def earliest_ancestor(self, x: int) -> int:
        """Ancestor with the largest ``adist`` to ``x`` (smallest id on ties).

        A node created from scratch is its own earliest ancestor.
        """
        return min(self._search(self._check(x))[2])

    def depth(self, x: int) -> int:
        """``adist`` from the earliest ancestor of ``x`` down to ``x``."""
        return self._search(self._check(x))[1]

    def gdist(self, x1: int, x2: int) -> float:
        """Normalised genealogical distance between two individuals.

        0.0 for identical ids, 1.0 when no common ancestor exists; otherwise
        the latest common ancestor's closeness score divided by the larger of
        the two family-tree depths, which is at least 1 (distinct nodes of
        depth 0 are genesis nodes and share no ancestor).  Always in [0, 1].
        """
        x1 = self._check(x1)
        x2 = self._check(x2)
        if x1 == x2:
            return 0.0
        closeness, _, depth = self._closest_common(x1, x2)
        if closeness is None:
            return 1.0
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
            for nxt in chain(self._parents[cur], children[cur]):
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
    """Write one line per node: ``id,generation,op_kind[,parent_ids...]``,
    each ended by ``\\n`` on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(
            ",".join((str(node), str(gen), _KINDS[len(parents)].value, *map(str, parents))) + "\n"
            for node, gen, parents in graph.births()
        )


def read_genealogy_log(path: str | Path) -> GenealogyGraph:
    """Rebuild a graph from the format produced by :func:`write_genealogy_log`.

    Lines end at ``\n`` alone, as the writer ends them.  Each line is
    parsed, its ``op_kind`` name checked, its id against its position and its
    parent count against the name, then recorded with
    :meth:`GenealogyGraph.record_birth`, which checks its parents.
    """
    graph = GenealogyGraph()
    with open(path, encoding="utf-8", newline="\n") as lines:
        for lineno, raw in enumerate(lines, 1):
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
            if name not in _ARITY:
                raise ValueError(f"line {lineno}: unknown op kind {name!r}")
            if node != n:
                raise ValueError(f"line {lineno}: node id {node} out of order (expected {n})")
            if count != _ARITY[name]:
                raise ValueError(f"line {lineno}: {name} takes {_ARITY[name]} parent(s), got {count}")
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

# Entries one comparison of the covered-column prune may hold, however small
# the depth columns: below it the prune's memory does not matter.
_CHUNK = 1 << 16


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

    The denominator needs each node's depth, its largest ``adist`` from an
    ancestor.  To compute it at birth the index also keeps, per tracked node,
    its ``adist`` from the nodes of the *depth columns* (ancestors of tracked
    nodes, in birth order): a child's row is the element-wise minimum of its
    parents' rows plus one, with 0 in its own new column.

    *Batches.*  :meth:`add_births` takes births whose parents were tracked
    before the batch, as a generation's are, and computes them all in one
    update: two children of a batch share exactly their parents' common
    ancestors, so their entry is ``1 + min`` over the four parent pairings,
    the second rule read on a child's new row.  :meth:`add` is one birth.

    *Pruning.*  :meth:`retain`, called after selection, drops the dead and
    every column no survivor reaches (the "simplify" step of tree-sequence
    recording).  Once the width has doubled since the last prune it also
    drops each column ``c`` that a column ``d`` covers: the same rows reach
    both and ``d >= c`` in each (of equal columns the earliest stays).  A
    child's entry in either is ``1 + min`` over the same parents and
    ``retain`` only removes rows, so ``d`` covers ``c`` for good: a dropped
    column never sets a depth, and the width stays flat over the horizon.

    *Costs.*  A batch of ``b`` births costs O(b · (tracked + columns)),
    ``retain`` O(tracked · columns), a prune O(tracked · Σ k²) over the
    groups of ``k`` columns that reach the same rows (O(columns² · tracked)
    at most), and :meth:`gdist_among` O(nodes²) for its table.  A prune
    compares at most ``max(tracked · columns, 2**16)`` entries at a time, so
    memory is bounded by the tracked nodes and columns, not by the horizon.
    """

    def __init__(self) -> None:
        self._count = 0  # id the next added node must carry
        self._width = 0  # depth columns in use
        self._pruned = 0  # width after the last prune
        self._rows: dict[int, int] = {}  # tracked node -> its row
        self._free = list(range(15))  # rows to give newborns
        self._depth = np.empty(16, dtype=np.int64)  # row -> its node's depth
        # Row x (near over 16 rows, then 64 depth columns).  The last row and
        # column reach nothing: they stand in for a genesis child's parents.
        self._state = np.full((16, 16 + 64), _UNREACHED, dtype=np.int32)
        self._nodes = np.empty(64, dtype=np.int64)  # column -> node id

    def column_nodes(self) -> list[int]:
        """Node ids of the depth columns, in birth order."""
        return self._nodes[: self._width].tolist()

    def _reserve(self, births: int, cols: int) -> None:
        """Grow the storage, doubling, to give ``births`` newborns a row and
        to hold ``cols`` depth columns, with the last row and column spare."""
        rows, short, width = len(self._state), births - len(self._free), self._width
        if short <= 0 and cols < len(self._nodes):
            return
        new_rows = rows if short <= 0 else max(2 * rows, rows + short)
        if cols >= len(self._nodes):
            self._nodes = np.resize(self._nodes, max(2 * len(self._nodes), cols + 1))
        state = np.full((new_rows, new_rows + len(self._nodes)), _UNREACHED, dtype=np.int32)
        state[:rows, :rows] = self._state[:, :rows]
        state[:rows, new_rows : new_rows + width] = self._state[:, rows : rows + width]
        self._state, self._depth = state, np.resize(self._depth, new_rows)
        self._free += range(rows - 1, new_rows - 1)

    def add(self, node: int, parents: tuple[int, ...]) -> None:
        """Track one newborn node: the one-birth case of :meth:`add_births`."""
        self.add_births([(node, parents)])

    def add_births(self, births) -> None:
        """Track a batch of newborn ``(node, parents)``: ids in birth order, at
        most two parents each, every parent tracked before the batch.  A
        rejected batch changes nothing."""
        births, rows, pairs = list(births), self._rows, []
        for expected, (node, parents) in enumerate(births, self._count):
            if node != expected:
                raise ValueError(f"expected node id {expected} next, got {node}")
            if len(parents) > 2:
                raise ValueError(f"a birth takes at most 2 parents, got {len(parents)}")
            try:  # a mutant is its own second parent: min(x, x) == x
                pairs += (rows[parents[0]], rows[parents[-1]]) if parents else (-1, -1)
            except KeyError as missing:
                raise KeyError(f"parent {missing.args[0]} is not tracked") from None
        w, b = self._width, len(births)
        self._reserve(b, w + b)
        state, base, free = self._state, len(self._state), self._free[:b]
        new, at = np.array(free, dtype=np.intp), np.arange(b)
        del self._free[:b]
        p, q = np.array(pairs, dtype=np.intp).reshape(b, 2).T
        child = np.minimum(state[p], state[q]) + 1
        child[at, at + (base + w)] = 0  # each child's own depth column
        state[new] = child
        state[:, new] = np.minimum(state[:, p], state[:, q])
        state[new, new] = 0
        cols = child[:, base : base + w + b]
        self._depth[new] = cols.max(axis=1, initial=0, where=cols < _UNREACHED)
        nodes = [node for node, _ in births]
        rows.update(zip(nodes, free))
        self._nodes[w : w + b] = nodes
        self._width, self._count = w + b, self._count + b

    def follow(self, graph: GenealogyGraph) -> None:
        """Track the nodes ``graph`` recorded after the last one added, in
        batches whose parents precede them."""
        batch = []
        for node in range(self._count, len(graph)):
            parents = graph.parents(node)
            if batch and max(parents, default=-1) >= batch[0][0]:
                self.add_births(batch)
                batch = []
            batch.append((node, parents))
        self.add_births(batch)

    def depth(self, node: int) -> int:
        return int(self._depth[self._rows[node]])

    def _gdist_table(self, rows) -> np.ndarray:
        """``gdist`` between the nodes of every pair of ``rows``."""
        r = np.asarray(rows, dtype=np.intp)
        near, depth = self._state[r[:, None], r], self._depth[r]
        # A real numerator never exceeds the larger depth, and an _UNREACHED
        # one always does, so clamping at 1 gives 1.0 exactly to pairs without
        # a common ancestor.  Depth 0 means genesis, whose only common
        # ancestor is itself, so a zero denominator can be read as 1.
        g = np.minimum(near, near.T) / np.maximum(np.maximum(depth[:, None], depth), 1)
        return np.minimum(g, 1.0, out=g)

    def gdist(self, a: int, b: int) -> float:
        """Same contract as :meth:`GenealogyGraph.gdist`, for tracked nodes."""
        return float(self._gdist_table([self._rows[a], self._rows[b]])[0, 1])

    def gdist_among(self, nodes) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``read(a, b)``: ``gdist(nodes[a], nodes[b])`` for integer index
        arrays ``a`` and ``b`` that broadcast together, read from a table
        built here.  The table is the reader's own array, so the reader
        outlives later births and retains."""
        table = self._gdist_table([self._rows[x] for x in nodes])
        return lambda a, b: table[a, b]

    def retain(self, alive) -> None:
        """Drop every node not listed in ``alive``, then every column that no
        remaining node reaches and, once the width has doubled since the last
        prune, every covered column."""
        old = self._rows
        self._rows = {n: old[n] for n in alive if n in old}  # a repeat keeps its place
        self._free += [r for n, r in old.items() if n not in self._rows]
        m, width, state = len(self._rows), self._width, self._state
        rows, base = np.array(list(self._rows.values()), dtype=np.intp), len(state)
        live = state[rows, base : base + width]
        keep = live.min(axis=0, initial=_UNREACHED) < _UNREACHED
        if m and width >= 2 * self._pruned:
            keep &= ~_covered(np.minimum(live, _UNREACHED))
            self._pruned = int(np.count_nonzero(keep))
        cols = np.flatnonzero(keep)
        new_width = len(cols)
        state[rows, base : base + new_width] = live[:, cols]
        state[:, base + new_width : base + width] = _UNREACHED
        self._nodes[:new_width] = self._nodes[cols]
        self._width = new_width


def _covered(live: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``live`` (unreached entries exactly ``_UNREACHED``)
    that another covers, and of equal columns all but the earliest.

    A column ``<=`` another reaches all its rows, so it can only be covered
    by one that reaches the same rows: only the column pairs of one reach
    pattern are compared, in chunks of at most ``max(live.size, _CHUNK)``
    entries.
    """
    rows, width = live.shape
    groups: dict[bytes, list[int]] = {}
    for col, key in enumerate(map(bytes, np.packbits(live < _UNREACHED, axis=0).T.tolist())):
        groups.setdefault(key, []).append(col)
    covered = np.zeros(width, dtype=bool)
    chunk = max(live.size, _CHUNK) // max(rows, 1)  # pairs; at least width

    def compare(c: list[int], d: list[int]) -> None:
        c, d = np.array(c, dtype=np.intp), np.array(d, dtype=np.intp)
        lc, ld = live[:, c], live[:, d]
        covered[c[(lc <= ld).all(axis=0) & ((d < c) | (lc != ld).any(axis=0))]] = True

    c, d = [], []  # pairs (c, d): does column d cover column c?
    for cols in groups.values():
        if len(cols) < 2:
            continue
        for x in cols:
            if len(c) + len(cols) > chunk:
                compare(c, d)
                c, d = [], []
            c += [x] * len(cols)
            d += cols
    if c:
        compare(c, d)
    return covered
