"""Diversity metrics and fitness shaping for the evolution engine.

Selection pressure toward diversity is applied by augmenting raw fitness:

    shaped(x) = raw(x) + weight * mean distance from x to a few random peers

Three interchangeable distance metrics are provided:

* ``domain`` -- behavioural distance between genomes (problem-specific).
* ``genealogical_tree`` -- normalised ancestry distance from the recorded
  genealogy (how far back the latest common ancestor sits).
* ``trash_bits`` -- normalised Hamming distance between neutral bit markers.

:func:`make_distance_fn` returns each as a :data:`DistanceFn`, which maps a
list of members to a reader of their distances.  A domain or marker reader
computes only the pairs its index arrays select, so scoring a pool of ``M``
members against ``k`` peers each costs ``M * k`` pairs at any population
size; the genealogical reader reads a table the index builds for it.

:func:`augmented_fitness` alone decides when shaping is inert: with no
reader, no other member or a zero weight it returns the raw fitness and
draws no peers.  The ``none`` kind has no distance function, so the engine
has no reader to pass and its weight never acts (see :mod:`genediv.engine`).

:func:`augmented_fitness` scores several members in one call: it draws all
their peer sets in one plan (:func:`draw_peer_sets`), which consumes the
random stream exactly as one :func:`draw_distinct_indices` call per member
would, and reads their distances in one call of the pool's reader, which the
engine builds once per generation.
The stream order, and so every result, is the same as one call per member.

Every float sum that reaches an output is taken by :func:`sum_left`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .genealogy import AncestryIndex, GenealogyGraph
from .routing import SettingError, require_integer


def sum_left(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from ``0.0``.

    The builtin ``sum`` compensates float rounding from Python 3.12 on, so it
    would make an output depend on the interpreter; this does not.
    """
    return functools.reduce(operator.add, values, 0.0)


class MetricKind(Enum):
    """Which distance feeds the diversity bonus."""

    NONE = "none"
    DOMAIN = "domain"
    GENEALOGICAL_TREE = "genealogical_tree"
    TRASH_BITS = "trash_bits"


@dataclass(frozen=True)
class DiversityConfig:
    """Fitness-shaping parameters.

    ``weight`` multiplies the mean peer distance added to raw fitness and
    ``sample_size`` is how many distinct peers are drawn per evaluation (an
    integer).  A field out of range raises a :class:`SettingError` naming it
    when the config is built.
    """

    kind: MetricKind = MetricKind.NONE
    weight: float = 0.0
    sample_size: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MetricKind):
            raise SettingError("kind", f"unknown diversity metric kind: {self.kind!r}")
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise SettingError(
                "weight", f"diversity weight must be finite and >= 0, got {self.weight}"
            )
        require_integer("sample_size", self.sample_size, 1)


DistanceReader = Callable[[np.ndarray, np.ndarray], np.ndarray]
DistanceFn = Callable[[Sequence], DistanceReader]
"""``fn(members)``: the reader ``read(a, b)`` of ``members``' distances.

``read(a, b)`` is the distance from ``members[a]`` to ``members[b]`` for
integer index arrays ``a`` and ``b`` that broadcast together, shaped like
their broadcast: ``read(r[:, None], r)`` is the block over ``r`` and
``read(rows[:, None], peers)`` each row's peers.  Only the selected pairs are
computed, from arrays gathered once per reader, so a reader stays valid when
the members, or the ancestry index, change later.  A subset ``members[i]``,
``i`` in ``keep``, is read through a view: ``read(keep[a], keep[b])``.
"""


def _stack_flat(arrays: list) -> np.ndarray:
    """One row per array, flattened in C order; ``(0, 0)`` for no arrays."""
    return np.stack([a.ravel() for a in arrays]) if arrays else np.zeros((0, 0))


def make_distance_fn(kind: MetricKind, graph: GenealogyGraph | None = None) -> DistanceFn | None:
    """Return the :data:`DistanceFn` of ``kind``, or ``None`` for ``NONE``.

    Members only need ``genome`` / ``trash`` / ``node`` attributes.  The
    behavioural and marker metrics stack the members' arrays once per reader
    and compare them with the same arithmetic as
    :func:`genediv.routing.domain_distance` and
    :func:`genediv.trash_genes.tdist`, so every distance equals theirs bit
    for bit: each domain distance is reduced over one contiguous run of its
    pair's values, the order ``np.abs(g1 - g2).sum()`` uses.

    The genealogical metric reads ``graph`` through an :class:`AncestryIndex`
    of its own, so build it once per run and call it with the run's pools in
    order.  Each call drops the tracked nodes that are not among its members,
    tracks the nodes ``graph`` recorded since the last call, and reads a
    table of the index (see :meth:`AncestryIndex.gdist_among`).  A call that
    asks again for a node an earlier call dropped raises :class:`KeyError`.
    """
    if kind is MetricKind.NONE:
        return None
    if kind is MetricKind.DOMAIN:
        def domain(members: Sequence) -> DistanceReader:
            g = _stack_flat([m.genome for m in members])
            return lambda a, b: np.abs(g[a] - g[b]).sum(axis=-1)
        return domain
    if kind is MetricKind.TRASH_BITS:
        def trash_bits(members: Sequence) -> DistanceReader:
            t = _stack_flat([m.trash for m in members])
            tau = t.shape[1]
            return lambda a, b: np.count_nonzero(t[a] != t[b], axis=-1) / tau
        return trash_bits
    if kind is MetricKind.GENEALOGICAL_TREE:
        if graph is None:
            raise ValueError("genealogical metric needs a genealogy graph")
        index = AncestryIndex()
        def genealogical(members: Sequence) -> DistanceReader:
            nodes = [m.node for m in members]
            index.retain(nodes)
            index.follow(graph)
            return index.gdist_among(nodes)
        return genealogical
    raise ValueError(f"unknown diversity metric kind: {kind!r}")


def draw_peer_sets(
    rng: np.random.Generator, n: int, k: int, excludes: Sequence[int]
) -> list[list[int]]:
    """Draw one set of ``k`` distinct indices from ``range(n)`` per entry of
    ``excludes``, never containing that entry.

    Returns exactly what one :func:`draw_distinct_indices` call per exclude,
    in order, would return, and leaves ``rng`` in the same state: values are
    drawn in chunks of ``rng.integers(n, size=m)``, which yields the same
    values as ``m`` scalar draws, and ``m`` never exceeds the picks still
    missing, so every drawn value is one the sequential calls would draw too.
    A value equal to the set's exclude or already in the set is rejected.
    """
    for exclude in excludes:
        available = n - (1 if 0 <= exclude < n else 0)
        if k < 0 or k > available:
            raise ValueError(f"cannot draw {k} distinct indices from {available} available")
    if k == 0:
        return [[] for _ in excludes]
    sets: list[list[int]] = []
    picked: list[int] = []
    todo = iter(excludes)
    exclude = next(todo, None)
    missing = k * len(excludes)
    while missing:
        # Below three values a scalar draw at a time is cheaper than a chunk,
        # and yields the same values.
        chunk = rng.integers(n, size=missing).tolist() if missing > 2 else (int(rng.integers(n)),)
        for j in chunk:
            if j == exclude or j in picked:
                continue
            picked.append(j)
            missing -= 1
            if len(picked) == k:
                sets.append(picked)
                picked = []
                exclude = next(todo, None)
    return sets


def draw_distinct_indices(
    rng: np.random.Generator, n: int, k: int, exclude: int = -1
) -> list[int]:
    """Draw ``k`` distinct indices from ``range(n)``, never ``exclude``.

    The one-set case of :func:`draw_peer_sets`: simple rejection, so the
    number of values consumed from ``rng`` depends only on the draws
    themselves, not on container layout.
    """
    return draw_peer_sets(rng, n, k, (exclude,))[0]


def augmented_fitness(
    pool: Sequence,
    indices: Sequence[int],
    config: DiversityConfig,
    rng: np.random.Generator,
    distances: DistanceReader | None,
) -> list[float]:
    """Raw fitness of each ``pool[i]``, ``i`` in ``indices``, plus the weighted
    mean distance to fresh peers.

    ``distances`` is the reader of ``pool``'s distances (see
    :data:`DistanceFn`).  Each member gets
    ``k = min(config.sample_size, len(pool) - 1)`` distinct other members of
    ``pool`` as peers, drawn from ``rng`` in ``indices`` order (see
    :func:`draw_peer_sets`), so one call consumes the stream exactly as one
    call per index would; the ``len(indices) * k`` peer distances are read in
    one call of the reader, and summed by :func:`sum_left`.  Shaping is inert
    with no reader (``distances=None``), no other member or a zero weight:
    the raw fitness comes back as a float, nothing is drawn and nothing is
    read.  This is the one place that decides it.
    """
    k = min(config.sample_size, len(pool) - 1)
    if distances is None or k == 0 or config.weight == 0.0:
        return [float(pool[i].raw_fitness) for i in indices]
    rows = np.asarray(indices, dtype=np.intp)
    peers = np.array(draw_peer_sets(rng, len(pool), k, indices), dtype=np.intp)
    weight = config.weight
    return [
        float(pool[i].raw_fitness + weight * (sum_left(row) / k))
        for i, row in zip(indices, distances(rows[:, None], peers.reshape(len(rows), k)).tolist())
    ]
