"""Diversity metrics and fitness shaping for the evolution engine.

Selection pressure toward diversity is applied by augmenting raw fitness:

    shaped(x) = raw(x) + weight * mean distance from x to a few random peers

Three interchangeable distance metrics are provided:

* ``domain`` -- behavioural distance between genomes (problem-specific).
* ``genealogical_tree`` -- normalised ancestry distance from the recorded
  genealogy (how far back the latest common ancestor sits).
* ``trash_bits`` -- normalised Hamming distance between neutral bit markers.

With the ``none`` kind or a zero weight shaping is inert: the engine then
uses raw fitness directly and draws no peers (see :mod:`genediv.engine`).

:func:`augmented_fitness` scores several members in one call: it draws all
their peer sets in one plan (:func:`draw_peer_sets`), which consumes the
random stream exactly as one :func:`draw_distinct_indices` call per member
would, and asks the distance function once for every (member, peer) pair.
The stream order, and so every result, is the same as one call per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .genealogy import AncestryIndex


class MetricKind(Enum):
    """Which distance feeds the diversity bonus."""

    NONE = "none"
    DOMAIN = "domain"
    GENEALOGICAL_TREE = "genealogical_tree"
    TRASH_BITS = "trash_bits"


class SettingError(ValueError):
    """A ``validate`` failure; ``field`` names the setting at fault."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


@dataclass(frozen=True)
class DiversityConfig:
    """Fitness-shaping parameters.

    ``weight`` multiplies the mean peer distance added to raw fitness and
    ``sample_size`` is how many distinct peers are drawn per evaluation.
    """

    kind: MetricKind = MetricKind.NONE
    weight: float = 0.0
    sample_size: int = 5

    def validate(self) -> None:
        if not isinstance(self.kind, MetricKind):
            raise SettingError("kind", f"unknown diversity metric kind: {self.kind!r}")
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise SettingError(
                "weight", f"diversity weight must be finite and >= 0, got {self.weight}"
            )
        if self.sample_size < 1:
            raise SettingError(
                "sample_size", f"diversity sample size must be >= 1, got {self.sample_size}"
            )


DistanceFn = Callable[[Sequence, Sequence], list[float]]
"""``fn(xs, ys)``: the distance between ``xs[t]`` and ``ys[t]`` for every ``t``, in order."""


def make_distance_fn(kind: MetricKind, index: AncestryIndex | None = None) -> DistanceFn | None:
    """Return a pairwise distance over individuals, or ``None`` for ``NONE``.

    Individuals only need ``genome`` / ``trash`` / ``node`` attributes.  The
    behavioural and marker metrics compare stacked arrays, pair by pair, with
    the same arithmetic as :func:`genediv.routing.domain_distance` and
    :func:`genediv.trash_genes.tdist`.  The genealogical metric asks
    ``index`` one batched query per call and needs every queried node to be
    tracked there.
    """
    if kind is MetricKind.NONE:
        return None
    if kind is MetricKind.DOMAIN:
        return lambda xs, ys: _stacked_domain_distance(
            [x.genome for x in xs], [y.genome for y in ys]
        )
    if kind is MetricKind.TRASH_BITS:
        return lambda xs, ys: _stacked_tdist([x.trash for x in xs], [y.trash for y in ys])
    if kind is MetricKind.GENEALOGICAL_TREE:
        if index is None:
            raise ValueError("genealogical metric needs an ancestry index")
        return lambda xs, ys: index.gdist_pairs([x.node for x in xs], [y.node for y in ys])
    raise ValueError(f"unknown diversity metric kind: {kind!r}")


def _stacked_domain_distance(a: list[np.ndarray], b: list[np.ndarray]) -> list[float]:
    """``routing.domain_distance(a[t], b[t])`` for every ``t``.

    Each row is reduced over one contiguous run of its genome's values, the
    order ``np.abs(g1 - g2).sum()`` uses, so the sums are bit-identical.
    """
    if not a:
        return []
    diff = np.abs(np.stack(a) - np.stack(b))
    return diff.reshape(len(a), -1).sum(axis=1).tolist()


def _stacked_tdist(a: list[np.ndarray], b: list[np.ndarray]) -> list[float]:
    """``trash_genes.tdist(a[t], b[t])`` for every ``t``."""
    if not a:
        return []
    tau = a[0].size
    return (np.count_nonzero(np.stack(a) != np.stack(b), axis=1) / tau).tolist()


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
    distance_fn: DistanceFn,
) -> list[float]:
    """Raw fitness of each ``pool[i]``, ``i`` in ``indices``, plus the weighted
    mean distance to fresh peers.

    Each member gets ``k = min(config.sample_size, len(pool) - 1)`` distinct
    other members of ``pool`` as peers, drawn from ``rng`` in ``indices``
    order (see :func:`draw_peer_sets`), so one call consumes the stream
    exactly as one call per index would.  Its ``k`` distances are summed left
    to right.  With no other member the raw fitness comes back unchanged and
    nothing is drawn.
    """
    k = min(config.sample_size, len(pool) - 1)
    if k == 0:
        return [float(pool[i].raw_fitness) for i in indices]
    peer_sets = draw_peer_sets(rng, len(pool), k, indices)
    xs = [pool[i] for i in indices for _ in range(k)]
    ys = [pool[j] for peers in peer_sets for j in peers]
    distances = distance_fn(xs, ys)
    weight = config.weight
    return [
        float(pool[i].raw_fitness + weight * (sum(distances[t * k : (t + 1) * k]) / k))
        for t, i in enumerate(indices)
    ]
