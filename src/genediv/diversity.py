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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .genealogy import AncestryIndex
from .routing import domain_distance
from .trash_genes import tdist


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
    ``sample_size`` is how many distinct peers are drawn per evaluation.
    """

    kind: MetricKind = MetricKind.NONE
    weight: float = 0.0
    sample_size: int = 5

    def validate(self) -> None:
        if not isinstance(self.kind, MetricKind):
            raise ValueError(f"unknown diversity metric kind: {self.kind!r}")
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise ValueError(f"diversity weight must be finite and >= 0, got {self.weight}")
        if self.sample_size < 1:
            raise ValueError(f"diversity sample size must be >= 1, got {self.sample_size}")


DistanceFn = Callable[[object, Sequence], list[float]]
"""``fn(x, others)``: the distance from ``x`` to each of ``others``, in order."""


def make_distance_fn(kind: MetricKind, index: AncestryIndex | None = None) -> DistanceFn | None:
    """Return an x-versus-peers distance over individuals, or ``None`` for ``NONE``.

    Individuals only need ``genome`` / ``trash`` / ``node`` attributes.  The
    genealogical metric asks ``index`` one batched query per call and needs
    every queried node to be tracked there.
    """
    if kind is MetricKind.NONE:
        return None
    if kind is MetricKind.DOMAIN:
        return lambda x, others: [domain_distance(x.genome, o.genome) for o in others]
    if kind is MetricKind.TRASH_BITS:
        return lambda x, others: [tdist(x.trash, o.trash) for o in others]
    if kind is MetricKind.GENEALOGICAL_TREE:
        if index is None:
            raise ValueError("genealogical metric needs an ancestry index")
        return lambda x, others: index.gdist_many(x.node, [o.node for o in others])
    raise ValueError(f"unknown diversity metric kind: {kind!r}")


def draw_distinct_indices(
    rng: np.random.Generator, n: int, k: int, exclude: int = -1
) -> list[int]:
    """Draw ``k`` distinct indices from ``range(n)``, never ``exclude``.

    Uses simple rejection so the number of values consumed from ``rng``
    depends only on the draws themselves, not on container layout.
    """
    available = n - (1 if 0 <= exclude < n else 0)
    if k < 0 or k > available:
        raise ValueError(f"cannot draw {k} distinct indices from {available} available")
    picked: list[int] = []
    seen: set[int] = set()
    while len(picked) < k:
        j = int(rng.integers(n))
        if j == exclude or j in seen:
            continue
        seen.add(j)
        picked.append(j)
    return picked


def augmented_fitness(
    pool: Sequence,
    i: int,
    config: DiversityConfig,
    rng: np.random.Generator,
    distance_fn: DistanceFn,
) -> float:
    """Raw fitness of ``pool[i]`` plus the weighted mean distance to fresh peers.

    The peers are ``min(config.sample_size, len(pool) - 1)`` distinct other
    members of ``pool``, drawn from ``rng``; with no other member the raw
    fitness comes back unchanged.
    """
    x = pool[i]
    k = min(config.sample_size, len(pool) - 1)
    if k == 0:
        return float(x.raw_fitness)
    peers = [pool[j] for j in draw_distinct_indices(rng, len(pool), k, exclude=i)]
    return float(x.raw_fitness + config.weight * (sum(distance_fn(x, peers)) / k))
