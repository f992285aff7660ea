"""Diversity metrics and fitness shaping for the evolution engine.

Selection pressure toward diversity is applied by augmenting raw fitness:

    shaped(x) = raw(x) + weight * mean distance from x to a few random peers

Three interchangeable distance metrics are provided:

* ``domain`` -- behavioural distance between genomes (problem-specific).
* ``genealogical_tree`` -- normalised ancestry distance from the recorded
  genealogy (how far back the latest common ancestor sits).
* ``trash_bits`` -- normalised Hamming distance between neutral bit markers.

The ``none`` kind (or a zero weight) disables shaping entirely and, by
design, consumes no random numbers, so a disabled run is step-for-step
identical to one that never heard of diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .genealogy import AncestryIndex, GenealogyGraph
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


def make_distance_fn(
    kind: MetricKind,
    graph: GenealogyGraph | None = None,
    index: AncestryIndex | None = None,
) -> DistanceFn | None:
    """Return an x-versus-peers distance over individuals, or ``None`` for ``NONE``.

    Individuals only need ``genome`` / ``trash`` / ``node`` attributes.  The
    genealogical metric reads from ``index`` when given (one batched query
    per call), otherwise from ``graph``.
    """
    if kind is MetricKind.NONE:
        return None
    if kind is MetricKind.DOMAIN:
        return lambda x, others: [domain_distance(x.genome, o.genome) for o in others]
    if kind is MetricKind.TRASH_BITS:
        return lambda x, others: [tdist(x.trash, o.trash) for o in others]
    if kind is MetricKind.GENEALOGICAL_TREE:
        if index is not None:
            return lambda x, others: index.gdist_many(x.node, [o.node for o in others])
        if graph is None:
            raise ValueError("genealogical metric needs a genealogy graph or ancestry index")
        return lambda x, others: [graph.gdist(x.node, o.node) for o in others]
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


def sample_peers(
    population: Sequence, x: object, size: int, rng: np.random.Generator
) -> list:
    """Draw up to ``size`` distinct members of ``population`` other than ``x``.

    ``x`` is matched by object identity; if the population is too small the
    sample is simply every other member.
    """
    n = len(population)
    exclude = -1
    for i, member in enumerate(population):
        if member is x:
            exclude = i
            break
    available = n - (1 if exclude >= 0 else 0)
    k = min(size, available)
    return [population[i] for i in draw_distinct_indices(rng, n, k, exclude)]


def average_distance(
    x: object,
    sample: Sequence,
    kind: MetricKind,
    graph: GenealogyGraph | None = None,
    distance_fn: DistanceFn | None = None,
) -> float:
    """Mean distance from ``x`` to each member of ``sample`` under ``kind``."""
    if len(sample) == 0:
        raise ValueError("cannot average distances over an empty sample")
    fn = distance_fn if distance_fn is not None else make_distance_fn(kind, graph)
    if fn is None:
        return 0.0
    return sum(fn(x, sample)) / len(sample)


def augmented_fitness(
    x: object,
    population: Sequence,
    raw_fitness: float,
    config: DiversityConfig,
    rng: np.random.Generator,
    graph: GenealogyGraph | None = None,
    distance_fn: DistanceFn | None = None,
) -> float:
    """Raw fitness plus the weighted mean distance to freshly drawn peers.

    With the ``none`` kind or a zero weight this returns the raw fitness
    without touching ``rng`` at all, which keeps disabled runs bit-identical
    to plain ones.
    """
    if config.kind is MetricKind.NONE or config.weight == 0.0:
        return float(raw_fitness)
    peers = sample_peers(population, x, config.sample_size, rng)
    if not peers:
        return float(raw_fitness)
    fn = distance_fn if distance_fn is not None else make_distance_fn(config.kind, graph)
    mean_dist = sum(fn(x, peers)) / len(peers)
    return float(raw_fitness + config.weight * mean_dist)
