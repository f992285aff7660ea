"""Robot-routing benchmark: steer a point robot around a wall to a goal.

A candidate solution is a sequence of ten planar displacement actions.  The
robot starts at a fixed point inside a rectangular arena that contains one
axis-aligned rectangular obstacle and one rectangular goal region.  Each
action is clamped to a step-size budget, then applied atomically: if the
resulting straight-line move would leave the arena or cut through the
obstacle's interior, the robot simply stays where it is for that step
(reject-and-stay collision handling).  After every step the robot earns one
fitness point if it currently sits inside the goal region, so fitness ranges
from 0 to 10 and rewards reaching the goal early and staying there.

The module also provides the variation operators used by the evolution
engine (random genomes, single-action Gaussian mutation, uniform crossover)
and a behavioural distance between genomes (summed L1 distance between
corresponding actions).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

GENOME_LENGTH = 10
STEP_BUDGET = 0.5
DEFAULT_SIGMA = 0.1

STEP_NORMS = ("l1", "linf")


class SettingError(ValueError):
    """A validation failure; ``field`` names the setting at fault."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def require_integer(field: str, value, at_least: int) -> None:
    """Raise a :class:`SettingError` for ``field`` unless ``value`` is a count:
    an integer of at least ``at_least`` (numpy integers pass, ``bool`` does not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SettingError(field, f"{field} must be an integer, got {value!r}")
    if value < at_least:
        raise SettingError(field, f"{field} must be >= {at_least}, got {value}")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with ``x0 <= x1`` and ``y0 <= y1``."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"rectangle coordinate {name} must be finite, got {v}")
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"degenerate rectangle: ({self.x0}, {self.y0})..({self.x1}, {self.y1})")

    def contains(self, x: float, y: float) -> bool:
        """Point-in-rectangle test, boundary included."""
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
        )


@dataclass(frozen=True)
class Arena:
    """Playing field: outer bounds, start point, goal region, one obstacle.

    An inconsistent field raises a :class:`SettingError` naming it.
    """

    bounds: Rect
    start: tuple[float, float]
    goal: Rect
    obstacle: Rect

    def __post_init__(self) -> None:
        if not self.bounds.contains(*self.start):
            raise SettingError("start", f"start {self.start} lies outside the arena bounds")
        if not self.bounds.contains_rect(self.goal):
            raise SettingError("goal", "goal region must lie inside the arena bounds")
        if not self.bounds.contains_rect(self.obstacle):
            raise SettingError("obstacle", "obstacle must lie inside the arena bounds")
        if segment_crosses_interior(self.start, self.start, self.obstacle):
            raise SettingError("start", f"start {self.start} lies inside the obstacle")


def segment_crosses_interior(
    p: tuple[float, float], q: tuple[float, float], rect: Rect
) -> bool:
    """True when the segment from ``p`` to ``q`` intersects the open interior
    of ``rect``.  Touching the boundary (edges and corners) does not count,
    so paths may graze or slide along a wall.
    """
    px, py = p
    qx, qy = q
    lo, hi = 0.0, 1.0
    for p0, d, a0, a1 in ((px, qx - px, rect.x0, rect.x1), (py, qy - py, rect.y0, rect.y1)):
        if d == 0.0:
            if not a0 < p0 < a1:
                return False
        else:
            ta = (a0 - p0) / d
            tb = (a1 - p0) / d
            if ta > tb:
                ta, tb = tb, ta
            if ta > lo:
                lo = ta
            if tb < hi:
                hi = tb
            if lo >= hi:
                return False
    return True


DEFAULT_ARENA = Arena(
    bounds=Rect(0.0, 0.0, 1.0, 1.0),
    start=(0.1, 0.5),
    goal=Rect(0.75, 0.3, 0.95, 0.7),
    obstacle=Rect(0.4, 0.0, 0.6, 0.8),
)


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory (start plus one position per step) and the fitness earned."""

    trajectory: np.ndarray
    raw_fitness: int


def simulate(genome: np.ndarray, arena: Arena = DEFAULT_ARENA, step_norm: str = "l1") -> SimulationResult:
    """Run a genome through the arena and score it.

    Every action is clamped, then either applied in full or rejected in full:
    the move is rejected when the destination leaves the (closed) arena
    bounds or when the straight line to it passes through the obstacle's
    open interior.  One fitness point accrues per step that ends inside the
    (closed) goal region.  An unknown ``step_norm`` raises the
    :class:`SettingError` of :class:`RoutingProblem`.
    """
    trajectory = [arena.start]
    fitness = RoutingProblem(arena, step_norm=step_norm).evaluate(genome, trajectory)
    return SimulationResult(np.array(trajectory, dtype=float), fitness)


def domain_distance(g1: np.ndarray, g2: np.ndarray) -> float:
    """Behavioural distance: sum of L1 distances between matching actions."""
    if g1.shape != g2.shape:
        raise ValueError(f"genome shape mismatch: {g1.shape} != {g2.shape}")
    return float(np.abs(g1 - g2).sum())


def random_genome(rng: np.random.Generator) -> np.ndarray:
    """Fresh genome with every component uniform in [-0.5, 0.5)."""
    return rng.uniform(-STEP_BUDGET, STEP_BUDGET, size=(GENOME_LENGTH, 2))


@dataclass(frozen=True)
class RoutingProblem:
    """Bundles the arena with operator parameters for the evolution engine.

    A ``sigma`` or ``step_norm`` out of range raises a :class:`SettingError`
    naming it.
    """

    arena: Arena = DEFAULT_ARENA
    sigma: float = DEFAULT_SIGMA
    step_norm: str = "l1"
    # start, then bounds, obstacle and goal as x0, y0, x1, y1: plain floats
    _floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.step_norm not in STEP_NORMS:
            raise SettingError(
                "step_norm", f"unknown step norm {self.step_norm!r} (expected one of {STEP_NORMS})"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise SettingError("sigma", f"sigma must be finite and > 0, got {self.sigma}")
        floats = list(self.arena.start)
        for r in (self.arena.bounds, self.arena.obstacle, self.arena.goal):
            floats += (r.x0, r.y0, r.x1, r.y1)
        object.__setattr__(self, "_floats", tuple(map(float, floats)))

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return random_genome(rng)

    def mutate(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Copy ``genome`` and add Gaussian noise to one uniformly chosen action."""
        out = genome.copy()
        idx = int(rng.integers(len(out)))
        out[idx] += rng.normal(0.0, self.sigma, size=2)
        return out

    def crossover(self, g1: np.ndarray, g2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniform crossover: each action comes from either parent with prob. 1/2."""
        if g1.shape != g2.shape:
            raise ValueError(f"genome shape mismatch: {g1.shape} != {g2.shape}")
        take_first = rng.random(len(g1)) < 0.5
        return np.where(take_first[:, None], g1, g2)

    def evaluate(self, genome: np.ndarray, trajectory: list | None = None) -> int:
        """The fitness of ``genome`` (rows of ``dx, dy``) by the rule of
        :func:`simulate`, appending each step's position to ``trajectory``
        unless it is ``None``.  An action larger than :data:`STEP_BUDGET` in
        the step norm (``|dx| + |dy|`` or ``max(|dx|, |dy|)``) is first scaled
        down to it, direction kept.

        The obstacle test is the slab test of :func:`segment_crosses_interior`
        inlined: same arithmetic, x before y.  A move whose endpoints both lie
        at or beyond one side of the obstacle skips it, as by monotone
        rounding its entry time there is at least 1, or both times at most 0.
        """
        genome = np.asarray(genome, dtype=float)
        if genome.ndim != 2 or genome.shape[1] != 2:
            raise ValueError(f"genome must have shape (n, 2), got {genome.shape}")
        x, y, bx0, by0, bx1, by1, ox0, oy0, ox1, oy1, gx0, gy0, gx1, gy1 = self._floats
        l1 = self.step_norm == "l1"
        fitness = 0
        for dx, dy in genome.tolist():
            # Within the budget in l1 means finite and within it in either norm.
            size = abs(dx) + abs(dy)
            if not size <= STEP_BUDGET:
                if not (math.isfinite(dx) and math.isfinite(dy)):
                    raise ValueError(f"action components must be finite, got ({dx}, {dy})")
                if not l1:
                    size = max(abs(dx), abs(dy))
                if size > STEP_BUDGET:
                    scale = STEP_BUDGET / size
                    dx, dy = dx * scale, dy * scale
            nx, ny = x + dx, y + dy
            if bx0 <= nx <= bx1 and by0 <= ny <= by1:
                if (
                    (x <= ox0 and nx <= ox0)
                    or (x >= ox1 and nx >= ox1)
                    or (y <= oy0 and ny <= oy0)
                    or (y >= oy1 and ny >= oy1)
                ):
                    x, y = nx, ny
                else:
                    # A coordinate that does not move lies strictly inside its
                    # slab here.  A slab only narrows the interval [lo, hi].
                    lo, hi = 0.0, 1.0
                    d = nx - x
                    if d != 0.0:
                        ta, tb = (ox0 - x) / d, (ox1 - x) / d
                        if ta > tb:
                            ta, tb = tb, ta
                        if ta > lo:
                            lo = ta
                        if tb < hi:
                            hi = tb
                    d = ny - y
                    if d != 0.0:
                        ta, tb = (oy0 - y) / d, (oy1 - y) / d
                        if ta > tb:
                            ta, tb = tb, ta
                        if ta > lo:
                            lo = ta
                        if tb < hi:
                            hi = tb
                    if lo >= hi:
                        x, y = nx, ny
            if trajectory is not None:
                trajectory.append((x, y))
            if gx0 <= x <= gx1 and gy0 <= y <= gy1:
                fitness += 1
        return fitness
