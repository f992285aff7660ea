import dataclasses
import math

import numpy as np
import pytest

from genediv import DiversityConfig, EngineConfig, MetricKind, run_evolution
from genediv.routing import (
    DEFAULT_ARENA,
    GENOME_LENGTH,
    STEP_NORMS,
    Arena,
    Rect,
    RoutingProblem,
    SettingError,
    domain_distance,
    random_genome,
    segment_crosses_interior,
    simulate,
)
from oracles import reference_walk


def zeros(n=GENOME_LENGTH):
    return np.zeros((n, 2))


# ----------------------------------------------------------------------
# geometry primitives
# ----------------------------------------------------------------------

def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, float("nan"), 1.0, 1.0)


def test_rect_contains_is_closed():
    r = Rect(0.0, 0.0, 1.0, 1.0)
    assert r.contains(0.0, 0.0)
    assert r.contains(1.0, 0.5)
    assert not r.contains(1.0001, 0.5)


def test_arena_validation():
    bounds = Rect(0.0, 0.0, 1.0, 1.0)
    goal = Rect(0.8, 0.8, 0.9, 0.9)
    obstacle = Rect(0.4, 0.4, 0.6, 0.6)
    with pytest.raises(ValueError):
        Arena(bounds, (2.0, 0.5), goal, obstacle)
    with pytest.raises(ValueError):
        Arena(bounds, (0.1, 0.1), Rect(0.9, 0.9, 1.1, 1.1), obstacle)
    with pytest.raises(ValueError):
        Arena(bounds, (0.1, 0.1), goal, Rect(-0.1, 0.4, 0.6, 0.6))
    with pytest.raises(ValueError):
        Arena(bounds, (0.5, 0.5), goal, obstacle)  # start inside the obstacle


# Open space around the origin: no step from there of size <= 0.5 leaves the
# bounds or touches the obstacle, so the first step is the clamped action.
OPEN_ARENA = Arena(
    bounds=Rect(-1.0, -1.0, 1.0, 1.0),
    start=(0.0, 0.0),
    goal=Rect(0.9, 0.9, 1.0, 1.0),
    obstacle=Rect(0.9, -1.0, 1.0, -0.9),
)


def clamp_action(dx, dy, step_norm="l1"):
    """The first step of the one-action genome ``(dx, dy)``, taken by
    :func:`simulate` from the origin of :data:`OPEN_ARENA`."""
    trajectory = simulate(np.array([[dx, dy]]), OPEN_ARENA, step_norm).trajectory
    return tuple(trajectory[1].tolist())


def test_clamp_action_l1():
    assert clamp_action(0.3, 0.1) == (0.3, 0.1)
    dx, dy = clamp_action(0.6, 0.2)
    assert abs(dx) + abs(dy) == pytest.approx(0.5)
    assert dx / dy == pytest.approx(3.0)  # direction preserved
    dx, dy = clamp_action(-0.6, 0.6)
    assert abs(dx) + abs(dy) == pytest.approx(0.5)
    assert dx == pytest.approx(-dy)


def test_clamp_action_linf():
    assert clamp_action(0.5, 0.5, "linf") == (0.5, 0.5)
    dx, dy = clamp_action(0.8, 0.2, "linf")
    assert max(abs(dx), abs(dy)) == pytest.approx(0.5)
    assert dy == pytest.approx(0.125)


def test_clamp_action_rejects_bad_input():
    with pytest.raises(ValueError):
        clamp_action(float("nan"), 0.0)
    with pytest.raises(ValueError):
        clamp_action(0.1, 0.1, "l7")


def test_simulate_rejects_unknown_norm_as_setting():
    with pytest.raises(SettingError) as err:
        simulate(zeros(), DEFAULT_ARENA, "l7")
    assert err.value.field == "step_norm"
    assert str(err.value) == "unknown step norm 'l7' (expected one of ('l1', 'linf'))"


def test_segment_crossing_detection():
    rect = Rect(0.4, 0.0, 0.6, 0.8)
    assert segment_crosses_interior((0.1, 0.5), (0.9, 0.5), rect)
    assert segment_crosses_interior((0.45, 0.1), (0.55, 0.2), rect)  # fully inside
    # along the top edge: boundary contact only
    assert not segment_crosses_interior((0.3, 0.8), (0.7, 0.8), rect)
    # along the right edge
    assert not segment_crosses_interior((0.6, 0.1), (0.6, 0.9), rect)
    # passing above
    assert not segment_crosses_interior((0.1, 0.9), (0.9, 0.9), rect)


def test_segment_corner_contact():
    # exactly representable coordinates so the corner touch is exact
    rect = Rect(0.25, 0.0, 0.75, 0.5)
    # diagonal touching the top-left corner only
    assert not segment_crosses_interior((0.125, 0.375), (0.375, 0.625), rect)
    # diagonal passing through the corner region into the interior
    assert segment_crosses_interior((0.125, 0.625), (0.375, 0.375), rect)


def test_segment_crossing_degenerate_point():
    rect = Rect(0.4, 0.0, 0.6, 0.8)
    assert segment_crosses_interior((0.5, 0.4), (0.5, 0.4), rect)
    assert not segment_crosses_interior((0.4, 0.4), (0.4, 0.4), rect)


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------

def test_simulate_reaches_goal_over_the_wall():
    genome = zeros()
    genome[0] = (0.2, 0.3)     # -> (0.3, 0.8)
    genome[1] = (0.4, 0.0)     # -> (0.7, 0.8), grazing the obstacle's top edge
    genome[2] = (0.2, -0.15)   # -> (0.9, 0.65), inside the goal
    result = simulate(genome)
    assert result.raw_fitness == 8
    assert result.trajectory.shape == (11, 2)
    np.testing.assert_allclose(result.trajectory[3], [0.9, 0.65])
    np.testing.assert_allclose(result.trajectory[10], [0.9, 0.65])


def boundary_actions(count=180):
    """``count`` actions spread evenly round the L1 circle ``|dx| + |dy| = 0.5``."""
    actions = []
    for q in range(4):
        for s in range(count // 4):
            dx, dy = 0.5 * (1 - 4 * s / count), 0.5 * (4 * s / count)
            for _ in range(q):
                dx, dy = -dy, dx
            actions.append((dx, dy))
    return actions


def test_l1_optimum_is_8():
    # Round the top of the wall, the goal is first entered at step 3, so at
    # most 8 of the 10 steps end in it.
    genome = zeros()
    genome[:3] = [(0.2, 0.3), (0.45, 0.0), (0.0, -0.2)]
    result = simulate(genome)
    assert result.raw_fitness == 8
    np.testing.assert_allclose(result.trajectory[1:4], [(0.3, 0.8), (0.75, 0.8), (0.75, 0.6)])


def test_l1_goal_is_not_reached_in_two_steps():
    problem = RoutingProblem()
    actions = boundary_actions()
    assert len(actions) == 180
    assert all(abs(abs(dx) + abs(dy) - 0.5) < 1e-12 for dx, dy in actions)
    for first in actions:
        for second in actions:
            assert problem.evaluate(np.array([first, second])) == 0, (first, second)


def test_linf_reaches_the_goal_in_two_steps():
    # The bound of 8 belongs to l1: a max-norm step reaches farther.
    genome = zeros()
    genome[:2] = [(0.2, 0.5), (0.5, -0.3)]
    result = simulate(genome, DEFAULT_ARENA, "linf")
    assert result.raw_fitness == 9
    np.testing.assert_allclose(result.trajectory[1:3], [(0.3, 1.0), (0.8, 0.7)])


def test_simulate_rejects_moves_through_the_wall():
    genome = zeros()
    genome[0] = (0.5, 0.0)  # straight into the obstacle
    result = simulate(genome)
    np.testing.assert_allclose(result.trajectory[1], DEFAULT_ARENA.start)
    assert result.raw_fitness == 0


def test_simulate_rejects_moves_out_of_bounds():
    genome = zeros()
    genome[0] = (-0.2, 0.0)  # would land at x = -0.1
    result = simulate(genome)
    np.testing.assert_allclose(result.trajectory[1], DEFAULT_ARENA.start)


def test_simulate_clamps_oversized_actions():
    genome = zeros()
    genome[0] = (0.0, 3.0)  # clamped to (0.0, 0.5)
    result = simulate(genome)
    np.testing.assert_allclose(result.trajectory[1], [0.1, 1.0])


def test_simulate_scores_one_point_per_step_in_goal():
    arena = Arena(
        bounds=Rect(0.0, 0.0, 1.0, 1.0),
        start=(0.5, 0.5),
        goal=Rect(0.4, 0.4, 0.6, 0.6),
        obstacle=Rect(0.0, 0.0, 0.1, 0.1),
    )
    result = simulate(zeros(), arena)
    assert result.raw_fitness == 10  # steps 1..10 all end in the goal


def test_simulate_fitness_bounds():
    rng = np.random.default_rng(21)
    for _ in range(100):
        fitness = simulate(random_genome(rng)).raw_fitness
        assert 0 <= fitness <= 10


def test_simulate_rejects_bad_genome_shape():
    with pytest.raises(ValueError):
        simulate(np.zeros((10, 3)))


# ----------------------------------------------------------------------
# variation operators and distance
# ----------------------------------------------------------------------

def test_random_genome_shape_and_bounds():
    rng = np.random.default_rng(22)
    g = random_genome(rng)
    assert g.shape == (GENOME_LENGTH, 2)
    assert np.all(g >= -0.5) and np.all(g < 0.5)


def test_mutate_genome_perturbs_exactly_one_action():
    rng = np.random.default_rng(23)
    problem = RoutingProblem(sigma=0.1)
    for _ in range(100):
        g = random_genome(rng)
        h = problem.mutate(g, rng)
        differing_rows = np.any(g != h, axis=1)
        assert int(differing_rows.sum()) == 1
    with pytest.raises(ValueError):
        RoutingProblem(sigma=0.0)


def test_crossover_genome_takes_whole_actions():
    rng = np.random.default_rng(24)
    for _ in range(100):
        a = random_genome(rng)
        b = random_genome(rng)
        child = RoutingProblem().crossover(a, b, rng)
        for row, ra, rb in zip(child, a, b):
            assert np.array_equal(row, ra) or np.array_equal(row, rb)
    with pytest.raises(ValueError):
        RoutingProblem().crossover(a, b[:5], rng)


def test_domain_distance():
    a = zeros()
    b = zeros()
    b[0] = (0.1, -0.2)
    b[4] = (0.0, 0.3)
    assert domain_distance(a, b) == pytest.approx(0.6)
    assert domain_distance(a, a) == 0.0
    assert domain_distance(a, b) == domain_distance(b, a)
    with pytest.raises(ValueError):
        domain_distance(a, b[:3])


def test_routing_problem_validation_and_dispatch():
    problem = RoutingProblem()
    rng = np.random.default_rng(25)
    g = problem.random_genome(rng)
    assert problem.evaluate(g) == simulate(g).raw_fitness
    with pytest.raises(ValueError):
        RoutingProblem(step_norm="manhattan")
    with pytest.raises(ValueError):
        RoutingProblem(sigma=-1.0)


def _with_real(field, value):
    """The object that owns the real setting ``field``, built with ``value``."""
    bounds, goal, obstacle = DEFAULT_ARENA.bounds, DEFAULT_ARENA.goal, DEFAULT_ARENA.obstacle
    if field in ("mutation_prob", "crossover_prob"):
        return EngineConfig(**{field: value})
    if field == "weight":
        return DiversityConfig(MetricKind.DOMAIN, weight=value)
    if field == "sigma":
        return RoutingProblem(sigma=value)
    if field in ("start.x", "start.y"):
        start = (value, 0.5) if field == "start.x" else (0.1, value)
        return Arena(bounds, start, goal, obstacle)
    return Rect(**{"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0, field: value})


# Each real setting, a value in its range and one out of it (a coordinate's
# range is the finite numbers).
REAL_SETTINGS = [
    ("mutation_prob", 1, 1.5), ("crossover_prob", 0, -0.1), ("weight", 2, -0.5),
    ("sigma", 1, 0.0), ("x0", 0, -math.inf), ("y0", 0, -math.inf), ("x1", 1, -math.inf),
    ("y1", 1, -math.inf), ("start.x", 0.1, 1.5), ("start.y", 0.5, -0.5),
]


@pytest.mark.parametrize("field, in_range, out_of_range", REAL_SETTINGS)
def test_real_settings_are_decided_by_one_rule(field, in_range, out_of_range):
    # A bool used to build (a probability of 1, a weight of 1) and a string
    # to raise a bare TypeError from inside numpy or math.
    for value in (True, "0.5", math.nan, math.inf, out_of_range):
        with pytest.raises(SettingError) as err:
            _with_real(field, value)
        assert err.value.field == field.partition(".")[0], value


@pytest.mark.parametrize("field, in_range, out_of_range", REAL_SETTINGS)
def test_real_settings_take_ints_and_numpy_numbers(field, in_range, out_of_range):
    for value in (in_range, np.float64(in_range), np.float32(in_range)):
        _with_real(field, value)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
def test_routing_problem_rejects_bad_sigma(sigma):
    # A non-finite sigma would otherwise surface mid-run as a bad action.
    with pytest.raises(SettingError) as err:
        RoutingProblem(sigma=sigma)
    assert err.value.field == "sigma"


# ----------------------------------------------------------------------
# the step loop against the reference walker
# ----------------------------------------------------------------------

def assert_walk_matches_reference(problem, genome):
    """``evaluate`` and ``simulate`` agree with the reference walker bit for
    bit: fitness, trajectory and any error.  Returns the trajectory, or
    ``None`` when the genome is rejected."""
    arena, norm = problem.arena, problem.step_norm
    want_path = [arena.start]
    try:
        want = reference_walk(problem, genome, want_path)
    except ValueError as exc:
        for call in (lambda: problem.evaluate(genome), lambda: simulate(genome, arena, norm)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(exc)
        return None
    result = simulate(genome, arena, norm)
    assert result.raw_fitness == want
    assert result.trajectory.tobytes() == np.array(want_path, dtype=float).tobytes()
    assert problem.evaluate(genome) == want
    return result.trajectory


def _grazing_genomes(rng, count):
    """Actions on a 0.05 grid, so positions land on the obstacle's edges and
    corners and on the arena bounds, where a move is allowed or rejected by
    a boundary comparison."""
    return [rng.integers(-10, 11, size=(GENOME_LENGTH, 2)) * 0.05 for _ in range(count)]


@pytest.mark.parametrize("step_norm", ["l1", "linf"])
def test_evaluate_is_simulate_fitness(step_norm):
    rng = np.random.default_rng(26)
    side = Arena(
        bounds=Rect(0.0, 0.0, 1.0, 1.0),
        start=(0.4, 0.2),  # on the obstacle's left edge
        goal=Rect(0.6, 0.6, 1.0, 1.0),
        obstacle=Rect(0.4, 0.3, 0.6, 0.5),
    )
    grazed = 0
    for arena in (DEFAULT_ARENA, side):
        problem = RoutingProblem(arena=arena, step_norm=step_norm)
        genomes = [random_genome(rng) for _ in range(300)] + _grazing_genomes(rng, 300)
        for g in genomes:
            path = assert_walk_matches_reference(problem, g)
            edges = (arena.obstacle.x0, arena.obstacle.x1, arena.bounds.x0, arena.bounds.x1)
            grazed += bool(np.isin(path[1:, 0], edges).any())
    assert grazed > 100


def test_evaluate_rejects_what_simulate_rejects():
    nan, inf = float("nan"), float("inf")
    for step_norm in STEP_NORMS:
        problem = RoutingProblem(step_norm=step_norm)
        for row in [(0.1, nan), (0.1, inf), (0.1, -inf), (nan, 0.0), (inf, nan), (1e308, nan)]:
            genome = zeros()
            genome[3] = row
            assert assert_walk_matches_reference(problem, genome) is None
    with pytest.raises(ValueError, match="shape"):
        RoutingProblem().evaluate(np.zeros((10, 3)))


# Coordinates on a 1/8 grid are exact, so positions land exactly on the
# obstacle's edges and corners and moves run along its edges.
GRID_ARENA = Arena(
    bounds=Rect(0.0, 0.0, 1.0, 1.0),
    start=(0.25, 0.125),  # below the obstacle's bottom-left corner
    goal=Rect(0.75, 0.625, 1.0, 1.0),
    obstacle=Rect(0.25, 0.25, 0.75, 0.5),
)


def evolved_genomes(born):
    """Every individual of a short run of each kind, ``born`` recording them."""
    for seed, kind in enumerate(MetricKind):
        weight = 0.0 if kind is MetricKind.NONE else 1.0
        config = EngineConfig(population_size=10, generations=15,
                              diversity=DiversityConfig(kind, weight))
        run_evolution(config, seed=300 + seed)
    return [ind.genome for ind in born]


@pytest.mark.parametrize("step_norm", STEP_NORMS)
def test_step_loop_matches_reference_walker(step_norm, born):
    rng = np.random.default_rng(27)
    default = RoutingProblem(step_norm=step_norm)
    for genome in evolved_genomes(born):
        assert_walk_matches_reference(default, genome)
    for _ in range(300):  # clamped in either norm
        assert_walk_matches_reference(default, rng.uniform(-3.0, 3.0, size=(GENOME_LENGTH, 2)))

    grid = RoutingProblem(arena=GRID_ARENA, step_norm=step_norm)
    obstacle = GRID_ARENA.obstacle
    touched = 0
    for _ in range(600):
        genome = rng.integers(-4, 5, size=(GENOME_LENGTH, 2)) * 0.125
        path = assert_walk_matches_reference(grid, genome)
        on_x = np.isin(path[:, 0], (obstacle.x0, obstacle.x1))
        on_y = np.isin(path[:, 1], (obstacle.y0, obstacle.y1))
        touched += bool((on_x | on_y).any())
    assert touched > 300


# (start, action): a diagonal that touches one corner of GRID_ARENA's
# obstacle, and a move that slides along one of its edges.
CORNER_AND_EDGE_MOVES = [
    ((0.125, 0.375), (0.25, 0.25)),  # top-left corner
    ((0.625, 0.625), (0.25, -0.25)),  # top-right
    ((0.125, 0.375), (0.25, -0.25)),  # bottom-left
    ((0.625, 0.125), (0.25, 0.25)),  # bottom-right
    ((0.25, 0.25), (0.0, 0.25)),  # up the left edge
    ((0.5, 0.5), (0.25, 0.0)),  # along the top edge
    ((0.75, 0.5), (0.0, -0.25)),  # down the right edge
    ((0.25, 0.25), (0.5, 0.0)),  # along the bottom edge
]


@pytest.mark.parametrize("step_norm", STEP_NORMS)
@pytest.mark.parametrize("start, action", CORNER_AND_EDGE_MOVES)
def test_step_loop_matches_reference_at_corners_and_edges(step_norm, start, action):
    arena = dataclasses.replace(GRID_ARENA, start=start)
    problem = RoutingProblem(arena=arena, step_norm=step_norm)
    forth, back = np.array(action), -np.array(action)
    # Out and back along the move, a standstill, then the move with its axes
    # swapped, both ways.
    rows = [forth, back, forth, (0.0, 0.0), back[::-1], forth[::-1]] * 2
    path = assert_walk_matches_reference(problem, np.array(rows[:GENOME_LENGTH]))
    assert np.array_equal(path[1], np.add(start, action))  # the touching move is taken


@pytest.mark.parametrize("step_norm", STEP_NORMS)
def test_step_loop_matches_reference_on_signed_zeros_and_overflow(step_norm):
    big = np.finfo(float).max
    rows = [
        (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.25), (0.25, -0.0), (0.0, -0.125),
        # finite, but |dx| + |dy| overflows to inf
        (big, big), (-big, big), (big, -1e300), (1e308, 1e308),
    ]
    for arena in (DEFAULT_ARENA, GRID_ARENA):
        problem = RoutingProblem(arena=arena, step_norm=step_norm)
        for row in rows:
            for pos in (0, 4):
                genome = np.full((GENOME_LENGTH, 2), -0.0)
                genome[1] = (0.125, 0.0)
                genome[pos] = row
                assert assert_walk_matches_reference(problem, genome) is not None
