"""Output checks written apart from genediv, from its documented rules.

Nothing here imports genediv.  Each check returns a list of problems (empty
when the output is right), so a workload can report every fault it finds.

* Routing: a small arena simulator (L1 clamp to 0.5, reject-and-stay when a
  move leaves the closed bounds or crosses the obstacle's open interior, one
  point per step that ends in the closed goal) re-scores genomes.
* Ancestry: ancestor distances from the recorded parent lists by a dynamic
  program in reverse node order; ``adist``, latest common ancestor and
  ``gdist`` follow from them by their definitions.
* CSVs: headers, (seed, generation) coverage, value ranges, and
  ``aggregate.csv`` recomputed from the raw files.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
from pathlib import Path

import numpy as np

# The arena the benchmark writes into every config it hands to the program.
BOUNDS = (0.0, 0.0, 1.0, 1.0)
START = (0.1, 0.5)
OBSTACLE = (0.4, 0.0, 0.6, 0.8)
GOAL = (0.75, 0.3, 0.95, 0.7)
STEP_BUDGET = 0.5

FAILED = object()  # stands in for the answer of a query that raised

RAW_HEADER = ["variant", "seed", "generation", "mean_raw_fitness", "best_raw_fitness",
              "mean_probe_diversity"]
AGGREGATE_HEADER = ["variant", "generation", "mean_raw_fitness", "std_raw_fitness"]


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------

def _inside_closed(rect, x: float, y: float) -> bool:
    x0, y0, x1, y1 = rect
    return x0 <= x <= x1 and y0 <= y <= y1


def _open_interval(p: float, d: float, lo: float, hi: float):
    """Parameters t with ``lo < p + t*d < hi``, as an open interval
    (``None`` when empty; ``(-inf, inf)`` when the coordinate never moves
    and lies strictly inside)."""
    if d == 0.0:
        return (-math.inf, math.inf) if lo < p < hi else None
    a, b = (lo - p) / d, (hi - p) / d
    return (a, b) if a < b else (b, a)


def _crosses_open_interior(p, q, rect) -> bool:
    x0, y0, x1, y1 = rect
    ix = _open_interval(p[0], q[0] - p[0], x0, x1)
    iy = _open_interval(p[1], q[1] - p[1], y0, y1)
    if ix is None or iy is None:
        return False
    # Some t in the closed [0, 1] must lie in both open intervals.
    lo, hi = max(ix[0], iy[0]), min(ix[1], iy[1])
    return lo < hi and lo < 1.0 and hi > 0.0


def route_score(genome) -> int:
    """Fitness of a genome (rows of ``dx, dy``) in the benchmark's arena."""
    x, y = START
    score = 0
    for dx, dy in np.asarray(genome, dtype=float).tolist():
        size = abs(dx) + abs(dy)
        if size > STEP_BUDGET:
            scale = STEP_BUDGET / size
            dx, dy = dx * scale, dy * scale
        nx, ny = x + dx, y + dy
        if _inside_closed(BOUNDS, nx, ny) and not _crosses_open_interior((x, y), (nx, ny), OBSTACLE):
            x, y = nx, ny
        if _inside_closed(GOAL, x, y):
            score += 1
    return score


def check_routing(label: str, trace, population) -> list[str]:
    """Re-score every trace row's best genome and every final member."""
    problems = []
    for row in trace:
        mine = route_score(row.best_genome)
        if mine != row.best_raw_fitness:
            problems.append(f"{label}: generation {row.generation} best genome scores {mine}, "
                            f"program says {row.best_raw_fitness}")
            break
    for member in population:
        mine = route_score(member.genome)
        if mine != member.raw_fitness:
            problems.append(f"{label}: final member {member.node} scores {mine}, "
                            f"program says {member.raw_fitness}")
    best = max(population, key=lambda m: m.raw_fitness)
    if trace and trace[-1].best_raw_fitness != best.raw_fitness:
        problems.append(f"{label}: last trace row best {trace[-1].best_raw_fitness} is not the "
                        f"final population's best {best.raw_fitness}")
    return problems


# ----------------------------------------------------------------------
# ancestry
# ----------------------------------------------------------------------

class Ancestry:
    """Ancestor distances computed from parent lists.

    Only the nodes in ``memo`` (the survivors, queried again and again) keep
    their distance maps, so checking adds little to the process's memory.
    """

    def __init__(self, parents: list[tuple[int, ...]], memo=()) -> None:
        self.parents = parents
        self._keep = set(memo)
        self._memo: dict[int, dict[int, int]] = {}

    def distances(self, x: int, limit: int | None = None) -> dict[int, int] | None:
        """``{a: adist(a, x)}`` for every ancestor ``a`` of ``x``, ``x`` included;
        ``None`` as soon as more than ``limit`` ancestors turn up.

        Nodes are settled in decreasing id order: every child of a node has a
        larger id, so when a node is taken from the heap all paths through its
        children have been relaxed and its distance is final.
        """
        got = self._memo.get(x)
        if got is not None:
            return None if limit is not None and len(got) > limit else got
        dist = {x: 0}
        heap = [-x]
        while heap:
            n = -heapq.heappop(heap)
            d = dist[n] + 1
            for p in self.parents[n]:
                old = dist.get(p)
                if old is None:
                    dist[p] = d
                    heapq.heappush(heap, -p)
                    if limit is not None and len(dist) > limit:
                        return None
                elif d < old:
                    dist[p] = d
        if x in self._keep:
            self._memo[x] = dist
        return dist

    def answer(self, a: int, b: int) -> tuple[float, float, int | None]:
        """``(gdist(a, b), adist(a, b), latest_common_ancestor(a, b))``."""
        da, db = self.distances(a), self.distances(b)
        best = None  # (closeness, node) of the closest common ancestor
        small, large = (da, db) if len(da) <= len(db) else (db, da)
        for node, d in small.items():
            other = large.get(node)
            if other is not None:
                key = (min(d, other), node)
                if best is None or key < best:
                    best = key
        if a == b:
            gdist = 0.0
        elif best is None:
            gdist = 1.0
        else:
            depth = max(max(da.values()), max(db.values()))
            gdist = 0.0 if depth == 0 else best[0] / depth
        return gdist, db.get(a, math.inf), None if best is None else best[1]


def sized_pairs(ancestry: Ancestry, rng: np.random.Generator, count: int, top: int,
                candidates: int | None = None, per_level: int = 8):
    """``count`` node pairs whose nodes have ancestor sets (the node included)
    of log-spaced sizes 1, 1.4, 2, ..., ``top``, equally many per size.

    A query's cost grows with the ancestor sets it walks, and how large those
    are depends on the run: most nodes of a ``none`` genealogy carry 5-40
    ancestors, those of a long ``genealogical_tree`` run up to a few thousand.
    Uniform pairs would time the seed; fixed sizes give every genealogy of a
    workload the same mix of small and large queries, up to the large ones
    where query time is spent.  Every node is sized, or only ``candidates``
    nodes drawn with ``rng`` (sizing every node of a long
    ``genealogical_tree`` run would take minutes).  Each size level draws,
    with ``rng``, from the sized nodes of the size nearest to it, and of the
    next nearest sizes while it has fewer than ``per_level`` nodes.
    """
    n = len(ancestry.parents)
    if candidates is None or candidates >= n:
        sample = range(n)
    else:
        sample = rng.choice(n, size=candidates, replace=False).tolist()
    by_size: dict[int, list[int]] = {}
    for x in sample:
        dist = ancestry.distances(x, limit=2 * top)
        if dist is not None:
            by_size.setdefault(len(dist), []).append(x)
    steps = math.ceil(2 * math.log2(top))
    levels = sorted({round(top ** (i / steps)) for i in range(steps + 1)})
    pools = []
    for t in levels:
        pool: list[int] = []
        for size in sorted(by_size, key=lambda s: (abs(math.log(s / t)), s)):
            if len(pool) >= per_level:
                break
            pool += by_size[size]
        pools.append(pool)
    nodes = [pool[int(rng.integers(len(pool)))]
             for pool in itertools.islice(itertools.cycle(pools), 2 * count)]
    return [tuple(sorted(p)) for p in zip(nodes[::2], nodes[1::2])]


def check_answers(label: str, ancestry: Ancestry, answers) -> list[str]:
    """Compare program answers ``(a, b, (gdist, adist, lca))`` with the DP's."""
    problems = []
    for a, b, got in answers:
        want = ancestry.answer(a, b)
        for kind, g, w in zip(("gdist", "adist", "latest_common_ancestor"), got, want):
            if g is not FAILED and g != w:
                problems.append(f"{label}: {kind}({a}, {b}) = {g!r}, expected {w!r}")
        if len(problems) >= 5:
            break
    return problems


def log_records(path: Path):
    """``(node, birth generation, op kind, parents)`` per line of a genealogy
    log, read one line at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split(",")
            yield int(fields[0]), int(fields[1]), fields[2], tuple(int(f) for f in fields[3:])


def check_graph(label: str, graph, log: Path) -> list[str]:
    """``graph`` must hold the log's nodes in order, with their parents, op
    kinds and birth generations."""
    count = 0
    for node, gen, kind, parents in log_records(log):
        if node != count:
            return [f"{label}: log line {count + 1} is node {node}"]
        if node >= len(graph):
            return [f"{label}: {len(graph)} nodes, log has more"]
        got = (tuple(graph.parents(node)), graph.kind(node).value, graph.birth_generation(node))
        if got != (parents, kind, gen):
            return [f"{label}: node {node} is {got}, log has {(parents, kind, gen)}"]
        count += 1
    if count != len(graph):
        return [f"{label}: {len(graph)} nodes, log has {count}"]
    return []


# ----------------------------------------------------------------------
# diversity probe
# ----------------------------------------------------------------------

def probe_matches(distance: np.ndarray, value: float) -> bool:
    """True when some 5-member subset of the population has mean pairwise
    distance ``value`` (the trace's diversity probe picks such a subset)."""
    combos = np.array(list(itertools.combinations(range(len(distance)), 5)))
    pairs = list(itertools.combinations(range(5), 2))
    means = sum(distance[combos[:, i], combos[:, j]] for i, j in pairs) / len(pairs)
    return bool(np.any(np.abs(means - value) <= 1e-9 * max(1.0, abs(value))))


# ----------------------------------------------------------------------
# experiment CSVs
# ----------------------------------------------------------------------

def _read_csv(path: Path, header: list[str], problems: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        problems.append(f"{path.name}: header {rows[0] if rows else None} != {header}")
        return []
    return rows[1:]


def check_experiment_csvs(out: Path, variants, seeds, generations: int,
                          population: int) -> list[str]:
    """Schema, coverage, ranges and the aggregate recomputed from raw rows."""
    problems: list[str] = []
    expected_files = {f"raw_{v}.csv" for v in variants} | {"aggregate.csv"}
    present = {p.name for p in out.iterdir()}
    if present != expected_files:
        problems.append(f"output files {sorted(present)} != {sorted(expected_files)}")
        return problems
    means: dict[str, list[list[float]]] = {}
    for v in variants:
        rows = _read_csv(out / f"raw_{v}.csv", RAW_HEADER, problems)
        keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
        want = [(v, s, g) for s in seeds for g in range(1, generations + 1)]
        if keys != want:
            problems.append(f"raw_{v}.csv: (variant, seed, generation) rows do not cover "
                            f"seeds {seeds} x generations 1..{generations} in order")
            continue
        per_seed = [[] for _ in seeds]
        for i, r in enumerate(rows):
            mean, best, probe = float(r[3]), float(r[4]), float(r[5])
            per_seed[i // generations].append(mean)
            where = f"raw_{v}.csv row {i + 2}"
            if not (0.0 <= mean <= best <= 10.0):
                problems.append(f"{where}: need 0 <= mean {mean} <= best {best} <= 10")
            if best != round(best) or abs(mean * population - round(mean * population)) > 1e-4:
                problems.append(f"{where}: fitness {mean}/{best} is not a whole-point score")
            if probe < 0.0 or (v in ("genealogical_tree", "trash_bits") and probe > 1.0):
                problems.append(f"{where}: probe diversity {probe} out of range for {v}")
            if len(problems) > 10:
                return problems
        means[v] = per_seed
    rows = _read_csv(out / "aggregate.csv", AGGREGATE_HEADER, problems)
    keys = [(r[0], int(r[1])) for r in rows]
    want = [(v, g) for v in variants for g in range(1, generations + 1)]
    if keys != want:
        problems.append("aggregate.csv: (variant, generation) rows do not cover every "
                        f"variant x generations 1..{generations} in order")
        return problems
    for r in rows:
        v, g = r[0], int(r[1])
        if v not in means:
            continue
        values = [per_seed[g - 1] for per_seed in means[v]]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((x - mean) ** 2 for x in values) / len(values))
        if abs(float(r[2]) - mean) > 1.01e-6 or abs(float(r[3]) - std) > 1.01e-6:
            problems.append(f"aggregate.csv {v} generation {g}: {r[2]}, {r[3]} but raw rows "
                            f"give mean {mean:.6f}, population std {std:.6f}")
            break
    return problems
