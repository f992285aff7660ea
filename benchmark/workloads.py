"""The three benchmark workloads.

Every workload repeats identical rounds: the inputs depend only on the base
seed, so each round must produce byte-identical outputs.  A round drives
genediv through its public entry points only (the CLI ``main``,
``run_evolution``, the ``GenealogyGraph`` queries and the log functions) and
checks what comes back with the independent code in ``checks.py``.

* ``experiment`` -- ``genediv run``: all four variants over three seeds,
  200 generations each, the CSV checks, and the ``none`` run of the first
  seed again through ``run_evolution``, which must reproduce its CSV rows.
  The only workload with independent (variant, seed) runs.
* ``genealogy-long`` -- one 2000-generation ``genealogical_tree`` run, where
  the ancestry index's ``add`` and ``gdist`` dominate.
* ``ancestry-query`` -- ``genediv dump-genealogy --variant none`` over 3000
  generations, the log read back, and a fixed batch of ``gdist``/``adist``/
  LCA queries over the whole history and the survivors.  No ancestry index
  and no shaping.

``queries_per_s`` times, on every workload, a batch of history pairs drawn
by ancestor-set size, log-spaced up to ``top``: toward the sizes the
workload's survivors carry, but about no higher than the genealogy of
every seed reaches (``checks.sized_pairs``).  On ``ancestry-query`` the
batch also holds every survivor pair.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

POPULATION = 20
WEIGHTS = {"none": 0.0, "domain": 1.0, "genealogical_tree": 4.0, "trash_bits": 2.0}
VARIANTS = tuple(WEIGHTS)

# Every key the program reads, pinned, so environment defaults cannot leak in
# and the independent checks know the arena and population they verify.
BASE_CONFIG = {
    "engine.population_size": str(POPULATION),
    "engine.mutation_prob": "0.2",
    "engine.crossover_prob": "0.3",
    "engine.tournament_size": "2",
    "engine.immigrants_per_gen": "2",
    "engine.tau": "32",
    "diversity.sample_size": "5",
    **{f"lambda.{v}": str(w) for v, w in WEIGHTS.items()},
    "arena.bounds": " ".join(map(str, checks.BOUNDS)),
    "arena.start": " ".join(map(str, checks.START)),
    "arena.obstacle": " ".join(map(str, checks.OBSTACLE)),
    "arena.goal": " ".join(map(str, checks.GOAL)),
    "mutation.sigma": "0.1",
    "step_norm": "l1",
}


@dataclass
class Round:
    """What one round measured, attempted and found."""

    wall_s: float = 0.0
    evo_s: float = 0.0
    gens: int = 0
    untimed_s: float = 0.0  # left out of wall_s: drawing the query batch, repeat passes
    query_rates: list[float] = field(default_factory=list)  # queries/s of each timed pass
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)


class Workload:
    """Shared set-up and program calls; subclasses define ``round``."""

    name = ""
    generations = 0
    variants: tuple[str, ...] = ()
    num_seeds = 1
    history_pairs = passes = 0  # the timed query batch: pairs, and times asked
    top = 0  # largest ancestor-set size the history pairs are drawn at
    candidates: int | None = None  # nodes sized to draw them from; None: every node

    def __init__(self, genediv, work: Path, seed: int) -> None:
        self.g = genediv
        self.work = work
        self.seed = seed
        self.config_path = work / f"{self.name}.cfg"
        self._history: list[tuple[int, int]] | None = None

    def prepare(self) -> None:
        """Write the config file every round (and the set-up probe) reads."""
        self.work.mkdir(parents=True, exist_ok=True)
        cfg = dict(BASE_CONFIG)
        cfg["run.variants"] = " ".join(self.variants)
        cfg["run.base_seed"] = str(self.seed)
        cfg["run.num_seeds"] = str(self.num_seeds)
        cfg["engine.generations"] = str(self.generations)
        self.config_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))

    def round(self) -> Round:
        raise NotImplementedError

    # -- program calls -----------------------------------------------

    def cli(self, r: Round, argv: list[str]) -> bool:
        """Run ``genediv`` with ``argv``; one attempted operation."""
        r.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.g.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            r.notes.append(f"genediv {argv[0]} raised {exc!r}")
            code = None
        if code != 0:
            r.failed += 1
            r.notes.append(f"genediv {' '.join(argv)} exited with {code}")
            return False
        return True

    def engine_config(self, variant: str):
        g = self.g
        return g.EngineConfig(
            population_size=POPULATION,
            generations=self.generations,
            mutation_prob=0.2,
            crossover_prob=0.3,
            tournament_size=2,
            immigrants_per_gen=2,
            tau=32,
            diversity=g.DiversityConfig(
                kind=g.MetricKind(variant), weight=WEIGHTS[variant], sample_size=5
            ),
        )

    def problem(self):
        g = self.g
        arena = g.Arena(
            bounds=g.Rect(*checks.BOUNDS),
            start=checks.START,
            goal=g.Rect(*checks.GOAL),
            obstacle=g.Rect(*checks.OBSTACLE),
        )
        return g.RoutingProblem(arena=arena, sigma=0.1, step_norm="l1")

    def evolve(self, r: Round, variant: str, seed: int):
        """One ``run_evolution``; one attempted operation, timed as evolution."""
        r.attempted += 1
        t0 = perf_counter()
        try:
            result = self.g.run_evolution(self.engine_config(variant), self.problem(), seed=seed)
        except Exception as exc:  # a crash is a failed operation
            r.failed += 1
            r.notes.append(f"run_evolution({variant}, seed={seed}) raised {exc!r}")
            return None
        r.evo_s += perf_counter() - t0
        r.gens += len(result.trace)
        for row in result.trace:
            r.digest.update(
                f"{row.generation},{row.mean_raw_fitness!r},{row.best_raw_fitness!r},"
                f"{row.mean_probe_diversity!r}\n".encode()
            )
            r.digest.update(np.ascontiguousarray(row.best_genome, dtype=float).tobytes())
        return result

    def query(self, r: Round, graph, ancestry: checks.Ancestry, pairs: list) -> None:
        """Answer ``gdist``, ``adist`` and LCA ``passes`` times for a batch of
        ``pairs`` and ``history_pairs`` pairs drawn from the whole history;
        check every answer against the DP.

        ``queries_per_s`` is the run's fastest pass: contention from other
        tenants of the machine only ever slows a pass, and it comes and goes
        in phases, so the median pass times the phase a run fell in (on the
        same six runs the median pass spread 0.47 across runs, the fastest
        0.13).  Later passes must repeat the first.
        ``wall_s`` counts the batch once: drawing it (done in the first round
        and reused, as every round has the same genealogy) and the repeat
        passes are left out.
        """
        if self._history is None:
            t0 = perf_counter()
            rng = np.random.default_rng([self.seed, self.history_pairs])
            self._history = checks.sized_pairs(ancestry, rng, self.history_pairs, self.top,
                                               self.candidates)
            r.untimed_s += perf_counter() - t0
        batch = pairs + self._history
        times, first = [], None
        for _ in range(self.passes):
            t0 = perf_counter()
            got = self.answer(r, graph, batch)
            times.append(perf_counter() - t0)
            if first is None:
                first = got
            elif got != first:
                r.problems.append(f"{self.name}: repeated queries gave different answers")
        r.query_rates += [3 * len(batch) / t for t in times]
        r.untimed_s += sum(times) - times[0]
        r.problems += checks.check_answers(self.name, ancestry, first)
        r.digest.update(repr(first).encode())

    def answer(self, r: Round, graph, pairs) -> list:
        """``(a, b, (gdist, adist, lca))`` per pair, asked kind by kind."""
        kinds = (("gdist", graph.gdist), ("adist", graph.adist),
                 ("latest_common_ancestor", graph.latest_common_ancestor))
        columns = [[self.ask(r, kind, fn, a, b) for a, b in pairs] for kind, fn in kinds]
        r.attempted += 3 * len(pairs)
        return [(a, b, got) for (a, b), got in zip(pairs, zip(*columns))]

    @staticmethod
    def ask(r: Round, kind: str, fn, a: int, b: int):
        """One query; a crash counts as a failed operation."""
        try:
            return fn(a, b)
        except Exception as exc:
            r.failed += 1
            r.notes.append(f"{kind}({a}, {b}) raised {exc!r}")
            return checks.FAILED


def graph_parents(graph) -> list[tuple[int, ...]]:
    return [tuple(graph.parents(n)) for n in range(len(graph))]


def pairs_of(nodes: list[int]) -> list[tuple[int, int]]:
    return [tuple(sorted(p)) for p in itertools.combinations(nodes, 2)]


class Experiment(Workload):
    """``genediv run``: 4 variants x 3 seeds x 200 generations per round,
    then the ``none`` run of the first seed again through ``run_evolution``,
    which must reproduce its CSV rows and whose genealogy is queried."""

    name = "experiment"
    generations = 200
    variants = VARIANTS
    num_seeds = 3
    history_pairs, passes, top = 2000, 50, 12

    def round(self) -> Round:
        r = Round()
        seeds = [self.seed + i for i in range(self.num_seeds)]
        out = self.work / "experiment-out"
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        ok = self.cli(r, ["run", "--config", str(self.config_path), "--out", str(out)])
        r.evo_s += perf_counter() - t0
        runs = len(self.variants) * len(seeds)
        r.attempted += runs
        if ok:
            r.gens += runs * self.generations
            r.problems += checks.check_experiment_csvs(
                out, self.variants, seeds, self.generations, POPULATION)
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                r.digest.update(data)
                r.notes.append(f"sha256 {hashlib.sha256(data).hexdigest()}  {path.name}")
        else:
            r.failed += runs

        result = self.evolve(r, "none", seeds[0])
        if result is not None:
            if ok:
                raw = (out / "raw_none.csv").read_text().splitlines()
                want = [line for line in raw[1:] if line.split(",")[1] == str(seeds[0])]
                mine = [f"none,{seeds[0]},{row.generation},{row.mean_raw_fitness:.6f},"
                        f"{row.best_raw_fitness:.6f},{row.mean_probe_diversity:.6f}"
                        for row in result.trace]
                if mine != want:
                    r.problems.append(f"run_evolution(none, seed={seeds[0]}) does not reproduce "
                                      "its rows of raw_none.csv")
            r.problems += checks.check_routing(self.name, result.trace, result.population)
            nodes = [m.node for m in result.population]
            ancestry = checks.Ancestry(graph_parents(result.graph), memo=nodes)
            # Survivor pairs are asked once, untimed: their cost differs from
            # seed to seed more than the history batch's.
            answers = self.answer(r, result.graph, pairs_of(nodes))
            r.problems += checks.check_answers(self.name, ancestry, answers)
            r.digest.update(repr(answers).encode())
            self.query(r, result.graph, ancestry, [])
        r.wall_s = perf_counter() - t0 - r.untimed_s
        return r


class GenealogyLong(Workload):
    """One ``genealogical_tree`` run of 2000 generations per round."""

    name = "genealogy-long"
    generations = 2000
    variants = ("genealogical_tree",)
    history_pairs, passes, top = 400, 60, 1024
    candidates = 1500

    def round(self) -> Round:
        r = Round()
        t0 = perf_counter()
        result = self.evolve(r, "genealogical_tree", self.seed)
        if result is not None:
            r.problems += checks.check_routing(self.name, result.trace, result.population)
            nodes = [m.node for m in result.population]
            ancestry = checks.Ancestry(graph_parents(result.graph), memo=nodes)
            # Survivors carry from a hundred to a few thousand ancestors
            # depending on the seed, so their queries would time the seed:
            # only their gdist is asked, as a check, untimed.
            pairs = pairs_of(nodes)
            answers = [(a, b, (self.ask(r, "gdist", result.graph.gdist, a, b),
                               checks.FAILED, checks.FAILED)) for a, b in pairs]
            r.attempted += len(pairs)
            r.problems += checks.check_answers(self.name, ancestry, answers)
            r.digest.update(repr(answers).encode())
            dist = np.array([[ancestry.answer(a, b)[0] for b in nodes] for a in nodes])
            if not checks.probe_matches(dist, result.trace[-1].mean_probe_diversity):
                r.problems.append(f"{self.name}: final probe gdist matches no 5-member subset")
            bad = [row.generation for row in result.trace
                   if not 0.0 <= row.mean_probe_diversity <= 1.0]
            if bad:
                r.problems.append(f"{self.name}: probe gdist outside [0, 1] at generations {bad[:5]}")
            self.query(r, result.graph, ancestry, [])
        r.wall_s = perf_counter() - t0 - r.untimed_s
        return r


class AncestryQuery(Workload):
    """``dump-genealogy --variant none`` over 3000 generations, the same run
    in memory, and the log read back and queried."""

    name = "ancestry-query"
    generations = 3000
    variants = ("none",)
    history_pairs, passes, top = 5000, 12, 24

    def round(self) -> Round:
        r = Round()
        log = self.work / "ancestry-query.log"
        log.unlink(missing_ok=True)
        t0 = perf_counter()
        ok = self.cli(r, ["dump-genealogy", "--config", str(self.config_path), "--seed",
                          str(self.seed), "--out", str(log), "--variant", "none"])
        r.evo_s += perf_counter() - t0
        result = self.evolve(r, "none", self.seed)
        if ok and result is not None:
            r.gens += self.generations
            r.digest.update(log.read_bytes())
            survivors = [m.node for m in result.population]
            r.problems += checks.check_graph("in-memory graph", result.graph, log)
            r.problems += checks.check_routing(self.name, result.trace, result.population)
            del result  # hold one graph at a time, as a user reading a log would
            graph = self.g.read_genealogy_log(log)
            r.problems += checks.check_graph("log read back", graph, log)
            ancestry = checks.Ancestry(graph_parents(graph), memo=survivors)
            self.query(r, graph, ancestry, pairs_of(survivors))
        r.wall_s = perf_counter() - t0 - r.untimed_s
        return r


WORKLOADS = {w.name: w for w in (Experiment, GenealogyLong, AncestryQuery)}
