"""In-memory span tracer that wraps genediv's public functions from outside.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans live in flat arrays while the run is
going and are written out once, at the end.  Per-layer numbers are derived
from them: call counts, mean time per call, totals, and self time (a span's
duration minus the durations of its direct child spans).

Wrapping replaces the public name in every genediv module that holds it, so
calls made through ``from .x import name`` bindings are seen too.  A name a
later refactor removes is recorded as absent and its metrics read 0.  The
wrappers read only the clock: they draw nothing from any random stream, so a
traced round must produce byte-identical outputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, attribute path) of every public function or method the traced
# run wraps, grouped by layer.
TARGETS = (
    ("config", "load_config"),
    ("cli", "main"),
    ("experiment", "run_experiment"),
    ("engine", "run_evolution"),
    ("engine", "step_generation"),
    ("diversity", "augmented_fitness"),
    ("diversity", "draw_distinct_indices"),
    ("genealogy", "GenealogyGraph.record_birth"),
    ("genealogy", "GenealogyGraph.gdist"),
    ("genealogy", "GenealogyGraph.adist"),
    ("genealogy", "GenealogyGraph.latest_common_ancestor"),
    ("genealogy", "AncestryIndex.add"),
    ("genealogy", "AncestryIndex.gdist"),
    ("genealogy", "AncestryIndex.retain"),
    ("genealogy", "write_genealogy_log"),
    ("genealogy", "read_genealogy_log"),
    ("routing", "simulate"),
    ("routing", "domain_distance"),
    ("trash_genes", "tdist"),
)

# Spans that are one pairwise distance evaluation under some metric.
DISTANCE_SPANS = (
    "routing.domain_distance",
    "trash_genes.tdist",
    "genealogy.AncestryIndex.gdist",
    "genealogy.GenealogyGraph.gdist",
)

VARIANTS = ("none", "domain", "genealogical_tree", "trash_bits")

# Per-layer metric name -> unit, in report order.  Every name is reported on
# every workload; a layer a workload never calls reads 0.
PER_LAYER_UNITS = {
    "routing.simulate.calls": "count",
    "routing.simulate.us": "us",
    "routing.domain_distance.calls": "count",
    "routing.domain_distance.us": "us",
    "trash_genes.tdist.calls": "count",
    "trash_genes.tdist.us": "us",
    "diversity.draw_distinct_indices.calls": "count",
    "diversity.draw_distinct_indices.us": "us",
    "diversity.augmented_fitness.calls": "count",
    "diversity.augmented_fitness.self_us": "us",
    "diversity.distance.calls": "count",
    "genealogy.AncestryIndex.add.calls": "count",
    "genealogy.AncestryIndex.add.us": "us",
    "genealogy.AncestryIndex.gdist.calls": "count",
    "genealogy.AncestryIndex.gdist.us": "us",
    "genealogy.AncestryIndex.retain.us": "us",
    "genealogy.GenealogyGraph.record_birth.calls": "count",
    "genealogy.GenealogyGraph.gdist.us": "us",
    "genealogy.GenealogyGraph.adist.us": "us",
    "genealogy.GenealogyGraph.latest_common_ancestor.us": "us",
    "genealogy.write_genealogy_log.s": "s",
    "genealogy.read_genealogy_log.s": "s",
    "engine.step_generation.calls": "count",
    "engine.step_generation.p50_ms": "ms",
    "engine.step_generation.p99_ms": "ms",
    "engine.step_generation.self_s": "s",
    **{f"engine.run_evolution.{v}.s": "s" for v in VARIANTS},
    "experiment.run_experiment.self_s": "s",
    "config.load_config.s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Collects spans from wrapped genediv functions; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, name_of_call=None):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid if name_of_call is None else self._name_id(name_of_call(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                starts[sid] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "genediv" or n.startswith("genediv."))
        ]
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"genediv.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            name_of_call = _run_evolution_name if path == "run_evolution" else None
            wrapper = self._wrap(original, name, name_of_call)
            if outer:  # a method: patch the class attribute
                self._patch(owner, attr, original, wrapper)
            else:  # a function: patch every module-level binding of it
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- derived numbers -----------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the traced round."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        def select(span: str) -> np.ndarray:
            nid = self._name_ids.get(span)
            return np.zeros(len(name), dtype=bool) if nid is None else name == nid

        def calls(span: str) -> int:
            return int(select(span).sum())

        def mean_us(span: str, values=dur) -> float:
            sel = select(span)
            return float(values[sel].mean()) / 1e3 if sel.any() else 0.0

        def total_s(span: str, values=dur) -> float:
            return float(values[select(span)].sum()) / 1e9

        m: dict[str, float] = {}
        for span in ("routing.simulate", "routing.domain_distance", "trash_genes.tdist",
                     "diversity.draw_distinct_indices", "genealogy.AncestryIndex.add",
                     "genealogy.AncestryIndex.gdist"):
            m[f"{span}.calls"] = calls(span)
            m[f"{span}.us"] = mean_us(span)
        m["diversity.augmented_fitness.calls"] = calls("diversity.augmented_fitness")
        m["diversity.augmented_fitness.self_us"] = mean_us("diversity.augmented_fitness", self_time)
        m["diversity.distance.calls"] = self._shaping_distance_calls(name, parent)
        m["genealogy.AncestryIndex.retain.us"] = mean_us("genealogy.AncestryIndex.retain")
        m["genealogy.GenealogyGraph.record_birth.calls"] = calls("genealogy.GenealogyGraph.record_birth")
        for q in ("gdist", "adist", "latest_common_ancestor"):
            m[f"genealogy.GenealogyGraph.{q}.us"] = mean_us(f"genealogy.GenealogyGraph.{q}")
        m["genealogy.write_genealogy_log.s"] = total_s("genealogy.write_genealogy_log")
        m["genealogy.read_genealogy_log.s"] = total_s("genealogy.read_genealogy_log")
        steps = select("engine.step_generation")
        m["engine.step_generation.calls"] = calls("engine.step_generation")
        if steps.any():
            p50, p99 = np.percentile(dur[steps], [50, 99]) / 1e6
            m["engine.step_generation.p50_ms"] = float(p50)
            m["engine.step_generation.p99_ms"] = float(p99)
        else:
            m["engine.step_generation.p50_ms"] = m["engine.step_generation.p99_ms"] = 0.0
        m["engine.step_generation.self_s"] = total_s("engine.step_generation", self_time)
        for v in VARIANTS:
            m[f"engine.run_evolution.{v}.s"] = mean_us(f"engine.run_evolution.{v}") / 1e6
        m["experiment.run_experiment.self_s"] = total_s("experiment.run_experiment", self_time)
        m["config.load_config.s"] = total_s("config.load_config")
        return m

    def _shaping_distance_calls(self, name: np.ndarray, parent: np.ndarray) -> int:
        """Distance evaluations made inside ``step_generation`` (shaping), as
        opposed to the per-generation diversity probe made outside it."""
        step = self._name_ids.get("engine.step_generation")
        ids = [self._name_ids[s] for s in DISTANCE_SPANS if s in self._name_ids]
        if step is None or not ids:
            return 0
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        inside = has_parent & (name[up] == step)
        while True:  # one pass per nesting level below step_generation
            grown = inside | (has_parent & inside[up])
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int((np.isin(name, ids) & inside).sum())

    def write(self, path: Path) -> None:
        """Write every span (arrays plus the name table) to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def _run_evolution_name(args, kwargs) -> str:
    """Span name of a ``run_evolution`` call, suffixed with its variant."""
    config = kwargs.get("config", args[0] if args else None)
    kind = getattr(getattr(getattr(config, "diversity", None), "kind", None), "value", "unknown")
    return f"engine.run_evolution.{kind}"
