"""Run one genediv benchmark workload and print its metrics.

    python3 benchmark/run.py --workload experiment --seed 7 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout: genediv is imported from ``src/`` next to
this directory, never from an installed copy.  ``--trace 0`` repeats whole
rounds for ``--seconds``, times the set-up in fresh interpreters between
them, and reports the end-to-end metrics; ``--trace 1``
runs one untraced round, then one round with every public layer function
wrapped, and reports the per-layer metrics.  ``--workload all`` runs each
workload in a fresh process, one after another.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 21  # set-ups timed per run, at least
PROBES_PER_ROUND = 3  # set-ups timed before each round after the first

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "gens_per_s": "1/s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
}


def import_genediv():
    """Import genediv from this checkout's ``src``; exit with an error if it is not there."""
    if not (SRC / "genediv" / "__init__.py").is_file():
        sys.exit(f"error: no genediv package under {SRC}; run from a genediv checkout")
    sys.path.insert(0, str(SRC))
    import genediv
    import genediv.cli  # noqa: F401  (the CLI entry point the workloads call)

    if Path(genediv.__file__).resolve().parent != (SRC / "genediv").resolve():
        sys.exit(f"error: imported genediv from {genediv.__file__}, not from {SRC}")
    return genediv


def setup_seconds(config: Path) -> float:
    """Import + config load + problem build, timed in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def report_round_notes(rounds, problems) -> None:
    for note in dict.fromkeys(n for r in rounds for n in r.notes):
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


def check_rounds(rounds, what: str = "rounds with the same inputs") -> list[str]:
    """Every check's findings, plus one if the rounds' outputs differ."""
    problems = [p for r in rounds for p in r.problems]
    digests = {r.digest.hexdigest() for r in rounds if r.failed == 0}
    if len(digests) > 1:
        problems.append(f"{what} produced different outputs")
    return problems


def reference_note(workload, rounds) -> None:
    """Compare the experiment CSV sums with the reference in the README."""
    if workload.name != "experiment" or rounds[0].failed:
        return
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    marker = f"reference sha256, --seed {workload.seed}:"
    if marker not in readme:
        print(f"csv sha256: no reference recorded for --seed {workload.seed}")
        return
    block = readme.split(marker, 1)[1].split("```")[1]
    want = {f[1]: f[0] for f in map(str.split, block.strip().splitlines()) if len(f) == 2}
    got = {n.split()[2]: n.split()[1] for n in rounds[0].notes if n.startswith("sha256 ")}
    print(f"csv sha256 vs README reference: {'match' if got == want else 'MISMATCH'}")


def run_workload(args) -> int:
    genediv = import_genediv()
    for key in [k for k in os.environ if k.startswith("GENEDIV_")]:
        del os.environ[key]  # the config file alone decides the run
    import spans
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](genediv, work, args.seed)
    try:
        workload.prepare()
        if args.trace:
            ref = workload.round()
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = workload.round()
            finally:
                tracer.uninstall()
            rounds = [ref, traced]
            problems = check_rounds(rounds, "the traced and the untraced round")
            tracer.write(WORK / f"spans-{args.workload}.npz")
            for name in tracer.absent:
                print(f"absent: {name} (metrics read 0)")
            metrics = tracer.per_layer()
            metrics["trace.overhead_pct"] = 100.0 * (traced.wall_s / ref.wall_s - 1.0)
            print(f"traced round {traced.wall_s:.3f} s, untraced {ref.wall_s:.3f} s; "
                  f"spans written to {WORK / f'spans-{args.workload}.npz'}")
            units = spans.PER_LAYER_UNITS
        else:
            # Set-ups are timed before, between and after the rounds, so that
            # their median samples the whole run: this machine's speed changes
            # in phases of seconds, and a burst of set-ups sees one phase.
            rounds, setups = [], []
            start = perf_counter()
            while True:
                began = perf_counter()
                count = PROBES_PER_ROUND if rounds else SETUP_PROBES // 2
                setups += [setup_seconds(workload.config_path) for _ in range(count)]
                rounds.append(workload.round())
                elapsed = perf_counter() - start
                if elapsed + (perf_counter() - began) > args.seconds:
                    break  # another round would overrun the measuring time
            while len(setups) < SETUP_PROBES:
                setups.append(setup_seconds(workload.config_path))
            elapsed = perf_counter() - start
            problems = check_rounds(rounds)
            reference_note(workload, rounds)
            done = [r for r in rounds if r.evo_s > 0]
            rates = [q for r in rounds for q in r.query_rates]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r.wall_s for r in rounds),
                "gens_per_s": statistics.median(r.gens / r.evo_s for r in done) if done else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "queries_per_s": max(rates) if rates else 0.0,
            }
            print(f"{len(rounds)} rounds, {len(setups)} set-ups and {len(rates)} query passes "
                  f"in {elapsed:.3f} s")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report_round_notes(rounds, problems)
    emit(not problems, sum(r.attempted for r in rounds), sum(r.failed for r in rounds),
         metrics, units)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {out.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, m in result["metrics"].items():
            metrics[f"{name}.{k}"] = m["value"]
            units[f"{name}.{k}"] = m["unit"]
    emit(correct, attempted, failed, metrics, units)
    return 0


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1000, help="base seed of the inputs (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
