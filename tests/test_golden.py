"""Fixed-reference check of a reduced experiment's CSV output.

``genediv run`` over all four variants, seeds 1000-1001 and 200
generations must reproduce the sha256 sums pinned below.  A rerun-only
determinism check (acceptance criterion 7) cannot see a change that alters
the random stream or the arithmetic; this one can, in a few seconds.
"""

from __future__ import annotations

import hashlib
import os

from genediv.cli import main

# Every key the run reads, pinned to the shipped defaults.
CONFIG = """\
run.variants = none domain genealogical_tree trash_bits
run.base_seed = 1000
run.num_seeds = 2
engine.population_size = 20
engine.generations = 200
engine.mutation_prob = 0.2
engine.crossover_prob = 0.3
engine.tournament_size = 2
engine.immigrants_per_gen = 2
engine.tau = 32
diversity.sample_size = 5
lambda.domain = 1.0
lambda.genealogical_tree = 4.0
lambda.trash_bits = 2.0
arena.bounds = 0.0 0.0 1.0 1.0
arena.start = 0.1 0.5
arena.obstacle = 0.4 0.0 0.6 0.8
arena.goal = 0.75 0.3 0.95 0.7
mutation.sigma = 0.1
step_norm = l1
"""

GOLDEN_SHA256 = {
    "aggregate.csv": "3eadd742685f6c5a24bb8e43b0463d161ebb2ea8c1183cf364da1b90d6697a92",
    "raw_none.csv": "d1a6aa392e9248871484aee96a59ead4da6aefe01bfdb38111d5cc5f07fc5664",
    "raw_domain.csv": "e093f4318d44d19877fb78b96479bde44c4658a2990967b29347d293cce81315",
    "raw_genealogical_tree.csv": "b0d45169ed63c795e7d3891ca9087d2510fa1afe892a7b14f3ef59dd034c98d3",
    "raw_trash_bits.csv": "620bcffb6081c39234641181cc57965005eaaede37ae86c640d550fd4b6af0f9",
}


def test_reduced_run_matches_golden_sha256(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("GENEDIV_")]:
        monkeypatch.delenv(key)  # the config file alone decides the run
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
