"""Every script in ``demos/`` runs to completion and prints what it printed
when its reference sum was recorded (numpy 2.4.6).

A demo's output is a deterministic function of its fixed seeds, so a change
to the random stream, the arithmetic or the public API it calls shows up here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_trash_bit_markers.py": "e4422aa43aac9cdf079a37623bfd675bfcd46bc61ae499e0f720d567c1f3e6c8",
    "02_genealogical_distances.py": "0ed96a28e00abdaaea57c972729fe705da4f64272cb44d2df34064b21ecab12c",
    "03_routing_scenario.py": "66a10c1d959aa676d487bd8c39fcd5fa857ce48450f6400399fd175fe66be8a0",
    "04_diversity_fitness_shaping.py": "f11d3bf2dfa778e6391d5576c499427c9e58b70be87115402837db5f196aec0e",
    "05_variant_comparison.py": "bbf8245482518d2f4e15d02f540eaccf50122602a32cf3dd990ec9aedca2e0ef",
}

# Demos that take many seconds run with the acceptance suite only.
SLOW = {"05_variant_comparison.py"}


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(path, id=path.name, marks=[pytest.mark.acceptance] if path.name in SLOW else [])
        for path in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_output_matches_reference(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert demo.name in STDOUT_SHA256, f"no reference sum recorded for {demo.name}"
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
