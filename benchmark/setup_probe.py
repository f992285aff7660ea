"""Time genediv's set-up in a fresh interpreter and print the seconds.

    python3 benchmark/setup_probe.py <src dir> <config file>

Set-up is importing genediv, loading the config and building the problem.
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from genediv.config import build_problem, load_config  # noqa: E402

build_problem(load_config(sys.argv[2]))
print(perf_counter() - t0)
