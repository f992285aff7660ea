"""genediv: diversity-aware evolutionary optimisation with genealogy metrics.

The package combines three ways of measuring how different two individuals
in an evolving population are -- behavioural distance, genealogical distance
over the recorded ancestry DAG, and Hamming distance between neutral
"trash bit" markers -- and uses them to shape selection pressure toward
diverse populations.  A robot-routing benchmark and a CSV-emitting
experiment harness are included for comparing the resulting algorithms.
"""

from .diversity import DiversityConfig, MetricKind, augmented_fitness
from .engine import EngineConfig, run_evolution
from .genealogy import GenealogyGraph, read_genealogy_log
from .routing import DEFAULT_ARENA, Arena, Rect, RoutingProblem, random_genome, simulate
from .trash_genes import flip_one_bit, random_trash, tdist, uniform_cross

__version__ = "0.1.0"

# What the README, the demos and the benchmark import from the package;
# everything else is imported from its submodule.
__all__ = [
    "Arena",
    "DEFAULT_ARENA",
    "DiversityConfig",
    "EngineConfig",
    "GenealogyGraph",
    "MetricKind",
    "Rect",
    "RoutingProblem",
    "augmented_fitness",
    "flip_one_bit",
    "random_genome",
    "random_trash",
    "read_genealogy_log",
    "run_evolution",
    "simulate",
    "tdist",
    "uniform_cross",
]
