"""The headline experiment, in miniature.

Runs all four algorithm variants -- no diversity pressure, behavioural
distance, genealogical distance, trash-bit distance -- over a handful of
seeds and prints fitness curves.  The full-scale version (10 seeds, 1000
generations) is what `genediv run --config configs/experiment.cfg --out
runs/` produces as CSV.
"""

from genediv import DiversityConfig, EngineConfig, MetricKind, RoutingProblem, run_evolution

GENERATIONS = 400
SEEDS = range(1000, 1004)
VARIANTS = [
    ("none", MetricKind.NONE, 0.0),
    ("domain", MetricKind.DOMAIN, 1.0),
    ("genealogical_tree", MetricKind.GENEALOGICAL_TREE, 4.0),
    ("trash_bits", MetricKind.TRASH_BITS, 2.0),
]


def mean(values):
    """Summed left to right: Python 3.12's builtin ``sum`` compensates float
    rounding, which would change the printed averages between versions."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


problem = RoutingProblem()
print(f"{len(list(SEEDS))} seeds x {GENERATIONS} generations, population 20\n")

curves = {}
for name, kind, weight in VARIANTS:
    config = EngineConfig(
        generations=GENERATIONS,
        diversity=DiversityConfig(kind=kind, weight=weight),
    )
    traces = [run_evolution(config, problem, seed=seed).trace for seed in SEEDS]
    curves[name] = [mean([trace[g].mean_raw_fitness for trace in traces]) for g in range(GENERATIONS)]
    print(f"ran {name}")

checkpoints = [1, 50, 100, 200, 300, 400]
print(f"\nmean raw fitness (averaged over seeds):\n")
header = "generation".rjust(18) + "".join(f"{g:>7d}" for g in checkpoints)
print(header)
for name, curve in curves.items():
    row = name.rjust(18) + "".join(f"{curve[g - 1]:>7.2f}" for g in checkpoints)
    print(row)

print("\nbar chart of the final averages:")
for name, curve in curves.items():
    final = curve[-1]
    print(f"  {name:>18s} {final:5.2f} " + "#" * round(final * 4))

print("\nAll variants share the engine; only the distance behind the")
print("diversity bonus differs.  This is a miniature (4 seeds, 400")
print("generations) so the ranking is noisy; the full comparison is")
print("`genediv run --out runs/` -- 10 seeds, 1000 generations.")
