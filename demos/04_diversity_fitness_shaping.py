"""How diversity pressure reshapes selection.

Shaped fitness is ``raw + weight * mean distance to a few random peers``.
This demo evolves a small population twice -- once plain, once with
genealogical diversity pressure -- and watches what the pressure does to
(a) the probe diversity of the population and (b) which individuals
survive truncation.
"""

import numpy as np

from genediv import (
    DiversityConfig,
    EngineConfig,
    MetricKind,
    RoutingProblem,
    augmented_fitness,
    run_evolution,
)

problem = RoutingProblem()
SEED = 5

plain = EngineConfig(generations=300)
shaped = EngineConfig(
    generations=300,
    diversity=DiversityConfig(kind=MetricKind.GENEALOGICAL_TREE, weight=4.0),
)

print("same seed, 300 generations, population 20:\n")
print(f"{'generation':>10s} | {'plain mean':>10s} {'probe':>6s} | {'shaped mean':>11s} {'probe':>6s}")
res_plain = run_evolution(plain, problem, seed=SEED)
res_shaped = run_evolution(shaped, problem, seed=SEED)
for g in (1, 25, 50, 100, 200, 300):
    a = res_plain.trace[g - 1]
    b = res_shaped.trace[g - 1]
    print(
        f"{g:>10d} | {a.mean_raw_fitness:>10.2f} {a.mean_probe_diversity:>6.2f}"
        f" | {b.mean_raw_fitness:>11.2f} {b.mean_probe_diversity:>6.2f}"
    )
print("\n(probe = mean pairwise metric distance over 5 random members; the")
print("plain run has no metric, so its probe column is 0 by definition)\n")

# zoom in: shaped fitness of the final shaped population
population = res_shaped.population
graph = res_shaped.graph
distances = np.array([[graph.gdist(x.node, y.node) for y in population] for x in population])
rng = np.random.default_rng(0)
config = shaped.diversity

print("final population under the shaped run, one sampled evaluation each:")
print(f"{'node':>6s} {'raw':>4s} {'shaped':>7s}   (shaped - raw = diversity bonus)")
for i in sorted(range(len(population)), key=lambda i: -population[i].raw_fitness)[:8]:
    ind = population[i]
    s = augmented_fitness(population, [i], config, rng, lambda a, b: distances[a, b])[0]
    print(f"{ind.node:>6d} {ind.raw_fitness:>4.0f} {s:>7.2f}")
print("\nAn unusual lineage can out-rank a slightly fitter clone -- that is")
print("the entire mechanism: hold the door open for genetic outsiders.")
