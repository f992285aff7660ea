"""The package's public surface, pinned so that growth or a drop is a visible diff."""

import genediv

PUBLIC = [
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

# Names the benchmark reads as ``genediv.<name>``.
BENCHMARK_NAMES = [
    "EngineConfig",
    "DiversityConfig",
    "MetricKind",
    "Arena",
    "Rect",
    "RoutingProblem",
    "run_evolution",
    "read_genealogy_log",
]


def test_public_surface_is_pinned():
    assert genediv.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(genediv, name) is not None
    for name in BENCHMARK_NAMES:
        assert hasattr(genediv, name), name
