"""The package's public surface, pinned so that growth or a drop is a visible diff."""

import ast
import importlib
import importlib.util
from pathlib import Path

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


def test_no_compensated_sums_in_source():
    """Output sums go through ``diversity.sum_left``: the builtin ``sum``
    compensates rounding from Python 3.12 on, and ``math.fsum`` always."""
    found = []
    for path in sorted(Path(genediv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id in ("sum", "fsum")) or (
                isinstance(func, ast.Attribute)
                and func.attr == "fsum"
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_private_access_across_objects():
    """A ``_name`` member is reached only through ``self`` or ``cls``: what
    one object needs of another goes through that object's public methods."""
    found = []
    for path in sorted(Path(genediv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_integer_rule_lives_in_require_integer():
    """What a count is (a ``numbers.Integral`` that is not a ``bool``) is
    decided in ``routing.require_integer`` alone; every count calls it."""
    found = []
    for path in sorted(Path(genediv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "routing.py":
            (rule,) = [
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "require_integer"
            ]
            allowed = {id(n) for n in ast.walk(rule)}
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr == "Integral") or (
                isinstance(node, ast.alias) and node.name == "Integral"
            )
            if named and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer wraps exists: a renamed target
    is recorded as absent there, and its per-layer metrics then read 0."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
    loader = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    missing = []
    for module_name, attribute_path in spans.TARGETS:
        owner = importlib.import_module(f"genediv.{module_name}")
        for part in attribute_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute_path}")
    assert spans.TARGETS
    assert missing == []
