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


def _functions(tree, names):
    """The ids of every node inside the top-level functions or methods of
    ``tree`` named in ``names`` (``"Class.method"`` for a method)."""
    inside = set()
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in members:
            if isinstance(node, ast.FunctionDef):
                name = f"{top.name}.{node.name}" if node is not top else node.name
                if name in names:
                    inside |= {id(n) for n in ast.walk(node)}
    return inside


# Each name, and the functions under src/ that alone may use it.
RULE_NAMES = {
    "Integral": {"require_integer"},
    "Real": {"require_real"},
    # Besides the real rule, the step loop checks a genome's actions.
    "isfinite": {"require_real", "RoutingProblem.evaluate"},
}


def test_number_rules_live_in_require_integer_and_require_real():
    """What a count is (a ``numbers.Integral`` that is not a ``bool``) is
    decided in ``routing.require_integer`` alone, and what a real setting is
    (a finite ``numbers.Real`` that is not a ``bool``) in
    ``routing.require_real`` alone; every count and every real setting calls
    its rule."""
    found = []
    for path in sorted(Path(genediv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, owners in RULE_NAMES.items():
            allowed = _functions(tree, owners) if path.name == "routing.py" else set()
            for node in ast.walk(tree):
                # An attribute, a plain name or an imported name.
                spelled = {getattr(node, a, None) for a in ("attr", "id", "name")}
                if name in spelled and id(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno}: {name}")
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
