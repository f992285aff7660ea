from dataclasses import fields
from pathlib import Path

import pytest

from genediv import DiversityConfig, EngineConfig, MetricKind, RoutingProblem
from genediv.config import (
    ConfigError,
    DOMAIN_LAMBDA_GRID,
    NORMALIZED_LAMBDA_GRID,
    build_engine_config,
    build_problem,
    env_name,
    lambda_grid,
    load_config,
    read_config_file,
    seeds_from,
)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_defaults_load_without_file():
    cfg = load_config(None, environ={})
    assert cfg["engine.population_size"] == 20
    assert cfg["engine.generations"] == 1000
    assert cfg["engine.mutation_prob"] == 0.2
    assert cfg["engine.crossover_prob"] == 0.3
    assert cfg["engine.tournament_size"] == 2
    assert cfg["engine.immigrants_per_gen"] == 2
    assert cfg["engine.tau"] == 32
    assert cfg["diversity.sample_size"] == 5
    assert cfg["run.num_seeds"] == 10
    assert cfg["run.variants"] == (
        MetricKind.NONE,
        MetricKind.DOMAIN,
        MetricKind.GENEALOGICAL_TREE,
        MetricKind.TRASH_BITS,
    )
    assert cfg["step_norm"] == "l1"


def test_defaults_are_the_built_objects_defaults():
    # The CLI's defaults and run_evolution(EngineConfig()) run the same
    # experiment on the same problem.
    cfg = load_config(None, environ={})
    for kind in MetricKind:
        diversity = DiversityConfig(kind=kind, weight=cfg[f"lambda.{kind.value}"])
        assert build_engine_config(cfg, kind) == EngineConfig(diversity=diversity), kind
    assert build_problem(cfg) == RoutingProblem()


def test_shipped_config_sets_the_builtin_defaults():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "experiment.cfg"
    from_file = load_config(shipped, environ={})
    builtin = load_config(None, environ={})
    assert from_file.keys() == builtin.keys()
    for key, value in builtin.items():
        assert from_file[key] == value, key


def test_file_values_override_defaults(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        # comment lines and blanks are ignored
        engine.population_size = 8

        engine.generations = 5
        run.variants = none trash_bits
        arena.start = 0.2 0.4
        """,
    )
    cfg = load_config(path, environ={})
    assert cfg["engine.population_size"] == 8
    assert cfg["engine.generations"] == 5
    assert cfg["run.variants"] == (MetricKind.NONE, MetricKind.TRASH_BITS)
    assert cfg["arena.start"] == (0.2, 0.4)


def test_environment_overrides_file(tmp_path):
    path = write_cfg(tmp_path, "engine.generations = 5\n")
    env = {"GENEDIV_ENGINE_GENERATIONS": "7", "GENEDIV_RUN_BASE_SEED": "42"}
    cfg = load_config(path, environ=env)
    assert cfg["engine.generations"] == 7
    assert cfg["run.base_seed"] == 42


def test_environment_values_are_stripped_like_file_values(tmp_path):
    path = write_cfg(tmp_path, "step_norm =  linf \n")
    assert load_config(path, environ={})["step_norm"] == "linf"
    assert load_config(path, environ={"GENEDIV_STEP_NORM": " l1"})["step_norm"] == "l1"


def test_misspelt_environment_override_names_variable():
    env = {"GENEDIV_ENGINE_GENERATION": "5", "GENEDIV_RUN_BASE_SEED": "42", "HOME": "/"}
    with pytest.raises(ConfigError) as exc:
        load_config(None, environ=env)
    assert exc.value.key == "GENEDIV_ENGINE_GENERATION"
    assert "GENEDIV_ENGINE_GENERATION" in str(exc.value)


def test_env_name_mapping():
    assert env_name("engine.population_size") == "GENEDIV_ENGINE_POPULATION_SIZE"
    assert env_name("step_norm") == "GENEDIV_STEP_NORM"


def test_unknown_key_is_named(tmp_path):
    path = write_cfg(tmp_path, "engine.popsize = 12\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert "engine.popsize" in str(err.value)


def test_key_set_twice_in_one_file_rejected(tmp_path):
    path = write_cfg(tmp_path, "engine.tau = 8\n# comment\nengine.tau = 16\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert err.value.key == "engine.tau"
    assert f"set again on line 3 of {path}" in str(err.value)
    with pytest.raises(ConfigError):
        load_config(path, environ={})


def test_lines_end_at_newline_only(tmp_path):
    # A form feed or a separator character is not a line break, so an error
    # names the line it is on and the key as written.
    path = write_cfg(tmp_path, "engine.tau = 8\x0c\n# comment\nengine.tau = 16\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert f"set again on line 3 of {path}" in str(err.value)
    path = write_cfg(tmp_path, "engine.ta\x1eu = 8\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert err.value.key == "engine.ta\x1eu"
    # A lone carriage return is not a line break either: this is one line,
    # whose value is not an integer.
    path = write_cfg(tmp_path, "engine.tau = 8\rengine.generations = 5\n")
    with pytest.raises(ConfigError) as err:
        load_config(path, environ={})
    assert err.value.key == "engine.tau"
    path = write_cfg(tmp_path, "engine.tau = 8\r\nengine.generations = 5\r\n")
    cfg = load_config(path, environ={})
    assert (cfg["engine.tau"], cfg["engine.generations"]) == (8, 5)


def test_leading_byte_order_mark_is_dropped(tmp_path):
    # Some editors start a UTF-8 file with a byte-order mark and end its
    # lines with CRLF.
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfengine.generations = 5\r\nengine.tau = 8\n")
    assert read_config_file(path) == {"engine.generations": "5", "engine.tau": "8"}
    cfg = load_config(path, environ={})
    assert (cfg["engine.generations"], cfg["engine.tau"]) == (5, 8)


def test_malformed_line_rejected(tmp_path):
    path = write_cfg(tmp_path, "engine.population_size 12\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg", environ={})


@pytest.mark.parametrize(
    "line",
    [
        "engine.population_size = zero",
        "engine.population_size = 0",
        "engine.mutation_prob = 1.5",
        "engine.generations = -1",
        "mutation.sigma = 0",
        "step_norm = euclid",
        "run.variants = none warp",
        "run.variants = none none",
        "run.variants =",
        "arena.start = 0.1 0.2 0.3",
        "arena.goal = 0.1 0.2 0.3",
        "grid.lambdas = 0.5 0.25",
        "grid.lambdas = -1.0 0.5",
        "lambda.domain = -0.5",
        # Non-finite numbers: the lambda parser rejects them, the built
        # objects reject them for the keys they own.
        "lambda.none = inf",
        "lambda.trash_bits = nan",
        "grid.lambdas = 0.5 inf",
        "engine.mutation_prob = nan",
        "engine.crossover_prob = -inf",
        "mutation.sigma = inf",
        "arena.start = nan 0.5",
        "arena.goal = 0.75 0.3 inf 0.7",
    ],
)
def test_bad_values_rejected(tmp_path, line):
    # load_config checks syntax and the keys no built object owns; building
    # the problem and the engine checks the rest.
    path = write_cfg(tmp_path, line + "\n")
    with pytest.raises(ConfigError) as err:
        cfg = load_config(path, environ={})
        build_problem(cfg)
        build_engine_config(cfg)
    assert err.value.key == line.partition("=")[0].strip()


def test_build_problem_uses_arena_keys(tmp_path):
    path = write_cfg(
        tmp_path,
        "arena.bounds = 0 0 2 2\narena.start = 0.2 0.2\n"
        "arena.obstacle = 0.9 0.0 1.1 1.5\narena.goal = 1.5 0.5 1.9 1.0\n"
        "mutation.sigma = 0.2\nstep_norm = linf\n",
    )
    problem = build_problem(load_config(path, environ={}))
    assert problem.arena.bounds.x1 == 2.0
    assert problem.arena.start == (0.2, 0.2)
    assert problem.sigma == 0.2
    assert problem.step_norm == "linf"


def test_build_problem_rejects_inconsistent_arena(tmp_path):
    # Each failure is reported under the dotted key of the value at fault.
    cases = [
        ("arena.start = 0.5 0.5", "arena.start", "inside the obstacle"),
        ("arena.start = 1.5 0.5", "arena.start", "outside the arena bounds"),
        ("arena.goal = 0.75 0.3 1.5 0.7", "arena.goal", "inside the arena bounds"),
        ("arena.goal = 0.95 0.3 0.75 0.7", "arena.goal", "degenerate rectangle"),
        ("arena.obstacle = 0.4 0.0 0.6 1.2", "arena.obstacle", "inside the arena bounds"),
        ("arena.obstacle = 0.6 0.0 0.4 0.8", "arena.obstacle", "degenerate rectangle"),
        ("arena.bounds = 1 0 0 1", "arena.bounds", "degenerate rectangle"),
    ]
    for line, key, message in cases:
        path = write_cfg(tmp_path, line + "\n")
        with pytest.raises(ConfigError) as err:
            build_problem(load_config(path, environ={}))
        assert err.value.key == key, line
        assert str(err.value).startswith(f"config key '{key}': "), line
        assert message in str(err.value), line


def test_build_engine_config_per_variant():
    cfg = load_config(None, environ={})
    engine = build_engine_config(cfg, MetricKind.TRASH_BITS)
    assert engine.diversity.kind is MetricKind.TRASH_BITS
    assert engine.diversity.weight == cfg["lambda.trash_bits"] == 2.0

    baseline = build_engine_config(cfg)
    assert baseline.diversity.kind is MetricKind.NONE
    assert baseline.diversity.weight == 0.0

    # The baseline is weighted by lambda.none like any variant; with no
    # distance its weight never acts (test_cli pins the bytes).
    cfg = load_config(None, environ={"GENEDIV_LAMBDA_NONE": "3.0"})
    assert cfg["lambda.none"] == 3.0
    assert build_engine_config(cfg, MetricKind.NONE).diversity.weight == 3.0
    assert build_engine_config(cfg).diversity.weight == 3.0


def test_engine_keys_are_the_engine_fields():
    # build_engine_config sets each field from the engine key of its name.
    keys = [key for key in load_config(None, environ={}) if key.startswith("engine.")]
    names = [f.name for f in fields(EngineConfig) if f.name != "diversity"]
    assert keys == [f"engine.{name}" for name in names]


def test_build_engine_config_cross_field_check(tmp_path):
    path = write_cfg(tmp_path, "engine.population_size = 2\nengine.immigrants_per_gen = 2\n")
    with pytest.raises(ConfigError) as err:
        build_engine_config(load_config(path, environ={}))
    assert "immigrants" in str(err.value)


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("engine.population_size", 0, MetricKind.NONE),
        ("engine.generations", -1, MetricKind.NONE),
        ("engine.mutation_prob", 1.5, MetricKind.NONE),
        ("engine.crossover_prob", -0.1, MetricKind.NONE),
        ("engine.tournament_size", 0, MetricKind.NONE),
        ("engine.immigrants_per_gen", -1, MetricKind.NONE),
        ("engine.immigrants_per_gen", 20, MetricKind.NONE),  # not below population_size
        ("engine.tau", 0, MetricKind.NONE),
        ("diversity.sample_size", 0, MetricKind.DOMAIN),
        ("lambda.trash_bits", -1.0, MetricKind.TRASH_BITS),
        ("lambda.genealogical_tree", float("nan"), MetricKind.GENEALOGICAL_TREE),
    ],
)
def test_build_engine_config_names_the_key(key, value, kind):
    # Values set past the parser are checked when EngineConfig is built.
    cfg = load_config(None, environ={})
    cfg[key] = value
    with pytest.raises(ConfigError) as err:
        build_engine_config(cfg, kind)
    assert err.value.key == key
    assert str(err.value).startswith(f"config key '{key}': ")


def test_seeds_from_base_and_count(tmp_path):
    path = write_cfg(tmp_path, "run.base_seed = 5\nrun.num_seeds = 3\n")
    assert seeds_from(load_config(path, environ={})) == [5, 6, 7]


def test_lambda_grid_defaults_and_override(tmp_path):
    cfg = load_config(None, environ={})
    assert lambda_grid(cfg, MetricKind.DOMAIN) == DOMAIN_LAMBDA_GRID
    assert lambda_grid(cfg, MetricKind.TRASH_BITS) == NORMALIZED_LAMBDA_GRID
    assert lambda_grid(cfg, MetricKind.GENEALOGICAL_TREE) == NORMALIZED_LAMBDA_GRID

    path = write_cfg(tmp_path, "grid.lambdas = 0.1 0.2 0.4\n")
    cfg = load_config(path, environ={})
    assert lambda_grid(cfg, MetricKind.DOMAIN) == (0.1, 0.2, 0.4)
