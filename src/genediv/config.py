"""Flat ``key = value`` run configuration with environment overrides.

The configuration file is line-oriented: blank lines and ``#`` comment lines
are ignored, every other line must be ``key = value`` with a dotted key from
the documented key table (see README).  A comment takes its whole line: a
``#`` after a value is part of the value.  Precedence, lowest to highest:
built-in defaults, config file, environment variables, command-line flags;
the one flag that overrides a key is ``dump-genealogy --variant``, which
replaces the first entry of ``run.variants``.

Environment overrides use the ``GENEDIV_`` prefix with dots mapped to
underscores and upper-casing, e.g. ``engine.population_size`` becomes
``GENEDIV_ENGINE_POPULATION_SIZE``; a ``GENEDIV_`` variable that matches no
key is rejected, like an unknown key in the file.

Every error raised here is a :class:`ConfigError` naming the offending key.
A key whose value a built object checks (the engine, diversity and problem
settings) takes its default from that object and is parsed for syntax only
here; its range, finiteness included, is checked once, by the object, when
:func:`build_engine_config` or :func:`build_problem` builds it.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, fields
from pathlib import Path

from .diversity import DiversityConfig, MetricKind
from .engine import EngineConfig
from .routing import DEFAULT_ARENA, Arena, Rect, RoutingProblem, SettingError

ENV_PREFIX = "GENEDIV_"

# Grids used by `grid` when the config does not pin `grid.lambdas`: one for
# metrics bounded in [0, 1], a finer one for the unbounded behavioural metric.
NORMALIZED_LAMBDA_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
DOMAIN_LAMBDA_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None


def _bounded(parse, within, expected: str):
    """A parser that applies ``parse``, then rejects any value not ``within``
    the bound with ``expected <bound>, got <value>``."""

    def parser(key: str, text: str):
        value = parse(key, text)
        if not within(value):
            raise ConfigError(key, f"expected {expected}, got {value}")
        return value

    return parser


_parse_positive_int = _bounded(_parse_int, lambda v: v >= 1, "an integer >= 1")
_parse_nonneg_int = _bounded(_parse_int, lambda v: v >= 0, "an integer >= 0")
_parse_nonneg_float = _bounded(_parse_float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _parse_floats(key: str, text: str, count: int) -> tuple[float, ...]:
    parts = text.split()
    if len(parts) != count:
        raise ConfigError(key, f"expected {count} numbers, got {len(parts)}")
    return tuple(_parse_float(key, p) for p in parts)


def parse_metric_kind(key: str, text: str) -> MetricKind:
    """Parse a metric kind name, raising a :class:`ConfigError` for ``key``."""
    try:
        return MetricKind(text)
    except ValueError:
        valid = ", ".join(k.value for k in MetricKind)
        raise ConfigError(key, f"unknown metric kind {text!r} (expected one of: {valid})") from None


def _parse_variants(key: str, text: str) -> tuple[MetricKind, ...]:
    names = text.split()
    if not names:
        raise ConfigError(key, "expected at least one variant name")
    kinds = tuple(parse_metric_kind(key, name) for name in names)
    if len(set(kinds)) != len(kinds):
        raise ConfigError(key, f"variant names must be unique, got {text!r}")
    return kinds


def _parse_lambda_grid(key: str, text: str) -> tuple[float, ...]:
    parts = text.split()
    if not parts:
        return ()  # empty means "use the per-metric default grid"
    values = tuple(_parse_nonneg_float(key, p) for p in parts)
    for a, b in zip(values, values[1:]):
        if a >= b:
            raise ConfigError(key, f"values must be strictly ascending, got {text!r}")
    return values


# key -> (parser taking (key, raw string), typed default)
_SCHEMA: dict[str, tuple] = {
    "run.variants": (_parse_variants, tuple(MetricKind)),
    "run.base_seed": (_parse_nonneg_int, 1000),
    "run.num_seeds": (_parse_positive_int, 10),
    **{
        f"engine.{f.name}": (_parse_int if isinstance(f.default, int) else _parse_float, f.default)
        for f in fields(EngineConfig)
        if f.name != "diversity"
    },
    "diversity.sample_size": (_parse_int, DiversityConfig.sample_size),
    "lambda.none": (_parse_nonneg_float, 0.0),
    "lambda.domain": (_parse_nonneg_float, 1.0),
    "lambda.genealogical_tree": (_parse_nonneg_float, 4.0),
    "lambda.trash_bits": (_parse_nonneg_float, 2.0),
    "grid.lambdas": (_parse_lambda_grid, ()),
    "arena.bounds": (lambda key, text: _parse_floats(key, text, 4), astuple(DEFAULT_ARENA.bounds)),
    "arena.start": (lambda key, text: _parse_floats(key, text, 2), DEFAULT_ARENA.start),
    "arena.obstacle": (lambda key, text: _parse_floats(key, text, 4), astuple(DEFAULT_ARENA.obstacle)),
    "arena.goal": (lambda key, text: _parse_floats(key, text, 4), astuple(DEFAULT_ARENA.goal)),
    "mutation.sigma": (_parse_float, RoutingProblem.sigma),
    "step_norm": (lambda key, text: text, RoutingProblem.step_norm),
}

def env_name(key: str) -> str:
    """Environment-variable name overriding a config key."""
    return ENV_PREFIX + key.replace(".", "_").upper()


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` file into raw strings, validating key names;
    each key appears at most once per file.  Lines end at ``\n`` alone, and a
    leading UTF-8 byte-order mark is dropped."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as lines:
            for lineno, line in enumerate(lines, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{lineno}", f"expected 'key = value', got {stripped!r}"
                    )
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key not in _SCHEMA:
                    raise ConfigError(key, "unknown configuration key")
                if key in raw:
                    raise ConfigError(key, f"set again on line {lineno} of {path}")
                raw[key] = value.strip()
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except UnicodeDecodeError:
        raise ConfigError(str(path), "config file is not UTF-8 text") from None
    return raw


def load_config(
    path: str | Path | None = None, environ: dict[str, str] | None = None
) -> dict[str, object]:
    """Resolve the full typed configuration: defaults < file < environment.
    Only the values that the file or the environment sets are parsed."""
    environ = os.environ if environ is None else environ
    raw = {} if path is None else read_config_file(path)
    overrides = {env_name(key): key for key in _SCHEMA}
    for name in sorted(environ):
        if name.startswith(ENV_PREFIX):
            if name not in overrides:
                raise ConfigError(name, "environment variable matches no configuration key")
            raw[overrides[name]] = environ[name].strip()
    return {
        key: parse(key, raw[key]) if key in raw else default
        for key, (parse, default) in _SCHEMA.items()
    }


def build_problem(cfg: dict[str, object]) -> RoutingProblem:
    """Construct the routing problem described by the ``arena.*``,
    ``mutation.sigma`` and ``step_norm`` keys."""
    rects = {}
    for name in ("bounds", "goal", "obstacle"):
        try:
            rects[name] = Rect(*cfg[f"arena.{name}"])
        except ValueError as exc:
            raise ConfigError(f"arena.{name}", str(exc)) from None
    try:
        arena = Arena(start=tuple(cfg["arena.start"]), **rects)
        return RoutingProblem(arena=arena, sigma=cfg["mutation.sigma"], step_norm=cfg["step_norm"])
    except SettingError as exc:
        keys = {"sigma": "mutation.sigma", "step_norm": "step_norm"}
        raise ConfigError(keys.get(exc.field, f"arena.{exc.field}"), str(exc)) from None


def build_engine_config(
    cfg: dict[str, object], kind: MetricKind = MetricKind.NONE
) -> EngineConfig:
    """Assemble an :class:`EngineConfig` for one variant: key ``engine.<field>``
    sets the field of that name, and ``lambda.<kind>`` weighs the metric
    (``none`` has no distance, so its weight never acts)."""
    settings = {key.removeprefix("engine."): v for key, v in cfg.items() if key.startswith("engine.")}
    diversity_keys = {"weight": f"lambda.{kind.value}", "sample_size": "diversity.sample_size"}
    try:
        diversity = DiversityConfig(kind, **{name: cfg[key] for name, key in diversity_keys.items()})
        return EngineConfig(**settings, diversity=diversity)
    except SettingError as exc:
        raise ConfigError(diversity_keys.get(exc.field, f"engine.{exc.field}"), str(exc)) from None


def seeds_from(cfg: dict[str, object]) -> list[int]:
    """Consecutive run seeds: ``base_seed .. base_seed + num_seeds - 1``."""
    base = cfg["run.base_seed"]
    return [base + i for i in range(cfg["run.num_seeds"])]


def lambda_grid(cfg: dict[str, object], kind: MetricKind) -> tuple[float, ...]:
    """The weights ``grid`` sweeps: ``grid.lambdas``, or the metric's default grid."""
    default = DOMAIN_LAMBDA_GRID if kind is MetricKind.DOMAIN else NORMALIZED_LAMBDA_GRID
    return cfg["grid.lambdas"] or default
