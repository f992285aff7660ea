import hashlib
from pathlib import Path

import numpy as np
import pytest

import genediv.cli
from genediv.cli import main
from genediv import EngineConfig, RoutingProblem, read_genealogy_log, run_evolution

TINY_CFG = """
engine.population_size = 8
engine.generations = 6
run.num_seeds = 2
run.base_seed = 11
run.variants = none trash_bits
"""


def write_cfg(tmp_path, text=TINY_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_run_writes_expected_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "raw_none.csv").exists()
    assert (out / "raw_trash_bits.csv").exists()
    assert (out / "aggregate.csv").exists()
    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 3


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("raw_none.csv", "raw_trash_bits.csv", "aggregate.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_defaults_when_no_config(tmp_path, monkeypatch):
    monkeypatch.setenv("GENEDIV_ENGINE_GENERATIONS", "3")
    monkeypatch.setenv("GENEDIV_ENGINE_POPULATION_SIZE", "6")
    monkeypatch.setenv("GENEDIV_RUN_NUM_SEEDS", "1")
    monkeypatch.setenv("GENEDIV_RUN_VARIANTS", "none")
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    lines = (out / "raw_none.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # one seed, three generations


@pytest.mark.parametrize("command", [["run"], ["grid", "--metric", "trash_bits"]])
def test_jobs_below_one_names_key(tmp_path, capsys, command):
    out = tmp_path / "o"
    argv = [*command, "--config", write_cfg(tmp_path), "--out", str(out), "--jobs", "0"]
    assert main(argv) == 1
    assert "'jobs'" in capsys.readouterr().err
    assert not out.exists()


# One out-of-range value per key whose range the built engine, diversity
# config or problem checks.
OWNED_KEY_VALUES = [
    ("engine.population_size", "0"),
    ("engine.generations", "-1"),
    ("engine.mutation_prob", "1.5"),
    ("engine.crossover_prob", "-0.1"),
    ("engine.tournament_size", "0"),
    ("engine.immigrants_per_gen", "-1"),
    ("engine.tau", "0"),
    ("diversity.sample_size", "0"),
    ("mutation.sigma", "0"),
    ("step_norm", "euclid"),
]


@pytest.mark.parametrize(
    "command",
    [["run"], ["grid", "--metric", "trash_bits"], ["dump-genealogy", "--seed", "1"]],
    ids=["run", "grid", "dump-genealogy"],
)
@pytest.mark.parametrize("key, value", OWNED_KEY_VALUES)
def test_owned_key_out_of_range_names_key(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path, TINY_CFG + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 1
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("engine.size = 5\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "engine.size" in capsys.readouterr().err


def test_bad_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("engine.mutation_prob = 2.0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "engine.mutation_prob" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"  # parent is a regular file -> I/O error
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["run", "--out", "o", "--jobs", "two"],
        ["grid", "--out", "o"],
        ["dump-genealogy", "--out", "o"],
    ],
    ids=["no-out", "jobs-not-int", "grid-no-metric", "dump-no-seed"],
)
def test_usage_error_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"usage: genediv {argv[0]}" in err
    assert list(tmp_path.iterdir()) == []


CONFIG_HELP = ("--config", "path to a key = value config file")
JOBS_HELP = (
    "--jobs",
    "worker processes for the independent runs, at most one per usable CPU "
    "(default: one per usable CPU; 1 runs in this process)",
)
FLAG_HELP = {
    "run": [CONFIG_HELP, ("--out", "output directory for CSV files"), JOBS_HELP],
    "grid": [
        CONFIG_HELP,
        ("--metric", "metric kind to sweep"),
        ("--out", "output directory for CSV files"),
        JOBS_HELP,
    ],
    "dump-genealogy": [
        CONFIG_HELP,
        ("--seed", "run seed"),
        ("--out", "output file for the log"),
        ("--variant", "metric kind to run (default: first configured)"),
    ],
}


@pytest.mark.parametrize("command", sorted(FLAG_HELP))
def test_help_lists_each_flag_with_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = {word for word in text.split() if word.startswith("--")} - {"--help"}
    assert listed == {flag for flag, _ in FLAG_HELP[command]}
    words = " ".join(text.split())  # the help wraps at the terminal width
    for flag, help_text in FLAG_HELP[command]:
        assert f"{flag} {flag[2:].upper()} {help_text}" in words, flag


def test_grid_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_CFG + "grid.lambdas = 0.5 1.0\n")
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--metric", "trash_bits", "--out", str(out)]) == 0
    assert (out / "grid_trash_bits.csv").exists()
    stdout = capsys.readouterr().out
    assert "best lambda for trash_bits" in stdout


# sha256 of grid_<metric>.csv on the defaults with three seeds and 40
# generations: trash_bits sweeps the normalised default grid, domain its own.
GRID_SHA256 = {
    "trash_bits": "065f79531f309df435f810958224371d800330468ba5c19ad788e046a5c8986c",
    "domain": "0cf4715088c09fec248be084834fee9cf7f6b3f52508d39a8e30cb9dc5403708",
}


@pytest.mark.parametrize("metric", sorted(GRID_SHA256))
def test_grid_csv_matches_reference_sha256(tmp_path, metric):
    cfg = write_cfg(tmp_path, "run.num_seeds = 3\nengine.generations = 40\n")
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["grid", "--config", cfg, "--metric", metric, "--out", str(out), "--jobs", jobs]
        assert main(argv) == 0
        blob = (out / f"grid_{metric}.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == GRID_SHA256[metric]


def test_grid_tells_close_weights_apart(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_CFG + "grid.lambdas = 0.1 0.1000001\n")
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--metric", "trash_bits", "--out", str(out)]) == 0
    assert len((out / "grid_trash_bits.csv").read_text().splitlines()) == 1 + 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["lambda=0.1", "lambda=0.1000001"]
    # The two means tie, so the smaller weight wins, named by its repr.
    assert lines[0].split()[1:] == lines[1].split()[1:]
    assert lines[2] == "best lambda for trash_bits: 0.1"


def test_grid_rejects_none_metric(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["grid", "--config", cfg, "--metric", "none", "--out", str(tmp_path / "o")]) == 1


def test_grid_rejects_unknown_metric(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["grid", "--config", cfg, "--metric", "hamming", "--out", str(tmp_path / "o")]) == 1
    assert "metric" in capsys.readouterr().err


def test_dump_genealogy_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "genealogy.log"
    assert main(["dump-genealogy", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
    graph = read_genealogy_log(out)
    assert len(graph) >= 8


# sha256 of the dump-genealogy log of the shipped config at 200 generations,
# seed 1000.
LOG_SHA256 = {
    "none": "1c5499a154797c3175a62b5ce4aae9e8e65cccfc9f687a36f00eb9e041808bf5",
    "genealogical_tree": "deec1b493e5c0c97ff189200d4d05808ae297ae994e25a72b3da771dc0784d6c",
}


@pytest.mark.parametrize("variant", sorted(LOG_SHA256))
def test_dump_genealogy_log_matches_reference_sha256(tmp_path, monkeypatch, variant):
    monkeypatch.setenv("GENEDIV_ENGINE_GENERATIONS", "200")
    cfg = Path(__file__).resolve().parents[1] / "configs" / "experiment.cfg"
    out = tmp_path / "genealogy.log"
    argv = ["dump-genealogy", "--config", str(cfg), "--seed", "1000", "--variant", variant]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LOG_SHA256[variant]


def test_dump_genealogy_variant_flag(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "genealogy.log"
    rc = main([
        "dump-genealogy", "--config", cfg, "--seed", "11",
        "--out", str(out), "--variant", "genealogical_tree",
    ])
    assert rc == 0
    assert out.exists()


def test_dump_fresh_population_is_all_genesis(tmp_path):
    cfg = write_cfg(tmp_path, "engine.population_size = 20\nengine.generations = 0\n")
    out = tmp_path / "not" / "made" / "g.log"  # the command makes the directory
    assert main(["dump-genealogy", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    assert all(line.endswith(",genesis") for line in lines)


def test_dump_round_trip_preserves_distances(tmp_path):
    cfg = write_cfg(tmp_path, "engine.population_size = 8\nengine.generations = 15\n")
    out = tmp_path / "g.log"
    assert main(["dump-genealogy", "--config", cfg, "--seed", "6", "--out", str(out)]) == 0
    reloaded = read_genealogy_log(out)
    engine = EngineConfig(population_size=8, generations=15)
    reference = run_evolution(engine, RoutingProblem(), seed=6)
    assert len(reloaded) == len(reference.graph)
    rng = np.random.default_rng(0)
    for _ in range(60):
        a = int(rng.integers(len(reloaded)))
        b = int(rng.integers(len(reloaded)))
        assert reloaded.gdist(a, b) == reference.graph.gdist(a, b)


def test_baseline_weight_never_acts(tmp_path, monkeypatch):
    # lambda.none weighs the baseline, which has no distance to weigh.
    monkeypatch.setenv("GENEDIV_ENGINE_GENERATIONS", "200")
    monkeypatch.setenv("GENEDIV_RUN_NUM_SEEDS", "2")
    monkeypatch.setenv("GENEDIV_RUN_VARIANTS", "none")
    written = []
    for weight in ("0.0", "3.0"):
        monkeypatch.setenv("GENEDIV_LAMBDA_NONE", weight)
        out = tmp_path / weight
        assert main(["run", "--out", str(out), "--jobs", "1"]) == 0
        written.append((out / "raw_none.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 2 * 200


def test_grid_zero_generations_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_CFG + "engine.generations = 0\n")
    out = tmp_path / "o"
    assert main(["grid", "--config", cfg, "--metric", "trash_bits", "--out", str(out)]) == 1
    assert "engine.generations" in capsys.readouterr().err
    assert not out.exists()


def test_negative_base_seed_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_CFG + "run.base_seed = -3\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "run.base_seed" in capsys.readouterr().err
    assert not out.exists()


def test_dump_genealogy_negative_seed_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "genealogy.log"
    assert main(["dump-genealogy", "--config", cfg, "--seed", "-1", "--out", str(out)]) == 1
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_config_exits_1(tmp_path, capsys):
    # The file is decoded as it is read, so a bad byte past the first
    # buffer surfaces mid-file and still names the file.
    cfg = tmp_path / "run.cfg"
    for text in (b"engine.generations = \xff\n", b"# padding\n" * 2000 + b"engine.tau = \xff\n"):
        cfg.write_bytes(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "not UTF-8" in err


def test_internal_value_error_propagates(tmp_path, monkeypatch):
    def broken(spec, jobs=None):
        raise ValueError("internal fault")

    monkeypatch.setattr(genediv.cli, "run_experiment", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")])
