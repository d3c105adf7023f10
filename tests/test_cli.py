"""CLI: config round trips, subcommands, determinism, exit-status policy."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cohsh import cli, measurement
from cohsh.chsh import ChshRun
from cohsh.cli import build_parser, main, validation_checks
from cohsh.config import ConfigError, ExperimentConfig, RunMode, load_config
from cohsh.fock import MODES
from cohsh.measurement import AnalyzerSetting
from cohsh.source import SourceSpec

SQRT2 = math.sqrt(2.0)


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "source": {"mu_a": 0.05, "mu_b": 0.05},
        "mode": "exact",
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_config_defaults_and_round_trip(tmp_path):
    path = write_config(
        tmp_path,
        detector={"visibility_eta": 0.964},
        mode="mc_coherent",
        trials=12345,
        seed=99,
        angles={"sweep": {"start": 0.0, "stop": math.pi, "points": 5}},
    )
    cfg = load_config(path)
    assert cfg.mode is RunMode.MC_COHERENT
    assert cfg.trials == 12345
    assert cfg.repetitions == 10
    assert cfg.sweep is not None and len(cfg.sweep) == 5
    assert cfg.quad == pytest.approx((0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8))

    # parse -> serialize -> parse is the identity
    round_tripped = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert round_tripped == cfg
    assert round_tripped.to_json_dict() == cfg.to_json_dict()


def test_config_rejects_unknown_and_inconsistent(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, typo_key=1))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, mode="mc_fock"))  # no seed
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, mode="mc_fock", seed=1, trials=0))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, source={"mu_a": -1.0}))


def test_config_rejects_seeds_outside_64_bits(tmp_path, capsys):
    top = load_config(write_config(tmp_path, mode="mc_fock", seed=2**64 - 1))
    assert top.seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, mode="mc_fock", seed=seed))
    assert main(["chsh", "--config", write_config(tmp_path), "--seed", "-1"]) == 2
    assert "seed must lie in" in capsys.readouterr().err


_FLAG_KEYS = [
    (["--seed", "5"], "seed", 5),
    (["--mode", "mc_coherent"], "mode", "mc_coherent"),
    (["--trials", "123"], "trials", 123),
    (["--repetitions", "3"], "repetitions", 3),
    (["--workers", "2"], "workers", 2),
    (["--out", "result.json"], "output.path", "result.json"),
    (["--format", "csv"], "output.format", "csv"),
]


@pytest.mark.parametrize("flags, key, value", _FLAG_KEYS)
def test_cli_flag_lands_on_its_config_key(tmp_path, flags, key, value):
    path = write_config(tmp_path, seed=1)
    cfg = cli._load(build_parser().parse_args(["sweep", "--config", path, *flags]))
    expected = load_config(path).to_json_dict()
    *section, name = key.split(".")
    (expected[section[0]] if section else expected)[name] = value
    assert cfg.to_json_dict() == expected


@pytest.mark.parametrize(
    "flags, doc",
    [
        (["--repetitions", "0"], {"repetitions": 0}),
        (["--workers", "0"], {"workers": 0}),
        (
            ["--mode", "mc_fock", "--seed", "1", "--trials", "0"],
            {"mode": "mc_fock", "seed": 1, "trials": 0},
        ),
    ],
)
def test_cli_refused_flag_value_exits_2_with_the_parser_message(capsys, flags, doc):
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig.from_json_dict(doc)
    assert main(["chsh", *flags]) == 2
    assert capsys.readouterr().err == f"config error: {refused.value}\n"


def test_readme_config_block_shows_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block, encoding="utf-8")
    parsed = load_config(path).to_json_dict()  # a renamed key fails here
    shown = json.loads(block)
    defaults = ExperimentConfig().to_json_dict()
    for doc in (parsed, shown):
        del doc["seed"], doc["angles"]["sweep"]
    del defaults["seed"]
    assert parsed == defaults
    assert shown == defaults  # every key written out, at its default


def test_cli_parses_a_run_without_flags_once(tmp_path, monkeypatch):
    parse = ExperimentConfig.from_json_dict.__func__
    calls = []

    def counted(cls, data):
        calls.append(data)
        return parse(cls, data)

    monkeypatch.setattr(ExperimentConfig, "from_json_dict", classmethod(counted))
    path = write_config(tmp_path, output={"path": str(tmp_path / "transform.json")})
    assert main(["dump-transform", "--config", path]) == 0
    assert len(calls) == 1
    assert main(["dump-transform", "--config", path, "--seed", "3"]) == 0
    assert len(calls) == 3  # load, then the flags laid over the loaded config
    assert calls[2]["seed"] == 3


_MC = dict(mode="mc_fock", seed=1)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(source={"mu_a": 0.05, "mu_b": 0.05, "n_max": 2.9}),
        dict(_MC, trials=2.5),
        dict(_MC, trials=float("inf")),
        dict(_MC, repetitions=True),
        dict(_MC, repetitions=2.5),
        dict(mode="mc_fock", seed=7.9),
        dict(_MC, workers=1.5),
        dict(_MC, workers=False),
        dict(angles={"sweep": {"start": 0.0, "stop": 1.0, "points": 3.7}}),
    ],
)
def test_config_refuses_to_truncate_integer_keys(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match="whole number"):
        load_config(path)
    assert main(["chsh", "--config", path]) == 2
    assert "whole number" in capsys.readouterr().err


def test_config_accepts_whole_number_floats(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            source={"mu_a": 0.05, "mu_b": 0.05, "n_max": 3.0},
            mode="mc_fock",
            trials=1e7,
            repetitions=2.0,
            seed=7.0,
            workers=1.0,
            angles={"sweep": {"start": 0.0, "stop": 1.0, "points": 3.0}},
        )
    )
    assert (cfg.source.n_max, cfg.trials, cfg.repetitions, cfg.seed, cfg.workers) == (
        3,
        10_000_000,
        2,
        7,
        1,
    )
    assert all(type(v) is int for v in (cfg.source.n_max, cfg.trials, cfg.seed))
    assert len(cfg.sweep) == 3


_QUAD = ("alpha", "alpha_prime", "beta", "beta_prime")
_THRESHOLD = {"coincidence_semantics": "threshold"}
#: Threshold counting with half the events relabeled: a cell can reach 5 * trials.
_RELABELED = dict(_THRESHOLD, visibility_eta=0.5)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            dict(angles={"quad": {"alpha": 0.1}}),
            "missing keys in angles.quad: ['alpha_prime', 'beta', 'beta_prime']",
        ),
        (
            dict(angles={"sweep": {"start": 0.0, "points": 3}}),
            "missing keys in angles.sweep: ['stop']",
        ),
        (dict(source="abc"), "source must be a JSON object, got 'abc'"),
        (dict(angles={"quad": 3}), "angles.quad must be a JSON object, got 3"),
        (
            dict(angles={"sweep": 5}),
            "angles.sweep must be a list of angles or a JSON object, got 5",
        ),
        (dict(angles={"sweep": [0.0, "1"]}), "angles.sweep[1] must be a finite number, got '1'"),
        (dict(detector=[]), "detector must be a JSON object, got []"),
        (dict(output=3), "output must be a JSON object, got 3"),
        (dict(source={"mu_a": None}), "source.mu_a must be a finite number, got None"),
        (dict(source={"mu_a": "0.1"}), "source.mu_a must be a finite number, got '0.1'"),
        (dict(source={"mu_a": float("nan")}), "source.mu_a must be a finite number, got nan"),
        (dict(source={"mu_a": 10**400}), "source.mu_a must be a finite number, got 1000"),
        (dict(angles={"quad": dict.fromkeys(_QUAD, float("inf"))}), "angles.quad.alpha must"),
        (dict(detector={"efficiency": True}), "detector.efficiency must be a finite number"),
        (dict(_MC, seed="5"), "seed must be a whole number, got '5'"),
        (dict(mode=3), "mode must be one of ['exact', 'mc_fock', 'mc_coherent'], got 3"),
        (
            dict(detector={"coincidence_semantics": 5}),
            "detector.coincidence_semantics must be one of ['exact_one_one', 'threshold'], got 5",
        ),
        (
            dict(output={"format": "xml"}),
            "output.format must be one of ['csv', 'json'], got 'xml'",
        ),
        (dict(output={"path": 5}), "output.path must be a string or null, got 5"),
        (dict(source={"blocked": "none"}), "unknown keys in source: ['blocked']"),
        (dict(_MC, source={"n_max": 171}), "n_max must lie in [0, 170], got 171"),
        (dict(_MC, trials=1e19), "trials must be at most 2**60 - 1, got 10000000000000000000"),
        (dict(_MC, trials=2**60), "trials must be at most 2**60 - 1, got 1152921504606846976"),
        (
            dict(_MC, trials=9e18, source={"mu_a": 10.0, "mu_b": 10.0}, detector=_RELABELED),
            "trials must be at most 2**60 - 1, got 9000000000000000000",
        ),
    ],
)
def test_config_errors_name_the_section_and_the_key(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert str(refused.value).startswith(message)
    assert main(["chsh", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {refused.value}\n"


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, mode="mc_fock")  # missing seed
    assert main(["chsh", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exact_mode_rejects_dark_counts(tmp_path, capsys):
    path = write_config(tmp_path, detector={"dark_rate": 1e-3})
    assert main(["chsh", "--config", path]) == 2
    assert "dark counts" in capsys.readouterr().err


def test_cli_chsh_exact_tsirelson(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["chsh", "--config", write_config(tmp_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"e_values", "s", "s_err"}
    assert doc["s"] == pytest.approx(2 * SQRT2, abs=1e-9)
    assert doc["s_err"] == 0.0
    assert "violates the classical bound" in capsys.readouterr().out


def test_cli_chsh_visibility_value(tmp_path):
    out = tmp_path / "result.json"
    path = write_config(tmp_path, detector={"visibility_eta": 0.964})
    assert main(["chsh", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["s"] == pytest.approx(2 * SQRT2 * 0.964, abs=1e-9)


def test_cli_chsh_dump_tables(tmp_path):
    out = tmp_path / "result.json"
    tables = tmp_path / "tables.csv"
    path = write_config(tmp_path)
    assert main(
        ["chsh", "--config", path, "--out", str(out), "--dump-tables", str(tables)]
    ) == 0
    lines = tables.read_text().splitlines()
    assert lines[0].startswith("setting_alpha,")
    assert len(lines) == 1 + 4 * 3  # four settings, three configurations
    assert sum(",block_a," in line for line in lines) == 4


def test_dump_tables_csv_row():
    spec = SourceSpec(0.05, 0.05)
    run = ChshRun(
        result=None,
        runs=((spec, 1.0),),
        settings=(AnalyzerSetting(0.0, 0.25),),
        trials=10,
        raw=np.array([[[[1.0, 2.0, 3.5, 0.0]]]]),
        clamped=0.0,
    )
    header, row = cli._tables_csv(run).splitlines()
    assert header.startswith("setting_alpha")
    assert row == "0,0.25,0.05,0.05,none,1,2,3.5,0,10"


@pytest.mark.parametrize("tables", ["result.json", "./result.json", "sub/../result.json"])
def test_cli_refuses_dump_tables_naming_the_output_file(tmp_path, capsys, monkeypatch, tables):
    """The JSON would overwrite the tables, so the run is refused before it starts."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    monkeypatch.setattr(cli, "run_chsh", None)
    path = write_config(tmp_path)
    assert main(["chsh", "--config", path, "--out", "result.json", "--dump-tables", tables]) == 2
    assert capsys.readouterr().err == (
        f"error: --dump-tables and --out name the same file {tables!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sub"]


@pytest.mark.parametrize("flag", ["--dump-tables", "--out"])
@pytest.mark.parametrize("given", ["run.json", "./run.json"])
def test_cli_refuses_an_output_naming_the_config_file(tmp_path, capsys, monkeypatch, flag, given):
    """The run would overwrite its own config, so it is refused before it starts."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_chsh", None)
    config = tmp_path / "run.json"
    write_config(tmp_path, name="run.json")
    before = config.read_bytes()
    other = ["--out", "r.json"] if flag == "--dump-tables" else []
    assert main(["chsh", "--config", "run.json", flag, given] + other) == 2
    assert capsys.readouterr().err == f"error: {flag} names the config file {given!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert config.read_bytes() == before


@pytest.mark.parametrize("target", ["out", "dump_tables", "empty_path"])
def test_cli_unwritable_output_exits_2_with_one_line(tmp_path, capsys, target):
    missing = str(tmp_path / "missing" / "file")
    args = ["chsh", "--config", write_config(tmp_path)]
    if target == "out":
        args += ["--out", missing]
    elif target == "dump_tables":
        args += ["--out", str(tmp_path / "result.json"), "--dump-tables", missing]
    else:
        args = ["chsh", "--config", write_config(tmp_path, output={"path": ""})]
        missing = ""
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {missing!r}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["chsh", "sweep", "dump-state", "dump-transform"])
@pytest.mark.parametrize("place", ["missing_directory", "directory", "file_as_directory"])
def test_cli_refuses_an_unwritable_output_before_the_run(
    tmp_path, capsys, monkeypatch, command, place
):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("run_chsh", "sweep_correlation", "two_mode_input", "setup_transform"):
        monkeypatch.setattr(cli, name, no_run)
    path = write_config(tmp_path, angles={"sweep": [0.0, 0.5]})
    target, reason = {
        "missing_directory": (tmp_path / "missing" / "out.json", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
        "file_as_directory": (Path(path) / "out.json", "Not a directory"),
    }[place]
    tables = tmp_path / "tables.csv"
    args = [command, "--config", path, "--out", str(target)]
    if command == "chsh":
        args += ["--dump-tables", str(tables)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: cannot write {str(target)!r}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_exact_threshold_beyond_the_factorial_table_exits_2_at_once(tmp_path, capsys):
    path = write_config(tmp_path, source={"n_max": 20}, detector=_THRESHOLD)
    assert main(["chsh", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: source.n_max must be at most 19 for exact threshold runs, got 20; use mc_fock\n"
    )


def test_cli_fock_mean_with_no_weight_below_n_max_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, **_MC, source={"mu_a": 1000.0, "mu_b": 1.0, "n_max": 8})
    assert main(["chsh", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: detected mean 1000: every Poisson weight up to source.n_max = 8 underflows to 0; "
        "use mc_coherent\n"
    )


def test_cli_exact_mean_with_no_weight_below_n_max_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, source={"mu_a": 1000.0, "mu_b": 1.0})
    assert main(["chsh", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: detected mean 1000: every Poisson weight up to source.n_max = 4 underflows to 0; "
        "use mc_coherent\n"
    )


def test_cli_exact_bright_beams_at_low_efficiency_run_at_their_detected_means(tmp_path, capsys):
    """Exact mode reads the detected means, as the samplers do, so a bright source
    behind weak detectors is the dim source it looks like."""
    eff = 1e-4
    bright = {"mu_a": 1000.0, "mu_b": 1000.0}
    lossy = write_config(tmp_path, "lossy.json", source=bright, detector={"efficiency": eff})
    dim = write_config(tmp_path, "dim.json", source={"mu_a": 1000.0 * eff, "mu_b": 1000.0 * eff})
    streams = []
    for path in (lossy, dim):
        assert main(["chsh", "--config", path]) == 0
        streams.append(capsys.readouterr())
    assert streams[0] == streams[1]
    assert json.loads(streams[0].out)["s"] == pytest.approx(2 * SQRT2, abs=1e-9)


_LIMIT = measurement.TRIALS_LIMIT
_AT_THE_LIMITS = {
    "exact-threshold-n_max-20": dict(source={"n_max": 20}, detector=_THRESHOLD),
    "exact-threshold-n_max-170": dict(source={"n_max": 170}, detector=_THRESHOLD),
    "mc_fock-n_max-170": dict(_MC, trials=10**5, repetitions=1, source={"n_max": 170}),
    **{
        f"{mode}-threshold-trials-{name}": dict(
            mode=mode,
            seed=1,
            trials=trials,
            repetitions=1,
            source={"mu_a": 10.0, "mu_b": 10.0},
            detector=_RELABELED,
        )
        for mode in ("mc_fock", "mc_coherent")
        for name, trials in (("limit-1", _LIMIT - 1), ("limit", _LIMIT))
    },
    "exact-mu_a-1000": dict(source={"mu_a": 1000.0, "mu_b": 1.0}),
    "mc_fock-mu_a-1000": dict(_MC, source={"mu_a": 1000.0, "mu_b": 1.0}),
    "exact-dark": dict(detector={"dark_rate": 1e-3}),
    "mc_fock-dark": dict(_MC, detector={"dark_rate": 1e-3}),
    "out-in-a-missing-directory": dict(output={"path": "missing/result.json"}),
}


@pytest.mark.parametrize("name", list(_AT_THE_LIMITS))
def test_cli_configs_at_the_documented_limits(tmp_path, capsys, monkeypatch, name):
    """Each ends with exit 0, or with exit 2, one line and no output file."""
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, **_AT_THE_LIMITS[name])
    status = main(["chsh", "--config", path, "--dump-tables", "tables.csv"])
    err = capsys.readouterr().err
    assert status in (0, 2)
    assert "Traceback" not in err
    if status == 2:
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_bright_fock_run_ends_without_a_traceback(tmp_path, capsys):
    """mu^n overflows a float at mu 1000 and n 103; the Poisson weights stay finite."""
    path = write_config(
        tmp_path, mode="mc_fock", seed=1, source={"mu_a": 1000.0, "mu_b": 1.0, "n_max": 170}
    )
    status = main(["chsh", "--config", path])
    err = capsys.readouterr().err
    assert status in (0, 2)
    assert err.count("\n") == (status == 2)
    assert "Traceback" not in err


def test_cli_no_violation_still_exits_zero(tmp_path):
    out = tmp_path / "result.json"
    path = write_config(tmp_path, detector={"visibility_eta": 0.1})
    assert main(["chsh", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["s"] < 2.0


def test_cli_sweep_exact_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    path = write_config(
        tmp_path, angles={"sweep": {"start": 0.0, "stop": math.pi, "points": 17}}
    )
    assert main(["sweep", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "theta_radians,e_mean,e_std,trials,repetitions,e_ideal"
    for line in lines[1:]:
        theta, e_mean, e_std, trials, reps, e_ideal = line.split(",")
        assert float(e_mean) == pytest.approx(-math.cos(2 * float(theta)), abs=1e-9)
        assert float(e_std) == 0.0
        assert float(e_ideal) == pytest.approx(-math.cos(2 * float(theta)))
    assert len(lines) == 18


def test_cli_sweep_json_and_csv_carry_the_same_values(tmp_path, capsys):
    path = write_config(
        tmp_path,
        mode="mc_coherent",
        trials=20_000,
        repetitions=2,
        seed=4242,
        angles={"sweep": [0.0, 0.5, 1.3]},
    )
    as_json, as_csv = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(as_json)]) == 0
    assert main(["sweep", "--config", path, "--out", str(as_csv), "--format", "csv"]) == 0
    capsys.readouterr()
    header, *lines = as_csv.read_text().splitlines()
    columns = header.split(",")
    from_csv = [[float(v) for v in line.split(",")] for line in lines]
    doc = json.loads(as_json.read_text())
    assert all(set(row) == set(columns) for row in doc)
    assert [[row[c] for c in columns] for row in doc] == from_csv
    assert len(from_csv) == 3 and all(row[2] > 0.0 for row in from_csv)  # e_std


def test_cli_sweep_missing_grid_errors(tmp_path, capsys):
    assert main(["sweep", "--config", write_config(tmp_path)]) == 2
    assert "sweep" in capsys.readouterr().err


def test_cli_sweep_montecarlo_byte_identical(tmp_path, capsys):
    path = write_config(
        tmp_path,
        mode="mc_coherent",
        trials=50_000,
        repetitions=2,
        seed=31337,
        angles={"sweep": [0.0, 0.6, 1.2]},
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", path, "--out", str(out1), "--format", "csv"]) == 0
    assert main(
        ["sweep", "--config", path, "--out", str(out2), "--format", "csv", "--workers", "3"]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_cli_chsh_montecarlo_byte_identical(tmp_path, capsys):
    path = write_config(
        tmp_path, mode="mc_fock", trials=40_000, repetitions=2, seed=777
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["chsh", "--config", path, "--out", str(out1)]) == 0
    assert main(["chsh", "--config", path, "--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_cli_sweep_reports_visibility_fit(tmp_path, capsys):
    path = write_config(
        tmp_path,
        detector={"visibility_eta": 0.964},
        angles={"sweep": {"start": 0.0, "stop": math.pi, "points": 9}},
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    summary = capsys.readouterr().out
    assert "fitted visibility" in summary
    assert "0.964" in summary


def test_cli_validate_passes_by_default(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_validation_checks_details():
    checks = dict(
        (name, (ok, detail)) for name, ok, detail in validation_checks()
    )
    assert checks["phase-average"][0]
    assert "trace distance" in checks["phase-average"][1]
    assert checks["two-photon-decomposition"][0]


@pytest.mark.parametrize("builder", ["exact_rates", "coherent_outcome_table"])
def test_validate_two_photon_check_fails_on_a_scaled_builder(monkeypatch, capsys, builder):
    """The exact and coherent tables are built independently, so a 1e-9 error shows."""
    original = getattr(cli, builder)

    def scaled(*args):
        return original(*args) * (1.0 + 1e-9)

    monkeypatch.setattr(cli, builder, scaled)
    checks = {name: ok for name, ok, _ in validation_checks()}
    assert not checks["two-photon-decomposition"]
    assert sum(checks.values()) == len(checks) - 1
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL two-photon-decomposition"
    ]
    assert lines[-1] == "4/5 checks passed"


def test_cli_dump_state(tmp_path):
    out = tmp_path / "state.json"
    path = write_config(tmp_path, source={"mu_a": 0.1, "mu_b": 0.0, "n_max": 2})
    assert main(["dump-state", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["discarded_weight"] == pytest.approx(
        1.0 - math.exp(-0.1) * (1.0 + 0.1 + 0.005), abs=1e-12
    )
    weights = [c["weight"] for c in doc["components"]]
    assert sum(weights) == pytest.approx(1.0)
    first_terms = doc["components"][0]["terms"]
    assert {"occupations", "re", "im"} == set(first_terms[0])


def test_cli_dump_transform(tmp_path):
    out = tmp_path / "transform.json"
    assert main(["dump-transform", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["labels"] == [m.name for m in MODES]
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in doc["matrix"]]
    )
    assert matrix.shape == (8, 8)
    assert np.abs(matrix.conj().T @ matrix - np.eye(8)).max() < 1e-12


@pytest.mark.parametrize("command", ["chsh", "dump-state", "dump-transform"])
def test_cli_json_only_command_refuses_csv(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main([command, "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: the {command} command writes JSON only; use --format json\n"
    )
    assert not out.exists()


def test_cli_builds_its_parser_once_per_process(tmp_path):
    build_parser.cache_clear()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["dump-transform", "--out", str(first)]) == 0
    assert main(["dump-transform", "--seed", "3", "--out", str(second)]) == 0
    assert build_parser.cache_info().misses == 1
    assert first.read_text() == second.read_text()


def test_cli_chsh_json_to_stdout(capsys):
    assert main(["chsh"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["s"] == pytest.approx(2 * SQRT2, abs=1e-9)
    assert "S =" in captured.err
