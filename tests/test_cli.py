"""CLI: config round trips, subcommands, determinism, exit-status policy."""

import json
import math

import numpy as np
import pytest

from cohsh.cli import main, validation_checks
from cohsh.config import ConfigError, ExperimentConfig, RunMode, load_config
from cohsh.fock import MODES

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


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, mode="mc_fock")  # missing seed
    assert main(["chsh", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_chsh_exact_tsirelson(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["chsh", "--config", write_config(tmp_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"e_values", "s", "s_err", "eta"}
    assert doc["s"] == pytest.approx(2 * SQRT2, abs=1e-9)
    assert doc["s_err"] == 0.0
    assert doc["eta"] is None
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


def test_cli_validate_corrupted_splitter_fails(capsys):
    assert main(["validate", "--bs-angle", "0.62"]) == 1
    out = capsys.readouterr().out
    assert "FAIL hom-cancellation" in out


def test_validation_checks_details():
    checks = dict(
        (name, (ok, detail)) for name, ok, detail in validation_checks()
    )
    assert checks["phase-average"][0]
    assert "trace distance" in checks["phase-average"][1]
    assert checks["two-photon-decomposition"][0]


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


def test_cli_chsh_json_to_stdout(capsys):
    assert main(["chsh"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["s"] == pytest.approx(2 * SQRT2, abs=1e-9)
    assert "S =" in captured.err
