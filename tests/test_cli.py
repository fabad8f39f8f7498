import json
from pathlib import Path

import pytest

import ebk.portrait
from ebk.cli import main
from ebk.config import load_config, parse_config
from ebk.errors import ConfigError


def _base_config(out_dir: str) -> dict:
    return {
        "symbol": {"name": "harmonic", "params": {}},
        "window": {"e1": 0.2, "e2": 0.8, "margin": 0.05},
        "hbars": [0.1],
        "pipeline": ["trace", "actions", "spectrum", "oracle", "compare"],
        "tolerances": {"trace_tol": 1e-10, "oracle_tol": 1e-5, "action_samples": 17},
        "seed": 3,
        "output_dir": out_dir,
    }


def _write(tmp_path: Path, data: dict, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_config_round_trip(tmp_path):
    data = _base_config(str(tmp_path / "out"))
    cfg = parse_config(data)
    again = parse_config(cfg.to_json_dict())
    assert again.to_json_dict() == cfg.to_json_dict()


def test_config_rejects_inverted_window(tmp_path):
    data = _base_config(str(tmp_path))
    data["window"] = {"e1": 0.8, "e2": 0.2, "margin": 0.05}
    with pytest.raises(ConfigError):
        parse_config(data)


def test_config_rejects_unknown_key(tmp_path):
    data = _base_config(str(tmp_path))
    data["hbar_list"] = [0.1]
    with pytest.raises(ConfigError, match="hbar_list"):
        parse_config(data)


def test_config_rejects_unknown_stage(tmp_path):
    data = _base_config(str(tmp_path))
    data["pipeline"] = ["stages_of_grief"]
    with pytest.raises(ConfigError, match="stages_of_grief"):
        parse_config(data)


def test_config_rejects_unsorted_hbars(tmp_path):
    data = _base_config(str(tmp_path))
    data["hbars"] = [0.05, 0.1]
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(data)


def test_config_rejects_bad_tolerance(tmp_path):
    data = _base_config(str(tmp_path))
    data["tolerances"]["trace_tol"] = 0.0
    with pytest.raises(ConfigError, match="trace_tol"):
        parse_config(data)


def test_config_rejects_oracle_for_closed_form(tmp_path):
    data = _base_config(str(tmp_path))
    data["symbol"] = {"name": "kerr", "params": {"chi": 0.5}}
    with pytest.raises(ConfigError, match="oracle"):
        parse_config(data)
    data["pipeline"] = ["trace", "actions", "spectrum"]
    assert parse_config(data).symbol_name == "kerr"


def test_config_dependency_insertion(tmp_path):
    data = _base_config(str(tmp_path))
    data["pipeline"] = ["spectrum"]
    cfg = parse_config(data)
    assert cfg.pipeline == ("trace", "actions", "spectrum")
    assert set(cfg.inserted_stages) == {"trace", "actions"}


def test_load_config_json_error_has_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"symbol": \n oops}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_validate_command(tmp_path, capsys):
    path = _write(tmp_path, _base_config(str(tmp_path / "out")))
    assert main(["validate", "--config", str(path)]) == 0
    assert "harmonic" in capsys.readouterr().out


def test_validate_bad_config_exit_2(tmp_path):
    data = _base_config(str(tmp_path))
    data["seed"] = "zero"
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 2


def test_run_full_pipeline_manifest(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _base_config(str(out)))
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(st["status"] == "ok" for st in manifest["stages"].values())
    assert manifest["checks"]["bijection"] and manifest["checks"]["regular_window"]
    emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert emitted == set(manifest["files"])
    assert all("grid_sizes" in meta for meta in manifest["oracle"].values())
    for name, digest in manifest["files"].items():
        import hashlib

        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_run_topology_violation_exit_3(tmp_path):
    data = _base_config(str(tmp_path / "out"))
    data["symbol"] = {"name": "double_well", "params": {"a": 1.0}}
    data["window"] = {"e1": 0.8, "e2": 1.2, "margin": 0.05}
    data["pipeline"] = ["spectrum"]
    path = _write(tmp_path, data)
    assert main(["run", "--config", str(path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["trace"]["status"] == "failed"
    assert manifest["stages"]["actions"]["status"] == "skipped"


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_grid_over_cap_exit_2(tmp_path, capsys):
    # The oracle grid is sized while the config is validated, so the run
    # stops with exit 2 before any stage (no manifest is written).
    data = _base_config(str(tmp_path / "out"))
    data["pipeline"] = ["oracle"]
    data["tolerances"]["oracle_tol"] = 1e-12
    path = _write(tmp_path, data)
    assert main(["run", "--config", str(path)]) == 2
    assert "exceeds the 600000 cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_grid_over_cap_exit_2(tmp_path, capsys):
    data = _base_config(str(tmp_path / "out"))
    data["tolerances"]["oracle_tol"] = 1e-12
    data["hbars"] = [0.2, 0.1]
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 2
    assert "hbar=0.2" in capsys.readouterr().err
    # Without an oracle stage the same tolerance is never used.
    data["pipeline"] = ["trace", "actions", "spectrum"]
    assert main(["validate", "--config", str(_write(tmp_path, data))]) == 0


def test_validate_grid_pair_over_cap_exit_2(tmp_path, capsys):
    # N = 597,820 fits under the cap, but the finer grid of the
    # Richardson pair, 2N - 1 points, does not.
    data = _base_config(str(tmp_path / "out"))
    data["tolerances"]["oracle_tol"] = 1.32e-9
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 2
    assert "grid of 1195639 points exceeds the 600000 cap" in capsys.readouterr().err


def test_validate_grid_under_stencil_exit_2(tmp_path, capsys):
    data = _base_config(str(tmp_path / "out"))
    data["pipeline"] = ["oracle"]
    data["tolerances"]["oracle_tol"] = 1000
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 2
    assert "under the 3-point stencil" in capsys.readouterr().err


def test_run_overflowing_symbol_exit_3(tmp_path, deadline):
    # The trace of V = 1e300 x^2 overflows: a typed TraceDiverged, not a hang.
    data = _base_config(str(tmp_path / "out"))
    data["symbol"] = {"name": "polynomial", "params": {"coefficients": [0, 0, 1e300]}}
    data["pipeline"] = ["trace"]
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 0
    deadline(20)
    assert main(["run", "--config", str(path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["trace"]["note"].startswith("TraceDiverged:")


def test_validate_leaves_landmark_errors_to_the_run(tmp_path):
    # The Morse plateau D = 1 does not confine a window reaching 1.2: that
    # is a hypothesis violation of the run (exit 3), not a config error.
    data = _base_config(str(tmp_path / "out"))
    data["symbol"] = {"name": "morse", "params": {"D": 1.0, "a": 1.0}}
    data["window"] = {"e1": 0.5, "e2": 1.2, "margin": 0.05}
    data["pipeline"] = ["oracle"]
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"]["oracle"]["note"].startswith("NonCompactWindow:")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_trace_tol_under_rounding_floor_exit_2(tmp_path, capsys, deadline, command):
    # The stepper's local tolerance, 1e-3 * trace_tol, would sit under
    # rounding: the run would shrink its steps without end.
    data = _base_config(str(tmp_path / "out"))
    data["tolerances"]["trace_tol"] = 1e-16
    path = _write(tmp_path, data)
    deadline(20)
    assert main([command, "--config", str(path)]) == 2
    assert "trace_tol 1e-16 is under 2.22e-11" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_accepts_trace_tol_at_rounding_floor(tmp_path):
    data = _base_config(str(tmp_path))
    data["tolerances"]["trace_tol"] = ebk.portrait.MIN_TRACE_TOL
    assert parse_config(data).trace_tol == ebk.portrait.MIN_TRACE_TOL
