import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebk.pipeline
import ebk.portrait
from ebk.cli import main
from ebk.config import STAGE_DEPS, STAGES, load_config, parse_config
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
    # compare and weyl bring the oracle in, so each alone is refused too.
    for stage in ("oracle", "compare", "weyl"):
        data["pipeline"] = [stage]
        with pytest.raises(ConfigError, match="has no direct oracle; remove oracle/compare/weyl"):
            parse_config(data)
    data["pipeline"] = ["trace", "actions", "spectrum"]
    assert parse_config(data).symbol_name == "kerr"


def test_stage_order_follows_the_dependency_table():
    for stage, deps in STAGE_DEPS.items():
        assert all(STAGES.index(d) < STAGES.index(stage) for d in deps)


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
    assert all("basis_sizes" in meta for meta in manifest["oracle"].values())
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


def test_run_trace_attempt_budget_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(ebk.portrait, "_MAX_ATTEMPTS", 3)
    data = _base_config(str(tmp_path / "out"))
    data["pipeline"] = ["trace"]
    path = _write(tmp_path, data)
    assert main(["run", "--config", str(path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    note = manifest["stages"]["trace"]["note"]
    assert note.startswith("TraceDiverged: arc from seed") and "after 3 stepper attempts" in note


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "sub, reason",
    [("", "File exists"), ("sub", "Not a directory")],
    ids=["existing-file", "under-a-file"],
)
def test_run_output_dir_not_creatable_exit_2(tmp_path, capsys, monkeypatch, sub, reason):
    # A file where the output directory, or one of its parents, should be is
    # a config error, reported before any stage runs.
    ran = []
    for stage in list(ebk.pipeline._STAGE_FNS):
        monkeypatch.setitem(ebk.pipeline._STAGE_FNS, stage, ran.append)
    blocker = tmp_path / "taken"
    blocker.write_text("a file", encoding="utf-8")
    out = blocker / sub if sub else blocker
    path = _write(tmp_path, _base_config(str(tmp_path / "out")))
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot create output directory {out}: {reason}\n"
    assert ran == [] and blocker.read_text(encoding="utf-8") == "a file"


@pytest.mark.parametrize(
    "sub, reason",
    [("", "File exists"), ("sub", "Not a directory")],
    ids=["existing-file", "under-a-file"],
)
def test_validate_output_dir_not_creatable_exit_2(tmp_path, capsys, sub, reason):
    # validate reports the output directory run would fail to create, in
    # run's words, and creates nothing.
    blocker = tmp_path / "taken"
    blocker.write_text("a file", encoding="utf-8")
    out = blocker / sub if sub else blocker
    path = _write(tmp_path, _base_config(str(out)))
    before = sorted(tmp_path.rglob("*"))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot create output directory {out}: {reason}\n"
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text(encoding="utf-8") == "a file"


def test_validate_directory_config_exit_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config file")


def test_validate_non_utf8_config_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": "\xff"}')
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config file")


def _quartic_config(out_dir: str, hbars) -> dict:
    data = _base_config(out_dir)
    data["symbol"] = {"name": "quartic", "params": {}}
    data["window"] = {"e1": 0.5, "e2": 2.0, "margin": 0.05}
    data["hbars"] = hbars
    return data


def test_run_basis_over_cap_exit_2(tmp_path, capsys, monkeypatch):
    # The oracle's first basis is sized while the config is validated: the
    # quartic at hbar = 1e-6 would first solve 9,254,688 states, bands of 46
    # million floats, so the run stops with exit 2 before any stage (no
    # manifest is written) and before a band is built.
    def refused(*args):
        raise AssertionError("a band was built")

    monkeypatch.setattr(ebk.oracle, "_polynomial_band", refused)
    data = _quartic_config(str(tmp_path / "out"), [1e-6])
    data["pipeline"] = ["oracle"]
    path = _write(tmp_path, data)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "oracle basis at hbar=1e-06: the 9254688-state oscillator basis" in err
    assert err.rstrip().endswith("over the 33554432 cap")
    assert not (tmp_path / "out").exists()


def test_validate_basis_over_cap_exit_2(tmp_path, capsys):
    data = _quartic_config(str(tmp_path / "out"), [1e-6, 1e-7])
    path = _write(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == 2
    assert "hbar=1e-06" in capsys.readouterr().err
    # Without an oracle stage no basis is sized.
    data["pipeline"] = ["trace", "actions", "spectrum"]
    assert main(["validate", "--config", str(_write(tmp_path, data))]) == 0


def test_validate_keeps_the_reach_of_small_hbar(tmp_path):
    # The canonical windows of the double well, the quartic and Morse at
    # hbar = 0.0025 are in reach of the oracle, and an archived oracle_tol
    # that would once have sized a grid over its cap is accepted.
    for name, (e1, e2) in {"double_well": (0.1, 0.6), "quartic": (0.5, 2.0), "morse": (0.1, 0.6)}.items():
        data = _base_config(str(tmp_path / "out"))
        data["symbol"] = {"name": name, "params": {}}
        data["window"] = {"e1": e1, "e2": e2, "margin": 0.05}
        data["hbars"] = [0.0025]
        data["tolerances"]["oracle_tol"] = 1e-12
        assert main(["validate", "--config", str(_write(tmp_path, data))]) == 0


@pytest.mark.parametrize("command", ["validate", "run"])
def test_overflowing_landmark_grid_exit_2(tmp_path, capsys, command):
    # The double well's coefficient a^4 overflows at a = 1e200: the symbol
    # is refused before any stage, with or without the oracle stages.
    message = "parameter 'a' overflows the coefficient a^4"
    with_oracle = ["trace", "actions", "spectrum", "oracle", "compare"]
    for stages in (with_oracle, with_oracle[:3]):
        data = _base_config(str(tmp_path / "out"))
        data["symbol"] = {"name": "double_well", "params": {"a": 1e200}}
        data["pipeline"] = stages
        path = _write(tmp_path, data)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "where, value",
    [
        (("tolerances", "oracle_tol"), math.nan),
        (("tolerances", "trace_tol"), math.nan),
        (("tolerances", "trace_tol"), math.inf),
        (("hbars",), [math.nan]),
        (("hbars",), [math.inf]),
        (("window", "e1"), -math.inf),
        (("window", "e2"), math.inf),
        (("window", "margin"), math.inf),
        # An integer beyond the float range is an int, not Infinity.
        (("window", "e2"), 10**400),
        (("hbars",), [10**400]),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_config_number_exit_2(tmp_path, capsys, command, where, value):
    # json.loads accepts the NaN and Infinity literals json.dumps writes.
    data = _base_config(str(tmp_path / "out"))
    *parents, key = where
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    path = _write(tmp_path, data)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where[-1] in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, params",
    [
        ("polynomial", {"coefficients": "abc"}),
        ("polynomial", {"coefficients": []}),
        ("polynomial", {"coefficients": 1.0}),
        ("polynomial", {"coefficients": [0, "x", 1]}),
        ("polynomial", {"coefficients": [0, 0, math.inf]}),
        ("morse", {"D": "x"}),
        ("double_well", {"a": math.nan}),
        ("kerr", {"chi": True}),
        ("anisotropic_harmonic", {"a": 1.0, "b": 10**400}),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_symbol_parameter_exit_2(tmp_path, capsys, command, name, params):
    data = _base_config(str(tmp_path / "out"))
    data["symbol"] = {"name": name, "params": params}
    data["pipeline"] = ["trace"]
    path = _write(tmp_path, data)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    key = list(params)[-1]
    assert err.startswith("config error:") and repr(key) in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    data = _base_config(str(tmp_path / "out"))
    data["seed"] = -1
    path = _write(tmp_path, data)
    assert main([command, "--config", str(path)]) == 2
    assert "config.seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", [ebk.portrait.MAX_ACTION_SAMPLES + 1, 10**30])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_action_samples_over_cap_exit_2(tmp_path, capsys, command, samples):
    # Rejected before any trace: nothing is allocated for the samples.
    data = _base_config(str(tmp_path / "out"))
    data["tolerances"]["action_samples"] = samples
    path = _write(tmp_path, data)
    assert main([command, "--config", str(path)]) == 2
    assert f"at most {ebk.portrait.MAX_ACTION_SAMPLES}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A valid parameter set of each catalog symbol with parameters.
_SWEEP_SYMBOLS = {
    "double_well": {"a": 1.0},
    "morse": {"D": 1.0, "a": 1.0},
    "polynomial": {"coefficients": [0.0, 0.0, 0.5]},
    "kerr": {"chi": 0.5},
    "anisotropic_harmonic": {"a": 1.0, "b": 2.0},
}
_SWEEP_SLOTS = [
    ("window", "e1"),
    ("window", "e2"),
    ("window", "margin"),
    ("hbars",),
    ("hbars", 0),
    ("tolerances", "trace_tol"),
    ("tolerances", "oracle_tol"),
    ("tolerances", "action_samples"),
    ("seed",),
]
_SWEEP_VALUES = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.lists(st.floats(allow_nan=True), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.integers(min_value=2**53),
    st.sampled_from([10**400, -(10**400)]),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_config_sweep_raises_only_config_error(data):
    name = data.draw(st.sampled_from(sorted(_SWEEP_SYMBOLS)))
    params = copy.deepcopy(_SWEEP_SYMBOLS[name])
    config = _base_config("out")
    config["symbol"] = {"name": name, "params": params}
    if name in ("kerr", "anisotropic_harmonic"):  # no direct oracle
        config["pipeline"] = ["trace", "actions", "spectrum"]
    slots = _SWEEP_SLOTS + [("symbol", "params", key) for key in params]
    if name == "polynomial":
        slots += [("symbol", "params", "coefficients", i) for i in range(3)]
    *parents, key = data.draw(st.sampled_from(slots))
    target = config
    for part in parents:
        target = target[part]
    target[key] = data.draw(_SWEEP_VALUES)
    try:
        parse_config(config)
    except ConfigError:
        pass


_BELOW_MINIMUM = dict(harmonic={}, quartic={}, **_SWEEP_SYMBOLS)  # every minimum is 0


@pytest.mark.parametrize("name", sorted(_BELOW_MINIMUM))
@pytest.mark.parametrize("e2", [-0.2, -0.05], ids=["below", "top_at_minimum"])
def test_window_below_minimum_exit_3(tmp_path, name, e2):
    # Every level of the window is empty: validate passes and every stage
    # that builds a box or an oracle basis fails with NonCompactWindow, with
    # the trace stage alone or the whole pipeline. At e2 = -0.05 the widened
    # top e2 + margin is the minimum itself.
    data = _base_config(str(tmp_path / "out"))
    data["symbol"] = {"name": name, "params": _BELOW_MINIMUM[name]}
    data["window"] = {"e1": -0.5, "e2": e2, "margin": 0.05}
    no_oracle = name in ("kerr", "anisotropic_harmonic")
    full = [s for s in STAGES if not (no_oracle and s in ("oracle", "compare", "weyl"))]
    for stages in (["trace"], full):
        data["pipeline"] = stages
        path = _write(tmp_path, data)
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path)]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        ran = manifest["stages"]
        failed = {s: st["note"] for s, st in ran.items() if st["status"] == "failed"}
        assert sorted(failed) == sorted({"trace", "oracle"} & set(stages))
        assert all(note.startswith("NonCompactWindow: ") for note in failed.values())
        assert all(st["status"] == "skipped" for s, st in ran.items() if s not in failed)


def test_run_threads_flag_is_gone_exit_2(tmp_path):
    path = _write(tmp_path, _base_config(str(tmp_path / "out")))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--threads", "4"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_run_names_failed_checks(tmp_path, capsys, monkeypatch):
    # A node count off by one fails nodes_match while every stage is ok.
    monkeypatch.setattr(ebk.oracle, "node_count", lambda v: ebk.node_count(v) + 1)
    data = _base_config(str(tmp_path / "out"))
    assert main(["run", "--config", str(_write(tmp_path, data))]) == 4
    err = capsys.readouterr().err
    assert "problem stages: ; failed checks: nodes_match" in err


def test_run_double_well_edge_levels_pair_by_index(tmp_path, capsys):
    # The double well at hbar = 0.1 alone: its 4 levels all lie within one
    # mean spacing of the window edges, so no interior pair forms, but both
    # spectra hold the levels of global indices 0..3, and the run passes.
    data = _base_config(str(tmp_path / "out"))
    data["symbol"] = {"name": "double_well", "params": {"a": 1.0}}
    data["window"] = {"e1": 0.1, "e2": 0.6, "margin": 0.05}
    data["pipeline"] = list(STAGES)
    del data["tolerances"]
    assert main(["run", "--config", str(_write(tmp_path, data))]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["checks"]["bijection"] is True
    assert all(manifest["checks"].values())
    match = json.loads((tmp_path / "out" / "match.json").read_text(encoding="utf-8"))
    assert match == {
        "0.10000000000000001": {
            "pairs": [], "unmatched_bs": 4, "unmatched_oracle": 4, "max_err": 0.0,
            "mean_err": 0.0, "nodes_match": True, "one_sided": [],
        }
    }
    oracle_rows = (tmp_path / "out" / "oracle.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [int(row.split(",")[1]) for row in oracle_rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_run_verbose_into_closed_pipe_finishes(tmp_path, buffered):
    # `ebk run --verbose | head -2` once head has gone: stdout is a pipe with
    # no reader, here from the start. The run still finishes every stage,
    # writes its manifest and exits with its own code, with no traceback,
    # whether its progress lines are block-buffered or not.
    data = _base_config(str(tmp_path / "out"))
    data["pipeline"] = list(STAGES)
    path = _write(tmp_path, data)
    src = str(Path(ebk.pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ebk.cli", "run", "--verbose", "--config", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == ""
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert [st["status"] for st in manifest["stages"].values()] == ["ok"] * len(STAGES)
