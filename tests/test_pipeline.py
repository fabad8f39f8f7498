"""Pipeline internals: the CSV writer, trace counts per stage, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebk
from ebk import cli, errors, integrate, oracle, pipeline, portrait, solver
from ebk.config import STAGES, parse_config

from oracles import scan_arcs_py


def _config(out_dir, pipeline_stages) -> ebk.config.RunConfig:
    return parse_config(
        {
            "symbol": {"name": "harmonic", "params": {}},
            "window": {"e1": 0.2, "e2": 0.8, "margin": 0.05},
            "hbars": [0.1],
            "pipeline": pipeline_stages,
            "tolerances": {"action_samples": 17},
            "seed": 3,
            "output_dir": str(out_dir),
        }
    )


def _joined(header, rows) -> str:
    """The CSV text of one _fmt call per value."""
    lines = [",".join(header)] + [",".join(pipeline._fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_fmt_join(tmp_path):
    rng = np.random.default_rng(5)
    random_doubles = rng.integers(0, 2**63, size=300, dtype=np.int64).view(np.float64)
    rows = [
        (1, np.int64(-7), True, np.bool_(False), -0.0, 1e-300),
        (0, np.int32(2**31 - 1), False, np.bool_(True), math.nan, 0.1),
        (-3, 10**18, True, False, 1 / 3, np.float64(2 / 3)),
        # A column changing type between rows is formatted by each value's type.
        (2.5, 4, 1.0, 0, -math.inf, 1.2345678901234567e300),
        (np.float32(0.1), np.float64(-0.0), np.uint8(9), np.nan, 5e-324, 123456789012345678.0),
    ]
    rows += [tuple(random_doubles[i : i + 6]) for i in range(0, 300, 6)]
    header = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "t.csv"
    pipeline._write_csv(path, header, iter(rows))
    assert path.read_text(encoding="utf-8") == _joined(header, rows)
    pipeline._write_csv(path, header, [])
    assert path.read_text(encoding="utf-8") == "a,b,c,d,e,f\n"


def test_write_json_matches_plain_python(tmp_path):
    # NumPy scalars and arrays are written as the Python values they hold.
    numpy_obj = {
        "f": np.float64(0.1), "i": np.int64(-7), "b": np.bool_(True), "nan": np.float64("nan"),
        "a": np.array([[1.5, -0.0]]), "t": (np.float32(0.1), np.uint8(3)), "n": None,
    }
    plain_obj = {
        "f": 0.1, "i": -7, "b": True, "nan": math.nan,
        "a": [[1.5, -0.0]], "t": [float(np.float32(0.1)), 3], "n": None,
    }
    pipeline._write_json(tmp_path / "numpy.json", numpy_obj)
    pipeline._write_json(tmp_path / "plain.json", plain_obj)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_writers_replace_an_existing_artifact(tmp_path):
    # A rerun writes each artifact as a new file: a hard link to the old one
    # keeps the old bytes, which truncating the file in place would not.
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
    pipeline._write_csv(csv_path, ["a"], [(1,)])
    pipeline._write_json(json_path, {"a": 1})
    os.link(csv_path, tmp_path / "old.csv")
    os.link(json_path, tmp_path / "old.json")
    pipeline._write_csv(csv_path, ["a"], [(2,)])
    pipeline._write_json(json_path, {"a": 2})
    assert csv_path.read_text(encoding="utf-8") == "a\n2\n"
    assert (tmp_path / "old.csv").read_text(encoding="utf-8") == "a\n1\n"
    assert json.loads(json_path.read_text(encoding="utf-8")) == {"a": 2}
    assert json.loads((tmp_path / "old.json").read_text(encoding="utf-8")) == {"a": 1}


def test_writers_return_the_sha256_of_their_bytes(tmp_path):
    # The digest is hashed as the chunks are written, not read back.
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
    csv_digest = pipeline._write_csv(csv_path, ["a", "b"], [(1, 0.1), "x,\u00e9\n", (np.int64(2), -0.0)])
    json_digest = pipeline._write_json(json_path, {"a": np.array([1.5]), "b": "\u00e9"})
    assert csv_digest == hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert json_digest == hashlib.sha256(json_path.read_bytes()).hexdigest()
    assert pipeline._write_csv(tmp_path / "e.csv", ["a"], []) == hashlib.sha256(b"a\n").hexdigest()


def _component_rows(families):
    """components.csv rows of every stride-th sample, one tuple per line, t
    the sample's flow time as LevelComponent documents it."""
    for family in families:
        for comp in family.components:
            n = len(comp.points)
            stride = max(1, n // pipeline._CSV_STRIDE_TARGET)
            times = np.linspace(0.0, comp.period, n, endpoint=False)
            for t, (x, xi) in zip(times[::stride], comp.points[::stride]):
                yield (family.k, comp.energy, float(t), float(x), float(xi))


def test_components_csv_matches_row_writer(tmp_path):
    header = ["k", "E", "t", "x", "xi"]
    state = pipeline._RunState(_sextic_config(tmp_path / "run", [0.1], ["trace"]), tmp_path)
    pipeline._stage_trace(state)
    assert len(state.families) == 3
    text = (tmp_path / "components.csv").read_text(encoding="utf-8")
    assert text == _joined(header, _component_rows(state.families))
    # Lengths that are not a multiple of the stride, and awkward values.
    points = np.array([[-0.0, 5e-324], [1e300, -1 / 3], [0.1, 2.0]] * 401)[:1201]
    comps = tuple(
        portrait.LevelComponent(
            energy=e, points=points[:n], period=7.0,
            seed=(0.0, 0.0), action=1.0,
        )
        for e, n in ((0.1, 1201), (1 / 3, 1), (2.0, 1024), (-0.0, 513))
    )
    families = [portrait.ComponentFamily(k=k, components=comps) for k in (1, 12)]
    path = tmp_path / "synthetic.csv"
    pipeline._write_csv(path, header, pipeline._component_blocks(families))
    assert path.read_text(encoding="utf-8") == _joined(header, _component_rows(families))


def test_components_csv_times_are_exact_fractions_of_the_period(tmp_path):
    # The written rows decimate the traced samples by a power of two, so row
    # k of each block is the flow time k * period / n to the bit, as every
    # coarser stride of the same dense output would write it.
    n = pipeline._CSV_STRIDE_TARGET
    state = pipeline._RunState(_dw_config(tmp_path, ["trace"]), tmp_path)
    pipeline._stage_trace(state)
    comps = [c for f in state.families for c in f.components]
    with (tmp_path / "components.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(comps) == 2 * portrait.DEFAULT_ACTION_SAMPLES and len(rows) == n * len(comps)
    for j, comp in enumerate(comps):
        block = rows[n * j : n * (j + 1)]
        assert {float(r["E"]) for r in block} == {comp.energy}
        assert [float(r["t"]) for r in block] == [k * comp.period / n for k in range(n)]


def test_run_manifest_records_blas_threading(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    manifest, code = pipeline.run(_config(tmp_path, ["trace"]), verbose=True)
    expected = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
    assert code == 0 and manifest["environment"] == expected
    written = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert written["environment"] == expected
    line = '[ebk] environment: {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": null}'
    assert capsys.readouterr().out.splitlines()[0] == line


def test_run_manifest_reports_trace_metrics(tmp_path, capsys):
    runs = [
        pipeline.run(_config(tmp_path / name, ["trace"]), verbose=True) for name in "ab"
    ]
    printed = capsys.readouterr().out.splitlines()
    for manifest, code in runs:
        assert code == 0
        trace = manifest["metrics"]["trace"]
        assert trace["orbits"] == 17
        assert set(trace["dp45_steps"]) == {"1"} and trace["dp45_steps"]["1"] > 17
        line = f"[ebk] trace: 17 orbits, dp45 steps {trace['dp45_steps']}"
        assert printed.count(line) == 2
    assert runs[0][0]["metrics"] == runs[1][0]["metrics"]
    assert runs[0][0]["files"] == runs[1][0]["files"]
    written = json.loads((tmp_path / "a" / "manifest.json").read_text(encoding="utf-8"))
    assert written["metrics"] == runs[0][0]["metrics"]
    # The count is the traced components' own accepted steps.
    families = ebk.build_families(
        ebk.schrodinger_symbol(ebk.harmonic_potential()), ebk.EnergyWindow(0.2, 0.8, 0.05), 17
    )
    assert sum(c.steps for c in families[0].components) == trace["dp45_steps"]["1"]


def test_run_manifest_reports_arcs_and_attempts(tmp_path, capsys, monkeypatch):
    evals = []
    steps = integrate.dp45_steps

    def counted(f, *args, **kwargs):
        evals.append(0)

        def rhs(y):
            evals[-1] += 1
            return f(y)

        return steps(rhs, *args, **kwargs)

    monkeypatch.setattr(integrate, "dp45_steps", counted)
    runs = [
        pipeline.run(_config(tmp_path / name, ["trace"]), verbose=True) for name in "ab"
    ]
    printed = capsys.readouterr().out.splitlines()
    assert len(evals) == 2 and evals[0] == evals[1]
    for manifest, code in runs:
        assert code == 0
        trace = manifest["metrics"]["trace"]
        # One arc per _ARC_CROSSINGS crossings of each of the 17 loops; the
        # attempts are the scan's stepper attempts.
        loops = scan_arcs_py(
            ebk.schrodinger_symbol(ebk.harmonic_potential()),
            ebk.EnergyWindow(0.2, 0.8, 0.05),
            17,
            portrait._ARC_CROSSINGS,
        )
        assert trace["arcs"] == {"1": sum(map(sum, loops))} and trace["arcs"]["1"] > 17
        assert trace["attempts"] == (evals[0] - 2) // 6
        line = f"[ebk] trace: arcs {trace['arcs']}, {trace['attempts']} stepper attempts"
        assert printed.count(line) == 2 and "reflected" not in trace
    assert runs[0][0]["metrics"] == runs[1][0]["metrics"]


def test_run_traces_once_per_family_scan(tmp_path, monkeypatch):
    columns = []
    traced = portrait.trace_component

    def counted(spec, seed, energy, *args, **kwargs):
        columns.append(np.size(energy))
        return traced(spec, seed, energy, *args, **kwargs)

    monkeypatch.setattr(portrait, "trace_component", counted)
    in_actions = []
    actions = pipeline._STAGE_FNS["actions"]

    def counted_actions(state):
        before = len(columns)
        actions(state)
        in_actions.append(len(columns) - before)

    monkeypatch.setitem(pipeline._STAGE_FNS, "actions", counted_actions)
    stages = ["trace", "actions", "spectrum", "oracle", "compare"]
    manifest, code = pipeline.run(_config(tmp_path / "out", stages))
    assert code == 0
    assert columns == [17]
    assert in_actions == [0]
    text = (tmp_path / "out" / "actions.csv").read_text(encoding="utf-8")
    assert len(text.splitlines()) == 1 + 17


def test_run_critical_seed_exit_3(tmp_path, monkeypatch):
    # Seeds placed on the harmonic well's critical point cannot be traced.
    monkeypatch.setattr(
        portrait,
        "_candidates",
        lambda spec, energies, loops: [(0.0, 0.0)] * sum(len(ls) for ls in loops),
    )
    manifest, code = pipeline.run(_config(tmp_path / "out", ["trace"]))
    assert code == 3
    assert manifest["stages"]["trace"]["note"].startswith("CriticalSeed:")


# The exit code of each failure, written out here so that a change to the
# classes' codes shows; a class added later is expected to exit 4.
_EXIT_3 = {
    "HypothesisError", "RegularityViolation", "NonConstantTopology",
    "NonCompactWindow", "PreimageNotEnclosed", "NotDiffeomorphism",
    "DomainTooSmall", "EmptyLevelSet", "TraceDiverged", "CriticalSeed",
    "DegenerateCaustic",
}
_EXIT_2 = {"ConfigError", "GridTooLarge", "TooManyLevels"}
_ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.EbkError)),
    key=lambda c: c.__name__,
)


def _failing(exc_type):
    def stage(state):
        raise exc_type("injected")

    return stage


@pytest.mark.parametrize("exc_type", _ERROR_CLASSES + [ValueError], ids=lambda c: c.__name__)
def test_run_exit_code_of_each_error(tmp_path, monkeypatch, exc_type):
    name = exc_type.__name__
    expected = 3 if name in _EXIT_3 else 2 if name in _EXIT_2 else 4
    monkeypatch.setitem(pipeline._STAGE_FNS, "trace", _failing(exc_type))
    manifest, code = pipeline.run(_config(tmp_path / "out", ["trace"]))
    assert code == expected
    assert manifest["stages"]["trace"]["note"] == f"{name}: injected"


@pytest.mark.parametrize(
    "trace_error, oracle_error, expected",
    [
        (errors.TraceDiverged, errors.GridTooLarge, 2),
        (errors.ConfigError, errors.TraceDiverged, 2),
        (errors.TraceDiverged, ValueError, 3),
        (errors.BisectionFailed, RuntimeError, 4),
    ],
)
def test_run_exit_code_of_two_failures(tmp_path, monkeypatch, trace_error, oracle_error, expected):
    # trace and oracle are independent, so both run and both fail.
    monkeypatch.setitem(pipeline._STAGE_FNS, "trace", _failing(trace_error))
    monkeypatch.setitem(pipeline._STAGE_FNS, "oracle", _failing(oracle_error))
    manifest, code = pipeline.run(_config(tmp_path / "out", ["trace", "oracle"]))
    assert [manifest["stages"][s]["status"] for s in ("trace", "oracle")] == ["failed"] * 2
    assert code == expected


def test_run_refuses_a_family_over_the_level_cap(tmp_path, monkeypatch, deadline):
    # The harmonic window [0.2, 0.8] holds the 6 levels 0.1 (n + 1/2),
    # n = 2..7, at hbar = 0.1: a cap of 6 passes them, a cap of 5 refuses
    # them before the spectrum stage sizes a list.
    deadline(5)
    stages = ["trace", "actions", "spectrum", "doublets"]
    monkeypatch.setattr(solver, "_MAX_LEVELS", 6)
    assert pipeline.run(_config(tmp_path / "six", stages))[1] == 0
    monkeypatch.setattr(solver, "_MAX_LEVELS", 5)
    manifest, code = pipeline.run(_config(tmp_path / "five", stages))
    assert code == 2
    assert manifest["stages"]["spectrum"]["note"] == (
        "TooManyLevels: family 1 has 6 window levels at hbar=0.1, over the 5 cap"
    )


@pytest.mark.parametrize(
    "hbar, count",
    [(1e-320, "about inf"), (1e-300, "about 5.49e+299")],
)
def test_run_refuses_a_vanishing_hbar_by_the_level_cap(tmp_path, deadline, hbar, count):
    # kerr on [0.2, 1.0]: at hbar = 1e-320 (subnormal) A0 / (2 pi hbar)
    # overflows to inf, and at 1e-300 the count has 300 digits; both are
    # refused by the float span of n, the count printed to 3 digits.
    deadline(20)
    config = parse_config(
        {
            "symbol": {"name": "kerr", "params": {"chi": 0.5}},
            "window": {"e1": 0.2, "e2": 1.0, "margin": 0.05},
            "hbars": [hbar],
            "pipeline": ["trace", "actions", "spectrum"],
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
    )
    manifest, code = pipeline.run(config)
    assert code == 2
    assert manifest["stages"]["spectrum"]["note"] == (
        f"TooManyLevels: family 1 has {count} window levels at hbar={hbar:g}, "
        "over the 100000 cap"
    )


def test_oracle_refuses_a_basis_over_the_cap_before_bisecting(tmp_path, monkeypatch, deadline):
    # dw_pipeline at hbar = 0.1: the finest grid and the window levels are
    # counted first, and a basis over the cap is refused before any bisection.
    deadline(5)
    bisections = []
    monkeypatch.setattr(oracle, "eigenvalues_in", lambda *args, **kwargs: bisections.append(1))
    monkeypatch.setattr(oracle, "_MAX_BASIS", 1000)
    manifest, code = pipeline.run(_dw_config(tmp_path, ["oracle"]))
    assert code == 2 and not bisections
    note = manifest["stages"]["oracle"]["note"]
    pattern = r"TooManyLevels: (\d+) window levels on the (\d+)-point grid, (\d+) basis entries"
    m, n, entries = map(int, re.match(pattern, note).groups())
    assert note.endswith(", over the 1000 cap")
    _, N = oracle.domain_auto(ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05), 0.1)
    assert n == 4 * N - 3 and m * n == entries > 1000 and m >= 2


def test_run_manifest_reports_table_health(tmp_path, capsys):
    runs = [
        pipeline.run(_config(tmp_path / name, ["trace", "actions"]), verbose=True)
        for name in "ab"
    ]
    printed = capsys.readouterr().out.splitlines()
    for manifest, code in runs:
        assert code == 0
        assert set(manifest["actions"]) == {"1"}
        assert manifest["actions"]["1"]["samples"] == 17
        assert 0.0 <= manifest["actions"]["1"]["tau_consistency"] <= 1e-8
        table_err = manifest["actions"]["1"]["table_err"]
        assert 0.0 <= table_err <= 1e-12  # A0 = 2 pi E: only rounding is left
        assert printed.count(f"[ebk] actions: table_err {{'1': '{table_err:.2g}'}}") == 2
        assert "actions" not in manifest["checks"]
    assert runs[0][0]["actions"] == runs[1][0]["actions"]
    written = json.loads((tmp_path / "a" / "manifest.json").read_text(encoding="utf-8"))
    assert written["actions"] == runs[0][0]["actions"]


SEXTIC = [0, 0, 3, 0, -3.5, 0, 1]  # 3x^2 - 3.5x^4 + x^6: three wells below 0.45


def _sextic_config(out_dir, hbars, pipeline_stages) -> ebk.config.RunConfig:
    return parse_config(
        {
            "symbol": {"name": "polynomial", "params": {"coefficients": SEXTIC}},
            "window": {"e1": 0.1, "e2": 0.4, "margin": 0.05},
            "hbars": hbars,
            "pipeline": pipeline_stages,
            "seed": 1,
            "output_dir": str(out_dir),
        }
    )


def test_oracle_csv_marks_unresolved_node_counts(tmp_path):
    # At hbar = 0.025 the sextic's index 6 counts 2 nodes and the doublet
    # 7/8 counts 5/4: their vectors miss the outer wells, and say so.
    _, code = pipeline.run(_sextic_config(tmp_path, [0.05, 0.025], ["oracle"]))
    assert code == 0
    with (tmp_path / "oracle.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["resolved"] for row in rows} == {"true", "false"}
    flags = {(float(r["hbar"]), int(r["index"])): r["resolved"] == "true" for r in rows}
    assert not any(flags[0.025, i] for i in (6, 7, 8))
    for hbar in (0.05, 0.025):
        resolved = [r for r in rows if float(r["hbar"]) == hbar and r["resolved"] == "true"]
        assert sorted(int(r["nodes"]) for r in resolved) == sorted(int(r["index"]) for r in resolved)
    assert all(flags[0.05, i] for i in range(3, 8))


def test_run_bijection_holds_without_interior_pairs(tmp_path):
    # At these hbar the window interior holds no level of any family, but
    # the three families' edge levels carry the same global indices as the
    # oracle's.
    stages = ["trace", "actions", "spectrum", "oracle", "compare"]
    manifest, code = pipeline.run(_sextic_config(tmp_path, [0.1, 0.05], stages))
    assert code == 0
    assert manifest["checks"]["bijection"] is True
    assert len(manifest["actions"]) == 3
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    assert all(not rep["pairs"] and not rep["one_sided"] for rep in match.values())
    with (tmp_path / "oracle.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    levels = {h: sum(float(r["hbar"]) == h for r in rows) for h in (0.1, 0.05)}
    assert levels == {h: match[pipeline._fmt(h)]["unmatched_bs"] for h in levels}
    assert all(levels.values())


def test_run_bijection_fails_on_a_one_sided_index(tmp_path, monkeypatch):
    # An oracle run that drops its top window level at hbar = 0.05 leaves
    # that global index on the predicted side only: the bijection check
    # fails (exit 4) while every stage is ok, and match.json names the index.
    solve_window = pipeline.solve_window

    def drop_top(potential, window, hbar, **kwargs):
        run = solve_window(potential, window, hbar, **kwargs)
        if hbar != 0.05:
            return run
        res = run.result
        return dataclasses.replace(
            run,
            result=ebk.EigenResult(res.eigenvalues[:-1], res.indices[:-1]),
            node_counts=run.node_counts[:-1],
            resolved=run.resolved[:-1],
        )

    monkeypatch.setattr(pipeline, "solve_window", drop_top)
    manifest, code = pipeline.run(_dw_config(tmp_path, ["oracle", "compare"]))
    assert code == 4
    assert all(stage["status"] == "ok" for stage in manifest["stages"].values())
    assert manifest["checks"]["bijection"] is False
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    assert match[pipeline._fmt(0.1)]["one_sided"] == []
    assert match[pipeline._fmt(0.05)]["one_sided"] == [9]


def test_run_bijection_null_without_levels(tmp_path):
    # At hbar = 5 the harmonic window holds no level on either side: there
    # is nothing to pair, which is not a failed verification.
    config = parse_config(
        {
            "symbol": {"name": "harmonic", "params": {}},
            "window": {"e1": 0.2, "e2": 0.8, "margin": 0.05},
            "hbars": [5.0],
            "pipeline": ["compare"],
            "output_dir": str(tmp_path),
        }
    )
    manifest, code = pipeline.run(config)
    assert code == 0
    assert manifest["checks"]["bijection"] is None
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    assert match == {
        "5": {
            "pairs": [], "unmatched_bs": 0, "unmatched_oracle": 0,
            "max_err": 0.0, "mean_err": 0.0, "nodes_match": True, "one_sided": [],
        }
    }


def test_run_sextic_all_stages(tmp_path):
    stages = list(STAGES)
    manifest, code = pipeline.run(_sextic_config(tmp_path, [0.05, 0.025], stages))
    assert code == 0
    assert len(manifest["actions"]) == 3
    assert manifest["checks"]["bijection"] is True
    assert manifest["checks"]["weyl_exact"] is True


@pytest.mark.parametrize(
    "name, params, e1, hbars",
    [
        ("anisotropic_harmonic", {"a": 1.0, "b": 4.0}, 1.0, [0.2, 0.05]),
        ("harmonic", {}, 0.5, [0.2]),
    ],
)
def test_run_branches_monotone_for_a_level_on_e1(tmp_path, name, params, e1, hbars):
    # Level n = 2 sits on e1 at hbar_top (omega = 2 and 1): its exit hbar
    # is hbar_top up to rounding, a few ulps above it here, and its branch
    # runs from there to hbar_top, not backwards.
    config = parse_config(
        {
            "symbol": {"name": name, "params": params},
            "window": {"e1": e1, "e2": e1 + 1.0, "margin": 0.05},
            "hbars": hbars,
            "pipeline": ["branches"],
            "output_dir": str(tmp_path),
        }
    )
    manifest, code = pipeline.run(config)
    assert code == 0
    assert manifest["checks"]["branches_monotone"] is True
    with open(tmp_path / "branches.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    assert first["n"] == "2" and float(first["hbar_exit"]) * (1 + 1e-9) > hbars[0]


def test_run_slow_oscillator_has_no_flow_time_budget(tmp_path, deadline):
    # The harmonic oscillator in time units 1e4 times slower, a = b = 1e-4:
    # its period is 2 pi 1e4, and it is traced in as many stepper attempts
    # as at a = b = 1, since a trace is bounded by attempts, not flow time.
    deadline(20)
    config = parse_config(
        {
            "symbol": {"name": "anisotropic_harmonic", "params": {"a": 1e-4, "b": 1e-4}},
            "window": {"e1": 1.0, "e2": 2.0, "margin": 0.05},
            "hbars": [1000, 500],
            "pipeline": ["trace", "actions", "spectrum", "branches", "doublets"],
            "output_dir": str(tmp_path),
        }
    )
    manifest, code = pipeline.run(config)
    assert code == 0
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    for row in rows:
        exact = float(row["hbar"]) * 1e-4 * (int(row["n"]) + 0.5)
        assert abs(float(row["E"]) - exact) <= 1e-12


# Catalog entries of the sweep below, each with omega where its spectrum is
# exactly hbar omega (n + 1/2), else None; every minimum is 0 except the
# tilted polynomial's, read from the symbol.
_SWEEP_ENTRIES = {
    "harmonic": ({}, 1.0),
    "quartic": ({}, None),
    "polynomial": ({"coefficients": [1.0, 0.1, -2.0, 0.0, 1.0]}, None),
    "double_well": ({"a": 1.0}, None),
    "morse": ({"D": 1.0, "a": 1.0}, None),
    "kerr": ({"chi": 0.5}, None),
    "anisotropic_harmonic": ({"a": 1.0, "b": 4.0}, 2.0),
}


@st.composite
def _sweep_configs(draw, kind):
    exact = sorted(name for name, (_, omega) in _SWEEP_ENTRIES.items() if omega)
    name = draw(st.sampled_from(exact if kind == "on_e1" else sorted(_SWEEP_ENTRIES)))
    params, omega = _SWEEP_ENTRIES[name]
    spec = ebk.symbol_from_config(name, params)
    vmin = spec.potential.min_value() if spec.potential is not None else 0.0
    hbars = sorted(
        draw(st.lists(st.sampled_from([0.3, 0.2, 0.1, 0.05]), min_size=1, max_size=2, unique=True)),
        reverse=True,
    )
    margin = draw(st.sampled_from([0.05, 0.02]))
    if kind == "below":  # up to the widened top at the minimum itself
        e2 = vmin - margin - draw(st.floats(0.0, 0.5))
        e1 = e2 - draw(st.floats(0.05, 0.5))
    elif kind == "across":
        e1 = vmin - draw(st.floats(0.0, 0.3))
        e2 = vmin + draw(st.floats(0.05, 0.6))
    else:  # an exact level at hbar_top on e1
        e1 = omega * hbars[0] * (draw(st.integers(0, 3)) + 0.5)
        e2 = e1 + draw(st.floats(0.2, 0.8))
    stages = [s for s in STAGES if spec.potential is not None or s not in ("oracle", "compare", "weyl")]
    # The defaults first; the last trace_tol is under the floor parse_config
    # refuses, and an oracle_tol of 0.3 fails the oracle (exit 4).
    min_tol = portrait.MIN_TRACE_TOL
    trace_tol = draw(st.sampled_from([1e-10, 1e-6, 1e-4, 1.05 * min_tol, 0.9 * min_tol]))
    tolerances = {
        "trace_tol": trace_tol,
        "oracle_tol": draw(st.sampled_from([3e-4, 3e-3, 3e-5, 0.3])),
        "action_samples": draw(st.sampled_from([9, 10, 17])),
    }
    return name, {
        "symbol": {"name": name, "params": params},
        "window": {"e1": e1, "e2": e2, "margin": margin},
        "hbars": hbars,
        "pipeline": stages,
        "tolerances": tolerances,
    }


@pytest.mark.parametrize("kind", ["below", "across", "on_e1"])
@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=20)
@given(data=st.data())
def test_run_sweep_ends_in_a_typed_exit(tmp_path_factory, kind, data):
    # Windows below a minimum, across one and with an exact level on e1, at
    # drawn tolerances, through parse_config and pipeline.run: each run exits 0 or with a
    # typed 2, 3 or 4, each failed stage's note names an EbkError, and the
    # exact harmonic spectra never read as non-monotone branches.
    name, raw = data.draw(_sweep_configs(kind))
    raw["output_dir"] = str(tmp_path_factory.mktemp("sweep"))
    try:
        config = parse_config(raw)
    except errors.ConfigError:
        return
    manifest, code = pipeline.run(config)
    assert code in (0, 2, 3, 4)
    for stage in manifest["stages"].values():
        if stage["status"] == "failed":
            error = getattr(errors, stage["note"].split(":")[0], None)
            assert isinstance(error, type) and issubclass(error, errors.EbkError), stage["note"]
    if name in ("harmonic", "anisotropic_harmonic"):
        assert manifest["checks"].get("branches_monotone") is not False


def _dw_config(out_dir, pipeline_stages, seed=1) -> ebk.config.RunConfig:
    return parse_config(
        {
            "symbol": {"name": "double_well", "params": {"a": 1.0}},
            "window": {"e1": 0.1, "e2": 0.6, "margin": 0.05},
            "hbars": [0.1, 0.05],
            "pipeline": pipeline_stages,
            "seed": seed,
            "output_dir": str(out_dir),
        }
    )


def test_seed_changes_no_artifact(tmp_path):
    # The dw_pipeline benchmark config: seed is accepted and has no effect,
    # since no stage draws random numbers.
    runs = [pipeline.run(_dw_config(tmp_path / str(seed), list(STAGES), seed)) for seed in (1, 2)]
    assert [code for _, code in runs] == [0, 0]
    (first, _), (second, _) = runs
    assert first["files"] == second["files"]
    assert first["checks"]["weyl_exact"] is True
    assert "rng" not in first and "seed" not in first["config"]


def test_import_leaves_numpy_random_out():
    # numpy.random is a lazy NumPy submodule: nothing in ebk loads it.
    src = str(Path(ebk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, ebk.config, ebk.pipeline; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"]


def test_weyl_stage_counts_from_oracle_brackets(tmp_path, capsys, monkeypatch):
    # The dw_pipeline benchmark config: the Weyl stage counts every endpoint
    # from the oracle's window levels, with no count_below call, and the
    # manifest carries no Weyl counters.
    stage = []
    calls = []
    count_below = ebk.oracle.count_below
    weyl_stage = pipeline._STAGE_FNS["weyl"]

    def counted(T, lam):
        calls.append(stage[-1] if stage else None)
        return count_below(T, lam)

    def in_weyl(state):
        stage.append("weyl")
        try:
            return weyl_stage(state)
        finally:
            stage.pop()

    monkeypatch.setattr(ebk.oracle, "count_below", counted)
    monkeypatch.setitem(pipeline._STAGE_FNS, "weyl", in_weyl)
    manifest, code = pipeline.run(_dw_config(tmp_path, list(STAGES)), verbose=True)
    assert code == 0 and manifest["checks"]["weyl_exact"] is True
    assert calls == [None] * 12  # one per parity block of each oracle grid and hbar
    weyl = json.loads((tmp_path / "weyl.json").read_text(encoding="utf-8"))
    # 2 and 4 safe gaps at hbar = 0.1 and 0.05: the first endpoint against each later one.
    assert {float(h): len(trials) for h, trials in weyl.items()} == {0.1: 1, 0.05: 3}
    assert all(t["exact"] for trials in weyl.values() for t in trials)
    written = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert set(written["metrics"]) == set(manifest["metrics"]) == {"trace"}
    # --verbose prints the Weyl stage's status line and nothing else about it.
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[ebk] weyl:")]
    assert len(lines) == 1 and lines[0].startswith("[ebk] weyl: ok (")


def test_oracle_lapack_calls_per_grid(tmp_path, monkeypatch):
    # The dw_pipeline benchmark config: the even double well is solved in
    # parity blocks, the even one of n // 2 + 1 and the odd one of n // 2
    # nodes of each n-point grid. Per hbar and block, dstebz bisects only
    # the coarsest grid's block, to _SHIFT_TOL, and dstein runs once there,
    # at the block's half of the 4 and 8 levels of the two hbar; each finer
    # grid's block gets one dgtsv solve per level and no bisection, only its
    # Sturm counts, which come before any coarsest grid's, so a basis over
    # its cap is refused before bisecting.
    stebz, stein, gtsv = [], [], []
    dstebz, dstein, dgtsv = ebk.oracle.dstebz, ebk.oracle.dstein, ebk.oracle.dgtsv

    def counted_stebz(d, e, *args):
        stebz.append((d.size, args[-2]))  # (grid size, tolerance)
        return dstebz(d, e, *args)

    def counted_stein(d, e, w, *args):
        stein.append((d.size, w.size))
        return dstein(d, e, w, *args)

    def counted_gtsv(dl, d, du, b, **kwargs):
        gtsv.append(d.size)
        return dgtsv(dl, d, du, b, **kwargs)

    monkeypatch.setattr(ebk.oracle, "dstebz", counted_stebz)
    monkeypatch.setattr(ebk.oracle, "dstein", counted_stein)
    monkeypatch.setattr(ebk.oracle, "dgtsv", counted_gtsv)
    manifest, code = pipeline.run(_dw_config(tmp_path, list(STAGES)))
    assert code == 0
    grids = [meta["grid_sizes"] for meta in manifest["oracle"].values()]
    blocks = [[(n // 2 + 1, n // 2) for n in sizes] for sizes in grids]
    assert all(meta["parity_blocks"] for meta in manifest["oracle"].values())
    half = [2, 4]  # of the 4 and 8 levels, in each block
    assert stein == [(b, k) for (c, _, _), k in zip(blocks, half) for b in c]
    assert gtsv == [
        n
        for (_, m, f), k in zip(blocks, half)
        for i in (0, 1)
        for n in (m[i], f[i])
        for _ in range(k)
    ]
    bisections = [(n, tol) for n, tol in stebz if math.isfinite(tol)]
    assert bisections == [(b, ebk.oracle._SHIFT_TOL) for c, _, _ in blocks for b in c]
    counts = [n for n, tol in stebz if not math.isfinite(tol)]
    assert counts == [
        n
        for c, m, f in blocks
        for n in (m[0], f[0], m[1], f[1], c[0], c[1])
        for _ in (0, 1)
    ]


def test_oracle_doublet_rows_carry_both_node_counts(tmp_path):
    # Node counts are read from the coarse Ritz vectors, so each member of a
    # double-well doublet resolved at these hbar carries its own index's.
    _, code = pipeline.run(_dw_config(tmp_path, ["oracle"]))
    assert code == 0
    doublets = {}
    with (tmp_path / "oracle.csv").open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            index = int(row["index"])
            doublets.setdefault((row["hbar"], index // 2), []).append((index, int(row["nodes"])))
    assert len(doublets) == 6
    for rows in doublets.values():
        indices, nodes = zip(*rows)
        assert len(rows) == 2 and nodes == indices


def test_two_family_run_checks_node_counts(tmp_path):
    # Two families interleave in node order, so the node counts are checked
    # against the global indices, level by level.
    manifest, code = pipeline.run(_dw_config(tmp_path, ["oracle", "compare"]))
    assert code == 0
    assert manifest["checks"]["nodes_match"] is True
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    assert [rep["nodes_match"] for rep in match.values()] == [True, True]


def test_corrupt_node_count_exits_4(tmp_path, monkeypatch):
    calls = []

    def off_by_one_once(v):
        calls.append(None)
        return ebk.node_count(v) + (1 if len(calls) == 3 else 0)

    monkeypatch.setattr(ebk.oracle, "node_count", off_by_one_once)
    manifest, code = pipeline.run(_dw_config(tmp_path, ["oracle", "compare"]))
    assert code == 4
    assert manifest["stages"]["compare"]["status"] == "ok"
    assert manifest["checks"]["nodes_match"] is False
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    # The third count is at hbar = 0.1; the other hbar keeps its identity.
    assert match[pipeline._fmt(0.1)]["nodes_match"] is False
    assert match[pipeline._fmt(0.05)]["nodes_match"] is True


def test_swapped_node_counts_exit_4(tmp_path, monkeypatch):
    # Two resolved levels that trade node counts keep the multiset of node
    # counts but fail the per-level check: `ebk run` exits 4, naming
    # nodes_match, with every stage ok.
    solve_window = pipeline.solve_window

    def swapped(potential, window, hbar, **kwargs):
        run = solve_window(potential, window, hbar, **kwargs)
        nodes = list(run.node_counts)
        nodes[0], nodes[1] = nodes[1], nodes[0]
        return dataclasses.replace(run, node_counts=tuple(nodes))

    monkeypatch.setattr(pipeline, "solve_window", swapped)
    config = {
        "symbol": {"name": "double_well", "params": {"a": 1.0}},
        "window": {"e1": 0.1, "e2": 0.6, "margin": 0.05},
        "hbars": [0.1, 0.05],
        "pipeline": ["oracle", "compare"],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert all(stage["status"] == "ok" for stage in manifest["stages"].values())
    assert manifest["checks"]["nodes_match"] is False
    match = json.loads((tmp_path / "out" / "match.json").read_text(encoding="utf-8"))
    assert [rep["nodes_match"] for rep in match.values()] == [False, False]


def test_run_manifest_reports_reflected_families_and_parity_blocks(tmp_path, capsys):
    # The even double well: family 2 is family 1 reflected, which traced
    # nothing, and the oracle ran in parity blocks; the manifest and
    # --verbose say so, the same on a rerun, and oracle.csv carries each
    # level's parity (-1)^index.
    runs = [
        pipeline.run(_dw_config(tmp_path / name, list(STAGES)), verbose=True) for name in "ab"
    ]
    printed = capsys.readouterr().out.splitlines()
    for manifest, code in runs:
        assert code == 0
        trace = manifest["metrics"]["trace"]
        assert trace["orbits"] == portrait.DEFAULT_ACTION_SAMPLES
        assert trace["reflected"] == {"2": 1}
        assert trace["dp45_steps"]["2"] == trace["arcs"]["2"] == 0 < trace["arcs"]["1"]
        assert printed.count("[ebk] trace: reflected {'2': 1}") == 2
        assert [meta["parity_blocks"] for meta in manifest["oracle"].values()] == [True, True]
        assert printed.count("[ebk] oracle: parity blocks {'0.10000000000000001': True, "
                             "'0.050000000000000003': True}") == 2
    assert runs[0][0]["metrics"] == runs[1][0]["metrics"]
    assert runs[0][0]["files"] == runs[1][0]["files"]
    with (tmp_path / "a" / "oracle.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(int(r["parity"]) == (-1) ** int(r["index"]) for r in rows)
    assert all(r["nodes"] == r["index"] and r["resolved"] == "true" for r in rows)
    with (tmp_path / "a" / "actions.csv").open(encoding="utf-8") as fh:
        actions = list(csv.DictReader(fh))
    family = {k: [(r["E"], r["A0"], r["tau"], r["maslov"]) for r in actions if r["k"] == k]
              for k in "12"}
    assert family["1"] == family["2"]


def test_run_manifest_counts_batched_landing_solves(tmp_path, capsys, monkeypatch):
    # The double well's scan: family 1 takes both loops' 502 arcs, whose
    # landings are solved in 9 batched _section_crossing calls; the manifest
    # and --verbose report the count, the same on a rerun.
    calls = []
    solve = portrait._section_crossing

    def counted(*args):
        calls.append(len(args[0].cols))
        return solve(*args)

    monkeypatch.setattr(portrait, "_section_crossing", counted)
    runs = [pipeline.run(_dw_config(tmp_path / name, ["trace"]), verbose=True) for name in "ab"]
    printed = capsys.readouterr().out.splitlines()
    assert len(calls) == 2 * 9
    for manifest, code in runs:
        assert code == 0
        trace = manifest["metrics"]["trace"]
        assert trace["landing_solves"] == 9 and trace["arcs"] == {"1": 502, "2": 0}
        assert trace["attempts"] <= 40
    assert printed.count("[ebk] trace: 9 batched landing solves") == 2
    assert runs[0][0]["metrics"] == runs[1][0]["metrics"]


def test_uneven_oracle_keeps_its_columns(tmp_path):
    # Morse is not even: one ladder of whole grids and no parity column.
    config = parse_config(
        {
            "symbol": {"name": "morse", "params": {}},
            "window": {"e1": 0.1, "e2": 0.6, "margin": 0.05},
            "hbars": [0.1],
            "pipeline": ["oracle"],
            "output_dir": str(tmp_path),
        }
    )
    manifest, code = pipeline.run(config)
    assert code == 0 and manifest["oracle"]["0.10000000000000001"]["parity_blocks"] is False
    header = (tmp_path / "oracle.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "hbar,index,E,nodes,resolved"
