"""Pipeline internals: the CSV writer, trace counts per stage, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

import ebk
from ebk import errors, pipeline, portrait
from ebk.config import STAGES, parse_config


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


def _component_rows(families):
    """components.csv rows of every stride-th sample, one tuple per line."""
    for family in families:
        for comp in family.components:
            stride = max(1, len(comp.points) // pipeline._CSV_STRIDE_TARGET)
            for t, (x, xi) in zip(comp.times[::stride], comp.points[::stride]):
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
            energy=e, points=points[:n], times=np.linspace(0.0, 7.0, n), period=7.0,
            seed=(0.0, 0.0), orientation=1, action=1.0, trace_tol=1e-10,
        )
        for e, n in ((0.1, 1201), (1 / 3, 1), (2.0, 1024), (-0.0, 513))
    )
    families = [portrait.ComponentFamily(k=k, components=comps) for k in (1, 12)]
    path = tmp_path / "synthetic.csv"
    pipeline._write_csv(path, header, pipeline._component_blocks(families))
    assert path.read_text(encoding="utf-8") == _joined(header, _component_rows(families))


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
        portrait, "_candidates", lambda spec, energy, loops: [(0.0, 0.0)] * len(loops)
    )
    manifest, code = pipeline.run(_config(tmp_path / "out", ["trace"]))
    assert code == 3
    assert manifest["stages"]["trace"]["note"].startswith("CriticalSeed:")


# The exit code of each failure, written out here so that a change to the
# classes' codes shows; a class added later is expected to exit 4.
_EXIT_3 = {
    "HypothesisError", "RegularityViolation", "NonConstantTopology",
    "NonCompactWindow", "PreimageNotEnclosed", "NotDiffeomorphism",
    "DomainTooSmall", "EmptyLevelSet", "NotClosedOrbit", "TraceDiverged",
    "CriticalSeed", "DegenerateCaustic",
}
_EXIT_2 = {"ConfigError", "GridTooLarge"}
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
        (errors.NotClosedOrbit, errors.GridTooLarge, 2),
        (errors.ConfigError, errors.TraceDiverged, 2),
        (errors.NotClosedOrbit, ValueError, 3),
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


def test_run_manifest_reports_table_health(tmp_path):
    runs = [pipeline.run(_config(tmp_path / name, ["trace", "actions"])) for name in "ab"]
    for manifest, code in runs:
        assert code == 0
        assert set(manifest["actions"]) == {"1"}
        assert manifest["actions"]["1"]["samples"] == 17
        assert 0.0 <= manifest["actions"]["1"]["tau_consistency"] <= 1e-8
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


def test_run_bijection_fails_without_pairs(tmp_path):
    # At these hbar the window interior holds no level of any family.
    stages = ["trace", "actions", "spectrum", "oracle", "compare"]
    manifest, code = pipeline.run(_sextic_config(tmp_path, [0.1, 0.05], stages))
    assert code == 4
    assert manifest["checks"]["bijection"] is False
    assert len(manifest["actions"]) == 3
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    assert all(not rep["pairs"] for rep in match.values())


def test_run_sextic_all_stages(tmp_path):
    stages = list(STAGES)
    manifest, code = pipeline.run(_sextic_config(tmp_path, [0.05, 0.025], stages))
    assert code == 0
    assert len(manifest["actions"]) == 3
    assert manifest["checks"]["bijection"] is True
    assert manifest["checks"]["weyl_exact"] is True


def _dw_config(out_dir, pipeline_stages) -> ebk.config.RunConfig:
    return parse_config(
        {
            "symbol": {"name": "double_well", "params": {"a": 1.0}},
            "window": {"e1": 0.1, "e2": 0.6, "margin": 0.05},
            "hbars": [0.1, 0.05],
            "pipeline": pipeline_stages,
            "seed": 1,
            "output_dir": str(out_dir),
        }
    )


def test_oracle_doublet_rows_carry_both_node_counts(tmp_path):
    # The two members of a double-well doublet are an orthonormal pair, so
    # their rows carry the node counts of both indices, in either order.
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
        assert len(rows) == 2 and set(nodes) == set(indices)


def test_two_family_run_checks_node_counts(tmp_path):
    # Two families interleave in node order, so only the set identity is
    # checked: at each hbar the node counts are the window indices.
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

    monkeypatch.setattr(pipeline, "node_count", off_by_one_once)
    manifest, code = pipeline.run(_dw_config(tmp_path, ["oracle", "compare"]))
    assert code == 4
    assert manifest["stages"]["compare"]["status"] == "ok"
    assert manifest["checks"]["nodes_match"] is False
    match = json.loads((tmp_path / "match.json").read_text(encoding="utf-8"))
    # The third count is at hbar = 0.1; the other hbar keeps its identity.
    assert match[pipeline._fmt(0.1)]["nodes_match"] is False
    assert match[pipeline._fmt(0.05)]["nodes_match"] is True
