"""The benchmark's workloads: their inputs and the checks on their outputs.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

STAGES = ["trace", "actions", "spectrum", "oracle", "compare", "weyl", "branches", "doublets"]

KERR_CHI = 0.5
KERR_TOL = 1e-8

QUARTIC_WINDOW = (0.5, 2.0, 0.05)
QUARTIC_HBARS = (0.2, 0.1, 0.05)
ORDER_BAND = (1.7, 2.3)

# name -> generated `ebk run` config without the seed, or None for a library call.
PIPELINE_CONFIGS = {
    "dw_pipeline": {
        "symbol": {"name": "double_well", "params": {"a": 1.0}},
        "window": {"e1": 0.1, "e2": 0.6, "margin": 0.05},
        "hbars": [0.1, 0.05],
        "pipeline": STAGES,
    },
    "kerr_geometry": {
        "symbol": {"name": "kerr", "params": {"chi": KERR_CHI}},
        "window": {"e1": 0.2, "e2": 1.0, "margin": 0.05},
        "hbars": [0.1, 0.05],
        "pipeline": ["trace", "actions", "spectrum", "branches", "doublets"],
    },
    "quartic_convergence": None,
}
WORKLOADS = tuple(PIPELINE_CONFIGS)

# Entry function of each workload, as the tracer names its span.
ENTRY_SPAN = {
    "dw_pipeline": "pipeline.run",
    "kerr_geometry": "pipeline.run",
    "quartic_convergence": "compare.convergence_study",
}


def write_config(workload: str, seed: int, path: Path) -> None:
    """Write the workload's run config; the seed drives the Weyl endpoint draws."""
    cfg = dict(PIPELINE_CONFIGS[workload], seed=seed, output_dir="out")
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def check(workload: str, result: dict, out_dir: Path) -> tuple[list[str], float]:
    """Problems found in one iteration's outputs, and its max |E_pred - E_ref|."""
    if workload == "quartic_convergence":
        return _check_convergence(result["report"])
    problems = _check_manifest(result)
    if problems:
        return problems, float("nan")
    if workload == "dw_pipeline":
        more, err = _check_match(out_dir / "match.json")
    else:
        more, err = _check_kerr(out_dir / "spectrum.csv")
    return problems + more, err


def _check_manifest(result: dict) -> list[str]:
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"ebk run exited with {result['exit_code']}")
    manifest = result["manifest"]
    for stage, status in manifest["stages"].items():
        if status["status"] != "ok":
            problems.append(f"stage {stage}: {status['status']} {status.get('note', '')}")
    for name, ok in manifest["checks"].items():
        if ok is not None and ok is not True:
            problems.append(f"manifest check {name} is {ok}")
    if not manifest["files"]:
        problems.append("no artifacts written")
    return problems


def _check_match(path: Path) -> tuple[list[str], float]:
    # At the larger hbar the interior of the window may hold no level at all.
    report = json.loads(path.read_text(encoding="utf-8"))
    errs = [p["abs_err"] for rep in report.values() for p in rep["pairs"]]
    if not errs:
        return ["no matched levels at any hbar"], float("nan")
    return [], max(errs)


def _check_kerr(path: Path) -> tuple[list[str], float]:
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["empty spectrum"], float("nan")
    errs = []
    for row in rows:
        action = float(row["hbar"]) * (int(row["n"]) + 0.5)
        errs.append(abs(float(row["E"]) - (action + KERR_CHI * action * action)))
    worst = max(errs)
    problems = []
    if worst > KERR_TOL:
        problems.append(f"kerr level off the closed form by {worst:.3e} > {KERR_TOL:g}")
    return problems, worst


def _check_convergence(report: dict) -> tuple[list[str], float]:
    problems = []
    lo, hi = ORDER_BAND
    if not lo <= report["slope"] <= hi:
        problems.append(f"fitted order {report['slope']:.4f} outside [{lo}, {hi}]")
    if any(report["floor_limited"]):
        problems.append(f"floor-limited hbar values: {report['floor_limited']}")
    return problems, max(report["max_errs"])
