"""The files in benchmarks/ must keep working against the program.

Each workload runs once through benchmarks/child.py, as the benchmark runs
it, and its checks must find no problem; so a renamed constructor or
entry point fails here. The layer tracer counts DP45 work from the
outside: one dp45_steps call per trace_component call, 2 + 6 right-hand
side evaluations per attempt, on a one-family scan and on the double
well's mirror pair. Both run in a fresh interpreter because
installing the tracer rebinds module attributes of ebk for the rest of the
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import ebk
from tracer import Tracer

tracer = Tracer()
tracer.install()
spec = ebk.schrodinger_symbol(ebk.{potential})
window = ebk.EnergyWindow(*{window!r})
families = ebk.build_families(spec, window, 9)
ebk.build_action_table(families[0], window)
counts, _ = tracer.layer_metrics()
print(json.dumps({{"problems": tracer.problems, "counts": counts, "families": len(families)}}))
"""

# A one-family scan, and the double well's mirror pair, whose second family
# is the reflection of the first: (potential, window, families).
SCANS = [
    ("harmonic_potential()", (0.2, 0.8, 0.05), 1),
    ("double_well_potential(1.0)", (0.1, 0.6, 0.05), 2),
]


def test_benchmark_tracer_invariants_hold():
    for potential, window, families in SCANS:
        paths = {"src": str(ROOT / "src"), "bench": str(ROOT / "benchmarks")}
        script = SCRIPT.format(**paths, potential=potential, window=window)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["problems"] == [] and result["families"] == families
        counts = result["counts"]
        # One batched trace and one marching pass for the family scan; the
        # table traces nothing.
        assert counts["portrait.traces"] == counts["integrate.dp45_calls"] == 1
        assert counts["portrait.marching_calls"] == 1
        assert counts["action.tables"] == 1
        assert counts["integrate.accepted_steps"] > 0
        assert counts["integrate.rejected_steps"] >= 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_workload_runs_clean(workload, tmp_path):
    if workloads.PIPELINE_CONFIGS[workload] is not None:
        workloads.write_config(workload, 1, tmp_path / "config.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "child.py"), workload, str(tmp_path), "run"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems, _ = workloads.check(workload, result, tmp_path / "out")
    assert problems == []
