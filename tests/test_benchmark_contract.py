"""The layer tracer in benchmarks/ must keep working against the program.

It counts DP45 work from the outside: one dp45_steps call per
trace_component call, 2 + 6 right-hand side evaluations per attempt. The
check runs in a fresh interpreter because installing the tracer rebinds
module attributes of ebk for the rest of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import ebk
from tracer import Tracer

tracer = Tracer()
tracer.install()
spec = ebk.schrodinger_symbol(ebk.harmonic_potential())
window = ebk.EnergyWindow(0.2, 0.8, 0.05)
families = ebk.build_families(spec, window, 9)
ebk.build_action_table(families[0], window)
counts, _ = tracer.layer_metrics()
print(json.dumps({{"problems": tracer.problems, "counts": counts}}))
"""


def test_benchmark_tracer_invariants_hold():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    counts = result["counts"]
    # One batched trace and one marching pass for the family scan; the
    # table traces nothing.
    assert counts["portrait.traces"] == counts["integrate.dp45_calls"] == 1
    assert counts["portrait.marching_calls"] == 1
    assert counts["action.tables"] == 1
    assert counts["integrate.accepted_steps"] > 0
    assert counts["integrate.rejected_steps"] >= 0
