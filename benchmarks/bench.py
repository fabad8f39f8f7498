"""ebk benchmark: end-to-end run metrics, or a traced run with per-layer metrics.

    python3 benchmarks/bench.py --workload {dw_pipeline,kerr_geometry,quartic_convergence,all}
                                --seed N --seconds S --trace {0,1}

Every workload call runs in a fresh single-process interpreter (``child.py``)
with ``--threads 1`` and one BLAS thread, importing ``ebk`` from ``src/`` of
this checkout. Untraced calls repeat until the next one would end after
``--seconds``; at least one runs. ``--trace 1`` adds two traced calls after
them and reports the per-layer metrics instead of the end-to-end ones. Every
call's outputs are checked (see workloads.py); a call that errors or fails a
check counts as failed. The last stdout line is the JSON result; the lines
before it print each metric with its unit. Scratch files go to
``.bench_work/`` in the checkout. The exit code is non-zero, with no result
printed, when ``ebk`` cannot be started or no call succeeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

MIN_SETUPS = 5
TRACED_CALLS = 2
# Budget of one workload measurement, kept under the 180 s a run may take.
BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "max_err": "energy"}
PER_LAYER = {
    "integrate.accepted_steps": "count",
    "integrate.rejected_steps": "count",
    "integrate.rhs_evals": "count",
    "integrate.step_s": "s",
    "portrait.traces": "count",
    "portrait.trace_s": "s",
    "portrait.marching_calls": "count",
    "portrait.marching_s": "s",
    "action.tables": "count",
    "action.table_s": "s",
    "oracle.solve_s": "s",
    "oracle.eigen_s": "s",
    "oracle.grid_points": "count",
    "oracle.sturm_pivots": "count",
    "oracle.count_calls": "count",
    "oracle.count_s": "s",
    "oracle.eigenvector_calls": "count",
    "oracle.eigenvector_s": "s",
    "compare.weyl_checks": "count",
    "compare.weyl_check_s": "s",
    "compare.match_s": "s",
    "solver.spectrum_s": "s",
    "solver.weyl_count_s": "s",
    "solver.branch_s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in workloads.STAGES},
    "pipeline.write_s": "s",
    "pipeline.bytes_written": "B",
    "symbols.regularity_s": "s",
    "config.load_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class NoResult(Exception):
    """The program could not be measured at all."""


def _spawn(workload: str, work: Path, mode: str, deadline: float):
    """Run child.py once; returns (result or None, error text)."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, str(work), mode],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} call timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"{mode} call exited with {proc.returncode}: {' | '.join(tail)}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"{mode} call printed no result: {lines[-1][:200]}"
    result["setup_s"] = result["ready"] - start
    return result, ""


class Measurement:
    """All calls of one workload in one benchmark run."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if workloads.PIPELINE_CONFIGS[workload] is not None:
            workloads.write_config(workload, seed, self.work / "config.json")
        self.setups: list[float] = []
        self.calls: list[dict] = []  # one per attempted workload call
        self._setup_only()  # warms caches and proves ebk starts at all

    def _setup_only(self):
        res, err = _spawn(self.workload, self.work, "setup", self.deadline)
        if res is None:
            raise NoResult(f"ebk does not start: {err}")
        return res["setup_s"]

    def call(self, mode: str):
        res, err = _spawn(self.workload, self.work, mode, self.deadline)
        entry = {"mode": mode, "result": res, "problems": [err] if res is None else []}
        if res is not None:
            if mode == "run":
                self.setups.append(res["setup_s"])
            problems, entry["max_err"] = workloads.check(self.workload, res, self.work / "out")
            entry["problems"] += problems + res.get("problems", [])
            if "manifest" in res:
                files = res["manifest"]["files"]
                entry["files"] = files
                entry["bytes"] = sum((self.work / "out" / n).stat().st_size for n in files)
        self.calls.append(entry)

    def run(self, seconds: float, traced: bool):
        begin = time.monotonic()
        while True:
            self.call("run")
            n = len(self.calls)
            elapsed = time.monotonic() - begin
            if elapsed * (n + 1) / n > seconds or time.monotonic() > self.deadline:
                break
        if traced:
            for _ in range(TRACED_CALLS):
                self.call("trace")
        while len(self.setups) < MIN_SETUPS and not traced:
            self.setups.append(self._setup_only())
        self._check_repeats()

    def _check_repeats(self):
        """Artifacts must be byte-identical, and traced counts equal, across calls."""
        ok = [c for c in self.calls if not c["problems"]]
        with_files = [c for c in ok if "files" in c]
        for c in with_files[1:]:
            if c["files"] != with_files[0]["files"]:
                c["problems"].append("artifact hashes differ from the first call")
        traced = [c for c in ok if c["mode"] == "trace"]
        for c in traced[1:]:
            for key in ("counts", "calls"):
                if c["result"][key] != traced[0]["result"][key]:
                    c["problems"].append(f"traced {key} differ between traced calls")

    # -- results ---------------------------------------------------------
    def good(self, mode: str) -> list[dict]:
        return [c for c in self.calls if c["mode"] == mode and not c["problems"]]

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c["problems"])

    def end_to_end(self) -> dict:
        runs = self.good("run")
        if not runs:
            raise NoResult(f"{self.workload}: no call succeeded")
        return {
            "setup_s": statistics.median(self.setups),
            "run_s": statistics.median(c["result"]["run_s"] for c in runs),
            "peak_rss_mb": statistics.median(c["result"]["rss_mb"] for c in runs),
            "max_err": max(c["max_err"] for c in runs),
        }

    def per_layer(self) -> dict:
        runs, traced = self.good("run"), self.good("trace")
        if not runs or not traced:
            raise NoResult(f"{self.workload}: no untraced and traced call succeeded")
        metrics = {}
        first = traced[0]["result"]
        for name in PER_LAYER:
            if name in first["counts"]:
                metrics[name] = first["counts"][name]
            elif name in first["times"]:
                metrics[name] = statistics.median(c["result"]["times"][name] for c in traced)
        for stage in workloads.STAGES:
            metrics[f"pipeline.stage.{stage}_s"] = statistics.median(
                c["result"].get("manifest", {}).get("stages", {}).get(stage, {}).get("wall_time_s", 0.0)
                for c in runs
            )
        metrics["pipeline.bytes_written"] = runs[0].get("bytes", 0)
        metrics["trace.overhead_s"] = statistics.median(
            c["result"]["run_s"] for c in traced
        ) - statistics.median(c["result"]["run_s"] for c in runs)
        return {name: metrics[name] for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """(human-readable lines, metrics, attempted, failed) of one workload."""
    m = Measurement(workload, seed, time.monotonic() + BUDGET_S)
    m.run(seconds, traced)
    attempted, failed = len(m.calls), m.failed
    for c in m.calls:
        for problem in c["problems"]:
            print(f"[{workload}] FAILED ({c['mode']} call): {problem}", file=sys.stderr)
    values = m.per_layer() if traced else m.end_to_end()
    units = PER_LAYER if traced else END_TO_END
    n_runs = len(m.good("run"))
    lines = [f"[{workload}] seed {seed}: {attempted} calls attempted, {failed} failed"]
    for name, value in values.items():
        lines.append(f"  {name:28s} {value:>16.6g} {units[name]}")
    if not traced:
        lines.append(f"  {'failed_frac':28s} {failed / attempted:>16.6g} ({failed}/{attempted})")
        lines.append(
            f"  setup_s is the median of {len(m.setups)} set-ups; run_s and peak_rss_mb are "
            f"medians of {n_runs} calls (no higher percentile has 10 samples beyond it)"
        )
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return lines, metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            lines, got, a, f = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            if args.workload == "all":
                got = {f"{name}.{k}": v for k, v in got.items()}
            metrics.update(got)
            attempted += a
            failed += f
    except NoResult as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
