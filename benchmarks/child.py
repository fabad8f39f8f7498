"""One workload call in a fresh interpreter; prints a JSON result as its last line.

    python3 child.py <workload> <work_dir> <mode>

mode is ``setup`` (stop after set-up), ``run`` or ``trace`` (run with the
layer tracer installed). ``ready`` in the result is ``time.monotonic()`` at the
end of set-up, which the parent compares with its own clock at spawn time.
The pipeline workloads make the two calls ``ebk run`` makes: load and
validate the config, then ``pipeline.run(..., threads=1)``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, work_dir, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]

    import ebk
    import ebk.config
    import ebk.pipeline

    expected = ROOT / "src" / "ebk" / "__init__.py"
    if Path(ebk.__file__).resolve() != expected:
        print(f"ebk imported from {ebk.__file__}, expected {expected}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_dir = work_dir / "out"
    if workload == "quartic_convergence":
        e1, e2, margin = workloads.QUARTIC_WINDOW
        spec = ebk.schrodinger_symbol(ebk.quartic_potential())
        window = ebk.EnergyWindow(e1, e2, margin)

        def call():
            return ebk.compare.convergence_study(spec, window, list(workloads.QUARTIC_HBARS))

    else:
        config = ebk.config.load_config(work_dir / "config.json")

        def call():
            return ebk.pipeline.run(config, output_dir=str(out_dir), threads=1)

    ready = time.monotonic()
    result = {"ready": ready}
    if mode != "setup":
        t0 = time.perf_counter()
        value = call()
        result["run_s"] = time.perf_counter() - t0
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload == "quartic_convergence":
            result["report"] = {
                "slope": value.slope,
                "max_errs": list(value.max_errs),
                "floor_limited": list(value.floor_limited),
            }
        else:
            result["exit_code"] = value[1]
            result["manifest"] = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if tracer is not None:
        counts, times = tracer.layer_metrics()
        entry = [
            i for i, s in enumerate(tracer.spans)
            if s[0] == workloads.ENTRY_SPAN[workload] and s[3] == -1
        ]
        times["trace.unattributed_s"] = sum(tracer.self_time(i) for i in entry)
        result.update(
            counts=counts,
            times=times,
            calls=dict(tracer.call_counts()),
            problems=tracer.problems,
        )
        with (work_dir / f"spans-{os.getpid()}.jsonl").open("w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
