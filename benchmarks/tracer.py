"""Outside-in tracing of the ebk layers, installed from the benchmark's files.

Every public function of every ebk module (plus the few private functions
that are the marching and artifact-writing layer boundaries) is replaced by
a wrapper that records a span (name, start, end, parent) in memory. The
wrapper is bound under every module attribute that referred to the original
function, so a call through a re-export such as ``ebk.action.trace_component``
or ``ebk.compare.solve_window`` is traced like a call through the defining
module. ``ebk`` itself is not modified on disk.

Counts that are not call counts come from three hooks:

- ``integrate.dp45_steps`` is a generator. Its wrapper counts the right-hand
  side evaluations and accepted steps, and times the work done inside each
  ``next()``; the stepper's FSAL structure spends 2 evaluations on start-up
  and 6 per attempted step, which gives the rejected steps.
- ``oracle.count_below`` adds N x (number of shifts) Sturm pivots.
- ``oracle.discretize`` adds the grid size N.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

# Private functions that mark a layer boundary the public API does not expose.
PRIVATE_BOUNDARIES = {
    "ebk.portrait": ("_marching_loops",),
    "ebk.pipeline": ("_write_csv", "_write_json", "_sha256"),
}

# Per-layer busy time: metric -> span names. A span nested inside another
# span of the same metric is not counted twice.
TIME_METRICS = {
    "portrait.trace_s": ("portrait.trace_component",),
    "portrait.marching_s": ("portrait._marching_loops",),
    "action.table_s": ("action.build_action_table",),
    "oracle.solve_s": ("oracle.solve_window",),
    "oracle.eigen_s": ("oracle.eigenvalues_in",),
    "oracle.count_s": ("oracle.count_below",),
    "oracle.eigenvector_s": ("oracle.eigenvector",),
    "compare.weyl_check_s": ("compare.weyl_check",),
    "compare.match_s": ("compare.match_spectra",),
    "solver.spectrum_s": ("solver.merged_spectrum",),
    "solver.weyl_count_s": ("solver.exact_weyl_count",),
    "solver.branch_s": ("solver.branch_energy", "solver.exit_hbar"),
    "pipeline.write_s": ("pipeline._write_csv", "pipeline._write_json", "pipeline._sha256"),
    "symbols.regularity_s": ("symbols.regularity_report",),
    "config.load_s": ("config.load_config",),
}

# Per-layer work as a call count: metric -> span name.
CALL_METRICS = {
    "portrait.traces": "portrait.trace_component",
    "portrait.marching_calls": "portrait._marching_loops",
    "action.tables": "action.build_action_table",
    "oracle.count_calls": "oracle.count_below",
    "oracle.eigenvector_calls": "oracle.eigenvector",
    "compare.weyl_checks": "compare.weyl_check",
}

# Counts filled by the hooks.
HOOK_COUNTS = (
    "integrate.dp45_calls",
    "integrate.accepted_steps",
    "integrate.rejected_steps",
    "integrate.rhs_evals",
    "oracle.grid_points",
    "oracle.sturm_pivots",
)

_FSAL_START_EVALS = 2
_EVALS_PER_ATTEMPT = 6


def _ebk_modules():
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ebk" or name.startswith("ebk."))
    }


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('ebk.')}.{fn.__name__}"


class Tracer:
    """Spans and counts of one traced workload call, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.step_s = 0.0
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, hook=None):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _wrap_dp45(self, fn):
        tracer = self

        def steps(f, *args, **kwargs):
            evals = 0

            def counted_rhs(y):
                nonlocal evals
                evals += 1
                return f(y)

            inner = fn(counted_rhs, *args, **kwargs)
            accepted = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        step = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.step_s += time.perf_counter() - t0
                    accepted += 1
                    yield step
            finally:
                inner.close()
                attempts, extra = divmod(evals - _FSAL_START_EVALS, _EVALS_PER_ATTEMPT)
                if extra:
                    tracer.problems.append(
                        f"dp45_steps made {evals} RHS evaluations, not 2 + 6 per attempt"
                    )
                tracer.counts["integrate.accepted_steps"] += accepted
                tracer.counts["integrate.rejected_steps"] += attempts - accepted
                tracer.counts["integrate.rhs_evals"] += evals

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            tracer.counts["integrate.dp45_calls"] += 1
            return steps(f, *args, **kwargs)

        return traced

    def _count_below_hook(self, args, kwargs, result):
        T = args[0] if args else kwargs["T"]
        shifts = np.size(args[1] if len(args) > 1 else kwargs["lam"])
        self.counts["oracle.sturm_pivots"] += int(T.n) * int(shifts)

    def _discretize_hook(self, args, kwargs, result):
        self.counts["oracle.grid_points"] += int(result.n)

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap the traced functions under every ebk module binding."""
        modules = _ebk_modules()
        hooks = {
            "ebk.oracle.count_below": self._count_below_hook,
            "ebk.oracle.discretize": self._discretize_hook,
        }
        for mod_name, mod in modules.items():
            private = PRIVATE_BOUNDARIES.get(mod_name, ())
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                key = f"{mod_name}.{attr}"
                if key == "ebk.integrate.dp45_steps":
                    wrapper = self._wrap_dp45(obj)
                else:
                    wrapper = self._wrap(obj, hooks.get(key))
                self._wrapped[id(obj)] = (obj, wrapper)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if self._is_original(obj):
                    setattr(mod, attr, self._wrapped[id(obj)][1])
        self.problems.extend(self.unwrapped_bindings())

    def _is_original(self, obj) -> bool:
        entry = self._wrapped.get(id(obj))
        return entry is not None and entry[0] is obj

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still refer to an original function."""
        left = []
        for mod_name, mod in _ebk_modules().items():
            for attr, obj in vars(mod).items():
                if self._is_original(obj):
                    left.append(f"{mod_name}.{attr} is not wrapped")
        return left

    # -- derived metrics -------------------------------------------------
    def self_time(self, idx: int) -> float:
        """Span duration minus the part covered by its direct children."""
        _, start, end, _ = self.spans[idx]
        covered = sum(
            s[2] - s[1] for s in self.spans if s[3] == idx and s[2] is not None
        )
        return (end - start) - covered

    def busy(self, names) -> float:
        """Total time inside spans of these names, nested repeats counted once."""
        names = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names or end is None:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def call_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def layer_metrics(self) -> tuple[dict, dict]:
        """(counts, times) of one traced call."""
        calls = self.call_counts()
        counts = {m: calls[name] for m, name in CALL_METRICS.items()}
        counts.update({k: self.counts[k] for k in HOOK_COUNTS})
        times = {m: self.busy(names) for m, names in TIME_METRICS.items()}
        times["integrate.step_s"] = self.step_s
        if counts["integrate.dp45_calls"] != counts["portrait.traces"]:
            self.problems.append(
                f"{counts['integrate.dp45_calls']} dp45_steps calls but "
                f"{counts['portrait.traces']} traced trace_component calls"
            )
        return counts, times
