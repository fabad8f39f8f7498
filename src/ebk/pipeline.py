"""Batch pipeline: stages, artifact writers, run manifest.

Stages run in dependency order; a failing stage aborts only its dependents,
and every failure is recorded in the manifest. All artifacts are written
with deterministic ordering and 17-significant-digit floats, so a run with
the same config and seed reproduces identical file hashes (the manifest
itself carries wall times and is exempt).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .action import build_action_table
from .compare import draw_safe_endpoints, match_spectra, weyl_check_pairs
from .config import STAGE_DEPS, RunConfig
from .errors import EbkError, RegularityViolation
from .oracle import eigenvector, node_count, nodes_resolved, solve_window
from .portrait import build_families
from .solver import (
    branch_energy,
    doublet_scan,
    exit_hbar,
    merged_spectrum,
)
from .symbols import compact_preimage_box, regularity_report


_CSV_STRIDE_TARGET = 512
_WEYL_TRIALS = 20


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows):
    """Stream rows to path: a tuple as one line of _fmt values, a str block as is."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(map(_fmt, row)) + "\n")


def _write_json(path: Path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, default=lambda x: x.tolist())
    path.write_text(text + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _RunState:
    def __init__(self, config: RunConfig, out_dir: Path):
        self.config = config
        self.out = out_dir
        self.spec = config.symbol()
        self.window = config.window
        self.rng = np.random.default_rng(config.seed)
        self.families = None
        self.tables = None
        self.spectra = {}
        self.oracle_runs = {}
        self.node_counts = {}
        self.resolved = {}
        self.oracle_meta = {}
        self.files = {}
        self.checks = {}

    def emit_csv(self, name, header, rows):
        path = self.out / name
        _write_csv(path, header, rows)
        self.files[name] = _sha256(path)

    def emit_json(self, name, obj):
        path = self.out / name
        _write_json(path, obj)
        self.files[name] = _sha256(path)


def _stage_trace(state: _RunState):
    cfg = state.config
    box = compact_preimage_box(state.spec, state.window)
    report = regularity_report(state.spec, state.window, box)
    state.checks["regular_window"] = report.regular
    if not report.regular:
        raise RegularityViolation(
            f"critical values {list(report.critical_values_found)} inside the widened window"
        )
    state.families = build_families(
        state.spec, state.window, cfg.action_samples, trace_tol=cfg.trace_tol
    )
    blocks = _component_blocks(state.families)
    state.emit_csv("components.csv", ["k", "E", "t", "x", "xi"], blocks)


def _component_blocks(families):
    """The k,E,t,x,xi lines of each component's every stride-th sample as one
    str: one %-format of a line repeated per sample, its k,E prefix formatted once."""
    for family in families:
        for comp in family.components:
            stride = max(1, len(comp.points) // _CSV_STRIDE_TARGET)
            line = "%d,%.17g," % (family.k, comp.energy) + "%.17g,%.17g,%.17g\n"
            rows = np.column_stack([comp.times[::stride], comp.points[::stride]])
            yield line * len(rows) % tuple(rows.ravel().tolist())


def _stage_actions(state: _RunState):
    state.tables = [build_action_table(family, state.window) for family in state.families]
    rows = []
    for table in state.tables:
        for e, a0, tau in zip(table.energies, table.a0, table.tau):
            rows.append((table.k, e, a0, tau, table.maslov))
    state.emit_csv("actions.csv", ["k", "E", "A0", "tau", "maslov"], rows)


def _stage_spectrum(state: _RunState):
    rows = []
    for hbar in state.config.hbars:
        bs = merged_spectrum(state.tables, hbar, state.window)
        state.spectra[hbar] = bs
        for entry in bs.entries:
            rows.append((hbar, entry.k, entry.n, entry.energy))
    state.emit_csv("spectrum.csv", ["hbar", "k", "n", "E"], rows)


def _stage_oracle(state: _RunState):
    cfg = state.config
    rows = []
    for hbar in cfg.hbars:
        run = solve_window(state.spec.potential, state.window, hbar, phase_tol=cfg.oracle_tol)
        state.oracle_runs[hbar] = run
        state.oracle_meta[_fmt(hbar)] = {
            "L": run.L,
            "grid_sizes": list(run.grid_sizes),
            "floor_estimate": run.floor_estimate,
        }
        res = run.result
        counts, resolved = _node_counts(run)
        indices = res.indices.tolist()
        state.node_counts[hbar] = dict(zip(indices, counts))
        state.resolved[hbar] = [i for i, ok in zip(indices, resolved) if ok]
        rows += [(hbar, i, lam, c) for i, lam, c in zip(indices, res.eigenvalues, counts)]
    state.emit_csv("oracle.csv", ["hbar", "index", "E", "nodes"], rows)


def _node_counts(run) -> tuple[list[int], list[bool]]:
    """Node count of each window level's eigenvector, and whether it resolves them."""
    lams = run.result.eigenvalues
    vectors = eigenvector(run.operator, lams).T
    counts = [node_count(v) for v in vectors]
    return counts, [nodes_resolved(v, run.operator, lam) for v, lam in zip(vectors, lams)]


def _stage_compare(state: _RunState):
    tau_min = min(t.tau_min for t in state.tables)
    # Family quantum numbers equal global node counts only when there is a
    # single family; with several, node ordering interleaves the families.
    single_family = len(state.tables) == 1
    report_obj = {}
    csv_rows = []
    all_nodes_match = True
    for hbar in state.config.hbars:
        rep = match_spectra(
            state.spectra[hbar],
            state.oracle_runs[hbar].result,
            state.window,
            tau_min,
            node_counts=state.node_counts[hbar],
        )
        # For every symbol, the node counts of the resolved levels at one
        # hbar are their indices as a set (a doublet's pair in either order).
        nodes = state.node_counts[hbar]
        resolved = state.resolved[hbar]
        nodes_ok = sorted(nodes[i] for i in resolved) == resolved
        if single_family:
            nodes_ok = nodes_ok and all(
                p.node_count is None or p.node_count == p.n for p in rep.pairs
            )
        all_nodes_match = all_nodes_match and nodes_ok
        report_obj[_fmt(hbar)] = {
            "pairs": [
                {
                    "E_bs": p.e_bs,
                    "E_oracle": p.e_oracle,
                    "abs_err": p.abs_err,
                    "k": p.k,
                    "n": p.n,
                    "node_count": p.node_count,
                }
                for p in rep.pairs
            ],
            "unmatched_bs": rep.unmatched_bs,
            "unmatched_oracle": rep.unmatched_oracle,
            "max_err": rep.max_err,
            "mean_err": rep.mean_err,
            "nodes_match": nodes_ok,
        }
        for p in rep.pairs:
            csv_rows.append(
                (hbar, p.k, p.n, p.e_bs, p.e_oracle, p.abs_err,
                 -1 if p.node_count is None else p.node_count)
            )
    # match_spectra raises on a count mismatch; no pair at all fails too.
    state.checks["bijection"] = bool(csv_rows)
    state.checks["nodes_match"] = all_nodes_match
    state.emit_json("match.json", report_obj)
    state.emit_csv(
        "match.csv",
        ["hbar", "k", "n", "E_bs", "E_oracle", "abs_err", "nodes"],
        csv_rows,
    )


def _stage_weyl(state: _RunState):
    report_obj = {}
    all_exact = True
    for hbar in state.config.hbars:
        bs = state.spectra[hbar]
        run = state.oracle_runs[hbar]
        pairs = draw_safe_endpoints(
            state.rng, state.tables, bs, state.window, _WEYL_TRIALS
        )
        trials = []
        for chk in weyl_check_pairs(state.tables, bs, run, pairs):
            wc = chk.weyl
            trials.append(
                {
                    "e1": chk.e1t,
                    "e2": chk.e2t,
                    "formula": chk.formula_count,
                    "oracle": chk.oracle_count,
                    "exact": chk.ok,
                    "per_family": list(wc.per_family),
                    "leading": wc.leading,
                    "correction": wc.correction,
                    "delta": wc.delta,
                }
            )
            all_exact = all_exact and chk.ok
        report_obj[_fmt(hbar)] = trials
    state.checks["weyl_exact"] = all_exact
    state.emit_json("weyl.json", report_obj)


def _stage_branches(state: _RunState):
    hbar_top = state.config.hbars[0]
    bs = state.spectra[hbar_top]
    tables = {t.k: t for t in state.tables}
    rows = []
    for entry in bs.entries:
        table = tables[entry.k]
        h_exit = exit_hbar(table, entry.n)
        hs = np.linspace(h_exit * (1 + 1e-9), hbar_top, 33)
        vals = []
        for h in hs:
            e = branch_energy(table, entry.n, float(h))
            if e is not None:
                vals.append(e)
        monotone = bool(np.all(np.diff(vals) > -1e-12)) if len(vals) > 1 else True
        rows.append((entry.k, entry.n, h_exit, monotone))
    state.emit_csv("branches.csv", ["k", "n", "hbar_exit", "monotone"], rows)
    state.checks["branches_monotone"] = all(bool(r[3]) for r in rows)


def _stage_doublets(state: _RunState):
    report_obj = {}
    for hbar in state.config.hbars:
        clusters = doublet_scan(state.spectra[hbar], hbar * hbar)
        report_obj[_fmt(hbar)] = [
            {
                "center": c.center,
                "families": list(c.families),
                "members": [
                    {"E": e.energy, "k": e.k, "n": e.n} for e in c.entries
                ],
            }
            for c in clusters
        ]
    state.emit_json("doublets.json", report_obj)


_STAGE_FNS = {
    "trace": _stage_trace,
    "actions": _stage_actions,
    "spectrum": _stage_spectrum,
    "oracle": _stage_oracle,
    "compare": _stage_compare,
    "weyl": _stage_weyl,
    "branches": _stage_branches,
    "doublets": _stage_doublets,
}


def run(
    config: RunConfig,
    *,
    output_dir: str | None = None,
    threads: int = 1,
    verbose: bool = False,
) -> tuple[dict, int]:
    """Execute the configured pipeline; returns (manifest, exit_code).

    The exit code is the least exit_code of the failed stages' errors, so a
    ConfigError (2) wins over a HypothesisError (3); any other exception or
    a failed check counts as an EbkError (4); a run with neither exits 0.

    threads is accepted for compatibility and has no effect: every stage
    runs in the calling thread.
    """
    out = Path(output_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = _RunState(config, out)
    manifest: dict = {
        "config": config.to_json_dict(),
        "version": __version__,
        "rng": "PCG64",
        "inserted_stages": list(config.inserted_stages),
        "stages": {},
        "files": {},
        "checks": {},
    }
    failed: set[str] = set()
    failures: list[Exception] = []
    for stage in config.pipeline:
        bad_deps = [d for d in STAGE_DEPS[stage] if d in failed]
        if bad_deps:
            failed.add(stage)
            manifest["stages"][stage] = {
                "status": "skipped",
                "note": f"dependency {bad_deps[0]} failed",
            }
            continue
        t0 = time.perf_counter()
        try:
            _STAGE_FNS[stage](state)
            status = {"status": "ok"}
        except Exception as exc:  # record and continue with independent stages
            failed.add(stage)
            failures.append(exc)
            status = {"status": "failed", "note": f"{type(exc).__name__}: {exc}"}
        status["wall_time_s"] = time.perf_counter() - t0
        manifest["stages"][stage] = status
        if verbose:
            print(f"[ebk] {stage}: {status['status']} ({status['wall_time_s']:.2f}s)")

    manifest["files"] = dict(sorted(state.files.items()))
    manifest["checks"] = dict(sorted(state.checks.items()))
    if state.oracle_meta:
        manifest["oracle"] = state.oracle_meta
    if state.tables:
        # Table health: the largest relative |dA0/dE - tau| at the samples.
        manifest["actions"] = {
            str(t.k): {"samples": len(t.energies), "tau_consistency": t.tau_consistency}
            for t in state.tables
        }
    if state.families:
        steps = {str(f.k): sum(c.steps for c in f.components) for f in state.families}
        orbits = sum(len(f.components) for f in state.families)
        manifest["metrics"] = {"trace": {"orbits": orbits, "dp45_steps": steps}}
        if verbose:
            print(f"[ebk] trace: {orbits} orbits, dp45 steps {steps}")
    _write_json(out / "manifest.json", manifest)

    codes = [e.exit_code if isinstance(e, EbkError) else EbkError.exit_code for e in failures]
    if not all(v for v in state.checks.values() if v is not None):
        codes.append(EbkError.exit_code)
    code = min(codes, default=0)
    return manifest, code
