"""Batch pipeline: stages, artifact writers, run manifest.

Stages run in dependency order; a failing stage aborts only its dependents,
and every failure is recorded in the manifest. All artifacts are written
with deterministic ordering and 17-significant-digit floats, so a run with
the same config reproduces identical file hashes (the manifest itself
carries wall times and is exempt). No stage draws random numbers.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .action import build_action_table
from .compare import match_spectra
from .config import STAGE_DEPS, RunConfig
from .errors import ConfigError, EbkError, RegularityViolation
from .oracle import basis_nodes, solve_basis
from .portrait import build_families
from .solver import (
    branch_energy, doublet_scan, exact_weyl_count, exit_hbar, merged_spectrum, per_distinct_table,
    safe_endpoints,
)
from .symbols import compact_preimage_box, regularity_report


_CSV_STRIDE_TARGET = 128
# BLAS threading: it can move the oracle's eigensolves in their last digits, and its times.
_ENVIRONMENT = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write(path: Path, chunks) -> str:
    """Stream str chunks to path as UTF-8, hashing each as it is written; returns the SHA-256.

    An existing file is unlinked, not truncated: ext4 (auto_da_alloc)
    flushes a file truncated and rewritten as it is closed, which took about
    30 ms per artifact on a shared virtio disk, most of a rerun's wall time.
    """
    path.unlink(missing_ok=True)
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for data in map(str.encode, chunks):
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_csv(path: Path, header: list[str], rows) -> str:
    """Stream rows to path (_write): a tuple as one line of _fmt values, a str block as is."""
    lines = (row if isinstance(row, str) else ",".join(map(_fmt, row)) + "\n" for row in rows)
    return _write(path, itertools.chain([",".join(header) + "\n"], lines))


def _write_json(path: Path, obj) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2, default=lambda x: x.tolist())
    return _write(path, [text + "\n"])


class _RunState:
    def __init__(self, config: RunConfig, out_dir: Path):
        self.config = config
        self.out = out_dir
        self.spec = config.symbol()
        self.window = config.window
        self.families = None
        self.tables = None
        self.spectra = {}
        self.oracle_runs = {}
        self.oracle_nodes = {}
        self.files = {}
        self.checks = {}

    def emit_csv(self, name, header, rows):
        self.files[name] = _write_csv(self.out / name, header, rows)

    def emit_json(self, name, obj):
        self.files[name] = _write_json(self.out / name, obj)


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
            times = np.linspace(0.0, comp.period, len(comp.points), endpoint=False)
            rows = np.column_stack([times[::stride], comp.points[::stride]])
            yield line * len(rows) % tuple(rows.ravel().tolist())


def _stage_actions(state: _RunState):
    state.tables = []
    for family in state.families:
        if family.reflects is None:
            state.tables.append(build_action_table(family, state.window))
        else:  # a reflection has its mirror's samples, so its table
            state.tables.append(copy.copy(state.tables[family.reflects - 1]))
            state.tables[-1].k = family.k
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
    rows = []
    potential = state.spec.potential
    even = potential.even  # solved in parity blocks, and each level's parity is (-1)^index
    for hbar in state.config.hbars:
        run = solve_basis(potential, state.window, hbar)
        nodes, resolved = basis_nodes(potential, state.window, hbar, run)
        state.oracle_runs[hbar] = run
        state.oracle_nodes[hbar] = nodes, resolved
        res = run.result
        columns = [res.indices, res.eigenvalues, nodes, resolved]
        if even:
            columns.append(1 - 2 * (res.indices % 2))
        rows += [(hbar, *row) for row in zip(*columns)]
    header = ["hbar", "index", "E", "nodes", "resolved"] + ["parity"] * even
    state.emit_csv("oracle.csv", header, rows)


def _stage_compare(state: _RunState):
    tau_min = min(t.tau_min for t in state.tables)
    # Family quantum numbers equal global node counts only when there is a
    # single family; with several, node ordering interleaves the families.
    single_family = len(state.tables) == 1
    report_obj = {}
    csv_rows = []
    all_nodes_match = True
    for hbar in state.config.hbars:
        run = state.oracle_runs[hbar]
        node_counts, resolved = state.oracle_nodes[hbar]
        rep = match_spectra(state.spectra[hbar], run.result, tau_min)
        indices = run.result.indices.tolist()
        nodes = dict(zip(indices, node_counts))
        # Sturm oscillation: level i's eigenfunction has i nodes. Its computed
        # one shows them when resolved; a doublet split below rounding has
        # exact node counts only when solved in parity blocks (an even V).
        nodes_ok = all(nodes[i] == i for i, ok in zip(indices, resolved) if ok)
        if single_family:
            nodes_ok = nodes_ok and all(nodes[p.index] == p.n for p in rep.pairs)
        all_nodes_match = all_nodes_match and nodes_ok
        report_obj[_fmt(hbar)] = {
            "pairs": [
                {
                    "E_bs": p.e_bs,
                    "E_oracle": p.e_oracle,
                    "abs_err": p.abs_err,
                    "k": p.k,
                    "n": p.n,
                    "node_count": nodes[p.index],
                }
                for p in rep.pairs
            ],
            "unmatched_bs": rep.unmatched_bs,
            "unmatched_oracle": rep.unmatched_oracle,
            "max_err": rep.max_err,
            "mean_err": rep.mean_err,
            "nodes_match": nodes_ok,
            "one_sided": list(rep.one_sided),
        }
        for p in rep.pairs:
            csv_rows.append((hbar, p.k, p.n, p.e_bs, p.e_oracle, p.abs_err, nodes[p.index]))
    # Every window level must be on both sides, by global index; with no
    # level on either side at any hbar there is nothing to pair.
    reports = report_obj.values()
    levels = any(r["pairs"] or r["unmatched_bs"] or r["unmatched_oracle"] for r in reports)
    state.checks["bijection"] = all(not r["one_sided"] for r in reports) if levels else None
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
        # The first safe endpoint against every later one: each count spans
        # one more step of the staircase than the last.
        ends = safe_endpoints(state.tables, bs)
        counts = exact_weyl_count(state.tables, np.full(len(ends) - 1, ends[0]), ends[1:], bs)
        # The oracle count is the number of its window levels in [e1, e2).
        lo, *below = np.searchsorted(state.oracle_runs[hbar].result.eigenvalues, ends).tolist()
        e1, *tops = ends.tolist()
        trials = []
        for e2, wc, hi in zip(tops, counts, below):
            exact = wc.count == hi - lo
            trials.append(
                {
                    "e1": e1,
                    "e2": e2,
                    "formula": wc.count,
                    "oracle": hi - lo,
                    "exact": exact,
                    "per_family": list(wc.per_family),
                    "leading": wc.leading,
                    "correction": wc.correction,
                    "delta": wc.delta,
                }
            )
            all_exact = all_exact and exact
        report_obj[_fmt(hbar)] = trials
    state.checks["weyl_exact"] = all_exact
    state.emit_json("weyl.json", report_obj)


def _stage_branches(state: _RunState):
    hbar_top = state.config.hbars[0]
    entries = state.spectra[hbar_top].entries

    def branches(table):
        # Every branch of the family on 33 hbar from its exit, in one call; a
        # level on e1 may exit just above hbar_top, and its grid is hbar_top.
        ns = np.array([e.n for e in entries if e.k == table.k], dtype=int)
        h_exit = exit_hbar(table, ns)
        hs = np.linspace(np.minimum(h_exit * (1 + 1e-9), hbar_top), hbar_top, 33, axis=-1)
        monotone = []
        for es in branch_energy(table, ns[:, None], hs):
            vals = es[~np.isnan(es)]
            monotone.append(bool(np.all(np.diff(vals) > -1e-12)) if len(vals) > 1 else True)
        return list(zip(ns.tolist(), h_exit.tolist(), monotone))

    # A family sharing its mirror's table has its mirror's levels and branches.
    row = {}
    for table, rows in zip(state.tables, per_distinct_table(state.tables, branches)):
        for n, h, monotone in rows:
            row[table.k, n] = (table.k, n, h, monotone)
    rows = [row[e.k, e.n] for e in entries]
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


def _say(line: str) -> None:
    """Print one progress line to stdout, flushed.

    Once stdout's reader has gone (a pipe into `head`), stdout is pointed at
    os.devnull, so neither the rest of the run nor the interpreter's flush
    at exit fails on a broken pipe.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
    An output directory that cannot be created raises ConfigError before
    any stage runs.

    threads has no effect: every stage runs in the calling thread. It is
    kept because the benchmark's child process passes threads=1.
    """
    out = Path(output_dir or config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    state = _RunState(config, out)
    manifest: dict = {
        "config": config.to_json_dict(),
        "version": __version__,
        "inserted_stages": list(config.inserted_stages),
        "environment": {name: os.environ.get(name) for name in _ENVIRONMENT},
        "stages": {},
        "files": {},
        "checks": {},
    }
    if verbose:
        _say(f"[ebk] environment: {json.dumps(manifest['environment'])}")
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
            _say(f"[ebk] {stage}: {status['status']} ({status['wall_time_s']:.2f}s)")

    manifest["files"] = dict(sorted(state.files.items()))
    manifest["checks"] = dict(sorted(state.checks.items()))
    if state.oracle_runs:
        manifest["oracle"] = {
            _fmt(hbar): {
                "basis_sizes": list(run.basis_sizes),
                "basis_residual": run.basis_residual,
                "floor_estimate": run.floor_estimate,
                "parity_blocks": state.spec.potential.even,
            }
            for hbar, run in state.oracle_runs.items()
        }
        if verbose:
            sizes = {h: meta["basis_sizes"] for h, meta in manifest["oracle"].items()}
            blocks = {h: meta["parity_blocks"] for h, meta in manifest["oracle"].items()}
            _say(f"[ebk] oracle: basis sizes {sizes}")
            _say(f"[ebk] oracle: parity blocks {blocks}")
    if state.tables:
        # Table health: the Hermite fit's error estimate, and the largest
        # relative |dA0/dE - tau| of the A0-only fit at the samples.
        manifest["actions"] = {
            str(t.k): {"samples": len(t.energies), "table_err": t.table_err,
                       "tau_consistency": t.tau_consistency}
            for t in state.tables
        }
        if verbose:
            errs = {k: f"{v['table_err']:.2g}" for k, v in manifest["actions"].items()}
            _say(f"[ebk] actions: table_err {errs}")
    metrics = {}
    if state.families:
        # Traced work only: a reflected family has no step and no arc.
        orbits = sum(len(f.components) for f in state.families if f.reflects is None)
        steps = {str(f.k): sum(c.steps for c in f.components) for f in state.families}
        arcs = {str(f.k): sum(c.arcs for c in f.components) for f in state.families}
        reflected = {str(f.k): f.reflects for f in state.families if f.reflects is not None}
        # Every orbit of the scan is one batch, so its depth is the last
        # landing, as is its count of batched landing solves.
        comps = [c for f in state.families for c in f.components]
        attempts = max(c.attempts for c in comps)
        solves = max(c.landing_solves for c in comps)
        trace = {
            "orbits": orbits, "dp45_steps": steps, "arcs": arcs, "attempts": attempts,
            "landing_solves": solves,
        }
        if reflected:  # family -> the family it is the reflection of
            trace["reflected"] = reflected
        metrics["trace"] = trace
        if verbose:
            _say(f"[ebk] trace: {orbits} orbits, dp45 steps {steps}")
            _say(f"[ebk] trace: arcs {arcs}, {attempts} stepper attempts")
            _say(f"[ebk] trace: {solves} batched landing solves")
            if reflected:
                _say(f"[ebk] trace: reflected {reflected}")
    if metrics:
        manifest["metrics"] = metrics
    _write_json(out / "manifest.json", manifest)

    codes = [e.exit_code if isinstance(e, EbkError) else EbkError.exit_code for e in failures]
    if not all(v for v in state.checks.values() if v is not None):
        codes.append(EbkError.exit_code)
    code = min(codes, default=0)
    return manifest, code
