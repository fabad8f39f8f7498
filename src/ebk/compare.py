"""Confrontation of predicted spectra with the direct oracle.

Matching is order preserving: both spectra are sorted and agree level by
level (multiplicity included) up to the two-term truncation error, so the
i-th interior entry pairs with the i-th. Nearest-neighbor pairing would
double-match inside doublet clusters and is deliberately not used.
Interior means one mean spacing away from the window edges, with the
actual cuts placed in gaps of the predicted spectrum so an O(hbar^2)
offset cannot move a level across a cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BijectionFailure, UnsafeEndpoint
from .oracle import EigenResult, OracleRun, count_below, solve_basis
from .portrait import DEFAULT_ACTION_SAMPLES, DEFAULT_TRACE_TOL, build_families
from .solver import BsSpectrum, WeylCount, exact_weyl_count, merged_spectrum, spacing_floor
from .symbols import EnergyWindow, SymbolSpec
from .action import ActionTable, build_action_table

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MatchedPair:
    e_bs: float
    e_oracle: float
    abs_err: float
    k: int
    n: int
    node_count: int | None = None


@dataclass(frozen=True)
class MatchReport:
    pairs: tuple[MatchedPair, ...]
    unmatched_bs: int
    unmatched_oracle: int
    max_err: float
    mean_err: float


def _interior_cuts(bs: BsSpectrum, window: EnergyWindow, tau_min: float):
    """Cut energies one mean spacing inside the window, placed in BS gaps."""
    spacing = TWO_PI * bs.hbar / tau_min
    lo = window.e1 + spacing
    hi = window.e2 - spacing
    energies = bs.energies()
    inside = [e for e in energies if lo <= e <= hi]
    if not inside:
        return None
    below = [e for e in energies if e < lo]
    above = [e for e in energies if e > hi]
    cut_lo = 0.5 * (below[-1] + inside[0]) if below else lo
    cut_hi = 0.5 * (above[0] + inside[-1]) if above else hi
    return cut_lo, cut_hi


def match_spectra(
    bs: BsSpectrum,
    oracle_result: EigenResult,
    window: EnergyWindow,
    tau_min: float,
    *,
    node_counts: dict[int, int] | None = None,
) -> MatchReport:
    """Order-preserving interior matching; raises BijectionFailure on mismatch.

    node_counts optionally maps oracle eigenvalue indices to eigenfunction
    node counts, carried through to the matched pairs.
    """
    cuts = _interior_cuts(bs, window, tau_min)
    ev = oracle_result.eigenvalues
    if cuts is None:
        return MatchReport((), len(bs), len(ev), 0.0, 0.0)
    cut_lo, cut_hi = cuts
    bs_sel = [e for e in bs.entries if cut_lo <= e.energy <= cut_hi]
    or_sel = np.nonzero((ev >= cut_lo) & (ev <= cut_hi))[0]
    if len(bs_sel) != or_sel.size:
        raise BijectionFailure(
            f"interior counts differ: {len(bs_sel)} predicted vs {or_sel.size} oracle "
            f"in [{cut_lo:g}, {cut_hi:g}] at hbar={bs.hbar:g}"
        )
    pairs = []
    for entry, j in zip(bs_sel, or_sel):
        e_or = float(ev[j])
        nodes = None
        if node_counts is not None:
            nodes = node_counts.get(int(oracle_result.indices[j]))
        pairs.append(
            MatchedPair(
                e_bs=entry.energy,
                e_oracle=e_or,
                abs_err=abs(entry.energy - e_or),
                k=entry.k,
                n=entry.n,
                node_count=nodes,
            )
        )
    errs = np.array([p.abs_err for p in pairs]) if pairs else np.zeros(1)
    return MatchReport(
        pairs=tuple(pairs),
        unmatched_bs=len(bs) - len(bs_sel),
        unmatched_oracle=int(ev.size - or_sel.size),
        max_err=float(np.max(errs)),
        mean_err=float(np.mean(errs)),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    hbars: tuple[float, ...]
    max_errs: tuple[float, ...]
    slope: float
    intercept: float
    fit_residual: float
    floor_limited: tuple[bool, ...]


def convergence_study(
    spec: SymbolSpec,
    window: EnergyWindow,
    hbars,
    *,
    action_samples: int = DEFAULT_ACTION_SAMPLES,
    trace_tol: float = DEFAULT_TRACE_TOL,
) -> ConvergenceReport:
    """Fit the order of max interior |BS - oracle| against hbar.

    The oracle is the oscillator-basis solve (oracle.solve_basis). Its floor
    at each hbar is max(10 * DEFAULT_BISECT_TOL, basis_residual), the
    measured change of the window levels from N to 2N basis states, but at
    least 1e-10. Entries whose error sits within a decade of that floor are
    flagged floor-limited; the fitted slope is only meaningful when no flag
    is set.
    """
    hbars = [float(h) for h in hbars]
    if len(hbars) < 3:
        raise ValueError("need at least 3 hbar values")
    families = build_families(spec, window, action_samples, trace_tol=trace_tol)
    tables = [build_action_table(fam, window) for fam in families]
    del families  # frees their full-resolution components before the oracle solves
    tau_min = min(t.tau_min for t in tables)
    max_errs = []
    floors = []
    for hbar in hbars:
        bs = merged_spectrum(tables, hbar, window)
        run = solve_basis(spec.potential, window, hbar)
        report = match_spectra(bs, run.result, window, tau_min)
        max_errs.append(report.max_err)
        floors.append(report.max_err < 10.0 * run.floor_estimate)
    log_h = np.log(np.array(hbars))
    log_e = np.log(np.maximum(np.array(max_errs), 1e-300))
    coeffs, residuals, *_ = np.polyfit(log_h, log_e, 1, full=True)
    fit_residual = float(residuals[0]) if len(residuals) else 0.0
    return ConvergenceReport(
        hbars=tuple(hbars),
        max_errs=tuple(max_errs),
        slope=float(coeffs[0]),
        intercept=float(coeffs[1]),
        fit_residual=fit_residual,
        floor_limited=tuple(bool(f) for f in floors),
    )


@dataclass(frozen=True)
class WeylCheck:
    e1t: float
    e2t: float
    oracle_count: int
    weyl: WeylCount  # the formula's per-family counts and asymptotics

    @property
    def formula_count(self) -> int:
        return self.weyl.count

    @property
    def ok(self) -> bool:
        return self.formula_count == self.oracle_count


def weyl_check_pairs(
    tables: list[ActionTable],
    bs: BsSpectrum,
    oracle_run: OracleRun,
    pairs,
) -> list[WeylCheck]:
    """Exact formula count against the Sturm count on the fine grid.

    One check per (e1t, e2t) of pairs; a single count_below call counts
    below every endpoint.
    """
    counts = [exact_weyl_count(tables, bs.hbar, e1t, e2t, bs) for e1t, e2t in pairs]
    below = count_below(oracle_run.operator, np.ravel(pairs)).reshape(-1, 2)
    return [
        WeylCheck(e1t=e1t, e2t=e2t, oracle_count=int(hi - lo), weyl=wc)
        for (e1t, e2t), wc, (lo, hi) in zip(pairs, counts, below)
    ]


def draw_safe_endpoints(
    rng: np.random.Generator,
    tables: list[ActionTable],
    bs: BsSpectrum,
    window: EnergyWindow,
    n_pairs: int,
    *,
    safety: float = 0.3,
    max_tries: int = 10_000,
) -> list[tuple[float, float]]:
    """Seeded endpoint pairs keeping a safe distance from the spectrum.

    Raises UnsafeEndpoint when the merged spectrum is so dense relative to
    the per-family spacing floor that safe pairs are (almost) nowhere to be
    found; lowering the safety factor is then the caller's call.
    """
    floor = safety * spacing_floor(tables, bs.hbar)
    energies = bs.energies()
    pairs = []
    tries = 0
    while len(pairs) < n_pairs:
        tries += 1
        if tries > max_tries:
            raise UnsafeEndpoint(
                f"found only {len(pairs)}/{n_pairs} safe endpoint pairs in "
                f"{max_tries} draws; spectrum too dense for safety {safety:g}"
            )
        e1t, e2t = np.sort(rng.uniform(window.e1, window.e2, size=2))
        if e2t - e1t < 2.0 * floor:
            continue
        if energies.size and (
            np.min(np.abs(energies - e1t)) < 1.05 * floor
            or np.min(np.abs(energies - e2t)) < 1.05 * floor
        ):
            continue
        pairs.append((float(e1t), float(e2t)))
    return pairs
