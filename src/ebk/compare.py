"""Confrontation of predicted spectra with the direct oracle.

Matching is order preserving: both spectra are sorted and agree level by
level (multiplicity included) up to the two-term truncation error, so the
i-th interior entry pairs with the i-th. Nearest-neighbor pairing would
double-match inside doublet clusters and is deliberately not used.
Interior means one mean spacing away from the window edges, with the
actual cuts placed in gaps of the predicted spectrum so an O(hbar^2)
offset cannot move a level across a cut. Each pair carries the global
index of its oracle level, by which a caller looks up what the oracle run
holds per level (its node count). The pipeline's Weyl stage counts the
same window levels between two endpoints, from either oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BijectionFailure
from .oracle import EigenResult, solve_basis
from .portrait import DEFAULT_ACTION_SAMPLES, build_families
from .solver import TWO_PI, BsSpectrum, merged_spectrum
from .symbols import EnergyWindow, SymbolSpec
from .action import build_action_table


@dataclass(frozen=True)
class MatchedPair:
    e_bs: float
    e_oracle: float
    abs_err: float
    k: int
    n: int
    index: int  # the oracle level's global index


@dataclass(frozen=True)
class MatchReport:
    pairs: tuple[MatchedPair, ...]
    unmatched_bs: int
    unmatched_oracle: int
    max_err: float
    mean_err: float


def _interior_cuts(bs: BsSpectrum, tau_min: float):
    """Cut energies one mean spacing inside the window, placed in BS gaps."""
    spacing = TWO_PI * bs.hbar / tau_min
    lo = bs.window.e1 + spacing
    hi = bs.window.e2 - spacing
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
    tau_min: float,
) -> MatchReport:
    """Order-preserving interior matching; raises BijectionFailure on mismatch."""
    cuts = _interior_cuts(bs, tau_min)
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
    pairs = [
        MatchedPair(
            e_bs=entry.energy,
            e_oracle=e_or,
            abs_err=abs(entry.energy - e_or),
            k=entry.k,
            n=entry.n,
            index=i,
        )
        for entry, e_or, i in zip(
            bs_sel, ev[or_sel].tolist(), oracle_result.indices[or_sel].tolist()
        )
    ]
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
    floor_limited: tuple[bool, ...]


def convergence_study(
    spec: SymbolSpec,
    window: EnergyWindow,
    hbars,
    *,
    action_samples: int = DEFAULT_ACTION_SAMPLES,
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
    families = build_families(spec, window, action_samples)
    tables = [build_action_table(fam, window) for fam in families]
    del families  # frees their full-resolution components before the oracle solves
    tau_min = min(t.tau_min for t in tables)
    max_errs = []
    floors = []
    for hbar in hbars:
        bs = merged_spectrum(tables, hbar, window)
        run = solve_basis(spec.potential, window, hbar)
        report = match_spectra(bs, run.result, tau_min)
        max_errs.append(report.max_err)
        floors.append(report.max_err < 10.0 * run.floor_estimate)
    log_h = np.log(np.array(hbars))
    log_e = np.log(np.maximum(np.array(max_errs), 1e-300))
    return ConvergenceReport(
        hbars=tuple(hbars),
        max_errs=tuple(max_errs),
        slope=float(np.polyfit(log_h, log_e, 1)[0]),
        floor_limited=tuple(bool(f) for f in floors),
    )

