"""Confrontation of predicted spectra with the direct oracle.

Levels are paired by global index. The oracle's come from its Sturm
counts; a predicted level's is the number of quantization solutions of
all families below the window plus its rank in the merged spectrum, the
count the exact Weyl formula gives. Both spectra hold every level of the
window, so each index must be on both sides; one on one side only is a
failed bijection. Nearest-neighbor pairing would double-match inside
doublet clusters and is deliberately not used. The error figures cover
the interior levels only: one mean spacing away from the window edges,
with the actual cuts placed in gaps of the predicted spectrum. Each pair
carries its global index, by which a caller looks up what the oracle run
holds per level (its node count). The pipeline's Weyl stage counts the
same window levels between two endpoints, from either oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BijectionFailure, InvalidSymbol
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
    index: int  # the global index of both levels


@dataclass(frozen=True)
class MatchReport:
    pairs: tuple[MatchedPair, ...]
    unmatched_bs: int
    unmatched_oracle: int
    max_err: float
    mean_err: float
    one_sided: tuple[int, ...]  # global indices present in one spectrum only


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
    """Pair the window levels by global index; errors over the interior pairs.

    one_sided lists, ascending, the global indices that only one of the two
    spectra holds; the bijection holds when it is empty.
    """
    predicted = bs.indices()
    oracle = dict(zip(oracle_result.indices.tolist(), oracle_result.eigenvalues.tolist()))
    one_sided = tuple(sorted(set(predicted).symmetric_difference(oracle)))
    cuts = _interior_cuts(bs, tau_min)
    pairs = []
    if cuts is not None:
        cut_lo, cut_hi = cuts
        pairs = [
            MatchedPair(
                e_bs=entry.energy,
                e_oracle=oracle[i],
                abs_err=abs(entry.energy - oracle[i]),
                k=entry.k,
                n=entry.n,
                index=i,
            )
            for entry, i in zip(bs.entries, predicted)
            if cut_lo <= entry.energy <= cut_hi and i in oracle
        ]
    errs = np.array([p.abs_err for p in pairs]) if pairs else np.zeros(1)
    return MatchReport(
        pairs=tuple(pairs),
        unmatched_bs=len(bs) - len(pairs),
        unmatched_oracle=len(oracle) - len(pairs),
        max_err=float(np.max(errs)),
        mean_err=float(np.mean(errs)),
        one_sided=one_sided,
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
    is set. Raises InvalidSymbol before any trace unless spec is the
    Schrodinger symbol of a potential, which the basis oracle needs, and
    BijectionFailure when a global index of the window is in one spectrum
    only.
    """
    if not isinstance(spec, SymbolSpec) or spec.potential is None:
        what = f"the closed form {spec.name!r}" if isinstance(spec, SymbolSpec) else repr(spec)
        raise InvalidSymbol(
            f"convergence_study: spec must be a potential's Schrodinger symbol "
            f"(schrodinger_symbol(V)) for the basis oracle, not {what}"
        )
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
        if report.one_sided:
            raise BijectionFailure(
                f"global indices {list(report.one_sided)} are in one spectrum only "
                f"at hbar={hbar:g}"
            )
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

