"""Quantization condition, merged spectra, exact counting between safe
endpoints, branches, doublets.

Per family the quantization condition is A0(E) = 2*pi*hbar*(n + 1/2) with
integer n; the half shift is the Maslov contribution mu/4 with |mu| = 2.
The set of solutions is unchanged if the shift is moved to the other sign
convention (n runs over all integers), which is covered by a property test
rather than solver logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import ActionTable, invert_action
from .errors import TooManyLevels, UnsafeEndpoint
from .symbols import EnergyWindow

TWO_PI = 2.0 * math.pi
# Slack on boundary comparisons so knife-edge float ties do not flip
# inclusion decisions that are exact in real arithmetic. Kept below the
# 1e-9*hbar residual bound that spectrum entries must satisfy.
_EDGE_SLACK = 5e-10
# Levels this close are tied: far above the 1e-14 to 1e-12 rounding noise
# between mirror families' levels, far below any spacing 2*pi*hbar/tau_max.
_TIE = 1e-9
# Weyl endpoints keep this many smallest mean spacings from every level.
ENDPOINT_SAFETY = 0.3
# A family's window levels per hbar: kerr on [0.2, 1] has about 55,000 at hbar = 1e-5
# (its run peaks at 336 MiB); at 1e-9 the level list would not fit in memory.
_MAX_LEVELS = 100_000


@dataclass(frozen=True)
class SpectrumEntry:
    energy: float
    k: int
    n: int


@dataclass(frozen=True)
class BsSpectrum:
    """Labeled quantization solutions in the window, sorted by energy (ties by (k, n)).

    first_index is the number of solutions below the window, summed over
    the families: entry i is the level of global index first_index + i.
    """

    hbar: float
    window: EnergyWindow
    entries: tuple[SpectrumEntry, ...]
    first_index: int

    def energies(self) -> np.ndarray:
        return np.array([e.energy for e in self.entries])

    def indices(self) -> range:
        return range(self.first_index, self.first_index + len(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


def _quantum_numbers(table: ActionTable, hbar: float, window: EnergyWindow) -> range:
    """The n with A0(E) = 2*pi*hbar*(n + 1/2) for an E in the window.

    Its start is the family's least n in the window, which is the number of
    the family's solutions below the window, also when the range is empty.
    Raises TooManyLevels when it holds more than _MAX_LEVELS of them. A
    float span of n of at least twice the cap, which holds more than the
    cap's integers, is refused before n is rounded to an integer: at a
    subnormal hbar the span is inf, which no integer holds, and near 1e-300
    the count has 300 digits.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    step = TWO_PI * hbar
    tol = _EDGE_SLACK * hbar
    a1, a2 = float(table.a0_at(window.e1)) - tol, float(table.a0_at(window.e2)) + tol
    span = (a2 - a1) / step
    if not span < 2 * _MAX_LEVELS:
        levels = f"about {span:.3g} window levels at hbar={hbar:g}"
        raise TooManyLevels(f"family {table.k} has {levels}, over the {_MAX_LEVELS} cap")
    n_min = math.ceil(a1 / step - 0.5)
    n_max = math.floor(a2 / step - 0.5)
    if n_max - n_min >= _MAX_LEVELS:
        levels = f"{n_max - n_min + 1} window levels at hbar={hbar:g}"
        raise TooManyLevels(f"family {table.k} has {levels}, over the {_MAX_LEVELS} cap")
    return range(n_min, n_max + 1)


def quantize_family(
    table: ActionTable, hbar: float, window: EnergyWindow
) -> list[tuple[int, float]]:
    """All (n, E) with A0(E) = 2*pi*hbar*(n + 1/2) and E in the window."""
    ns = np.array(_quantum_numbers(table, hbar, window))
    lo_a = float(table.a0_at(window.e1))
    hi_a = float(table.a0_at(window.e2))
    es = invert_action(table, np.clip(TWO_PI * hbar * (ns + 0.5), lo_a, hi_a))
    return list(zip(ns.tolist(), np.clip(es, window.e1, window.e2).tolist()))


def per_distinct_table(tables: list[ActionTable], fn) -> list:
    """fn(table) for each table, called once per distinct interpolant.

    A reflected family's table is a copy of its mirror's with its own k
    (pipeline._stage_actions), sharing the interpolant and so every result
    of fn that does not read k.
    """
    results = {}
    for table in tables:
        if id(table._a0) not in results:
            results[id(table._a0)] = fn(table)
    return [results[id(table._a0)] for table in tables]


def merged_spectrum(
    tables: list[ActionTable], hbar: float, window: EnergyWindow
) -> BsSpectrum:
    """Disjoint union over families, sorted by energy, labels retained.

    A run of levels each within _TIE of the one before is ordered by (k, n),
    so the order of a doublet does not depend on rounding. The first global
    index is the sum of each family's least n in the window. A table shared
    with an earlier family (per_distinct_table) is quantized once.
    """
    entries = []
    first = 0
    solutions = per_distinct_table(
        tables,
        lambda t: (quantize_family(t, hbar, window), _quantum_numbers(t, hbar, window).start),
    )
    for table, (levels, start) in zip(tables, solutions):
        entries += [SpectrumEntry(energy=e, k=table.k, n=n) for n, e in levels]
        first += start
    entries.sort(key=lambda s: s.energy)
    run = np.cumsum(np.diff([s.energy for s in entries], prepend=-np.inf) > _TIE).tolist()
    order = sorted(range(len(entries)), key=lambda i: (run[i], entries[i].k, entries[i].n))
    return BsSpectrum(
        hbar=hbar, window=window, entries=tuple(entries[i] for i in order), first_index=first
    )


@dataclass(frozen=True)
class WeylCount:
    """Exact per-family counts with the two-term asymptotic for reference."""

    count: int
    per_family: tuple[int, ...]
    leading: float
    correction: float
    delta: float


def spacing_floor(tables: list[ActionTable], hbar: float) -> float:
    """Smallest mean level spacing over the families, 2*pi*hbar/tau_max."""
    tau_max = max(t.tau_max for t in tables)
    return TWO_PI * hbar / tau_max


def exact_weyl_count(tables: list[ActionTable], e1t, e2t, bs: BsSpectrum) -> list[WeylCount]:
    """Integer-exact count of quantization solutions in each [e1t[i], e2t[i]].

    e1t and e2t are equal-length sequences of interval ends. Per family, at
    the spectrum's hbar,
    N_k = floor(A0(e2t)/(2 pi hbar) + 1/2) - floor(A0(e1t)/(2 pi hbar) + 1/2),
    valid when both endpoints lie in the window and keep ENDPOINT_SAFETY
    mean spacings from the spectrum (UnsafeEndpoint names the first that
    does not). Returns one WeylCount per interval, from one evaluation of
    each distinct table's series over all endpoints (per_distinct_table).
    """
    ends = np.column_stack([e1t, e2t]).astype(float)
    floor = ENDPOINT_SAFETY * spacing_floor(tables, bs.hbar) if bs.entries else 0.0
    gaps = np.min(np.abs(ends[..., None] - bs.energies()), axis=-1, initial=np.inf)
    for (lo, hi), pair_gaps in zip(ends.tolist(), gaps.tolist()):
        if not lo < hi:
            raise ValueError("need e1t < e2t")
        for endpoint, gap in zip((lo, hi), pair_gaps):
            if not (bs.window.e1 <= endpoint <= bs.window.e2):
                raise UnsafeEndpoint(f"endpoint {endpoint:g} outside the window")
            if not gap >= floor * (1.0 - _EDGE_SLACK):
                raise UnsafeEndpoint(
                    f"endpoint {endpoint:g} is within {ENDPOINT_SAFETY:g} mean spacings "
                    "of the spectrum"
                )
    step = TWO_PI * bs.hbar

    def terms(table):
        a1, a2 = table.a0_at(ends).T
        tau1, tau2 = table.tau_at(ends).T
        count = np.floor(a2 / step + 0.5) - np.floor(a1 / step + 0.5)
        return count, (a2 - a1) / step, (tau2 - tau1) / TWO_PI

    per_family = []
    leading = np.zeros(len(ends))
    correction = np.zeros(len(ends))
    for count, lead, corr in per_distinct_table(tables, terms):
        per_family.append(count)
        leading += lead
        correction += corr
    return [
        WeylCount(
            count=sum(fam), per_family=tuple(fam), leading=lead, correction=corr,
            delta=sum(fam) - lead - corr,
        )
        for fam, lead, corr in zip(
            np.array(per_family, dtype=int).T.tolist(), leading.tolist(), correction.tolist()
        )
    ]


def safe_endpoints(tables: list[ActionTable], bs: BsSpectrum) -> np.ndarray:
    """One Weyl endpoint per safe gap of the spectrum, in increasing order.

    A safe gap is the interval of window points (edges included) that keep
    1.05 * ENDPOINT_SAFETY mean spacings from every level; its endpoint is
    its midpoint. Consecutive endpoints have at least one level between
    them, so counts between them cover every step of the staircase that the
    safety rule admits. Raises UnsafeEndpoint when fewer than two gaps
    exist, since no interval can then be counted.
    """
    window = bs.window
    gap = 1.05 * ENDPOINT_SAFETY * spacing_floor(tables, bs.hbar)
    levels = np.sort(bs.energies())
    lo = np.maximum(np.append(window.e1, levels + gap), window.e1)
    hi = np.minimum(np.append(levels - gap, window.e2), window.e2)
    safe = lo < hi
    lo, hi = lo[safe], hi[safe]
    if len(lo) < 2:
        raise UnsafeEndpoint(
            f"{len(lo)} safe gap(s) in [{window.e1:g}, {window.e2:g}] at hbar={bs.hbar:g}, "
            f"fewer than the two a Weyl count needs ({1.05 * ENDPOINT_SAFETY:g} mean "
            "spacings from every level)"
        )
    return (lo + hi) / 2.0


def branch_energy(table: ActionTable, n, hbar) -> np.ndarray:
    """Energies of branches (k, n) at hbar, NaN where a branch left the window.

    n and hbar broadcast together; all energies come from one invert_action
    call.
    """
    hbar = np.asarray(hbar, dtype=float)
    if np.any(hbar <= 0):
        raise ValueError("hbar must be positive")
    a = TWO_PI * hbar * (np.asarray(n) + 0.5)
    out = np.full(a.shape, np.nan)
    inside = table.covers(a)
    out[inside] = invert_action(table, a[inside])
    return out


def exit_hbar(table: ActionTable, n):
    """Largest hbar at which branch n sits on the lower window edge (n may be an array).

    Every branch leaves through e1 as hbar decreases because A0 is positive
    and bounded below on the window.
    """
    return float(table.a0_at(table.window.e1)) / (TWO_PI * (n + 0.5))


@dataclass(frozen=True)
class DoubletCluster:
    center: float
    entries: tuple[SpectrumEntry, ...]
    families: tuple[int, ...]


def doublet_scan(bs: BsSpectrum, radius: float) -> list[DoubletCluster]:
    """Clusters of levels within radius holding at least two distinct families."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    clusters = []
    group: list[SpectrumEntry] = []
    for entry in bs.entries:
        if group and entry.energy - group[-1].energy > radius:
            clusters.append(group)
            group = []
        group.append(entry)
    if group:
        clusters.append(group)
    out = []
    for group in clusters:
        families = sorted({e.k for e in group})
        if len(group) >= 2 and len(families) >= 2:
            center = sum(e.energy for e in group) / len(group)
            out.append(
                DoubletCluster(
                    center=center, entries=tuple(group), families=tuple(families)
                )
            )
    return out
