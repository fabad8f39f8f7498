import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ebk
from ebk import solver
from ebk.errors import UnsafeEndpoint
from ebk.solver import TWO_PI

from oracles import action_integral, morse_level_closed_form

HBAR = 0.1


def test_quantize_harmonic(harmonic_table):
    levels = ebk.quantize_family(harmonic_table, HBAR, harmonic_table.window)
    assert [n for n, _ in levels] == [2, 3, 4, 5, 6, 7]
    for n, e in levels:
        assert e == pytest.approx(HBAR * (n + 0.5), abs=1e-10)


def test_quantize_harmonic_large_hbar(harmonic_table):
    # hbar = 0.5 puts both n=0 (E=0.25) and n=1 (E=0.75) inside [0.2, 0.8].
    levels = ebk.quantize_family(harmonic_table, 0.5, harmonic_table.window)
    assert [(n, round(e, 10)) for n, e in levels] == [(0, 0.25), (1, 0.75)]


def test_quantize_morse_closed_form(morse_table):
    levels = ebk.quantize_family(morse_table, 0.05, morse_table.window)
    assert [n for n, _ in levels] == list(range(1, 10))
    for n, e in levels:
        assert e == pytest.approx(morse_level_closed_form(n, 0.05), abs=1e-7)


def test_spectrum_entry_residual(harmonic_table, quartic_table):
    for table, hbar in ((harmonic_table, 0.1), (quartic_table, 0.025)):
        for n, e in ebk.quantize_family(table, hbar, table.window):
            resid = abs(float(table.a0_at(e)) - TWO_PI * hbar * (n + 0.5))
            assert resid <= 1e-9 * hbar


def test_convention_equivalence(harmonic_table, quartic_table):
    # A0 = 2*pi*hbar*(n + 1/2) over n and A0 = 2*pi*hbar*(m - 1/2) over m
    # describe the same level set.
    for table in (harmonic_table, quartic_table):
        plus = {round(e, 12) for _, e in ebk.quantize_family(table, HBAR, table.window)}
        lo_a, hi_a = table.a0_range
        actions = []
        m = math.floor(lo_a / (TWO_PI * HBAR) + 0.5)
        while TWO_PI * HBAR * (m - 0.5) <= hi_a + 1e-12:
            a = TWO_PI * HBAR * (m - 0.5)
            if a >= lo_a - 1e-12:
                actions.append(min(max(a, lo_a), hi_a))
            m += 1
        minus = {round(e, 12) for e in ebk.invert_action(table, np.array(actions)).tolist()}
        assert plus == minus


def test_merged_spectrum_double_well(dw_tables, dw_window):
    bs = ebk.merged_spectrum(dw_tables, 0.05, dw_window)
    by_family = {}
    for entry in bs.entries:
        by_family.setdefault(entry.k, []).append(entry.energy)
    assert set(by_family) == {1, 2}
    a = np.array(by_family[1])
    b = np.array(by_family[2])
    assert a.size == b.size > 0
    assert np.max(np.abs(a - b)) <= 1e-9


def test_merged_spectrum_harmonic_gaps(harmonic_table, harmonic_window):
    bs = ebk.merged_spectrum([harmonic_table], HBAR, harmonic_window)
    gaps = np.diff(bs.energies())
    assert np.allclose(gaps, HBAR, atol=1e-9)


def test_merged_spectrum_sorted_and_monotone_per_family(quartic_table, quartic_window):
    bs = ebk.merged_spectrum([quartic_table], HBAR, quartic_window)
    energies = bs.energies()
    assert np.all(np.diff(energies) > 0)
    ns = [e.n for e in bs.entries]
    assert ns == sorted(ns)


def test_weyl_analytic_case(harmonic_wide_table):
    table = harmonic_wide_table
    bs = ebk.merged_spectrum([table], HBAR, table.window)
    (wc,) = ebk.exact_weyl_count([table], [0.22], [1.01], bs)
    assert wc.count == 8
    assert wc.per_family == (8,)
    assert abs(wc.delta) < 1.0


def test_weyl_unsafe_endpoint(harmonic_wide_table):
    table = harmonic_wide_table
    bs = ebk.merged_spectrum([table], HBAR, table.window)
    with pytest.raises(UnsafeEndpoint):
        ebk.exact_weyl_count([table], [0.25], [1.01], bs)
    with pytest.raises(UnsafeEndpoint):
        ebk.exact_weyl_count([table], [0.22], [2.0], bs)


def test_weyl_batch_names_its_first_bad_endpoint(harmonic_wide_table):
    # Pairs are checked in order, each pair's ends lo then hi.
    table = harmonic_wide_table
    bs = ebk.merged_spectrum([table], HBAR, table.window)
    with pytest.raises(UnsafeEndpoint, match=r"^endpoint 0.25 is within 0.3 mean spacings"):
        ebk.exact_weyl_count([table], [0.22, 0.25, 0.22], [1.01, 2.0, 0.1], bs)
    with pytest.raises(UnsafeEndpoint, match=r"^endpoint 2 outside the window"):
        ebk.exact_weyl_count([table], [0.22, 0.22, 0.5], [1.01, 2.0, 0.3], bs)
    with pytest.raises(ValueError, match="e1t < e2t"):
        ebk.exact_weyl_count([table], [0.22, 0.5, 0.25], [1.01, 0.3, 1.01], bs)


def test_weyl_count_matches_spectrum_entries(
    harmonic_table, harmonic_window, dw_tables, dw_window
):
    for tables, window, hbar in [
        ([harmonic_table], harmonic_window, 0.1),
        (dw_tables, dw_window, 0.05),
    ]:
        bs = ebk.merged_spectrum(tables, hbar, window)
        pairs = list(itertools.combinations(ebk.safe_endpoints(tables, bs), 2))
        counts = ebk.exact_weyl_count(tables, *np.transpose(pairs), bs)
        for (a, b), wc in zip(pairs, counts):
            inside = sum(a <= e.energy <= b for e in bs.entries)
            assert wc.count == inside
            assert sum(wc.per_family) == wc.count


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hbar=st.floats(0.01, 0.2), lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
def test_weyl_counts_between_safe_endpoints_are_closed_form(harmonic_table, hbar, lo, hi):
    # The harmonic levels are hbar*(n + 1/2): every two safe endpoints of a
    # sub-window hold exactly the closed-form count, or there are fewer
    # than two safe gaps and safe_endpoints says so.
    e1, e2 = harmonic_table.window.e1, harmonic_table.window.e2
    sub = [min(e2, e1 + f * (e2 - e1)) for f in (lo, hi)]
    assume(sub[0] < sub[1])
    window = ebk.EnergyWindow(*sub, 0.05)
    bs = ebk.merged_spectrum([harmonic_table], hbar, window)
    try:
        ends = ebk.safe_endpoints([harmonic_table], bs)
    except UnsafeEndpoint as exc:
        assert re.match(r"[01] safe gap\(s\) in ", str(exc))
        return
    pairs = list(itertools.combinations(ends, 2))
    levels = hbar * (np.arange(math.ceil(e2 / hbar)) + 0.5)
    closed = [int(np.sum((p <= levels) & (levels <= q))) for p, q in pairs]
    counts = ebk.exact_weyl_count([harmonic_table], *np.transpose(pairs), bs)
    assert [wc.count for wc in counts] == closed


def test_branch_energy_examples(harmonic_table, quartic_table):
    inside, left = ebk.branch_energy(harmonic_table, 3, np.array([0.1, 0.05]))
    assert inside == pytest.approx(0.35, abs=1e-10)
    assert np.isnan(left)
    a_ref = action_integral(lambda x: x**4, 1.0, -1.5, 1.5)
    (e,) = ebk.branch_energy(quartic_table, 5, np.array([0.1]))
    expected = (TWO_PI * 0.1 * 5.5 / a_ref) ** (4.0 / 3.0)
    assert e == pytest.approx(expected, abs=1e-7)


def test_branch_monotonicity(quartic_table):
    energies = ebk.branch_energy(quartic_table, np.arange(20), 0.1)
    inside = energies[~np.isnan(energies)]
    assert len(inside) >= 3
    assert np.all(np.diff(inside) > 0)
    h_lo = ebk.exit_hbar(quartic_table, 8) * 1.001
    h_hi = 0.999 * float(quartic_table.a0_at(quartic_table.window.e2)) / (TWO_PI * 8.5)
    vals = ebk.branch_energy(quartic_table, 8, np.linspace(h_lo, h_hi, 25))
    assert not np.isnan(vals).any()
    assert np.all(np.diff(vals) > 0)
    # Branches and hbar broadcast: NaN once a branch has left the window.
    grid = ebk.branch_energy(quartic_table, np.arange(12)[:, None], np.linspace(0.02, 0.2, 33))
    assert grid.shape == (12, 33) and np.isnan(grid).any() and not np.isnan(grid).all()


def test_branch_exit(harmonic_table):
    for n in (2, 3, 7):
        h_star = ebk.exit_hbar(harmonic_table, n)
        assert h_star == pytest.approx(0.2 / (n + 0.5), abs=1e-10)
        below, far_below, above = ebk.branch_energy(
            harmonic_table, n, np.array([0.999, 0.5, 1.001]) * h_star
        )
        assert np.isnan(below) and np.isnan(far_below) and not np.isnan(above)
    ns = np.array([2, 3, 7])
    assert ebk.exit_hbar(harmonic_table, ns).tolist() == [
        ebk.exit_hbar(harmonic_table, n) for n in ns.tolist()
    ]


def test_doublet_scan_symmetric(dw_tables, dw_window):
    bs = ebk.merged_spectrum(dw_tables, 0.05, dw_window)
    clusters = ebk.doublet_scan(bs, 0.05**2)
    assert len(clusters) == len(bs.entries) // 2
    for c in clusters:
        assert len(c.entries) == 2
        assert c.families == (1, 2)


def test_doublet_scan_harmonic_none(harmonic_table, harmonic_window):
    bs = ebk.merged_spectrum([harmonic_table], HBAR, harmonic_window)
    assert ebk.doublet_scan(bs, HBAR**2) == []


def test_doublet_scan_asymmetric_well():
    tilted = ebk.schrodinger_symbol(
        ebk.polynomial_potential([1.0, 0.1, -2.0, 0.0, 1.0])
    )
    window = ebk.EnergyWindow(0.25, 0.6, 0.05)
    fams = ebk.build_families(tilted, window, 17)
    assert len(fams) == 2
    tables = [ebk.build_action_table(f, window) for f in fams]
    bs = ebk.merged_spectrum(tables, 0.05, window)
    assert len(bs) > 0
    assert ebk.doublet_scan(bs, 0.05**2) == []


def test_kerr_levels_match_closed_form(kerr, kerr_window):
    # The Bohr-Sommerfeld levels of I + chi I^2 are exact: I = hbar (n + 1/2).
    families = ebk.build_families(kerr, kerr_window)
    tables = [ebk.build_action_table(f, kerr_window) for f in families]
    for hbar in (0.1, 0.05):
        bs = ebk.merged_spectrum(tables, hbar, kerr_window)
        assert len(bs.entries) >= 5
        for entry in bs.entries:
            action = hbar * (entry.n + 0.5)
            assert abs(entry.energy - (action + 0.5 * action * action)) <= 1e-11


def _labels(bs):
    return [(e.k, e.n) for e in bs.entries]


def test_merged_spectrum_orders_ties_by_label(dw_tables, dw_window):
    # Mirror copies of family 1 nudged a few ulps up or down: the doublet
    # members' order must not follow the sign of the nudge.
    t1 = dw_tables[0]
    orders = []
    for ulps in (-8, 0, 8):
        a0 = t1.a0 * (1.0 + ulps * np.finfo(float).eps)
        t2 = ebk.ActionTable(
            k=2, energies=t1.energies, a0=a0, tau=t1.tau, maslov=t1.maslov, window=dw_window
        )
        for hbar in (0.1, 0.05):
            bs = ebk.merged_spectrum([t1, t2], hbar, dw_window)
            gaps = np.diff(bs.energies())
            assert np.all(gaps > -1e-12)
            orders.append((hbar, _labels(bs)))
    assert orders[:2] == orders[2:4] == orders[4:]
    for _, labels in orders:
        assert labels[::2] == [(1, n) for _, n in labels[::2]]
        assert labels[1::2] == [(2, n) for _, n in labels[::2]]
    # The traced families themselves: each doublet lists family 1 first.
    for hbar in (0.1, 0.05):
        labels = _labels(ebk.merged_spectrum(dw_tables, hbar, dw_window))
        assert labels == sorted(labels, key=lambda kn: (kn[1], kn[0]))


def test_a_shared_table_is_quantized_once(dw_tables, dw_window, monkeypatch):
    # A reflected family's table is a copy of its mirror's with its own k
    # (the run's actions stage): its levels and Weyl terms are its mirror's,
    # computed once, and equal to those of a table built from its own samples.
    left, right = dw_tables
    shared = copy.copy(left)
    shared.k = 2
    calls = []
    quantize = solver.quantize_family

    def counted(table, *args):
        calls.append(table.k)
        return quantize(table, *args)

    monkeypatch.setattr(solver, "quantize_family", counted)
    for hbar in (0.1, 0.05, 0.025):
        calls.clear()
        bs = ebk.merged_spectrum([left, shared], hbar, dw_window)
        assert calls == [1]
        assert bs == ebk.merged_spectrum([left, right], hbar, dw_window)
        assert {e.k for e in bs.entries} == {1, 2}
        ends = ebk.safe_endpoints([left, shared], bs)
        lo = np.full(len(ends) - 1, ends[0])
        counts = ebk.exact_weyl_count([left, shared], lo, ends[1:], bs)
        assert counts == ebk.exact_weyl_count([left, right], lo, ends[1:], bs)
        assert all(c.per_family[0] == c.per_family[1] for c in counts)
