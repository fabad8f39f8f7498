import dataclasses
import itertools

import numpy as np
import pytest

import ebk
from ebk.errors import BijectionFailure, InvalidSymbol, UnsafeEndpoint
from ebk.oracle import EigenResult
from oracles import stencil_levels


def test_match_harmonic(harmonic, harmonic_table, harmonic_window):
    bs = ebk.merged_spectrum([harmonic_table], 0.1, harmonic_window)
    run = ebk.solve_basis(harmonic.potential, harmonic_window, 0.1)
    rep = ebk.match_spectra(bs, run.result, harmonic_table.tau_min)
    assert len(rep.pairs) >= 4
    assert rep.max_err <= 1e-5
    for p in rep.pairs:
        assert p.abs_err == abs(p.e_bs - p.e_oracle)


def test_match_carries_node_counts(harmonic, harmonic_table, harmonic_window):
    bs = ebk.merged_spectrum([harmonic_table], 0.1, harmonic_window)
    run = ebk.solve_basis(harmonic.potential, harmonic_window, 0.1)
    node_counts, _ = ebk.basis_nodes(harmonic.potential, harmonic_window, 0.1, run)
    nodes = dict(zip(run.result.indices.tolist(), node_counts))
    rep = ebk.match_spectra(bs, run.result, harmonic_table.tau_min)
    assert rep.pairs
    assert all(nodes[p.index] == p.n for p in rep.pairs)


def test_match_detects_missing_interior_level(
    harmonic, harmonic_table, harmonic_window, monkeypatch
):
    # Levels 2..7 on both sides; an oracle without index 5 leaves it on the
    # predicted side only, the other pairs as they were, and the convergence
    # study stops on it.
    bs = ebk.merged_spectrum([harmonic_table], 0.1, harmonic_window)
    run = ebk.solve_basis(harmonic.potential, harmonic_window, 0.1)
    ev = run.result.eigenvalues
    broken = EigenResult(
        eigenvalues=np.delete(ev, 3), indices=np.delete(run.result.indices, 3)
    )
    full = ebk.match_spectra(bs, run.result, harmonic_table.tau_min)
    rep = ebk.match_spectra(bs, broken, harmonic_table.tau_min)
    assert list(bs.indices()) == list(run.result.indices) == [2, 3, 4, 5, 6, 7]
    assert full.one_sided == () and rep.one_sided == (5,)
    assert list(rep.pairs) == [p for p in full.pairs if p.index != 5] != list(full.pairs)
    solve_basis = ebk.compare.solve_basis

    def dropped(*args):
        basis = solve_basis(*args)
        res = basis.result
        keep = res.indices != 5
        result = EigenResult(res.eigenvalues[keep], res.indices[keep])
        return dataclasses.replace(basis, result=result)

    monkeypatch.setattr(ebk.compare, "solve_basis", dropped)
    with pytest.raises(BijectionFailure, match=r"global indices \[5\] are in one spectrum only"):
        ebk.convergence_study(harmonic, harmonic_window, [0.1, 0.05, 0.025], action_samples=17)


def test_match_double_well_doublet_pairs(double_well, dw_tables, dw_window):
    bs = ebk.merged_spectrum(dw_tables, 0.05, dw_window)
    run = ebk.solve_basis(double_well.potential, dw_window, 0.05)
    tau_min = min(t.tau_min for t in dw_tables)
    rep = ebk.match_spectra(bs, run.result, tau_min)
    assert len(rep.pairs) >= 2 and len(rep.pairs) % 2 == 0
    assert rep.max_err <= 1e-3  # two-term truncation error at hbar = 0.05


def test_convergence_needs_three_hbars(harmonic, harmonic_window):
    with pytest.raises(ValueError):
        ebk.convergence_study(harmonic, harmonic_window, [0.2, 0.1])


@pytest.mark.parametrize(
    "spec, what",
    [
        (ebk.quartic_potential(), "not Quartic()"),
        (ebk.kerr_symbol(0.5), "not the closed form 'kerr'"),
    ],
    ids=["potential", "kerr"],
)
def test_convergence_refuses_a_spec_without_a_potential_before_tracing(spec, what, monkeypatch):
    # A bare potential, or a closed form with no V for the basis oracle, is
    # refused by name before the family scan traces anything.
    def no_scan(*args, **kwargs):
        raise AssertionError("a family was traced")

    monkeypatch.setattr(ebk.compare, "build_families", no_scan)
    window = ebk.EnergyWindow(0.5, 2.0, 0.05)
    with pytest.raises(InvalidSymbol, match=r"convergence_study: spec must be") as info:
        ebk.convergence_study(spec, window, [0.2, 0.1, 0.05])
    assert str(info.value).endswith(what)


def test_convergence_floor_flag_harmonic(harmonic, harmonic_window):
    rep = ebk.convergence_study(
        harmonic, harmonic_window, [0.2, 0.1, 0.05], action_samples=17
    )
    assert all(rep.floor_limited)


def test_convergence_floor_flag_morse(morse, morse_window):
    rep = ebk.convergence_study(
        morse, morse_window, [0.2, 0.1, 0.05], action_samples=33
    )
    assert all(rep.floor_limited)
    assert max(rep.max_errs) <= 1e-6


def test_weyl_counts_batch_match_per_pair_counts(harmonic, harmonic_wide_table):
    # The pipeline's Weyl stage: one exact_weyl_count call for the first safe
    # endpoint against every later one, and each oracle count a difference
    # of searchsorted on the window levels, as on the stencil reference's.
    table = harmonic_wide_table
    window = table.window
    bs = ebk.merged_spectrum([table], 0.1, window)
    run = ebk.solve_basis(harmonic.potential, window, 0.1)
    levels, _ = stencil_levels(harmonic.potential, window, 0.1)
    ends = ebk.safe_endpoints([table], bs)
    pairs = [(ends[0], e2t) for e2t in ends[1:]]
    batch = ebk.exact_weyl_count([table], *np.transpose(pairs), bs)
    below = np.searchsorted(run.result.eigenvalues, pairs)
    assert len(batch) == len(below) == len(pairs) == 8
    for wc, (lo_w, hi_w), (e1t, e2t) in zip(batch, below, pairs):
        lo, hi = np.searchsorted(levels, [e1t, e2t])
        assert hi_w - lo_w == hi - lo
        assert [wc] == ebk.exact_weyl_count([table], [e1t], [e2t], bs)


def test_safe_endpoints_respects_floor(harmonic_table, harmonic_window):
    # Every endpoint is in the window and keeps the safety floor from every
    # level, and consecutive endpoints have a level between them.
    bs = ebk.merged_spectrum([harmonic_table], 0.1, harmonic_window)
    ends = ebk.safe_endpoints([harmonic_table], bs)
    energies = bs.energies()
    floor = 0.3 * 2 * np.pi * 0.1 / harmonic_table.tau_max
    assert len(ends) == len(energies) + 1
    assert np.all((harmonic_window.e1 <= ends) & (ends <= harmonic_window.e2))
    for a in ends:
        assert np.min(np.abs(energies - a)) >= floor
    for a, b in zip(ends[:-1], ends[1:]):
        assert np.any((a < energies) & (energies < b))


def test_safe_endpoints_deterministic(harmonic_table, harmonic_window):
    # The midpoints of the safe gaps, bit for bit on every call: levels
    # 0.25, 0.35, ..., 0.75 and a 0.0315 margin (1.05 * 0.3 spacings of 0.1).
    bs = ebk.merged_spectrum([harmonic_table], 0.1, harmonic_window)
    ends = ebk.safe_endpoints([harmonic_table], bs)
    assert np.array_equal(ends, ebk.safe_endpoints([harmonic_table], bs))
    expected = [0.20925, 0.3, 0.4, 0.5, 0.6, 0.7, 0.79075]
    assert ends == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "fixtures",
    [
        ("double_well", "dw_tables", "dw_window"),
        ("morse", "morse_table", "morse_window"),
        ("quartic", "quartic_table", "quartic_window"),
    ],
    ids=lambda names: names[0],
)
@pytest.mark.parametrize("hbar", [0.1, 0.05])
def test_weyl_counts_agree_across_oracles(fixtures, hbar, request):
    # The basis oracle's window levels and the stencil reference's give the
    # same Weyl counts between every two safe endpoints.
    spec, tables, window = map(request.getfixturevalue, fixtures)
    tables = tables if isinstance(tables, list) else [tables]
    bs = ebk.merged_spectrum(tables, hbar, window)
    ends = ebk.safe_endpoints(tables, bs)
    pairs = list(itertools.combinations(ends, 2))
    levels, _ = stencil_levels(spec.potential, window, hbar)
    basis = ebk.solve_basis(spec.potential, window, hbar)
    by_grid = np.diff(np.searchsorted(levels, pairs)).ravel().tolist()
    by_basis = np.diff(np.searchsorted(basis.result.eigenvalues, pairs)).ravel().tolist()
    assert by_grid == by_basis
    assert by_grid == [c.count for c in ebk.exact_weyl_count(tables, *np.transpose(pairs), bs)]
    assert min(by_grid) > 0


def test_safe_endpoints_fails_fast_on_narrow_window(harmonic_table, harmonic_window):
    # At hbar = 5 the window holds no level, and neither does a 1e-7 wide
    # window at hbar = 0.1: each is one gap. Around the level 0.25 at
    # hbar = 0.1, [0.24, 0.26] has no safe point at all.
    narrow = ebk.EnergyWindow(0.2, 0.2000001, 0.05)
    around = ebk.EnergyWindow(0.24, 0.26, 0.05)
    for hbar, window, gaps in [(5.0, harmonic_window, 1), (0.1, narrow, 1), (0.1, around, 0)]:
        bs = ebk.merged_spectrum([harmonic_table], hbar, window)
        with pytest.raises(UnsafeEndpoint, match=rf"^{gaps} safe gap\(s\)"):
            ebk.safe_endpoints([harmonic_table], bs)


def test_safe_endpoints_fails_with_one_gap():
    # The three-well sextic at hbar = 0.1: of its window [0.1, 0.4], only
    # [0.200, 0.280] keeps 1.05 safety distances from every level. One gap
    # holds no interval to count.
    sextic = ebk.schrodinger_symbol(ebk.polynomial_potential([0, 0, 3, 0, -3.5, 0, 1]))
    window = ebk.EnergyWindow(0.1, 0.4, 0.05)
    tables = [ebk.build_action_table(f, window) for f in ebk.build_families(sextic, window)]
    with pytest.raises(UnsafeEndpoint, match=r"^1 safe gap\(s\) in \[0.1, 0.4\] at hbar=0.1,"):
        ebk.safe_endpoints(tables, ebk.merged_spectrum(tables, 0.1, window))
    assert len(ebk.safe_endpoints(tables, ebk.merged_spectrum(tables, 0.05, window))) == 3
