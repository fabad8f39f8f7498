import math

import numpy as np
import pytest

import ebk
from ebk.errors import (
    CriticalSeed,
    EmptyLevelSet,
    NonConstantTopology,
    NotClosedOrbit,
    PreimageNotEnclosed,
    TraceDiverged,
)
from ebk import portrait
from ebk.portrait import marching_component_count, refine_to_level
from ebk.symbols import Box

from oracles import marching_loops_py, period_integral

BOX = Box(-2, 2, -2, 2)


def test_seed_components_harmonic_circle(harmonic):
    seeds = ebk.seed_components(harmonic, 0.5, BOX)
    assert len(seeds) == 1
    x, xi = seeds[0]
    assert math.hypot(x, xi) == pytest.approx(1.0, abs=1e-9)


def test_seed_components_double_well(double_well):
    seeds = ebk.seed_components(double_well, 0.5, BOX)
    assert len(seeds) == 2
    assert sorted(s[0] < 0 for s in seeds) == [False, True]
    wide = Box(-2, 2, -2.5, 2.5)
    assert len(ebk.seed_components(double_well, 1.5, wide)) == 1


def test_seed_components_empty(harmonic):
    with pytest.raises(EmptyLevelSet):
        ebk.seed_components(harmonic, -0.5, BOX)


def test_seed_components_rejects_leaky_box(harmonic):
    with pytest.raises(PreimageNotEnclosed):
        ebk.seed_components(harmonic, 0.5, Box(-1.05, 1.05, -0.5, 0.5))


def test_component_count_examples(double_well, morse):
    assert ebk.component_count(double_well, 0.5, BOX) == 2
    assert ebk.component_count(double_well, 1.5, Box(-2, 2, -2.5, 2.5)) == 1
    assert ebk.component_count(morse, 0.5, Box(-1.5, 4, -1.5, 1.5)) == 1


def test_trace_harmonic_period(harmonic):
    comp = ebk.trace_component(harmonic, (1.0, 0.0), 0.5)
    assert comp.period == pytest.approx(2 * math.pi, abs=1e-9)
    assert comp.orientation == 1
    assert len(comp.points) >= 64


def test_trace_seed_independence(harmonic):
    a = ebk.trace_component(harmonic, (1.0, 0.0), 0.5)
    b = ebk.trace_component(harmonic, (0.0, 1.0), 0.5)
    assert abs(a.period - b.period) <= 1e-9
    assert abs(a.action - b.action) <= 1e-9


def test_trace_quartic_period_vs_quadrature(quartic):
    comp = ebk.trace_component(quartic, (1.0, 0.0), 1.0)
    ref = period_integral(lambda x: x**4, 1.0, -1.5, 1.5)
    assert comp.period == pytest.approx(ref, abs=1e-10)


def test_trace_conservation_and_closure(morse):
    seed = refine_to_level(morse, (0.5, 0.5), 0.4)
    comp = ebk.trace_component(morse, seed, 0.4)
    drift = np.abs(morse.value(comp.points[:, 0], comp.points[:, 1]) - 0.4)
    assert float(drift.max()) <= comp.trace_tol
    assert comp.closure_gap <= comp.trace_tol


def test_trace_rejects_critical_seed(harmonic):
    with pytest.raises(CriticalSeed):
        ebk.trace_component(harmonic, (0.0, 0.0), 0.0)


def test_trace_time_budget(harmonic):
    with pytest.raises(NotClosedOrbit):
        ebk.trace_component(harmonic, (1.0, 0.0), 0.5, max_time=1.0)


def test_trace_overflowing_symbol_diverges(deadline):
    # V = 1e300 x^2 overflows in the first trial stages, so every error norm
    # is NaN and the step size turns NaN: that is an underflow, not a loop.
    spec = ebk.schrodinger_symbol(ebk.polynomial_potential([0, 0, 1e300]))
    deadline(10)
    with pytest.raises(TraceDiverged, match="underflow"):
        ebk.trace_component(spec, (0.0, 1.0), 0.5)


def test_components_disjoint(double_well):
    comps = [
        ebk.trace_component(double_well, seed, 0.5)
        for seed in ebk.seed_components(double_well, 0.5, BOX)
    ]
    a, b = comps
    d = np.min(
        np.linalg.norm(a.points[:, None, :] - b.points[None, ::16, :], axis=2)
    )
    assert d > 10 * a.trace_tol


def test_build_families_counts(harmonic, double_well):
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    assert len(ebk.build_families(double_well, window)) == 2
    assert len(ebk.build_families(harmonic, window)) == 1


def test_build_families_samples_lobatto_energies(harmonic):
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    (family,) = ebk.build_families(harmonic, window, 9)
    nodes = 0.5 - 0.3 * np.cos(np.pi * np.arange(9) / 8)
    assert len(family.components) == 9
    assert family.energies[0] == 0.2 and family.energies[-1] == 0.8
    assert np.max(np.abs(family.energies - nodes)) <= 1e-14
    for comp in family.components:
        assert comp.action == pytest.approx(2 * math.pi * comp.energy, abs=1e-9)
    assert np.array_equal(family.seeds, [c.seed for c in family.components])
    with pytest.raises(ValueError, match="at least 9"):
        ebk.build_families(harmonic, window, 8)


def test_build_families_nonconstant_topology(double_well):
    with pytest.raises(NonConstantTopology):
        ebk.build_families(double_well, ebk.EnergyWindow(0.8, 1.2, 0.05))


def test_marching_counts_straddle_barrier(double_well):
    box = Box(-2.2, 2.2, -2.5, 2.5)
    assert marching_component_count(double_well, 0.9, box) == 2
    assert marching_component_count(double_well, 1.1, box) == 1


def test_marching_open_chain_leaves_box(harmonic):
    # The circle H = 0.85 (radius 1.30) leaves each of these boxes through
    # one side; the walk must not close, whichever side it is.
    assert marching_component_count(harmonic, 0.85, Box(-1.5, 1.5, -1.5, 1.5)) == 1
    for box in (
        Box(-1.5, 1.5, -1.0, 1.5),
        Box(-1.5, 1.5, -1.5, 1.0),
        Box(-1.0, 1.5, -1.5, 1.5),
        Box(-1.5, 1.0, -1.5, 1.5),
    ):
        with pytest.raises(PreimageNotEnclosed):
            marching_component_count(harmonic, 0.85, box)


def test_family_labels_stable(dw_families):
    k1, k2 = dw_families
    assert k1.k == 1 and k2.k == 2
    assert np.all(k1.seeds[:, 0] < 0)
    assert np.all(k2.seeds[:, 0] > 0)


def test_box_doubling_stability(double_well):
    # Doubling the enclosure must not change what is found on the level set.
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    box = ebk.compact_preimage_box(double_well, window)
    big = box.scaled(2.0)
    for energy in (0.3, 0.6):
        seeds_a = ebk.seed_components(double_well, energy, box)
        seeds_b = ebk.seed_components(double_well, energy, big)
        assert len(seeds_a) == len(seeds_b) == 2
        actions_a = sorted(
            ebk.trace_component(double_well, s, energy).action for s in seeds_a
        )
        actions_b = sorted(
            ebk.trace_component(double_well, s, energy).action for s in seeds_b
        )
        assert actions_a == pytest.approx(actions_b, abs=1e-9)


def _one_at_a_time(spec, seeds, energies):
    return [ebk.trace_component(spec, s, e) for s, e in zip(seeds, energies)]


def test_batched_trace_matches_single_traces(double_well, dw_families):
    kerr = ebk.kerr_symbol(0.5)
    cases = []
    # Both double-well families at mixed energies, interleaved in one batch.
    energies = [0.15, 0.15, 0.42, 0.33, 0.58]
    fams = [dw_families[0], dw_families[1], dw_families[1], dw_families[0], dw_families[0]]
    nearest = [
        f.components[int(np.argmin(np.abs(f.energies - e)))] for f, e in zip(fams, energies)
    ]
    seeds = [refine_to_level(double_well, c.seed, e) for c, e in zip(nearest, energies)]
    cases.append((double_well, seeds, energies))
    # Kerr circles seeded on different axes.
    energies = [0.3, 0.9, 0.6]
    seeds = [
        refine_to_level(kerr, s, e)
        for s, e in zip([(1.0, 0.0), (0.0, 1.0), (-0.7, 0.7)], energies)
    ]
    cases.append((kerr, seeds, energies))
    for spec, seeds, energies in cases:
        batch = ebk.trace_component(spec, seeds, energies)
        assert len(batch) == len(seeds)
        for got, ref in zip(batch, _one_at_a_time(spec, seeds, energies)):
            assert got.energy == ref.energy and got.seed == ref.seed
            assert abs(got.action - ref.action) <= 1e-12
            assert abs(got.period - ref.period) <= 1e-12
            assert np.max(np.abs(got.points - ref.points)) <= 1e-10
            assert got.closure_gap <= got.trace_tol


def test_batched_trace_single_form(harmonic):
    one = ebk.trace_component(harmonic, (1.0, 0.0), 0.5)
    (listed,) = ebk.trace_component(harmonic, [(1.0, 0.0)], [0.5])
    assert isinstance(one, ebk.LevelComponent)
    assert one.action == listed.action and one.period == listed.period
    with pytest.raises(ValueError):
        ebk.trace_component(harmonic, [(1.0, 0.0)], [0.5, 0.5])


def test_batched_trace_bad_column_raises(quartic):
    # Quartic periods shrink with energy: at E = 16 the orbit closes in half
    # the time of the E = 1 orbit, so a budget in between fails only column 0.
    fast = ebk.trace_component(quartic, (2.0, 0.0), 16.0)
    slow = ebk.trace_component(quartic, (1.0, 0.0), 1.0)
    assert fast.period < slow.period
    budget = 0.5 * (fast.period + slow.period)
    with pytest.raises(NotClosedOrbit):
        ebk.trace_component(quartic, [(1.0, 0.0), (2.0, 0.0)], [1.0, 16.0], max_time=budget)
    # A near-critical seed anywhere in the batch is refused.
    with pytest.raises(CriticalSeed, match="seed gradient"):
        ebk.trace_component(quartic, [(1.0, 0.0), (0.0, 0.0)], [1.0, 0.0])


def test_family_scan_marches_once_per_energy(double_well, monkeypatch):
    calls = []
    marching = portrait._marching_loops

    def counted(*args, **kwargs):
        calls.append(args[1])
        return marching(*args, **kwargs)

    monkeypatch.setattr(portrait, "_marching_loops", counted)
    families = ebk.build_families(double_well, ebk.EnergyWindow(0.2, 0.8, 0.05), 9)
    assert len(families) == 2
    assert len(calls) == 9


class _RotatedDoubleWell:
    """The double well turned by 45 degrees in the (x, xi) plane.

    H = xi^2/2 + V(x) is a sum of a function of x and one of xi, so no grid
    cell of a Schrodinger symbol has corners of alternating sign; turned,
    the saddle at the origin gives such cells near the separatrix E = 1.
    """

    def value(self, x, xi):
        u, v = (x + xi) / math.sqrt(2.0), (xi - x) / math.sqrt(2.0)
        return 0.5 * v * v + (u * u - 1.0) ** 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _bits(loops):
    return [np.asarray(loop, dtype=float).tobytes() for loop in loops]


def test_marching_matches_reference_walker(harmonic, quartic, morse, double_well, kerr):
    sextic = ebk.schrodinger_symbol(ebk.polynomial_potential([0, 0, 3, 0, -3.5, 0, 1]))
    cases = [
        (harmonic, (0.2, 0.5, 0.85), BOX),
        (quartic, (0.5, 1.0, 2.0), Box(-1.6, 1.6, -2.5, 2.5)),
        (morse, (0.1, 0.4, 0.6), Box(-1.5, 4, -1.5, 1.5)),
        (kerr, (0.2, 0.6, 1.0), BOX),
        (double_well, (0.3, 0.999, 1.0, 1.001), Box(-2.2, 2.2, -2.5, 2.5)),
        (sextic, (0.3, 0.45, 0.7), Box(-1.8, 1.8, -1.5, 1.5)),
        (_RotatedDoubleWell(), (0.9999, 1.0), Box(-1.95, 2.05, -2.03, 1.98)),
        (_RotatedDoubleWell(), (0.9999, 1.0), Box(-2, 2.01, -2.01, 2)),
    ]
    saddles = 0
    for spec, energies, box in cases:
        for energy in energies:
            for grid_n in (201, 64):
                got = portrait._marching_loops(spec, energy, box, grid_n)
                ref = marching_loops_py(spec, energy, box, grid_n)
                assert got == ref and _bits(got) == _bits(ref)
                _, _, H = portrait._grid_values(spec, box, grid_n)
                pos = H > energy
                saddles += int(np.sum(
                    (pos[:-1, :-1] == pos[1:, 1:])
                    & (pos[1:, :-1] == pos[:-1, 1:])
                    & (pos[:-1, :-1] != pos[1:, :-1])
                ))
    assert saddles >= 4
    # Both pairings of a saddle cell: one merged loop and two loops.
    rotated = _RotatedDoubleWell()
    assert len(portrait._marching_loops(rotated, 1.0, Box(-1.95, 2.05, -2.03, 1.98), 201)) == 1
    assert len(portrait._marching_loops(rotated, 0.9999, Box(-1.95, 2.05, -2.03, 1.98), 201)) == 2


def test_marching_errors_match_reference_walker(harmonic, double_well):
    cases = [
        (harmonic, 0.85, Box(-1.5, 1.5, -1.0, 1.5)),
        (harmonic, 0.85, Box(-1.0, 1.5, -1.5, 1.5)),
        (harmonic, 0.5, Box(-1.05, 1.05, -0.5, 0.5)),
        (double_well, 1.5, Box(-1.4, 1.4, -2, 2)),
        (harmonic, -0.5, BOX),
        (harmonic, 9.0, BOX),
    ]
    for spec, energy, box in cases:
        got = _outcome(portrait._marching_loops, spec, energy, box, 201)
        ref = _outcome(marching_loops_py, spec, energy, box, 201)
        assert got == ref
        assert got[0] in (PreimageNotEnclosed, EmptyLevelSet)
