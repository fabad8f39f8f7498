import math

import numpy as np
import pytest

import ebk
from ebk.errors import (
    ConfigError,
    CriticalSeed,
    EmptyLevelSet,
    NonConstantTopology,
    PreimageNotEnclosed,
    TraceDiverged,
)
from ebk import integrate, portrait
from ebk.portrait import DEFAULT_TRACE_TOL, refine_to_level
from ebk.symbols import Box

from oracles import marching_loops_py, period_integral, scan_arcs_py

BOX = Box(-2, 2, -2, 2)


def _loop_count(spec, energy, box):
    """Closed marching loops of {H = E} on the default grid; no flow integration."""
    return len(portrait._marching_loops(spec, [energy], box, portrait.GRID_N)[0])


def _seed_components(spec, energy, box):
    """The distinct traced components of {H = E} in the box, as a family scan finds them."""
    loops = portrait._marching_loops(spec, [energy], box, portrait.GRID_N)
    (comps,) = portrait._traced_components(spec, [energy], loops, DEFAULT_TRACE_TOL)
    return comps


def test_seed_components_harmonic_circle(harmonic):
    (comp,) = _seed_components(harmonic, 0.5, BOX)
    x, xi = comp.seed
    assert math.hypot(x, xi) == pytest.approx(1.0, abs=1e-9)


def test_seed_components_double_well(double_well):
    comps = _seed_components(double_well, 0.5, BOX)
    assert len(comps) == 2
    assert sorted(c.seed[0] < 0 for c in comps) == [False, True]
    wide = Box(-2, 2, -2.5, 2.5)
    assert len(_seed_components(double_well, 1.5, wide)) == 1


def test_seed_components_empty(harmonic):
    with pytest.raises(EmptyLevelSet):
        _seed_components(harmonic, -0.5, BOX)


def test_seed_components_rejects_leaky_box(harmonic):
    with pytest.raises(PreimageNotEnclosed):
        _seed_components(harmonic, 0.5, Box(-1.05, 1.05, -0.5, 0.5))


def test_component_count_examples(double_well, morse):
    assert len(_seed_components(double_well, 0.5, BOX)) == 2
    assert len(_seed_components(double_well, 1.5, Box(-2, 2, -2.5, 2.5))) == 1
    assert len(_seed_components(morse, 0.5, Box(-1.5, 4, -1.5, 1.5))) == 1


def _trace_one(spec, seed, energy, **kwargs):
    """The one component of a one-orbit trace_component call."""
    (comp,) = ebk.trace_component(spec, [seed], [energy], **kwargs)
    return comp


def test_trace_harmonic_period(harmonic):
    comp = _trace_one(harmonic, (1.0, 0.0), 0.5)
    assert comp.period == pytest.approx(2 * math.pi, abs=1e-9)
    # Along the flow the loop action is the enclosed area, positive.
    assert comp.action == pytest.approx(math.pi, abs=1e-9)
    assert len(comp.points) >= 64


def test_trace_seed_independence(harmonic):
    a, b = ebk.trace_component(harmonic, [(1.0, 0.0), (0.0, 1.0)], [0.5, 0.5])
    assert abs(a.period - b.period) <= 1e-9
    assert abs(a.action - b.action) <= 1e-9


def test_trace_quartic_period_vs_quadrature(quartic):
    comp = _trace_one(quartic, (1.0, 0.0), 1.0)
    ref = period_integral(lambda x: x**4, 1.0, -1.5, 1.5)
    assert comp.period == pytest.approx(ref, abs=1e-10)


def test_trace_conservation_and_closure(morse):
    comp = _trace_one(morse, refine_to_level(morse, [(0.5, 0.5)], 0.4), 0.4)
    drift = np.abs(morse.value(comp.points[:, 0], comp.points[:, 1]) - 0.4)
    assert float(drift.max()) <= DEFAULT_TRACE_TOL


def test_traced_components_in_loop_order(double_well):
    energies = [0.3, 0.5]
    loops = portrait._marching_loops(double_well, energies, BOX, portrait.GRID_N)
    for order in (slice(None), slice(None, None, -1)):
        given = [ls[order] for ls in loops]
        traced = portrait._traced_components(double_well, energies, given, DEFAULT_TRACE_TOL)
        for loops_at, comps, energy in zip(given, traced, energies):
            assert len(comps) == 2
            # The first loop's trace starts at its first refined crossing; the
            # even symbol's second loop is its reflection, which traced nothing.
            first, second = comps
            assert first.seed == tuple(refine_to_level(double_well, loops_at[0][:1], energy)[0])
            assert second.seed == (-first.seed[0], -first.seed[1])
            assert np.array_equal(second.points, -first.points)
            assert (second.action, second.period) == (first.action, first.period)
            assert (second.steps, second.arcs, second.attempts) == (0, 0, 0) and first.arcs > 0


def test_traced_components_rejects_a_repeated_loop(double_well):
    # Two loops of one energy on the same component: the grid scan overcounted.
    energies = [0.3, 0.5]
    loops = portrait._marching_loops(double_well, energies, BOX, portrait.GRID_N)
    repeated = [loops[0], [loops[1][1], loops[1][1]]]
    with pytest.raises(NonConstantTopology) as info:
        portrait._traced_components(double_well, energies, repeated, DEFAULT_TRACE_TOL)
    assert str(info.value) == "traced component count disagrees with the grid scan"


def test_refine_per_point_energies_match_separate_calls(double_well):
    points = np.array(
        [[-1.6, 0.3], [1.5, -0.4], [0.4, 0.9], [-0.5, -0.8], [1.2, 0.7], [-1.3, -0.6]]
    )
    energies = np.array([0.2, 0.45, 0.7, 0.2, 0.45, 0.7])
    together = refine_to_level(double_well, points, energies)
    for energy in (0.2, 0.45, 0.7):
        rows = energies == energy
        alone = refine_to_level(double_well, points[rows], energy)
        assert together[rows].tobytes() == alone.tobytes()


def test_refine_failure_names_the_point_energy(harmonic, monkeypatch):
    # (1, 0) is on the level 0.5; (2, 0) is still off 0.75 after two Newton steps.
    monkeypatch.setattr(portrait, "_REFINE_ITERS", 2)
    with pytest.raises(EmptyLevelSet, match=r"^could not refine seed onto level 0\.75$"):
        refine_to_level(harmonic, [(1.0, 0.0), (2.0, 0.0)], [0.5, 0.75])


def test_trace_attempt_budget(harmonic, monkeypatch):
    # The whole circle as one arc takes about 620 attempts; a budget of 3 stops it.
    monkeypatch.setattr(portrait, "_MAX_ATTEMPTS", 3)
    with pytest.raises(TraceDiverged, match=r"^arc from seed \(1, 0\) not landed after 3 "):
        _trace_one(harmonic, (1.0, 0.0), 0.5)
    monkeypatch.undo()
    assert 3 < _trace_one(harmonic, (1.0, 0.0), 0.5).attempts < portrait._MAX_ATTEMPTS


def test_trace_rejects_critical_seed(harmonic):
    with pytest.raises(CriticalSeed):
        _trace_one(harmonic, (0.0, 0.0), 0.0)


def test_library_trace_tol_under_rounding_floor(harmonic, deadline):
    # The config check, shared: a trace at 1e-15 would shrink its steps
    # without end.
    deadline(5)
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    calls = [
        lambda: ebk.build_families(harmonic, window, 9, trace_tol=1e-15),
        lambda: _trace_one(harmonic, (1.0, 0.0), 0.5, trace_tol=1e-15),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="trace_tol 1e-15 is under 2.22e-11"):
            call()
    _trace_one(harmonic, (1.0, 0.0), 0.5, trace_tol=portrait.MIN_TRACE_TOL)


def test_trace_overflowing_symbol_diverges(deadline):
    # V = 1e300 x^2 overflows in the first trial stages, so every error norm
    # is NaN and the step size turns NaN: that is an underflow, not a loop.
    spec = ebk.schrodinger_symbol(ebk.polynomial_potential([0, 0, 1e300]))
    deadline(10)
    with pytest.raises(TraceDiverged, match="underflow"):
        _trace_one(spec, (0.0, 1.0), 0.5)


def test_components_disjoint(double_well):
    a, b = _seed_components(double_well, 0.5, BOX)
    d = np.min(
        np.linalg.norm(a.points[:, None, :] - b.points[None, ::16, :], axis=2)
    )
    assert d > 10 * DEFAULT_TRACE_TOL


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
    with pytest.raises(ConfigError, match="at least 9"):
        ebk.build_families(harmonic, window, 8)


@pytest.mark.parametrize("n", [portrait.MAX_ACTION_SAMPLES + 1, 10**30, 17.0, True])
def test_build_families_action_samples_out_of_range(harmonic, n):
    # Rejected before any grid or trace buffer is allocated.
    with pytest.raises(ConfigError, match=f"at most {portrait.MAX_ACTION_SAMPLES}"):
        ebk.build_families(harmonic, ebk.EnergyWindow(0.2, 0.8, 0.05), n)


def test_build_families_nonconstant_topology(double_well):
    with pytest.raises(NonConstantTopology):
        ebk.build_families(double_well, ebk.EnergyWindow(0.8, 1.2, 0.05))


def test_marching_counts_straddle_barrier(double_well):
    box = Box(-2.2, 2.2, -2.5, 2.5)
    assert _loop_count(double_well, 0.9, box) == 2
    assert _loop_count(double_well, 1.1, box) == 1


def test_marching_open_chain_leaves_box(harmonic):
    # The circle H = 0.85 (radius 1.30) leaves each of these boxes through
    # one side; the walk must not close, whichever side it is.
    assert _loop_count(harmonic, 0.85, Box(-1.5, 1.5, -1.5, 1.5)) == 1
    for box in (
        Box(-1.5, 1.5, -1.0, 1.5),
        Box(-1.5, 1.5, -1.5, 1.0),
        Box(-1.0, 1.5, -1.5, 1.5),
        Box(-1.5, 1.0, -1.5, 1.5),
    ):
        with pytest.raises(PreimageNotEnclosed):
            _loop_count(harmonic, 0.85, box)


def test_family_labels_stable(dw_families):
    k1, k2 = dw_families
    assert k1.k == 1 and k2.k == 2
    assert all(c.seed[0] < 0 for c in k1.components)
    assert all(c.seed[0] > 0 for c in k2.components)
    # Family k is the k-th well from the left at every energy, here and on
    # the three-well sextic and a tilted double well, whose wells differ.
    sextic = ebk.schrodinger_symbol(ebk.polynomial_potential([0, 0, 3, 0, -3.5, 0, 1]))
    tilted = ebk.schrodinger_symbol(ebk.polynomial_potential([1.0, 0.1, -2.0, 0.0, 1.0]))
    scans = [
        dw_families,
        ebk.build_families(sextic, ebk.EnergyWindow(0.1, 0.4, 0.05), 17),
        ebk.build_families(tilted, ebk.EnergyWindow(0.25, 0.6, 0.05), 17),
    ]
    for families, d in zip(scans, (2, 3, 2)):
        assert [f.k for f in families] == list(range(1, d + 1))
        for left, right in zip(families[:-1], families[1:]):
            for a, b in zip(left.components, right.components, strict=True):
                assert a.energy == b.energy
                assert np.max(a.points[:, 0]) < np.min(b.points[:, 0])


def test_box_doubling_stability(double_well):
    # Doubling the enclosure must not change what is found on the level set.
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    box = ebk.compact_preimage_box(double_well, window)
    cx, cxi = 0.5 * (box.x_lo + box.x_hi), 0.5 * (box.xi_lo + box.xi_hi)
    big = Box(2 * box.x_lo - cx, 2 * box.x_hi - cx, 2 * box.xi_lo - cxi, 2 * box.xi_hi - cxi)
    for energy in (0.3, 0.6):
        comps_a = _seed_components(double_well, energy, box)
        comps_b = _seed_components(double_well, energy, big)
        assert len(comps_a) == len(comps_b) == 2
        actions_a = sorted(c.action for c in comps_a)
        actions_b = sorted(c.action for c in comps_b)
        assert actions_a == pytest.approx(actions_b, abs=1e-9)


def _one_at_a_time(spec, seeds, energies):
    return [_trace_one(spec, s, e) for s, e in zip(seeds, energies)]


def test_batched_trace_matches_single_traces(double_well, dw_families):
    kerr = ebk.kerr_symbol(0.5)
    cases = []
    # Both double-well families at mixed energies, interleaved in one batch.
    energies = [0.15, 0.15, 0.42, 0.33, 0.58]
    fams = [dw_families[0], dw_families[1], dw_families[1], dw_families[0], dw_families[0]]
    nearest = [
        f.components[int(np.argmin(np.abs(f.energies - e)))] for f, e in zip(fams, energies)
    ]
    seeds = [refine_to_level(double_well, [c.seed], e) for c, e in zip(nearest, energies)]
    cases.append((double_well, seeds, energies))
    # Kerr circles seeded on different axes.
    energies = [0.3, 0.9, 0.6]
    axes = [(1.0, 0.0), (0.0, 1.0), (-0.7, 0.7)]
    seeds = [refine_to_level(kerr, [s], e) for s, e in zip(axes, energies)]
    cases.append((kerr, seeds, energies))
    for spec, seeds, energies in cases:
        batch = ebk.trace_component(spec, seeds, energies)
        assert len(batch) == len(seeds)
        # Every column advances as it would alone, so the orbits agree bit for bit.
        for got, ref in zip(batch, _one_at_a_time(spec, seeds, energies)):
            assert got.energy == ref.energy and got.seed == ref.seed
            assert (got.action, got.period, got.steps) == (ref.action, ref.period, ref.steps)
            assert np.array_equal(got.points, ref.points)


def test_batched_trace_bad_column_raises(quartic, monkeypatch):
    # Each lone seed is traced as one whole-orbit arc: 848 stepper attempts
    # at E = 1 and 978 at E = 16, so a budget in between fails only column 1.
    low, high = ebk.trace_component(quartic, [(1.0, 0.0), (2.0, 0.0)], [1.0, 16.0])
    assert (low.attempts, high.attempts) == (848, 978)
    monkeypatch.setattr(portrait, "_MAX_ATTEMPTS", 900)
    with pytest.raises(TraceDiverged, match=r"^arc from seed \(2, 0\) not landed after 900 "):
        ebk.trace_component(quartic, [(1.0, 0.0), (2.0, 0.0)], [1.0, 16.0])
    # A near-critical seed anywhere in the batch is refused.
    with pytest.raises(CriticalSeed, match="seed gradient"):
        ebk.trace_component(quartic, [(1.0, 0.0), (0.0, 0.0)], [1.0, 0.0])
    # So is a batch whose seeds and energies differ in number.
    with pytest.raises(ValueError, match="2 seeds for 3 energies"):
        ebk.trace_component(quartic, [(1.0, 0.0), (2.0, 0.0)], [1.0, 16.0, 1.0])


def _spied_landings(monkeypatch):
    """Record each _section_crossing call: its columns and each crossing's
    distance from its target."""
    calls = []
    solve = portrait._section_crossing

    def spied(step, normal, target):
        t_star = solve(step, normal, target)
        y = step.eval(t_star)
        calls.append((step.cols.tolist(), np.hypot(*(y[:2] - target)).tolist()))
        return t_star

    monkeypatch.setattr(portrait, "_section_crossing", spied)
    return calls


def _far_crossing_seed(double_well):
    # Above the barrier (V = (x^2 - 1)^2) the loop at E = 1.2 is a peanut:
    # the section through this seed, on the outer flank of the right lobe,
    # cuts the left lobe too. (At E = 1.5 no section of the loop does.)
    x = 1.2
    return refine_to_level(double_well, [(x, math.sqrt(2 * (1.2 - (x * x - 1) ** 2)))], 1.2)[0]


def test_lone_seed_closes_past_a_far_crossing(double_well, monkeypatch):
    seed = _far_crossing_seed(double_well)
    calls = _spied_landings(monkeypatch)
    comp = _trace_one(double_well, seed, 1.2)
    # The section is crossed forward far from the seed first; that crossing
    # fails the landing test, and the arc goes on to close on its seed.
    (first, far), (last, near) = calls
    assert first == last == [0] and far[0] > 1.0 and near[0] <= DEFAULT_TRACE_TOL
    assert comp.seed == tuple(seed) and comp.arcs == 1
    ref = period_integral(lambda x: (x * x - 1) ** 2, 1.2, -2.0, 2.0)
    assert comp.period == pytest.approx(ref, abs=1e-9)


def test_pending_landings_match_single_traces(double_well, dw_families, monkeypatch):
    # The far-crossing seed's orbit closes about 250 attempts after its far
    # crossing, while three slower lone seeds near the separatrix still run:
    # that crossing is still pending when the seed's own crossing comes, and
    # is solved first, so the column lands on its first lap. Four arcs of a
    # family orbit land early beside them.
    comp = dw_families[0].components[4]
    seeds = [_far_crossing_seed(double_well)]
    seeds += [(0.0, math.sqrt(2 * (e - 1))) for e in (1.01, 1.02, 1.05)]
    seeds.append(comp.points[::256])
    energies = [1.2, 1.01, 1.02, 1.05, comp.energy]
    alone = _one_at_a_time(double_well, seeds, energies)
    calls = _spied_landings(monkeypatch)
    batch = ebk.trace_component(double_well, seeds, energies)
    for got, ref in zip(batch, alone):
        assert got.seed == ref.seed
        assert (got.action, got.period) == (ref.action, ref.period)
        assert (got.steps, got.attempts) == (ref.steps, ref.attempts)
        assert np.array_equal(got.points, ref.points)
    # Column 0's far crossing is solved alone, as its next crossing came
    # while it was pending with three other columns running; the next solve
    # with it lands it.
    (far_cols, far), (near_cols, near) = [c for c in calls if 0 in c[0]]
    assert far_cols == [0] and far[0] > 1.0
    assert near[near_cols.index(0)] <= DEFAULT_TRACE_TOL
    assert max(c.landing_solves for c in batch) == len(calls)


def test_attempt_budget_names_a_column_not_landed(double_well, monkeypatch):
    # Column 0 crosses its section on attempt 529 and lands there; the
    # three slower columns keep its crossing pending. A budget of 530 stops
    # the batch at its next attempt: the error names column 1, which had not
    # landed, not column 0, which was still stepping.
    seeds = [(1.0, 1.0)] + [(0.0, math.sqrt(2 * (e - 1))) for e in (1.01, 1.02, 1.05)]
    energies = [0.5, 1.01, 1.02, 1.05]
    assert _trace_one(double_well, seeds[0], 0.5).attempts == 530
    monkeypatch.setattr(portrait, "_MAX_ATTEMPTS", 530)
    message = r"^arc from seed \(0, 0\.141421\) not landed after 530 "
    with pytest.raises(TraceDiverged, match=message):
        ebk.trace_component(double_well, seeds, energies)


def test_family_scan_marches_once_per_energy(double_well, monkeypatch):
    calls = []
    marching = portrait._marching_loops

    def counted(*args, **kwargs):
        calls.append(args[1])
        return marching(*args, **kwargs)

    monkeypatch.setattr(portrait, "_marching_loops", counted)
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    families = ebk.build_families(double_well, window, 9)
    assert len(families) == 2
    # One pass marches the 9 Lobatto energies, each once.
    (energies,) = calls
    assert list(energies) == list(portrait._lobatto(window, 9))
    assert len(set(energies)) == 9


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


def _same_loops(got, ref):
    """got, (n, 2) arrays, holds ref's loops of (x, xi) tuples bit for bit."""
    shapes = [np.shape(loop) for loop in got]
    return shapes == [(len(loop), 2) for loop in ref] and _bits(got) == _bits(ref)


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
        for grid_n in (201, 64):
            # The multi-level form gives every level's loops in one pass.
            per_level = portrait._marching_loops(spec, np.array(energies), box, grid_n)
            assert len(per_level) == len(energies)
            for energy, several in zip(energies, per_level):
                (got,) = portrait._marching_loops(spec, [energy], box, grid_n)
                ref = marching_loops_py(spec, energy, box, grid_n)
                assert all(isinstance(loop, np.ndarray) for loop in got + several)
                assert _same_loops(got, ref) and _same_loops(several, ref)
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
    assert _loop_count(rotated, 1.0, Box(-1.95, 2.05, -2.03, 1.98)) == 1
    assert _loop_count(rotated, 0.9999, Box(-1.95, 2.05, -2.03, 1.98)) == 2


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
        got = _outcome(portrait._marching_loops, spec, [energy], box, 201)
        ref = _outcome(marching_loops_py, spec, energy, box, 201)
        assert got == ref
        assert got[0] in (PreimageNotEnclosed, EmptyLevelSet)
    # Several levels: the error of the least bad one, whatever comes above it.
    leaky = Box(-1.5, 1.5, -1.0, 1.5)
    multi = [
        (harmonic, (0.3, 0.85, 9.0), leaky),
        (harmonic, (-0.5, 0.3, 0.85), leaky),
        (harmonic, (0.2, 0.5, 9.0), BOX),
        (double_well, (0.3, 1.5), Box(-1.4, 1.4, -2, 2)),
    ]
    kinds = set()
    for spec, energies, box in multi:
        got = _outcome(portrait._marching_loops, spec, np.array(energies), box, 201)
        refs = [_outcome(marching_loops_py, spec, e, box, 201) for e in energies]
        assert got == next(r for r in refs if isinstance(r, tuple))
        kinds.add(got[0])
    assert kinds == {PreimageNotEnclosed, EmptyLevelSet}


def _signed_area(points):
    """Shoelace area of a closed polyline, positive when it runs counterclockwise."""
    x, xi = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(xi, -1) - np.roll(x, -1) * xi))


def test_marching_loops_counterclockwise_orbits_clockwise(double_well, kerr):
    # Every marching loop leaves its least edge into the cell below, so it
    # runs counterclockwise; the flow runs clockwise around every well, so
    # _flow_order reads every loop's seeds backwards and each traced orbit
    # has negative area.
    sextic = ebk.schrodinger_symbol(ebk.polynomial_potential([0, 0, 3, 0, -3.5, 0, 1]))
    cases = [
        (double_well, ebk.EnergyWindow(0.1, 0.6, 0.05), 2),
        (double_well, ebk.EnergyWindow(1.2, 2.0, 0.05), 1),  # above the barrier
        (kerr, ebk.EnergyWindow(0.2, 1.0, 0.05), 1),
        (sextic, ebk.EnergyWindow(0.1, 0.4, 0.05), 3),
    ]
    for spec, window, wells in cases:
        n = wells * portrait.DEFAULT_ACTION_SAMPLES
        energies = portrait._lobatto(window, portrait.DEFAULT_ACTION_SAMPLES)
        box = ebk.compact_preimage_box(spec, window)
        loops = portrait._marching_loops(spec, energies, box, portrait.GRID_N)
        loop_areas = [_signed_area(loop) for level in loops for loop in level]
        orbits = [c for f in ebk.build_families(spec, window) for c in f.components]
        assert len(loop_areas) == len(orbits) == n
        assert min(loop_areas) > 0.0
        assert max(_signed_area(c.points) for c in orbits) < 0.0


def _arc_seeds(comp, k=8):
    """k points of a traced orbit, evenly spaced in flow time from its seed."""
    return comp.points[:: len(comp.points) // k][:k]


def test_arcs_match_single_seed_trace(harmonic, kerr, double_well, dw_families):
    cases = [(harmonic, (1.0, 0.0), 0.5), (kerr, refine_to_level(kerr, [(0.8, 0.3)], 0.6), 0.6)]
    cases += [(double_well, f.components[5].seed, f.energies[5]) for f in dw_families]
    traced = []
    for spec, seed, energy in cases:
        single = _trace_one(spec, seed, energy)
        arcs = _trace_one(spec, _arc_seeds(single), energy)
        assert (single.arcs, arcs.arcs) == (1, 8)
        assert arcs.seed == single.seed
        assert abs(arcs.period - single.period) <= 1e-12
        assert abs(arcs.action - single.action) <= 1e-12
        assert np.max(np.abs(arcs.points - single.points)) <= 1e-10
        # Each arc needs about 1/K of the single trace's sequential attempts.
        assert arcs.attempts < single.attempts / 4
        traced.append(arcs)
    harm, kerr_arcs = traced[:2]
    assert harm.period == pytest.approx(2 * math.pi, abs=1e-12)
    assert harm.action == pytest.approx(math.pi, abs=1e-12)
    chi = 0.5
    action = (math.sqrt(1.0 + 4.0 * chi * 0.6) - 1.0) / (2.0 * chi)  # E = I + chi I^2
    assert kerr_arcs.action == pytest.approx(2 * math.pi * action, abs=1e-11)
    assert kerr_arcs.period == pytest.approx(2 * math.pi / (1.0 + 2.0 * chi * action), abs=1e-11)


def test_arc_seeds_against_flow_give_same_component(kerr, double_well, dw_families):
    cases = [(kerr, refine_to_level(kerr, [(0.8, 0.3)], 0.6), 0.6)]
    cases += [(double_well, f.components[3].seed, f.energies[3]) for f in dw_families]
    for spec, seed, energy in cases:
        seeds = _arc_seeds(_trace_one(spec, seed, energy))
        backwards = np.roll(seeds[::-1], 1, axis=0)  # the first seed stays first
        assert np.array_equal(backwards[0], seeds[0])
        along, against = ebk.trace_component(spec, [seeds, backwards], [energy, energy])
        assert against.seed == along.seed
        assert (against.period, against.action) == (along.period, along.action)
        assert np.array_equal(against.points, along.points)
        assert against.arcs == along.arcs == len(seeds)


def test_short_loop_traces_as_one_arc(harmonic, monkeypatch):
    # On a coarse grid the circle crosses too few edges to be split.
    (loops,) = portrait._marching_loops(harmonic, [0.5], BOX, 11)
    assert len(loops) == 1 and len(loops[0]) < 2 * portrait._ARC_CROSSINGS
    (seeds,) = portrait._candidates(harmonic, [0.5], [loops])
    assert seeds.shape == (1, 2)
    # Each orbit gets one arc per _ARC_CROSSINGS crossings of its loop: on
    # this grid the small orbits of the window are one arc, the large ones
    # two or three.
    window, crossings = ebk.EnergyWindow(0.2, 0.8, 0.05), portrait._ARC_CROSSINGS
    with monkeypatch.context() as m:
        m.setattr(portrait, "GRID_N", 11)
        (family,) = ebk.build_families(harmonic, window, 9)
    arcs = [c.arcs for c in family.components]
    assert [[a] for a in arcs] == scan_arcs_py(harmonic, window, 9, crossings, grid_n=11)
    assert arcs[0] == 1 and arcs[-1] == 3
    # The fine default grid splits every orbit of the window, larger ones into more arcs.
    (family,) = ebk.build_families(harmonic, window, 9)
    arcs = [c.arcs for c in family.components]
    assert [[a] for a in arcs] == scan_arcs_py(harmonic, window, 9, crossings)
    assert 1 < arcs[0] < arcs[-1]
    for comp in family.components:
        assert comp.action == pytest.approx(2 * math.pi * comp.energy, abs=1e-12)
        assert comp.period == pytest.approx(2 * math.pi, abs=1e-12)


def test_arcs_land_at_small_gradient(harmonic, deadline):
    # Near the bottom of the well |grad H| ~ 0.01, so seeds refined to
    # |H - E| <= 1e-12 sit up to 1e-10 apart across the level sets; each arc
    # must still land on the next seed's section within trace_tol.
    deadline(20)
    window = ebk.EnergyWindow(1e-4, 5e-4, 5e-5)
    (family,) = ebk.build_families(harmonic, window, 9, trace_tol=portrait.MIN_TRACE_TOL)
    expected = scan_arcs_py(harmonic, window, 9, portrait._ARC_CROSSINGS)
    assert [[c.arcs] for c in family.components] == expected
    for comp in family.components:
        assert comp.arcs > 1
        assert comp.action == pytest.approx(2 * math.pi * comp.energy, abs=1e-11)


def test_double_well_scan_attempts_ceiling(double_well, monkeypatch):
    # The stepper's sequential depth: 2 + 6 right-hand side calls per attempt.
    evals = []
    steps = integrate.dp45_steps

    def counted(f, *args, **kwargs):
        def rhs(y):
            evals.append(y.shape[1])
            return f(y)

        return steps(rhs, *args, **kwargs)

    monkeypatch.setattr(integrate, "dp45_steps", counted)
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    families = ebk.build_families(double_well, window)
    attempts, extra = divmod(len(evals) - 2, 6)
    assert extra == 0
    # The left loop takes the arcs of both loops, 502 of about 12 crossings,
    # in 34 attempts; its own 249 arcs took 56, and 8 arcs per orbit 110.
    assert attempts <= 40
    comps = [c for f in families for c in f.components]
    assert max(c.attempts for c in comps) == attempts
    loops = scan_arcs_py(
        double_well, window, portrait.DEFAULT_ACTION_SAMPLES, portrait._ARC_CROSSINGS
    )
    assert all(len(arcs) == 2 and arcs[1] == 0 for arcs in loops)
    # Only the left family is traced; the right one is its reflection.
    assert [f.reflects for f in families] == [None, 1]
    assert evals[0] == sum(c.arcs for c in comps) == sum(map(sum, loops)) == 502


@pytest.mark.parametrize(
    "spec, window, arcs, attempts",
    [
        (ebk.kerr_symbol(0.5), (0.2, 1.0), 413, 32),
        (ebk.schrodinger_symbol(ebk.quartic_potential()), (0.5, 2.0), 440, 33),
    ],
    ids=["kerr", "quartic"],
)
def test_self_symmetric_scans_keep_their_arcs(spec, window, arcs, attempts):
    # One self-symmetric loop per energy has no reflected mirror whose arcs it
    # could take: one arc per _ARC_CROSSINGS crossings, as for any symbol.
    window = ebk.EnergyWindow(*window, 0.05)
    (family,) = ebk.build_families(spec, window)
    loops = scan_arcs_py(spec, window, portrait.DEFAULT_ACTION_SAMPLES, portrait._ARC_CROSSINGS)
    assert [[c.arcs] for c in family.components] == loops
    assert sum(c.arcs for c in family.components) == arcs
    assert max(c.attempts for c in family.components) == attempts


@pytest.mark.parametrize(
    "spec, window",
    [
        (ebk.schrodinger_symbol(ebk.double_well_potential(1.0)), (0.1, 0.6)),
        (ebk.kerr_symbol(0.5), (0.2, 1.0)),
        (ebk.anisotropic_symbol(1.0, 4.0), (1.0, 2.0)),
    ],
    ids=["double_well", "kerr", "anisotropic_harmonic"],
)
def test_even_symbol_orbits_reflect_bit_for_bit(spec, window):
    # H(-x, -xi) = H(x, xi) in floating point and the gradient is odd, so
    # an orbit traced from the reflected seeds is the reflected orbit, bit
    # for bit: the reflection of a traced family is what tracing its mirror
    # from those seeds would give.
    assert spec.even
    comps = ebk.build_families(spec, ebk.EnergyWindow(*window, 0.05), 9)[0].components
    seeds = [c.points[::128] for c in comps]
    energies = [c.energy for c in comps]
    traced = ebk.trace_component(spec, seeds, energies)
    mirrored = ebk.trace_component(spec, [-s for s in seeds], energies)
    for a, b in zip(traced, mirrored):
        assert np.array_equal(b.points, -a.points) and b.seed == (-a.seed[0], -a.seed[1])
        assert (b.action, b.period, b.steps, b.arcs) == (a.action, a.period, a.steps, a.arcs)


def test_uneven_symbols_trace_every_family():
    # A tilted double well and Morse are not even: every family is traced.
    assert not ebk.schrodinger_symbol(ebk.morse_potential(1.0, 1.0)).even
    tilted = ebk.schrodinger_symbol(ebk.polynomial_potential([1.0, 0.05, -2.0, 0.0, 1.0]))
    assert not tilted.even
    families = ebk.build_families(tilted, ebk.EnergyWindow(0.2, 0.6, 0.05), 9)
    assert len(families) == 2 and all(f.reflects is None for f in families)
    assert all(c.arcs > 0 for f in families for c in f.components)
