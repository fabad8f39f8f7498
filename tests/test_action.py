import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import ebk
from ebk.errors import NotDiffeomorphism, NotSimple, OutOfWindow
from ebk.portrait import LevelComponent, refine_to_level

from oracles import action_integral, check_simple_sweep, invert_action_py, morse_action_closed_form


def test_loop_action_harmonic(harmonic):
    energies = [0.5, 0.3]
    seeds = [(math.sqrt(2 * energy), 0.0) for energy in energies]
    for energy, comp in zip(energies, ebk.trace_component(harmonic, seeds, energies)):
        assert comp.action == pytest.approx(2 * math.pi * energy, abs=1e-9)


def test_loop_action_quartic_vs_quadrature(quartic):
    (comp,) = ebk.trace_component(quartic, [(1.0, 0.0)], [1.0])
    ref = action_integral(lambda x: x**4, 1.0, -1.5, 1.5)
    assert ref == pytest.approx(4.944, abs=1e-3)
    assert comp.action == pytest.approx(ref, abs=1e-10)


def test_green_area_matches_action(harmonic, quartic):
    (circle,) = ebk.trace_component(harmonic, [(1.0, 0.0)], [0.5])
    assert abs(ebk.green_area(circle)) == pytest.approx(math.pi, abs=1e-9)
    (loop,) = ebk.trace_component(quartic, [(1.0, 0.0)], [1.0])
    assert abs(abs(ebk.green_area(loop)) - abs(loop.action)) <= 1e-8


def _reversed(comp: LevelComponent) -> LevelComponent:
    """The same loop run against the flow, its seed sample still first."""
    return replace(comp, points=np.roll(comp.points[::-1], 1, axis=0), action=-comp.action)


def test_green_area_orientation_flip(harmonic):
    (comp,) = ebk.trace_component(harmonic, [(1.0, 0.0)], [0.5])
    flipped = _reversed(comp)
    assert ebk.green_area(flipped) == pytest.approx(-ebk.green_area(comp), rel=1e-12)
    assert abs(ebk.green_area(flipped)) == pytest.approx(abs(ebk.green_area(comp)))


def test_green_area_rejects_figure_eight():
    t = np.linspace(0.0, 2 * math.pi, 257, endpoint=False)
    pts = np.column_stack([np.sin(2 * t), np.sin(t)])
    fake = LevelComponent(
        energy=0.0,
        points=pts,
        period=2 * math.pi,
        seed=(0.0, 0.0),
        action=0.0,
    )
    with pytest.raises(NotSimple):
        ebk.green_area(fake)


def test_maslov_index_signs(harmonic, quartic):
    (circle,) = ebk.trace_component(harmonic, [(1.0, 0.0)], [0.5])
    assert ebk.maslov_index(circle) == 2
    assert ebk.maslov_index(_reversed(circle)) == -2
    (loop,) = ebk.trace_component(quartic, [(1.0, 0.0)], [1.0])
    assert ebk.maslov_index(loop) == 2


def test_maslov_closed_form_symbols():
    chi = 0.5
    kerr = ebk.kerr_symbol(chi)
    energy = 0.625  # r^2 = 1 exactly for chi = 1/2
    (comp,) = ebk.trace_component(kerr, [(1.0, 0.0)], [energy])
    assert ebk.maslov_index(comp) == 2
    r2 = (math.sqrt(1 + 4 * chi * energy) - 1) / chi
    assert r2 == pytest.approx(1.0, abs=1e-14)
    assert comp.action == pytest.approx(math.pi * r2, abs=1e-9)
    assert comp.period == pytest.approx(
        2 * math.pi / math.sqrt(1 + 4 * chi * energy), abs=1e-9
    )


SEXTIC = [0.0, 0.0, 3.0, 0.0, -3.5, 0.0, 1.0]  # 3x^2 - 3.5x^4 + x^6: three wells


def test_resampled_components_keep_stokes_and_maslov(kerr, kerr_window):
    # Criterion 7's invariants on the symbols it does not cover, at the
    # trace's DEFAULT_POINTS samples: the Stokes gap is 2.2e-10 on kerr and
    # 8.2e-11 on the sextic at 1024.
    sextic = ebk.schrodinger_symbol(ebk.polynomial_potential(SEXTIC))
    for spec, window, n_families in (
        (kerr, kerr_window, 1),
        (sextic, ebk.EnergyWindow(0.1, 0.4, 0.05), 3),
    ):
        families = ebk.build_families(spec, window, 17)
        assert len(families) == n_families
        for comp in (c for f in families for c in f.components):
            assert abs(abs(comp.action) - abs(ebk.green_area(comp))) <= 1e-8
            assert ebk.maslov_index(comp) == 2


def test_harmonic_table_linear(harmonic_table):
    table = harmonic_table
    assert np.max(np.abs(table.a0 - 2 * math.pi * table.energies)) <= 1e-9
    assert np.max(np.abs(table.tau - 2 * math.pi)) <= 1e-9
    assert table.maslov == 2


def test_quartic_table_scaling(quartic_table):
    scaled = quartic_table.a0 / quartic_table.energies**0.75
    assert np.max(np.abs(scaled / scaled[0] - 1.0)) <= 1e-7


def test_morse_table_closed_form(morse_table):
    expected = np.array([morse_action_closed_form(e) for e in morse_table.energies])
    assert np.max(np.abs(morse_table.a0 - expected)) <= 1e-8


def test_derivative_identity(harmonic_table, quartic_table, morse_table):
    # Divided differences are second-order accurate at interval midpoints,
    # which is where they must agree with the sampled periods.
    for table in (harmonic_table, quartic_table, morse_table):
        dd = np.diff(table.a0) / np.diff(table.energies)
        mid = 0.5 * (table.energies[:-1] + table.energies[1:])
        tau_mid = np.asarray(table.tau_at(mid))
        rel = np.abs(dd - tau_mid) / np.abs(tau_mid)
        assert float(np.max(rel)) <= 1e-4


def test_invert_action_roundtrip(harmonic_table, quartic_table):
    got = ebk.invert_action(harmonic_table, np.array([math.pi, 0.4 * math.pi]))
    assert got == pytest.approx([0.5, 0.2], abs=1e-10)
    a_ref = action_integral(lambda x: x**4, 1.0, -1.5, 1.5)
    assert ebk.invert_action(quartic_table, np.array([a_ref])) == pytest.approx([1.0], abs=1e-8)
    rng = np.random.default_rng(99)
    for table in (harmonic_table, quartic_table):
        energies = rng.uniform(table.window.e1, table.window.e2, size=100)
        got = ebk.invert_action(table, table.a0_at(energies))
        assert got == pytest.approx(energies, abs=1e-9)


def test_invert_action_out_of_window(harmonic_table):
    with pytest.raises(OutOfWindow):
        ebk.invert_action(harmonic_table, np.array([100.0]))


def test_invert_action_array_matches_scalar_reference(harmonic_table, quartic_table, dw_tables):
    # Every element takes the scalar path's steps, so the results are the
    # same doubles: spectrum.csv and branches.csv do not depend on batching.
    rng = np.random.default_rng(7)
    for table in (harmonic_table, quartic_table, *dw_tables):
        lo_a, hi_a = table.a0_range
        edges = [lo_a, hi_a, lo_a - 1e-13, hi_a + 1e-13, np.nextafter(lo_a, np.inf)]
        targets = np.concatenate([rng.uniform(lo_a, hi_a, 200), edges])
        ref = np.array([invert_action_py(table, float(a)) for a in targets])
        got = ebk.invert_action(table, targets)
        assert got.tobytes() == ref.tobytes()
        assert ebk.invert_action(table, targets.reshape(-1, 5)).tobytes() == ref.tobytes()
        assert ebk.invert_action(table, targets[:0]).shape == (0,)
        with pytest.raises(OutOfWindow):
            ebk.invert_action(table, np.append(targets, hi_a + 1e-6))


def test_table_rejects_nonmonotone_samples(harmonic_window):
    energies = np.linspace(0.2, 0.8, 9)
    a0 = np.sin(energies * 20)
    tau = np.ones(9)
    with pytest.raises(NotDiffeomorphism):
        ebk.ActionTable(
            k=1, energies=energies, a0=a0, tau=tau, maslov=2, window=harmonic_window
        )


def test_table_rejects_negative_period(harmonic_window):
    energies = np.linspace(0.2, 0.8, 9)
    with pytest.raises(NotDiffeomorphism):
        ebk.ActionTable(
            k=1,
            energies=energies,
            a0=2 * math.pi * energies,
            tau=-np.ones(9),
            maslov=2,
            window=harmonic_window,
        )


def test_stokes_identity_across_catalog(harmonic, quartic, morse, dw_families, double_well):
    cases = [
        (harmonic, (1.0, 0.0), 0.5),
        (quartic, (2.0**0.25, 0.0), 2.0),
        (morse, (0.0, 1.0), 0.5),
    ]
    for spec, seed, energy in cases:
        (comp,) = ebk.trace_component(spec, [seed], [energy])
        assert abs(abs(comp.action) - abs(ebk.green_area(comp))) <= 1e-8
    family = dw_families[0]
    nearest = family.components[int(np.argmin(np.abs(family.energies - 0.35)))]
    seed = refine_to_level(double_well, [nearest.seed], 0.35)
    (comp,) = ebk.trace_component(double_well, [seed], [0.35])
    assert abs(abs(comp.action) - abs(ebk.green_area(comp))) <= 1e-8


def _polyline(points) -> LevelComponent:
    return LevelComponent(
        energy=0.0,
        points=points,
        period=float(len(points)),
        seed=(float(points[0, 0]), float(points[0, 1])),
        action=0.0,
    )


def _rejects(check, points) -> bool:
    try:
        check(points)
    except NotSimple:
        return True
    return False


def test_simplicity_check_matches_reference_sweep():
    rng = np.random.default_rng(11)
    outcomes = []
    for trial in range(240):
        kind = trial % 4
        n = int(rng.integers(3, 80))
        if kind == 0:  # star-shaped about the origin: simple
            theta = np.sort(rng.uniform(0.0, 2 * math.pi, n))
            r = rng.uniform(0.5, 1.5, n)
            pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        elif kind == 1:  # closed random walk: mostly self-crossing
            pts = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        elif kind == 2:  # few points of a 3 x 3 grid: collinear and touching segments
            pts = rng.integers(0, 3, size=(int(rng.integers(4, 9)), 2)).astype(float)
        else:  # dense circle, noise below or above the sample spacing
            m = 2048
            theta = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
            noise = rng.choice([0.0, 1e-4, 1e-2]) * rng.normal(size=(m, 2))
            pts = np.column_stack([np.cos(theta), np.sin(theta)]) + noise
        expected = _rejects(check_simple_sweep, pts)
        assert _rejects(lambda p: ebk.green_area(_polyline(p)), pts) == expected, trial
        outcomes.append(expected)
    assert 60 <= sum(outcomes) <= 180


def test_table_midpoint_error_at_default_samples(
    quartic, quartic_window, double_well, dw_window, kerr, kerr_window
):
    # Against a direct trace at the midpoint of every pair of Lobatto nodes.
    for spec, window, bound in (
        (quartic, quartic_window, 1e-9),
        (double_well, dw_window, 1e-10),
        (kerr, kerr_window, 1e-10),
    ):
        for family in ebk.build_families(spec, window):
            table = ebk.build_action_table(family, window)
            assert len(table.energies) == ebk.portrait.DEFAULT_ACTION_SAMPLES == 9
            assert table.table_err <= bound
            mids = 0.5 * (table.energies[:-1] + table.energies[1:])
            seeds = [refine_to_level(spec, [c.seed], e) for c, e in zip(family.components, mids)]
            direct = np.array([c.action for c in ebk.trace_component(spec, seeds, mids)])
            assert float(np.max(np.abs(table.a0_at(mids) - direct))) <= bound


def test_table_rejects_interpolant_dip(harmonic_window):
    # On the window mapped to x in [-1, 1], dA0/dx = (x - 0.15)(x - 0.25):
    # the 9 Lobatto samples increase and carry the exact slopes, but A0
    # dips between the nodes x = 0 and x = cos(3 pi / 8).
    exact = Polynomial([0.0, 0.0375, -0.2, 1 / 3], domain=[0.2, 0.8])
    energies = 0.5 - 0.3 * np.cos(np.pi * np.arange(9) / 8)
    a0, tau = exact(energies), exact.deriv()(energies)
    assert np.all(np.diff(a0) > 0) and np.all(tau > 0)
    with pytest.raises(NotDiffeomorphism, match="not monotone"):
        ebk.ActionTable(
            k=1, energies=energies, a0=a0, tau=tau, maslov=2, window=harmonic_window
        )


def test_table_rejects_inconsistent_periods(harmonic_window):
    energies = 0.5 - 0.3 * np.cos(np.pi * np.arange(9) / 8)
    with pytest.raises(NotDiffeomorphism, match="inconsistent"):
        ebk.ActionTable(
            k=1,
            energies=energies,
            a0=2 * math.pi * energies,
            tau=np.full(9, 2 * math.pi * 1.05),
            maslov=2,
            window=harmonic_window,
        )


def test_table_catches_a_mis_traced_period(quartic, quartic_window):
    # The Hermite fit feeds tau into the levels, so a wrong period at one
    # interior node must show: a gross one fails the consistency gate, and
    # a slight one (far inside the gate) lifts the table error estimate.
    (family,) = ebk.build_families(quartic, quartic_window)
    table = ebk.build_action_table(family, quartic_window)
    mid = len(table.energies) // 2

    def perturbed(rel):
        tau = table.tau.copy()
        tau[mid] *= 1.0 + rel
        return replace(table, tau=tau)

    with pytest.raises(NotDiffeomorphism, match="inconsistent"):
        perturbed(0.05)
    assert 0.0 < table.table_err <= 1e-9
    assert perturbed(1e-6).table_err >= 10.0 * table.table_err


def test_import_leaves_scipy_interpolate_out(tmp_path):
    # ebk reaches LAPACK through scipy.linalg._flapack alone, loaded without
    # scipy.linalg's package (and so without scipy.interpolate). A run then
    # imports nothing: a NumPy submodule loaded lazily inside it (numpy.ma by
    # np.unique) would be paid by every run.
    src = str(Path(ebk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = {
        "symbol": {"name": "double_well", "params": {"a": 1.0}},
        "window": {"e1": 0.1, "e2": 0.6, "margin": 0.05},
        "hbars": [0.1],
        "pipeline": ["oracle", "weyl"],
        "tolerances": {"action_samples": 17},
        "seed": 1,
    }
    probe = (
        "import json, sys, ebk, ebk.pipeline; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "before = set(sys.modules); "
        f"config = ebk.config.parse_config(json.loads({json.dumps(config)!r})); "
        f"_, code = ebk.pipeline.run(config, output_dir={str(tmp_path)!r}, threads=1); "
        "print(code, sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["['scipy.linalg._flapack']", "0 []"]
