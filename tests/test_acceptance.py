"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import ebk
from ebk.cli import main as cli_main
from ebk.portrait import refine_to_level
from ebk.solver import TWO_PI

from oracles import action_integral, morse_action_closed_form, morse_level_closed_form, stencil_levels


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} ({name}): PASS")


def test_criterion_1_harmonic_exactness(harmonic):
    with criterion(1, "harmonic exactness"):
        t0 = time.perf_counter()
        window = ebk.EnergyWindow(0.2, 0.8, 0.05)
        fams = ebk.build_families(harmonic, window, 33)
        table = ebk.build_action_table(fams[0], window)
        for hbar in (0.1, 0.05):
            levels = ebk.quantize_family(table, hbar, window)
            assert levels, f"no levels at hbar={hbar}"
            for n, e in levels:
                assert abs(e - hbar * (n + 0.5)) <= 1e-10
            bs = ebk.merged_spectrum([table], hbar, window)
            run = ebk.solve_basis(harmonic.potential, window, hbar)
            rep = ebk.match_spectra(bs, run.result, table.tau_min)
            assert rep.pairs
            assert rep.max_err <= 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_quartic_convergence_order(quartic, quartic_window):
    with criterion(2, "quartic convergence order"):
        t0 = time.perf_counter()
        rep = ebk.convergence_study(
            quartic, quartic_window, [0.2, 0.1, 0.05, 0.025, 0.0125]
        )
        assert not any(rep.floor_limited)
        assert 1.7 <= rep.slope <= 2.3, f"slope {rep.slope:.3f}"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_3_morse_exactness(morse, morse_table, morse_window):
    with criterion(3, "morse exactness"):
        # Closed-form action first, against independent quadrature.
        for e in morse_table.energies[:: len(morse_table.energies) // 8]:
            ref = action_integral(
                lambda x: morse.potential.value(x), float(e), -2.0, 8.0
            )
            assert abs(morse_action_closed_form(float(e)) - ref) <= 1e-9
        hbar = 0.05
        levels = ebk.quantize_family(morse_table, hbar, morse_window)
        assert levels
        for n, e in levels:
            assert abs(e - morse_level_closed_form(n, hbar)) <= 1e-7
        bs = ebk.merged_spectrum([morse_table], hbar, morse_window)
        run = ebk.solve_basis(morse.potential, morse_window, hbar)
        rep = ebk.match_spectra(bs, run.result, morse_table.tau_min)
        assert rep.pairs
        assert rep.max_err <= 1e-5


def test_criterion_4_exact_weyl_law(
    harmonic, double_well, harmonic_wide_table, harmonic_table, dw_tables,
    harmonic_window, dw_window,
):
    with criterion(4, "exact Weyl law"):
        # Analytic case: hbar = 0.1, endpoints [0.22, 1.01] hold 8 levels.
        wide = harmonic_wide_table
        bs = ebk.merged_spectrum([wide], 0.1, wide.window)
        run = ebk.solve_basis(harmonic.potential, wide.window, 0.1)
        (wc,) = ebk.exact_weyl_count([wide], [0.22], [1.01], bs)
        lo, hi = np.searchsorted(run.result.eigenvalues, [0.22, 1.01])
        assert wc.count == hi - lo == 8

        # Every two safe endpoints: each step of the staircase, and every
        # run of consecutive steps.
        configs = [
            (harmonic, [harmonic_table], harmonic_window),
            (double_well, dw_tables, dw_window),
        ]
        for spec, tables, window in configs:
            for hbar in (0.1, 0.05):
                bs = ebk.merged_spectrum(tables, hbar, window)
                run = ebk.solve_basis(spec.potential, window, hbar)
                pairs = list(itertools.combinations(ebk.safe_endpoints(tables, bs), 2))
                counts = ebk.exact_weyl_count(tables, *np.transpose(pairs), bs)
                below = np.searchsorted(run.result.eigenvalues, pairs)
                assert len(counts) == len(pairs)
                for wc, (lo, hi), (e1t, e2t) in zip(counts, below, pairs):
                    assert wc.count == hi - lo, (
                        f"{spec.name} hbar={hbar}: formula "
                        f"{wc.count} != oracle {hi - lo} on [{e1t:.4f}, {e2t:.4f}]"
                    )


def test_criterion_5_double_well_doublets(double_well, dw_tables, dw_window):
    with criterion(5, "double-well doublets"):
        hbar = 0.05
        run = ebk.solve_basis(double_well.potential, dw_window, hbar)
        # The basis oracle agrees with the independent stencil reference
        # (measured: within 3.9e-13).
        levels, indices = stencil_levels(double_well.potential, dw_window, hbar)
        assert np.array_equal(indices, run.result.indices)
        assert np.max(np.abs(levels - run.result.eigenvalues)) <= 1e-12
        assert len(dw_tables) == 2
        bs = ebk.merged_spectrum(dw_tables, hbar, dw_window)
        e1 = np.array([e.energy for e in bs.entries if e.k == 1])
        e2 = np.array([e.energy for e in bs.entries if e.k == 2])
        assert e1.size == e2.size > 0
        assert np.max(np.abs(np.sort(e1) - np.sort(e2))) <= 1e-9
        clusters = ebk.doublet_scan(bs, hbar**2)
        assert len(clusters) == e1.size
        ev = run.result.eigenvalues
        for c in clusters:
            members = ev[np.abs(ev - c.center) <= hbar**2]
            assert members.size == 2
            assert members[1] - members[0] <= hbar**3
            shifts = [c.center - hbar**2, c.center + hbar**2]
            assert np.diff(np.searchsorted(levels, shifts)).tolist() == [2]


def test_criterion_6_node_count_identity(
    harmonic, quartic, morse, harmonic_table, quartic_table, morse_table,
    harmonic_window, quartic_window, morse_window,
):
    with criterion(6, "node-count identity"):
        hbar = 0.1
        cases = [
            (harmonic, harmonic_table, harmonic_window),
            (quartic, quartic_table, quartic_window),
            (morse, morse_table, morse_window),
        ]
        for spec, table, window in cases:
            bs = ebk.merged_spectrum([table], hbar, window)
            run = ebk.solve_basis(spec.potential, window, hbar)
            node_counts, _ = ebk.basis_nodes(spec.potential, window, hbar, run)
            nodes = dict(zip(run.result.indices.tolist(), node_counts))
            rep = ebk.match_spectra(bs, run.result, table.tau_min)
            assert rep.pairs
            for p in rep.pairs:
                assert nodes[p.index] == p.n, (
                    f"{spec.name}: n={p.n} but {nodes[p.index]} nodes"
                )


def test_criterion_7_geometry_invariants(
    harmonic, quartic, morse, double_well,
    harmonic_family, quartic_family, morse_family, dw_families,
    harmonic_table, quartic_table, morse_table, dw_tables,
):
    with criterion(7, "geometry invariants"):
        # The invariants are checked on the very components the tables
        # were fitted from.
        cases = [
            (harmonic, harmonic_family, harmonic_table),
            (quartic, quartic_family, quartic_table),
            (morse, morse_family, morse_table),
            (double_well, dw_families[0], dw_tables[0]),
            (double_well, dw_families[1], dw_tables[1]),
        ]
        n_components = 0
        for spec, family, table in cases:
            assert len(family.components) == len(table.energies)
            for j, comp in enumerate(family.components):
                energy = float(table.energies[j])
                assert comp.energy == energy and comp.action == table.a0[j]
                n_components += 1
                assert abs(abs(comp.action) - abs(ebk.green_area(comp))) <= 1e-8
                assert ebk.maslov_index(comp) == 2
                if j % 8 == 0:
                    points = np.roll(comp.points[::-1], 1, axis=0)
                    reversed_comp = replace(comp, points=points, action=-comp.action)
                    assert ebk.maslov_index(reversed_comp) == -2
                if j in (len(table.energies) // 3, 2 * len(table.energies) // 3):
                    third = len(comp.points) // 3
                    alt_seed = refine_to_level(spec, comp.points[third : third + 1], energy)
                    (alt,) = ebk.trace_component(spec, [alt_seed], [energy])
                    assert abs(alt.period - comp.period) <= 1e-9
                    assert abs(alt.action - comp.action) <= 1e-9
            dd = np.diff(table.a0) / np.diff(table.energies)
            mid = 0.5 * (table.energies[:-1] + table.energies[1:])
            rel = np.abs(dd - np.asarray(table.tau_at(mid))) / np.asarray(
                table.tau_at(mid)
            )
            assert float(np.max(rel)) <= 1e-4
        assert n_components >= 100


def test_criterion_8_density(
    harmonic, morse, double_well,
    harmonic_table, morse_table, dw_tables,
    harmonic_window, morse_window, dw_window,
):
    with criterion(8, "spectral density"):
        rng = np.random.default_rng(777)
        configs = [
            ([harmonic_table], 0.1, harmonic_window),
            ([harmonic_table], 0.05, harmonic_window),
            ([morse_table], 0.05, morse_window),
            (dw_tables, 0.05, dw_window),
        ]
        for tables, hbar, window in configs:
            bs = ebk.merged_spectrum(tables, hbar, window)
            worst_rate = max(1.0 / t.tau_min for t in tables)
            spacing = TWO_PI * hbar * worst_rate
            bound = 1.1 * math.pi * hbar * worst_rate
            lo, hi = window.e1 + spacing, window.e2 - spacing
            assert lo < hi
            for e0 in rng.uniform(lo, hi, size=50):
                gap = float(np.min(np.abs(bs.energies() - e0)))
                assert gap <= bound


def test_criterion_9_branch_drift(harmonic_table, dw_tables, harmonic_window, dw_window):
    with criterion(9, "branch drift"):
        setups = [([harmonic_table], harmonic_window), (dw_tables, dw_window)]
        for tables, window in setups:
            by_k = {t.k: t for t in tables}
            bs = ebk.merged_spectrum(tables, 0.1, window)
            assert bs.entries
            for entry in bs.entries:
                table = by_k[entry.k]
                h_star = ebk.exit_hbar(table, entry.n)
                assert h_star > 0
                assert np.isnan(ebk.branch_energy(table, entry.n, 0.999 * h_star))
                assert np.isnan(ebk.branch_energy(table, entry.n, 0.5 * h_star))
                h_top = float(table.a0_at(window.e2)) / (TWO_PI * (entry.n + 0.5))
                hs = np.linspace(1.001 * h_star, min(0.1, 0.999 * h_top), 17)
                vals = ebk.branch_energy(table, entry.n, hs)
                assert not np.isnan(vals).any()
                assert all(b > a for a, b in zip(vals, vals[1:]))


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        config = {
            "symbol": {"name": "harmonic", "params": {}},
            "window": {"e1": 0.2, "e2": 0.8, "margin": 0.05},
            "hbars": [0.1, 0.05],
            "pipeline": [
                "trace", "actions", "spectrum", "oracle",
                "compare", "weyl", "branches", "doublets",
            ],
            "tolerances": {
                "trace_tol": 1e-10, "oracle_tol": 1e-5, "action_samples": 33,
            },
            "seed": 7,
            "output_dir": str(tmp_path / "a"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert cli_main(
            ["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "b")]
        ) == 0
        assert cli_main(
            ["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "c")]
        ) == 0
        names = {
            p.name for p in (tmp_path / "a").iterdir() if p.name != "manifest.json"
        }
        assert names
        for name in names:
            blob = (tmp_path / "a" / name).read_bytes()
            assert blob == (tmp_path / "b" / name).read_bytes(), name
            assert blob == (tmp_path / "c" / name).read_bytes(), name
        hashes = [
            json.loads((tmp_path / d / "manifest.json").read_text())["files"]
            for d in ("a", "b", "c")
        ]
        assert hashes[0] == hashes[1] == hashes[2]
