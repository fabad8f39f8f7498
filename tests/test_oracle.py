import json
import math
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebk
from ebk.cli import main
from ebk.errors import (
    BasisNotConverged,
    BisectionFailed,
    ConfigError,
    DomainTooSmall,
    EbkError,
    GridTooLarge,
    InverseIterationFailed,
    NonCompactWindow,
)
from oracles import sturm_counts_py


def _diag_op(values):
    values = np.asarray(values, dtype=float)
    return ebk.TridiagonalOperator(
        diag=values,
        offdiag=np.zeros(len(values) - 1),
        L=1.0,
        n=len(values),
        h=1.0,
        hbar=1.0,
    )


def test_discretize_literal_formula():
    flat = ebk.polynomial_potential([0.0])
    op = ebk.discretize(flat, 1.0, 1.0, 3)
    assert op.h == 1.0
    assert np.allclose(op.diag, [1.0, 1.0, 1.0])
    assert np.allclose(op.offdiag, [-0.5, -0.5])


def test_discretize_domain_too_small():
    morse_pot = ebk.morse_potential(1.0, 1.0)
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    with pytest.raises(DomainTooSmall):
        ebk.discretize(morse_pot, 0.05, 1.0, 101, window=window)


def test_domain_auto_harmonic():
    # The coarsest grid keeps the stencil phase error under phase_tol, both
    # at the default and at a tighter one.
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    ximax = math.sqrt(2 * 0.85)
    assert ebk.oracle.DEFAULT_PHASE_TOL == 3e-4
    for kwargs, tol in (({}, 3e-4), ({"phase_tol": 1e-5}, 1e-5)):
        L, N = ebk.domain_auto(pot, window, 0.1, **kwargs)
        assert L >= 1.5 * math.sqrt(2 * (0.85 + 1.0))  # wall at e2+eps+10*hbar
        h = 2 * L / (N - 1)
        assert (ximax * h / 0.1) ** 2 / 12 <= tol


def test_domain_auto_morse_plateau():
    pot = ebk.morse_potential(1.0, 1.0)
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.05)
    assert math.isfinite(L) and N > 100
    with pytest.raises(NonCompactWindow):
        ebk.domain_auto(pot, ebk.EnergyWindow(0.8, 1.2, 0.05), 0.05)


def test_domain_auto_rejects_grid_under_stencil():
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    with pytest.raises(ConfigError, match="3-point stencil"):
        ebk.domain_auto(ebk.harmonic_potential(), window, 0.1, phase_tol=1000)


def test_solve_window_checks_its_finer_grid_first(monkeypatch):
    # At phase_tol 1e-8, N = 217,201 (217,200 made odd, as the even
    # harmonic's grids are symmetric about 0) and 2N - 1 = 434,401 fit under
    # the cap but the finest of the three grids, 4N - 3 = 868,801 points,
    # does not.
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(ebk.oracle, "discretize", no_grid)
    with pytest.raises(GridTooLarge, match="grid of 868801 points exceeds the 600000 cap"):
        ebk.solve_window(pot, window, 0.1, phase_tol=1e-8)


def test_count_below_diagonal_examples():
    op = _diag_op([1.0, 2.0, 3.0])
    assert ebk.count_below(op, np.array([2.5, 0.5, 2.0])).tolist() == [2, 0, 1]  # strictly below
    # An array of shifts of any shape gives counts of that shape.
    counts = ebk.count_below(op, np.array([[1.5, 2.5], [0.5, 3.5]]))
    assert counts.shape == (2, 2) and counts.dtype == np.int64
    assert counts.tolist() == [[1, 2], [0, 3]]
    assert ebk.count_below(op, np.array([1.5, 2.5, 0.5, 3.5])).tolist() == [1, 2, 0, 3]
    assert ebk.count_below(op, np.empty((0, 2))).shape == (0, 2)


def test_count_below_harmonic_levels():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.1)
    op = ebk.discretize(pot, 0.1, L, N, window=window)
    assert ebk.count_below(op, np.array([0.5])).tolist() == [5]  # 0.05, 0.15, ..., 0.45


def test_sturm_monotone_and_total():
    rng = np.random.default_rng(7)
    diag = rng.uniform(-1, 1, 50)
    off = rng.uniform(-1, 1, 49)
    op = ebk.TridiagonalOperator(diag=diag, offdiag=off, L=1.0, n=50, h=1.0, hbar=1.0)
    bound = float(np.max(np.abs(diag))) + 2 * float(np.max(np.abs(off)))
    lams = np.linspace(-bound, bound, 101)
    counts = ebk.count_below(op, lams)
    assert np.all(np.diff(counts) >= 0)
    assert ebk.count_below(op, np.array([bound + 1.0])).tolist() == [50]
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assert np.array_equal(counts, np.searchsorted(dense, lams, side="left"))
    assert np.array_equal(counts, sturm_counts_py(diag, off * off, lams))


def test_count_below_matches_reference_on_fine_grid():
    # LAPACK's pivmin rule and the reference's zero pivot -> +1e-300 rule
    # give the same counts on the double-well fine grid at hbar = 0.05.
    pot = ebk.double_well_potential(1.0)
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.05)
    op = ebk.discretize(pot, 0.05, L, 2 * N - 1, window=window)
    pad = 0.01 * (window.e2 - window.e1)
    edges = [window.e1 - pad, window.e1, window.e2, window.e2 + pad]
    rng = np.random.default_rng(11)
    lams = np.concatenate([edges, rng.uniform(window.e1 - pad, window.e2 + pad, 40)])
    counts = ebk.count_below(op, lams)
    assert np.array_equal(counts, sturm_counts_py(op.diag, op.offdiag**2, lams))
    assert counts[3] > counts[0] > 0


def test_eigenvalues_in_diagonal():
    op = _diag_op([1.0, 2.0, 3.0])
    res = ebk.eigenvalues_in(op, 1.5, 3.5)
    assert res.eigenvalues == pytest.approx([2.0, 3.0], abs=1e-10)
    assert list(res.indices) == [1, 2]


def test_eigenvalues_in_matches_dense_solver():
    rng = np.random.default_rng(7)
    diag = rng.uniform(-1, 1, 50)
    off = rng.uniform(-1, 1, 49)
    op = ebk.TridiagonalOperator(diag=diag, offdiag=off, L=1.0, n=50, h=1.0, hbar=1.0)
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    a, b, tol = -0.7, 0.9, 1e-11
    res = ebk.eigenvalues_in(op, a, b, tol=tol)
    inside = (dense > a) & (dense < b)
    assert res.eigenvalues.size == np.count_nonzero(inside) > 0
    assert np.max(np.abs(res.eigenvalues - dense[inside])) <= tol
    ca, cb = ebk.count_below(op, np.array([a, b]))
    assert list(res.indices) == list(range(ca, cb))
    assert list(res.indices) == list(np.flatnonzero(inside))


def test_eigenvalues_in_repeated_entry():
    # An exact tie stands in for a doublet split below the tolerance.
    op = _diag_op([1.0, 2.0, 2.0, 3.0])
    res = ebk.eigenvalues_in(op, 1.5, 2.5)
    assert list(res.eigenvalues) == [2.0, 2.0]
    assert list(res.indices) == [1, 2]


def _fake_dstebz(monkeypatch, fail_counts, found, info):
    """Send the Sturm-count dstebz calls (lower end -inf), or else the
    bisection calls, to a fake that returns (found, info)."""
    real = ebk.oracle.dstebz

    def dstebz(d, e, range_code, vl, *args):
        if (vl == -np.inf) != fail_counts:
            return real(d, e, range_code, vl, *args)
        n = d.size
        return found, np.zeros(n), np.ones(n, dtype=np.int32), np.zeros(n, dtype=np.int32), info

    monkeypatch.setattr(ebk.oracle, "dstebz", dstebz)


@pytest.mark.parametrize("found, info", [(0, 1), (1, 0)])
def test_eigenvalues_in_lapack_failure(monkeypatch, found, info):
    _fake_dstebz(monkeypatch, False, found, info)
    with pytest.raises(BisectionFailed, match="dstebz"):
        ebk.eigenvalues_in(_diag_op([1.0, 2.0, 3.0]), 1.5, 3.5)


def test_count_below_lapack_failure(monkeypatch):
    _fake_dstebz(monkeypatch, True, 0, 1)
    with pytest.raises(BisectionFailed, match="dstebz"):
        ebk.count_below(_diag_op([1.0, 2.0, 3.0]), np.array([2.5]))
    with pytest.raises(BisectionFailed, match="dstebz"):
        ebk.eigenvalues_in(_diag_op([1.0, 2.0, 3.0]), 1.5, 3.5)


def test_harmonic_eigenvalues_after_richardson():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    exact = 0.1 * (np.arange(2, 8) + 0.5)
    assert np.max(np.abs(run.result.eigenvalues - exact)) <= 1e-5
    assert list(run.result.indices) == [2, 3, 4, 5, 6, 7]


def test_richardson_gate():
    # The extrapolated levels agree with the independent basis oracle, index
    # for index, far closer than the finer grid's own levels do.
    cases = [
        (ebk.harmonic_potential(), (0.2, 0.8), 0.1),
        (ebk.morse_potential(1.0, 1.0), (0.1, 0.6), 0.1),
        (ebk.double_well_potential(1.0), (0.1, 0.6), 0.1),
        (ebk.double_well_potential(1.0), (0.1, 0.6), 0.05),
    ]
    for pot, (e1, e2), hbar in cases:
        window = ebk.EnergyWindow(e1, e2, 0.05)
        run = ebk.solve_window(pot, window, hbar)
        basis = ebk.solve_basis(pot, window, hbar).result
        assert np.array_equal(run.result.indices, basis.indices)
        assert np.max(np.abs(run.result.eigenvalues - basis.eigenvalues)) <= 1e-10
        T = ebk.discretize(pot, hbar, run.L, run.grid_sizes[1], window=window)
        fine = ebk.eigenvalues_in(T, e1 - 0.01, e2 + 0.01)
        raw = fine.eigenvalues[np.isin(fine.indices, basis.indices)]
        assert np.max(np.abs(raw - basis.eigenvalues)) > 1e-8  # O(h^2): about 3e-7


def test_richardson_sorts_tied_doublet():
    # The deep doublets tie below bisect_tol on the fine grid, so the
    # extrapolation (4 e_fine - e_coarse) / 3 can swap a pair's order.
    a = 1.05
    window = ebk.EnergyWindow(0.1, 0.5 * a**4, 0.05)
    run = ebk.solve_window(ebk.double_well_potential(a), window, 0.05)
    ev = run.result.eigenvalues
    assert list(run.result.indices) == [2, 3, 4, 5, 6, 7]
    assert np.all(np.diff(ev) >= 0.0)
    assert np.all((ev >= window.e1) & (ev <= window.e2))


def test_domain_doubling_stability():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.1)
    op1 = ebk.discretize(pot, 0.1, L, N, window=window)
    op2 = ebk.discretize(pot, 0.1, 2 * L, 2 * (N - 1) + 1, window=window)  # same h
    e1 = ebk.eigenvalues_in(op1, 0.2, 0.8, tol=1e-12).eigenvalues
    e2 = ebk.eigenvalues_in(op2, 0.2, 0.8, tol=1e-12).eigenvalues
    assert e1.size == e2.size
    assert np.max(np.abs(e1 - e2)) <= 1e-10


def test_eigenvector_diagonal():
    op = _diag_op([1.0, 2.0, 3.0])
    (v,) = ebk.eigenvector(op, [2.0]).T
    v = v / np.linalg.norm(v)
    assert abs(abs(v[1]) - 1.0) <= 1e-8
    assert abs(v[0]) <= 1e-8 and abs(v[2]) <= 1e-8


def test_ritz_pairs_certify_the_window_subspace(tmp_path, monkeypatch):
    # The certificate is on the span of the coarse vectors, not on each
    # column: columns mixed within the window subspace give the same levels,
    # and node counts read from the Ritz vectors, but a column outside it
    # leaves a Ritz pair with a large residual. The even harmonic is solved
    # in parity blocks, 3 of its 6 window levels in each.
    eigenvector = ebk.oracle.eigenvector
    pot, window = ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05)
    ref = ebk.solve_window(pot, window, 0.1)

    def mixed(T, lam):
        z = eigenvector(T, lam)
        z[:, 0] += z[:, 1]
        return z

    monkeypatch.setattr(ebk.oracle, "eigenvector", mixed)
    run = ebk.solve_window(pot, window, 0.1)
    assert np.array_equal(run.result.indices, ref.result.indices)
    assert np.max(np.abs(run.result.eigenvalues - ref.result.eigenvalues)) <= 1e-12
    assert list(run.node_counts) == list(run.result.indices) == [2, 3, 4, 5, 6, 7]

    def outside(T, lam):
        z = eigenvector(T, lam)
        z[:, 0] = np.sin(0.01 * np.arange(T.n))
        return z

    monkeypatch.setattr(ebk.oracle, "eigenvector", outside)
    with pytest.raises(InverseIterationFailed, match=r"Ritz pair \d+ of 3 .* has residual"):
        ebk.solve_window(pot, window, 0.1)
    code, note = _run_harmonic_oracle(tmp_path)
    assert code == 4 and note.startswith("InverseIterationFailed: Ritz pair")


@pytest.mark.parametrize(
    "symbol, e1, e2, oracle_tol",
    [
        ({"name": "quartic", "params": {}}, 0.5, 2.0, 4e-4),
        ({"name": "double_well", "params": {"a": 1.0}}, 0.1, 0.6, 5e-4),
        ({"name": "double_well", "params": {"a": 1.0}}, 0.1, 0.6, 3e-3),
    ],
    ids=["quartic", "double_well", "double_well_3e-3"],
)
def test_coarse_oracle_tol_runs(tmp_path, symbol, e1, e2, oracle_tol):
    # dstein runs at the coarse levels, O(h^2) off the fine ones; the Ritz
    # pairs of its vectors' span are certified, not those shifts. At 3e-3
    # (274 coarse nodes at hbar = 0.1) dstein returns the lowest doublet mixed.
    config = {
        "symbol": symbol,
        "window": {"e1": e1, "e2": e2, "margin": 0.05},
        "hbars": [0.1, 0.05],
        "pipeline": ["oracle"],
        "tolerances": {"oracle_tol": oracle_tol},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 0


def test_node_count_literals():
    assert ebk.node_count(np.array([1.0, -1.0, 1.0])) == 2
    assert ebk.node_count(np.array([1.0, 1.0, 1.0])) == 0
    assert ebk.node_count(np.array([1.0, 1e-15, -1.0])) == 1


def test_node_counts_harmonic():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    T = ebk.discretize(pot, 0.1, run.L, run.grid_sizes[1], window=window)
    for lam, idx in zip(run.result.eigenvalues, run.result.indices):
        (v,) = ebk.eigenvector(T, [lam]).T
        assert ebk.node_count(v) == idx
    # One call for the whole window: unit grid-norm columns, orthogonal.
    vectors = ebk.eigenvector(T, run.result.eigenvalues)
    assert vectors.shape == (T.n, run.result.eigenvalues.size)
    gram = T.h * vectors.T @ vectors
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-8
    assert [ebk.node_count(v) for v in vectors.T] == list(run.result.indices)


def test_spectrum_simple_in_window():
    pot = ebk.quartic_potential()
    window = ebk.EnergyWindow(0.5, 2.0, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    assert np.all(np.diff(run.result.eigenvalues) > 0)


def test_node_ordering_within_symmetry_class():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.01, 0.6, 0.005)
    run = ebk.solve_window(pot, window, 0.05)
    T = ebk.discretize(pot, 0.05, run.L, run.grid_sizes[1], window=window)
    nodes = {}
    for lam, idx in zip(run.result.eigenvalues, run.result.indices):
        nodes[int(idx)] = ebk.node_count(ebk.eigenvector(T, [lam])[:, 0])
    evens = [nodes[i] for i in sorted(nodes) if i % 2 == 0]
    odds = [nodes[i] for i in sorted(nodes) if i % 2 == 1]
    assert all(b > a for a, b in zip(evens, evens[1:]))
    assert all(b > a for a, b in zip(odds, odds[1:]))


def _forbidden_mass(v, T, energy, delta):
    """Share of sum v^2 on grid points where V(x) > energy + delta."""
    w = v * v
    return float(np.sum(w[T.potential_values() > energy + delta]) / np.sum(w))


def test_allowed_region_mass():
    flat = ebk.polynomial_potential([0.0])
    op = ebk.discretize(flat, 0.1, 1.0, 11)
    v = np.ones(11)
    assert _forbidden_mass(v, op, 1.0, 0.1) == 0.0

    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.01, 0.2, 0.01)
    run = ebk.solve_window(pot, window, 0.05)
    T = ebk.discretize(pot, 0.05, run.L, run.grid_sizes[1], window=window)
    lam = float(run.result.eigenvalues[0])
    (v,) = ebk.eigenvector(T, [lam]).T
    assert _forbidden_mass(v, T, lam, 0.1) <= 0.05


def test_doublet_state_mass_split_between_wells():
    # Eigenvector work on a doublet needs the fine grid's own eigenvalue;
    # the extrapolated value sits O(h^2)-far and cannot discriminate the pair.
    pot = ebk.double_well_potential(1.0)
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    run = ebk.solve_window(pot, window, 0.05)
    T = ebk.discretize(pot, 0.05, run.L, run.grid_sizes[1], window=window)
    fine = ebk.eigenvalues_in(T, 0.55, 0.62, tol=1e-13)
    assert fine.eigenvalues.size == 2
    lam = float(fine.eigenvalues[0])  # lower member: even-symmetric state
    (v,) = ebk.eigenvector(T, [lam]).T
    assert _forbidden_mass(v, T, lam, 0.1) <= 0.05
    assert float(np.max(np.abs(v - v[::-1])) / np.max(np.abs(v))) <= 1e-4
    x = -T.L + T.h * np.arange(T.n)
    w = v * v
    left = float(np.sum(w[x < 0.0]) / np.sum(w))
    assert 0.3 <= left <= 0.7


def _ball_multiplicity(T, center, radius):
    """Eigenvalues in [center - radius, center + radius), from two Sturm counts."""
    (m,) = np.diff(ebk.count_below(T, [center - radius, center + radius]))
    return int(m)


def test_ball_multiplicity():
    op = _diag_op([1.0, 2.0, 3.0])
    assert _ball_multiplicity(op, 2.0, 0.1) == 1
    assert _ball_multiplicity(op, 2.0, 1.0) == 2  # [1, 3): 3 is left out
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    T = ebk.discretize(pot, 0.1, run.L, run.grid_sizes[1], window=window)
    assert _ball_multiplicity(T, 0.35, 0.01) == 1


_BASIS_CASES = {
    "harmonic": (ebk.harmonic_potential(), (0.2, 0.8)),
    "quartic": (ebk.quartic_potential(), (0.5, 2.0)),
    "double_well": (ebk.double_well_potential(1.0), (0.1, 0.6)),
    "morse": (ebk.morse_potential(1.0, 1.0), (0.1, 0.6)),
    "sextic": (ebk.polynomial_potential([0, 0, 3, 0, -3.5, 0, 1]), (0.1, 0.4)),
    # uneven: the basis oracle solves its whole band, not two parity blocks
    "tilted_quartic": (ebk.polynomial_potential([0, 0.3, 0.5, 0.2, 0.25]), (0.2, 1.0)),
}


@pytest.mark.parametrize("hbar", [0.2, 0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", sorted(_BASIS_CASES))
def test_basis_matches_sturm_oracle(name, hbar):
    # Measured: levels within 2.1e-13 (the sextic at hbar = 0.2).
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    basis = ebk.solve_basis(pot, window, hbar)
    sturm = ebk.solve_window(pot, window, hbar).result
    assert basis.basis_residual <= 1e-10
    assert basis.result.indices.size > 0
    assert np.array_equal(basis.result.indices, sturm.indices)
    assert np.max(np.abs(basis.result.eigenvalues - sturm.eigenvalues)) <= 1e-12
    if name == "double_well":  # both members of every doublet
        _, members = np.unique(basis.result.indices // 2, return_counts=True)
        assert np.all(members == 2)


@settings(derandomize=True, deadline=timedelta(seconds=2), max_examples=20)
@given(name=st.sampled_from(sorted(_BASIS_CASES)), log_hbar=st.floats(math.log(0.02), math.log(0.3)))
def test_basis_size_sweep(name, log_hbar):
    # Over hbar from 0.02 to 0.3, log-uniform, the basis sized by its own N
    # to 2N check either gives the Sturm oracle's indices with levels within
    # the two floors or stops with a typed error: agreement of two bases
    # that are both too small would show here as wrong ranks or levels.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    hbar = math.exp(log_hbar)
    try:
        basis = ebk.solve_basis(pot, window, hbar)
        sturm = ebk.solve_window(pot, window, hbar)
    except EbkError:
        return
    assert np.array_equal(basis.result.indices, sturm.result.indices)
    err = np.abs(basis.result.eigenvalues - sturm.result.eigenvalues)
    assert np.all(err <= basis.floor_estimate + sturm.floor_estimate)


@pytest.mark.parametrize("hbar", [0.1, 0.05])
@pytest.mark.parametrize("name", sorted(_BASIS_CASES))
def test_fine_ritz_levels_match_tight_bisection(name, hbar, monkeypatch):
    # Each grid's Ritz values are its eigenvalues over the finer grids'
    # padded window, index for index, as a 1e-14 bisection of that grid
    # gives them (measured: within 1.7e-12, the quartic's finest grid at
    # hbar = 0.05), and the run reports the largest of the certified
    # bounds. An even V's grids are solved as two ladders of parity blocks,
    # even then odd, each of which is checked as a grid.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    seen = []
    ritz_pairs = ebk.oracle._ritz_pairs

    def recorded(T, Z):
        theta, S, rho = ritz_pairs(T, Z)
        seen.append((T, theta, rho))
        return theta, S, rho

    monkeypatch.setattr(ebk.oracle, "_ritz_pairs", recorded)
    run = ebk.solve_window(pot, window, hbar)
    ladders = [seen[i : i + 3] for i in range(0, len(seen), 3)]
    sizes = [list(run.grid_sizes)]
    if pot.even:
        sizes = [[n // 2 + 1 for n in run.grid_sizes], [n // 2 for n in run.grid_sizes]]
    assert [[T.n for T, _, _ in ladder] for ladder in ladders] == sizes
    pad = 0.01 * (e2 - e1)
    found = []
    for (Tc, theta_c, _), *finer in ladders:
        refs = [ebk.eigenvalues_in(T, e1 - pad, e2 + pad, tol=1e-14) for T, _, _ in finer]
        ref_c = ebk.eigenvalues_in(Tc, e1 - 2 * pad, e2 + 2 * pad, tol=1e-14)
        indices = refs[0].indices
        assert all(np.array_equal(ref.indices, indices) for ref in refs)
        for (_, theta, _), ref in zip(finer, refs):
            assert theta.size == ref.eigenvalues.size > 0
            assert np.max(np.abs(theta - ref.eigenvalues)) <= 2e-11
        same = np.isin(ref_c.indices, indices)
        assert np.array_equal(ref_c.indices[same], indices) and theta_c.size == indices.size
        assert np.max(np.abs(theta_c - ref_c.eigenvalues[same])) <= 2e-11
        found.append(2 * indices + len(found) if pot.even else indices)
    assert np.all(np.isin(run.result.indices, np.concatenate(found)))
    rhos = [rho for _, _, rho in seen]
    assert run.ritz_residual == max(rhos) and all(0.0 < rho <= 1e-9 for rho in rhos)


@pytest.mark.parametrize("hbar", [0.1, 0.05])
@pytest.mark.parametrize("name", sorted(_BASIS_CASES))
def test_window_levels_match_tight_richardson(name, hbar):
    # The levels equal the Romberg value (16 r2 - r1) / 15 of 1e-14
    # bisections of the three grids, r1 = (4 E2 - E1) / 3 and
    # r2 = (4 E3 - E2) / 3, index for index. That reference has a floor of
    # its own: a Sturm count is exact only for T perturbed by a few eps |T|
    # entrywise, with |T| = max |d| + 2 max |e| of the finest grid, and the
    # Romberg weights add up to 85/45 in magnitude. Measured: within
    # 0.25 eps |T| (2.0e-12, the quartic at hbar = 0.05).
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_window(pot, window, hbar)
    pad = 0.01 * (e2 - e1)
    grids = [ebk.discretize(pot, hbar, run.L, n, window=window) for n in run.grid_sizes]
    E1, E2, E3 = (ebk.eigenvalues_in(T, e1 - pad, e2 + pad, tol=1e-14) for T in grids)
    assert np.array_equal(E1.indices, E2.indices) and np.array_equal(E2.indices, E3.indices)
    r1 = (4.0 * E2.eigenvalues - E1.eigenvalues) / 3.0
    r2 = (4.0 * E3.eigenvalues - E2.eigenvalues) / 3.0
    rom = np.sort((16.0 * r2 - r1) / 15.0)
    inside = (rom >= e1) & (rom <= e2)
    assert np.array_equal(run.result.indices, E3.indices[inside])
    norm = np.max(np.abs(grids[2].diag)) + 2.0 * np.max(np.abs(grids[2].offdiag))
    worst = np.max(np.abs(run.result.eigenvalues - rom[inside])) / (np.finfo(float).eps * norm)
    assert worst <= 0.5


@pytest.mark.parametrize("hbar", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", ["double_well", "harmonic", "morse", "quartic"])
def test_window_levels_within_the_measured_floor(name, hbar):
    # Every level is within floor_estimate + basis_residual of the basis
    # oracle's, with floor_estimate <= 1e-9 (measured: 1.0e-10 to 2.4e-10,
    # the levels within 1.2e-13). The coarsest grid at the default phase_tol
    # resolves every level and counts its index in nodes, the double well's
    # doublets at hbar = 0.025, split below rounding, included: each member
    # is solved in its own parity block.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_window(pot, window, hbar)
    basis = ebk.solve_basis(pot, window, hbar)
    assert run.result.indices.size > 0
    assert np.array_equal(run.result.indices, basis.result.indices)
    assert run.floor_estimate <= 1e-9
    err = np.abs(run.result.eigenvalues - basis.result.eigenvalues)
    assert np.all(err <= run.floor_estimate + basis.basis_residual)
    assert list(run.node_counts) == list(run.result.indices)
    assert all(run.resolved)


@settings(derandomize=True, deadline=timedelta(seconds=2), max_examples=20)
@given(
    name=st.sampled_from(["double_well", "harmonic", "morse", "quartic"]),
    log_tol=st.floats(math.log(1e-5), math.log(3e-3)),
    hbar=st.floats(0.05, 0.1),
)
def test_solve_window_phase_tol_sweep(name, log_tol, hbar):
    # Over phase_tol from 1e-5 to 3e-3, log-uniform, the oracle either
    # gives the basis oracle's indices with levels within the two floors or
    # stops with a typed error.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    basis = ebk.solve_basis(pot, window, hbar)
    try:
        run = ebk.solve_window(pot, window, hbar, phase_tol=math.exp(log_tol))
    except EbkError:
        return
    assert np.array_equal(run.result.indices, basis.result.indices)
    err = np.abs(run.result.eigenvalues - basis.result.eigenvalues)
    assert np.all(err <= run.floor_estimate + basis.floor_estimate)


def test_solve_window_memory_peak():
    # Vectors on at most two grids at a time, each grid's freed once the
    # next finer one has its basis: the double well at hbar = 0.05 (grids of
    # 1,643, 3,285 and 6,569 nodes, 8 levels) peaks at 1.15 MiB.
    pot, window = ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05)
    ebk.solve_window(pot, window, 0.05)
    tracemalloc.start()
    try:
        ebk.solve_window(pot, window, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 2**20


def _run_harmonic_oracle(tmp_path):
    """Exit code of `ebk run` of the harmonic oracle stage, and the stage's note."""
    config = {
        "symbol": {"name": "harmonic", "params": {}},
        "window": {"e1": 0.2, "e2": 0.8, "margin": 0.05},
        "hbars": [0.1],
        "pipeline": ["oracle"],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["run", "--config", str(path)])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    return code, manifest["stages"]["oracle"].get("note", "")


def test_coarse_levels_missing_a_fine_index_fail(tmp_path, monkeypatch):
    # Coarse levels that stop mid-window leave fine indices without a shift,
    # and finer grids whose counts differ leave no indices to carry.
    eigenvalues_in = ebk.oracle.eigenvalues_in

    def lower_half(T, a, b, tol=ebk.oracle.DEFAULT_BISECT_TOL):
        res = eigenvalues_in(T, a, b, tol)
        low = res.eigenvalues < 0.5 * (a + b)
        return ebk.EigenResult(res.eigenvalues[low], res.indices[low])

    monkeypatch.setattr(ebk.oracle, "eigenvalues_in", lower_half)
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    # The even block's levels 2, 4 and 6 are the first solved.
    with pytest.raises(BisectionFailed, match="do not cover the finer grids' 2..6"):
        ebk.solve_window(ebk.harmonic_potential(), window, 0.1)
    code, note = _run_harmonic_oracle(tmp_path)
    assert code == 4 and note.startswith("BisectionFailed:")

    monkeypatch.setattr(ebk.oracle, "eigenvalues_in", eigenvalues_in)
    count_below = ebk.oracle.count_below
    finest = 4 * ebk.domain_auto(ebk.harmonic_potential(), window, 0.1)[1] - 3

    def one_more_on_the_finest(T, lam):  # on its even block of finest // 2 + 1 nodes
        return count_below(T, lam) + np.array([0, T.n == finest // 2 + 1])

    monkeypatch.setattr(ebk.oracle, "count_below", one_more_on_the_finest)
    with pytest.raises(BisectionFailed, match=r"grid count the levels 2..6 and 2..8"):
        ebk.solve_window(ebk.harmonic_potential(), window, 0.1)


def test_ritz_values_outside_the_fine_range_fail(tmp_path, monkeypatch):
    # Vectors of the levels one above the shifts in their parity block
    # (2 hbar apart) span the even levels 4..8, and level 8 = 0.85 lies
    # outside the padded window (0.194, 0.806) of the finer grids' count:
    # the even block of the first finer grid, 2N - 1 = 2,509 points, stops
    # the run.
    eigenvector = ebk.oracle.eigenvector
    monkeypatch.setattr(ebk.oracle, "eigenvector", lambda T, lam: eigenvector(T, lam + 0.2))
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    with pytest.raises(InverseIterationFailed, match="of the 2509-point grid .* residual bound"):
        ebk.solve_window(ebk.harmonic_potential(), window, 0.1)
    code, note = _run_harmonic_oracle(tmp_path)
    assert code == 4 and note.startswith("InverseIterationFailed:")


def test_inverse_step_failures(tmp_path, monkeypatch):
    # A fine-grid solve that reports a singular pivot, or solves that leave
    # every column the same vector (the 3 of a parity block of the even
    # harmonic), fail the oracle with a typed error.
    dgtsv = ebk.oracle.dgtsv
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    monkeypatch.setattr(
        ebk.oracle, "dgtsv", lambda *args, **kwargs: (*dgtsv(*args, **kwargs)[:4], 7)
    )
    with pytest.raises(InverseIterationFailed, match=r"singular pivot .* \(info = 7\)"):
        ebk.solve_window(ebk.harmonic_potential(), window, 0.1)
    code, note = _run_harmonic_oracle(tmp_path)
    assert code == 4 and note.startswith("InverseIterationFailed:")

    def same_vector(dl, d, du, b, **kwargs):
        b[:] = 1.0
        return dl, d, du, b, 0

    monkeypatch.setattr(ebk.oracle, "dgtsv", same_vector)
    with pytest.raises(InverseIterationFailed, match="3 inverse-iteration vectors are dependent"):
        ebk.solve_window(ebk.harmonic_potential(), window, 0.1)


@pytest.mark.parametrize("hbar", [0.2, 0.1, 0.05, 0.025])
def test_basis_harmonic_levels_exact(hbar):
    run = ebk.solve_basis(ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05), hbar)
    exact = hbar * (run.result.indices + 0.5)
    assert np.max(np.abs(run.result.eigenvalues - exact)) <= 1e-12
    assert run.floor_estimate == 10 * ebk.oracle.DEFAULT_BISECT_TOL


def test_basis_of_one_state():
    # At hbar = 10 the harmonic window [0.2, 0.8] lies under the ground level
    # 5 and N = 1, so the coarse basis has an even-index block and no odd one.
    run = ebk.solve_basis(ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05), 10.0)
    assert run.basis_sizes == (1, 2) and run.result.indices.size == 0


def _counted_band_solves(monkeypatch):
    """Record the order of every dsbev band solve solve_basis makes."""
    calls = []
    dsbev = ebk.oracle.dsbev

    def counted(ab, **kwargs):
        calls.append(ab.shape[1])
        return dsbev(ab, **kwargs)

    monkeypatch.setattr(ebk.oracle, "dsbev", counted)
    return calls


def test_basis_too_small_raises(monkeypatch):
    # The quartic at hbar = 0.05 with half the states of the phase-space rule
    # per area starts at N = 16: 32 -> 64 states move its levels by 1e-2, and
    # 64 -> 128 by 5e-14. With the cap one state short of 128 the doubling
    # stops after the second pair and names it. The quartic is even, so each
    # size is solved as its even- and odd-index blocks.
    monkeypatch.setattr(ebk.oracle, "_BASIS_SAFETY", 0.5)
    calls = _counted_band_solves(monkeypatch)
    window = ebk.EnergyWindow(0.5, 2.0, 0.05)
    monkeypatch.setattr(ebk.oracle, "_BASIS_MAX", 127)
    with pytest.raises(BasisNotConverged, match="from 32 to 64 oscillator states"):
        ebk.solve_basis(ebk.quartic_potential(), window, 0.05)
    assert calls == [8, 8, 16, 16, 32, 32]
    monkeypatch.setattr(ebk.oracle, "_BASIS_MAX", 128)
    calls.clear()
    run = ebk.solve_basis(ebk.quartic_potential(), window, 0.05)
    assert run.basis_sizes == (64, 128) and run.basis_residual <= 1e-12
    assert calls == [8, 8, 16, 16, 32, 32, 64, 64]


def test_basis_doubles_until_converged(monkeypatch):
    # The three-well sextic at hbar = 0.025 starts at N = 122: 122 -> 244
    # states leave its levels moving by ~2e-7, 244 -> 488 by ~2e-14.
    pot, (e1, e2) = _BASIS_CASES["sextic"]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    calls = _counted_band_solves(monkeypatch)
    run = ebk.solve_basis(pot, window, 0.025)
    assert calls == [61, 61, 122, 122, 244, 244]
    assert run.basis_sizes == (244, 488)
    assert run.basis_residual <= 1e-12
    sturm = ebk.solve_window(pot, window, 0.025).result
    assert np.array_equal(run.result.indices, sturm.indices)
    assert np.max(np.abs(run.result.eigenvalues - sturm.eigenvalues)) <= 1e-10
    monkeypatch.setattr(ebk.oracle, "_BASIS_MAX", 487)  # no second solve
    with pytest.raises(BasisNotConverged, match="from 122 to 244 oscillator states"):
        ebk.solve_basis(pot, window, 0.025)


def test_lapack_bindings_match_scipy_linalg():
    # ebk._lapack loads scipy.linalg._flapack without scipy.linalg. Its dstevd
    # must give the DVR nodes and vectors eigh_tridiagonal gives, bit for bit,
    # and its dstebz, dstein and dsbev must be scipy.linalg.lapack's routines.
    import scipy.linalg
    import scipy.linalg.lapack

    from ebk import _lapack

    q = 308
    d, e = np.zeros(q), np.sqrt(0.5 * np.arange(1, q))
    nodes, U, info = _lapack.dstevd(d, e)
    ref_nodes, ref_U = scipy.linalg.eigh_tridiagonal(d, e)
    assert info == 0
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(U, ref_U)

    rng = np.random.default_rng(11)
    d, e = rng.normal(size=40), rng.normal(size=39)
    got = _lapack.dstebz(d, e, 0, 0.0, 0.0, 0, 0, 1e-12, "B")
    ref = scipy.linalg.lapack.dstebz(d, e, 0, 0.0, 0.0, 0, 0, 1e-12, "B")
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    m, w, iblock, isplit, _ = got
    assert m == 40
    z, info = _lapack.dstein(d, e, w, iblock, isplit)
    ref_z, ref_info = scipy.linalg.lapack.dstein(d, e, w, iblock, isplit)
    assert info == ref_info == 0 and np.array_equal(z, ref_z)

    ab = rng.normal(size=(5, 60))
    w, _, info = _lapack.dsbev(ab, compute_v=0, lower=1)
    ref_w, _, ref_info = scipy.linalg.lapack.dsbev(ab, compute_v=0, lower=1)
    assert info == ref_info == 0 and np.array_equal(w, ref_w)


def test_basis_one_matrix_per_fine_size(monkeypatch):
    # One band matrix per size solve_basis solves at the fine end: the
    # quartic workload's basis doubles once at hbar = 0.2 (24 -> 48 states
    # move its levels by 4e-7) and not at 0.1 or 0.05, so its three pairs
    # build V on 48 + 4 and 96 + 4, 94 + 4 and 186 + 4 states. Each size is
    # solved as its even- and odd-index blocks, and neither the DVR nor a
    # dense eigensolver runs.
    built = []
    polynomial_band = ebk.oracle._polynomial_band

    def counted(terms, x0, s, q, width):
        built.append(q)
        return polynomial_band(terms, x0, s, q, width)

    def refused(*args, **kwargs):
        raise AssertionError("a polynomial V needs no DVR and no dense eigensolve")

    monkeypatch.setattr(ebk.oracle, "_polynomial_band", counted)
    monkeypatch.setattr(ebk.oracle, "dstevd", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    calls = _counted_band_solves(monkeypatch)
    pot, window = ebk.quartic_potential(), ebk.EnergyWindow(0.5, 2.0, 0.05)
    sizes = []
    for hbar in (0.2, 0.1, 0.05):
        run = ebk.solve_basis(pot, window, hbar)
        assert run.basis_residual <= 1e-12
        sizes.append(run.basis_sizes)
    assert sizes == [(48, 96), (47, 94), (93, 186)]
    assert built == [52, 100, 98, 190]
    assert calls == [12, 12, 24, 24, 48, 48, 24, 23, 47, 47, 47, 46, 93, 93]


def test_basis_dvr_lapack_failure(monkeypatch):
    monkeypatch.setattr(ebk.oracle, "dstevd", lambda d, e: (d, np.eye(d.size), 3))
    with pytest.raises(BasisNotConverged, match=r"dstevd failed .* \(info = 3\)"):
        ebk.solve_basis(ebk.morse_potential(1.0, 1.0), ebk.EnergyWindow(0.1, 0.6, 0.05), 0.1)


@pytest.mark.parametrize("name", ["harmonic", "tilted_quartic"])
def test_basis_band_lapack_failure(monkeypatch, name):
    # The even harmonic's first block and the tilted quartic's whole band.
    pot, (e1, e2) = _BASIS_CASES[name]
    monkeypatch.setattr(ebk.oracle, "dsbev", lambda ab, **kwargs: (ab[0], None, 3))
    with pytest.raises(BasisNotConverged, match=r"dsbev failed on the \d+-state band .*\(info = 3\)"):
        ebk.solve_basis(pot, ebk.EnergyWindow(e1, e2, 0.05), 0.1)


@pytest.mark.parametrize("hbar, levels", [(0.025, 16), (0.0125, 30)])
def test_double_well_doublets_count_their_own_nodes(hbar, levels, monkeypatch):
    # The doublets are split below rounding, so the whole grids' Ritz
    # vectors are any basis of each pair's span, and they traded node counts
    # (6 of 16 levels at hbar = 0.025, 18 of 30 at 0.0125). The parity blocks
    # give each level its own vector: node count, parity and index agree on
    # every row, and the levels are those of the whole grids, as an uneven V
    # is solved, within that run's floor.
    pot, window = ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05)
    run = ebk.solve_window(pot, window, hbar)
    indices = run.result.indices.tolist()
    assert len(indices) == levels
    assert list(run.node_counts) == indices and all(run.resolved)
    assert list(run.parities) == [(-1) ** i for i in indices]
    monkeypatch.setitem(vars(pot), "even", False)
    whole = ebk.solve_window(pot, window, hbar)
    assert whole.parities is None and whole.result.indices.tolist() == indices
    err = np.abs(run.result.eigenvalues - whole.result.eigenvalues)
    assert np.all(err <= whole.floor_estimate)


def test_parity_blocks_are_the_whole_grid():
    # On a grid symmetric about 0 the blocks' Sturm counts add up to the
    # whole grid's at every shift, and a block's eigenvector unfolded is the
    # whole grid's, its node count its global index.
    pot, window = ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.05)
    assert N % 2 == 1
    T = ebk.discretize(pot, 0.05, L, N, window=window)
    assert np.array_equal(T.diag, T.diag[::-1])
    even, odd = ebk.oracle._parity_blocks(T)
    shifts = np.linspace(0.0, 1.0, 41)
    total = ebk.count_below(even, shifts) + ebk.count_below(odd, shifts)
    assert np.array_equal(total, ebk.count_below(T, shifts))
    for parity, block in ((1, even), (-1, odd)):
        res = ebk.eigenvalues_in(block, 0.1, 0.6, tol=1e-13)
        for k, lam in zip(res.indices, res.eigenvalues):
            v = ebk.oracle._unfold(ebk.eigenvector(block, [lam])[:, 0], parity)
            assert v.size == N and ebk.node_count(v) == 2 * k + (parity < 0)
            assert np.max(np.abs(T.apply(v) - lam * v)) <= 1e-9 * np.max(np.abs(v))


def test_nodes_resolved_only_where_every_well_is_resolved():
    # At hbar = 0.025 the sextic's central state of index 6 reaches its outer
    # wells at ~1e-13 of its peak, so its vector misses the nodes there.
    pot = _BASIS_CASES["sextic"][0]
    window = ebk.EnergyWindow(0.1, 0.4, 0.05)
    run = ebk.solve_window(pot, window, 0.025)
    T = ebk.discretize(pot, 0.025, run.L, run.grid_sizes[1], window=window)
    res = run.result
    assert res.indices[0] == 6
    (v,) = ebk.eigenvector(T, res.eigenvalues[:1]).T
    assert ebk.node_count(v) != 6
    assert not ebk.nodes_resolved(v, T, res.eigenvalues[0])
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    pot = ebk.harmonic_potential()
    harmonic = ebk.solve_window(pot, window, 0.1)
    T = ebk.discretize(pot, 0.1, harmonic.L, harmonic.grid_sizes[1], window=window)
    lams = harmonic.result.eigenvalues
    for lam, v in zip(lams, ebk.eigenvector(T, lams).T):
        assert ebk.nodes_resolved(v, T, lam)
