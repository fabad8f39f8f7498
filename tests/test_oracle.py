import math

import numpy as np
import pytest

import ebk
from ebk.errors import (
    BasisNotConverged,
    BisectionFailed,
    ConfigError,
    DomainTooSmall,
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
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.1)
    assert L >= 1.5 * math.sqrt(2 * (0.85 + 1.0))  # wall at e2+eps+10*hbar
    ximax = math.sqrt(2 * 0.85)
    h = 2 * L / (N - 1)
    assert (ximax * h / 0.1) ** 2 / 12 <= 1e-5


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


def test_gated_solve_checks_its_finest_grid_first(monkeypatch):
    # At phase_tol 1e-8, N = 217,200: the pair N, 2N - 1 fits under the
    # cap but the gate's third grid of 4N - 3 points does not.
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.1, phase_tol=1e-8)
    assert 2 * N - 1 <= 600_000 < 4 * N - 3

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(ebk.oracle, "discretize", no_grid)
    with pytest.raises(GridTooLarge, match=f"grid of {4 * N - 3} points"):
        ebk.solve_window(pot, window, 0.1, phase_tol=1e-8, gate=True)


def test_count_below_diagonal_examples():
    op = _diag_op([1.0, 2.0, 3.0])
    assert ebk.count_below(op, 2.5) == 2
    assert ebk.count_below(op, 0.5) == 0
    assert ebk.count_below(op, 2.0) == 1  # strictly below


def test_count_below_harmonic_levels():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    L, N = ebk.domain_auto(pot, window, 0.1)
    op = ebk.discretize(pot, 0.1, L, N, window=window)
    assert ebk.count_below(op, 0.5) == 5  # 0.05, 0.15, 0.25, 0.35, 0.45


def test_sturm_monotone_and_total():
    rng = np.random.default_rng(7)
    diag = rng.uniform(-1, 1, 50)
    off = rng.uniform(-1, 1, 49)
    op = ebk.TridiagonalOperator(diag=diag, offdiag=off, L=1.0, n=50, h=1.0, hbar=1.0)
    bound = float(np.max(np.abs(diag))) + 2 * float(np.max(np.abs(off)))
    lams = np.linspace(-bound, bound, 101)
    counts = ebk.count_below(op, lams)
    assert np.all(np.diff(counts) >= 0)
    assert ebk.count_below(op, bound + 1.0) == 50
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


def _fake_dstebz(monkeypatch, failing_range, found, info):
    """Send dstebz calls with failing_range to a fake that returns (found, info)."""
    real = ebk.oracle.dstebz

    def dstebz(d, e, range_code, *args):
        if range_code != failing_range:
            return real(d, e, range_code, *args)
        n = d.size
        return found, np.zeros(n), np.ones(n, dtype=np.int32), np.zeros(n, dtype=np.int32), info

    monkeypatch.setattr(ebk.oracle, "dstebz", dstebz)


@pytest.mark.parametrize("found, info", [(0, 1), (1, 0)])
def test_eigenvalues_in_lapack_failure(monkeypatch, found, info):
    _fake_dstebz(monkeypatch, ebk.oracle._BY_INDEX, found, info)
    with pytest.raises(BisectionFailed, match="dstebz"):
        ebk.eigenvalues_in(_diag_op([1.0, 2.0, 3.0]), 1.5, 3.5)


def test_count_below_lapack_failure(monkeypatch):
    _fake_dstebz(monkeypatch, ebk.oracle._BY_VALUE, 0, 1)
    with pytest.raises(BisectionFailed, match="dstebz"):
        ebk.count_below(_diag_op([1.0, 2.0, 3.0]), 2.5)
    with pytest.raises(BisectionFailed, match="dstebz"):
        ebk.eigenvalues_in(_diag_op([1.0, 2.0, 3.0]), 1.5, 3.5)


def test_harmonic_eigenvalues_after_richardson():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    exact = 0.1 * (np.arange(2, 8) + 0.5)
    assert np.max(np.abs(run.result.eigenvalues - exact)) <= 1e-5
    assert list(run.result.indices) == [2, 3, 4, 5, 6, 7]


def test_richardson_gate(morse_window):
    pot = ebk.morse_potential(1.0, 1.0)
    run = ebk.solve_window(pot, morse_window, 0.1, gate=True)
    assert run.gate_residual is not None and run.gate_residual <= 1e-8


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
    v = ebk.eigenvector(op, 2.0)
    v = v / np.linalg.norm(v)
    assert abs(abs(v[1]) - 1.0) <= 1e-8
    assert abs(v[0]) <= 1e-8 and abs(v[2]) <= 1e-8


def test_eigenvector_residual_failure():
    op = _diag_op([1.0, 2.0, 3.0])
    with pytest.raises(InverseIterationFailed):
        ebk.eigenvector(op, 10.0)  # far from any eigenvalue


def test_node_count_literals():
    assert ebk.node_count(np.array([1.0, -1.0, 1.0])) == 2
    assert ebk.node_count(np.array([1.0, 1.0, 1.0])) == 0
    assert ebk.node_count(np.array([1.0, 1e-15, -1.0])) == 1


def test_node_counts_harmonic():
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    for lam, idx in zip(run.result.eigenvalues, run.result.indices):
        v = ebk.eigenvector(run.operator, float(lam))
        assert ebk.node_count(v) == idx
    # One call for the whole window: unit grid-norm columns, orthogonal.
    vectors = ebk.eigenvector(run.operator, run.result.eigenvalues)
    assert vectors.shape == (run.operator.n, run.result.eigenvalues.size)
    gram = run.operator.h * vectors.T @ vectors
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
    nodes = {}
    for lam, idx in zip(run.result.eigenvalues, run.result.indices):
        nodes[int(idx)] = ebk.node_count(ebk.eigenvector(run.operator, float(lam)))
    evens = [nodes[i] for i in sorted(nodes) if i % 2 == 0]
    odds = [nodes[i] for i in sorted(nodes) if i % 2 == 1]
    assert all(b > a for a, b in zip(evens, evens[1:]))
    assert all(b > a for a, b in zip(odds, odds[1:]))


def test_allowed_region_mass():
    flat = ebk.polynomial_potential([0.0])
    op = ebk.discretize(flat, 0.1, 1.0, 11)
    v = np.ones(11)
    assert ebk.allowed_region_mass(v, op, 1.0, 0.1) == 0.0

    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.01, 0.2, 0.01)
    run = ebk.solve_window(pot, window, 0.05)
    lam = float(run.result.eigenvalues[0])
    v = ebk.eigenvector(run.operator, lam)
    assert ebk.allowed_region_mass(v, run.operator, lam, 0.1) <= 0.05


def test_doublet_state_mass_split_between_wells():
    # Eigenvector work on a doublet needs the fine grid's own eigenvalue;
    # the extrapolated value sits O(h^2)-far and cannot discriminate the pair.
    pot = ebk.double_well_potential(1.0)
    window = ebk.EnergyWindow(0.1, 0.6, 0.05)
    run = ebk.solve_window(pot, window, 0.05)
    fine = ebk.eigenvalues_in(run.operator, 0.55, 0.62, tol=1e-13)
    assert fine.eigenvalues.size == 2
    lam = float(fine.eigenvalues[0])  # lower member: even-symmetric state
    v = ebk.eigenvector(run.operator, lam)
    assert ebk.allowed_region_mass(v, run.operator, lam, 0.1) <= 0.05
    assert float(np.max(np.abs(v - v[::-1])) / np.max(np.abs(v))) <= 1e-4
    x = run.operator.grid()
    w = v * v
    left = float(np.sum(w[x < 0.0]) / np.sum(w))
    assert 0.3 <= left <= 0.7


def test_ball_multiplicity():
    op = _diag_op([1.0, 2.0, 3.0])
    assert ebk.ball_multiplicity(op, 2.0, 0.1) == 1
    assert ebk.ball_multiplicity(op, 2.0, 1.0) == 2  # [1, 3): 3 is left out
    pot = ebk.harmonic_potential()
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_window(pot, window, 0.1)
    assert ebk.ball_multiplicity(run.operator, 0.35, 0.01) == 1


_BASIS_CASES = {
    "harmonic": (ebk.harmonic_potential(), (0.2, 0.8)),
    "quartic": (ebk.quartic_potential(), (0.5, 2.0)),
    "double_well": (ebk.double_well_potential(1.0), (0.1, 0.6)),
    "morse": (ebk.morse_potential(1.0, 1.0), (0.1, 0.6)),
    "sextic": (ebk.polynomial_potential([0, 0, 3, 0, -3.5, 0, 1]), (0.1, 0.4)),
}


@pytest.mark.parametrize("hbar", [0.1, 0.05])
@pytest.mark.parametrize("name", sorted(_BASIS_CASES))
def test_basis_matches_sturm_oracle(name, hbar):
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    basis = ebk.solve_basis(pot, window, hbar)
    sturm = ebk.solve_window(pot, window, hbar).result
    assert basis.basis_residual <= 1e-10
    assert basis.result.indices.size > 0
    assert np.array_equal(basis.result.indices, sturm.indices)
    assert np.max(np.abs(basis.result.eigenvalues - sturm.eigenvalues)) <= 1e-10
    if name == "double_well":  # both members of every doublet
        _, members = np.unique(basis.result.indices // 2, return_counts=True)
        assert np.all(members == 2)


@pytest.mark.parametrize("hbar", [0.2, 0.1, 0.05, 0.025])
def test_basis_harmonic_levels_exact(hbar):
    run = ebk.solve_basis(ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05), hbar)
    exact = hbar * (run.result.indices + 0.5)
    assert np.max(np.abs(run.result.eigenvalues - exact)) <= 1e-12
    assert run.floor_estimate == 10 * ebk.oracle.DEFAULT_BISECT_TOL


def test_basis_too_small_raises(monkeypatch):
    monkeypatch.setattr(ebk.oracle, "_BASIS_SAFETY", 1.0)
    monkeypatch.setattr(ebk.oracle, "_BASIS_MIN", 10)
    window = ebk.EnergyWindow(0.5, 2.0, 0.05)
    with pytest.raises(BasisNotConverged, match="from 31 to 62 oscillator states"):
        ebk.solve_basis(ebk.quartic_potential(), window, 0.05)


def test_nodes_resolved_only_where_every_well_is_resolved():
    # At hbar = 0.025 the sextic's central state of index 6 reaches its outer
    # wells at ~1e-13 of its peak, so its vector misses the nodes there.
    pot = _BASIS_CASES["sextic"][0]
    run = ebk.solve_window(pot, ebk.EnergyWindow(0.1, 0.4, 0.05), 0.025)
    res = run.result
    assert res.indices[0] == 6
    v = ebk.eigenvector(run.operator, res.eigenvalues[0])
    assert ebk.node_count(v) != 6
    assert not ebk.nodes_resolved(v, run.operator, res.eigenvalues[0])
    window = ebk.EnergyWindow(0.2, 0.8, 0.05)
    harmonic = ebk.solve_window(ebk.harmonic_potential(), window, 0.1)
    lams = harmonic.result.eigenvalues
    for lam, v in zip(lams, ebk.eigenvector(harmonic.operator, lams).T):
        assert ebk.nodes_resolved(v, harmonic.operator, lam)
