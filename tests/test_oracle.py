import json
import math
import tracemalloc
import types
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebk
from ebk.cli import main
from ebk.errors import BasisNotConverged, EbkError, NonCompactWindow, TooManyLevels
from oracles import stencil_grid_levels, stencil_levels

# The basis levels against the 3-point-stencil reference (tests/oracles.py),
# index for index. Measured: within 2.4e-12 (the quartic at hbar = 0.2).
_REFERENCE_TOL = 3e-12


def _window_psi(pot, window, hbar):
    """The basis run, the grid of basis_nodes and its window eigenfunctions on it."""
    run = ebk.solve_basis(pot, window, hbar)
    x, psi = ebk.oracle._window_eigenfunctions(pot, window, hbar, run)
    return run, x, psi


def test_node_count_literals():
    assert ebk.node_count(np.array([1.0, -1.0, 1.0])) == 2
    assert ebk.node_count(np.array([1.0, 1.0, 1.0])) == 0
    assert ebk.node_count(np.array([1.0, 1e-15, -1.0])) == 1


def test_node_counts_harmonic():
    # The window eigenvectors are orthonormal columns of the final basis,
    # and each eigenfunction counts its index in nodes.
    pot, window = ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_basis(pot, window, 0.1)
    basis = ebk.oracle._Basis(pot, window, 0.1)
    C = basis.vectors(basis.matrix(run.basis_sizes[1]), run.result.indices)
    assert C.shape == (run.basis_sizes[1], run.result.indices.size)
    assert np.max(np.abs(C.T @ C - np.eye(C.shape[1]))) <= 1e-12
    nodes, resolved = ebk.basis_nodes(pot, window, 0.1, run)
    assert list(nodes) == list(run.result.indices) == [2, 3, 4, 5, 6, 7]
    assert all(resolved)


def test_spectrum_simple_in_window():
    pot = ebk.quartic_potential()
    run = ebk.solve_basis(pot, ebk.EnergyWindow(0.5, 2.0, 0.05), 0.1)
    assert np.all(np.diff(run.result.eigenvalues) > 0)


def test_node_ordering_within_symmetry_class():
    pot, window = ebk.harmonic_potential(), ebk.EnergyWindow(0.01, 0.6, 0.005)
    run = ebk.solve_basis(pot, window, 0.05)
    nodes = dict(zip(run.result.indices.tolist(), ebk.basis_nodes(pot, window, 0.05, run)[0]))
    evens = [nodes[i] for i in sorted(nodes) if i % 2 == 0]
    odds = [nodes[i] for i in sorted(nodes) if i % 2 == 1]
    assert all(b > a for a, b in zip(evens, evens[1:]))
    assert all(b > a for a, b in zip(odds, odds[1:]))


def _forbidden_mass(v, potential_values, energy, delta):
    """Share of sum v^2 on grid points where V(x) > energy + delta."""
    w = v * v
    return float(np.sum(w[potential_values > energy + delta]) / np.sum(w))


def test_allowed_region_mass():
    assert _forbidden_mass(np.ones(11), np.zeros(11), 1.0, 0.1) == 0.0
    pot = ebk.harmonic_potential()
    run, x, psi = _window_psi(pot, ebk.EnergyWindow(0.01, 0.2, 0.01), 0.05)
    assert run.result.indices[0] == 0
    assert _forbidden_mass(psi[0], pot.value(x), run.result.eigenvalues[0], 0.1) <= 0.05


def test_doublet_state_mass_split_between_wells():
    # The lower member of the top doublet at hbar = 0.05, index 8, is even:
    # its eigenfunction is symmetric on the symmetric grid, with about half
    # its weight in each well.
    pot = ebk.double_well_potential(1.0)
    run, x, psi = _window_psi(pot, ebk.EnergyWindow(0.1, 0.6, 0.05), 0.05)
    v, lam = psi[-2], run.result.eigenvalues[-2]
    assert run.result.indices[-2] == 8
    assert _forbidden_mass(v, pot.value(x), lam, 0.1) <= 0.05
    assert float(np.max(np.abs(v - v[::-1])) / np.max(np.abs(v))) <= 1e-4
    w = v * v
    assert 0.3 <= float(np.sum(w[x < 0.0]) / np.sum(w)) <= 0.7


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
    # The reference bisects Sturm counts of three stencil grids.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    basis = ebk.solve_basis(pot, window, hbar)
    levels, indices = stencil_levels(pot, window, hbar)
    assert basis.basis_residual <= 1e-10
    assert basis.result.indices.size > 0
    assert np.array_equal(basis.result.indices, indices)
    assert np.max(np.abs(basis.result.eigenvalues - levels)) <= _REFERENCE_TOL
    if name == "double_well":  # both members of every doublet
        _, members = np.unique(basis.result.indices // 2, return_counts=True)
        assert np.all(members == 2)


@settings(derandomize=True, deadline=timedelta(seconds=2), max_examples=20)
@given(name=st.sampled_from(sorted(_BASIS_CASES)), log_hbar=st.floats(math.log(0.02), math.log(0.3)))
def test_basis_size_sweep(name, log_hbar):
    # Over hbar from 0.02 to 0.3, log-uniform, the basis sized by its own N
    # to 2N check either gives the reference's indices with levels within
    # its floor or stops with a typed error: agreement of two bases that are
    # both too small would show here as wrong ranks or levels.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    hbar = math.exp(log_hbar)
    try:
        basis = ebk.solve_basis(pot, window, hbar)
    except EbkError:
        return
    levels, indices = stencil_levels(pot, window, hbar)
    assert np.array_equal(basis.result.indices, indices)
    assert np.all(np.abs(basis.result.eigenvalues - levels) <= basis.floor_estimate)


@pytest.mark.parametrize("hbar", [0.1, 0.05])
@pytest.mark.parametrize("name", sorted(_BASIS_CASES))
def test_fine_ritz_levels_match_tight_bisection(name, hbar):
    # The levels are the Ritz values of the fine basis. Those of its leading
    # N x N block, a principal submatrix, are the coarse ones of the same
    # size: by Cauchy interlacing no fine level lies above the coarse level
    # of its rank, to rounding, so the N -> 2N change solve_basis checks is
    # a decrease. The fine window levels match the reference's Sturm
    # bisections, run to 1e-14.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_basis(pot, window, hbar)
    n, size = run.basis_sizes
    basis = ebk.oracle._Basis(pot, window, hbar)
    H = basis.matrix(size)
    coarse, fine = basis.levels(H, n), basis.levels(H, size)
    indices = run.result.indices
    assert np.array_equal(fine[indices], run.result.eigenvalues)
    assert np.all(fine[:n] <= coarse + 1e-13 * np.maximum(1.0, np.abs(coarse)))
    top = indices[-1] + 2  # up to the first level above the window
    assert np.max(coarse[:top] - fine[:top]) <= ebk.oracle._BASIS_TOL
    levels, _ = stencil_levels(pot, window, hbar)
    assert np.max(np.abs(run.result.eigenvalues - levels)) <= _REFERENCE_TOL


@pytest.mark.parametrize("hbar", [0.1, 0.05])
@pytest.mark.parametrize("name", sorted(_BASIS_CASES))
def test_window_levels_match_tight_richardson(name, hbar):
    # The basis levels are the limit the stencil grids converge to: each
    # step of the reference, a level of its finest grid (error O(h^2)), its
    # Richardson value r2 (O(h^4)) and the Romberg value, comes at least ten
    # times closer to the basis level of the same index.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_basis(pot, window, hbar)
    E1, E2, E3, indices = stencil_grid_levels(pot, window, hbar)
    r1, r2 = (4 * E2 - E1) / 3, (4 * E3 - E2) / 3
    rom = (16 * r2 - r1) / 15
    same = np.isin(indices, run.result.indices)
    assert np.array_equal(indices[same], run.result.indices)
    steps = [np.max(np.abs(E[same] - run.result.eigenvalues)) for E in (E3, r2, rom)]
    assert steps[0] > 10 * steps[1] > 100 * steps[2]
    assert steps[2] <= _REFERENCE_TOL


@pytest.mark.parametrize("hbar", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", ["double_well", "harmonic", "morse", "quartic"])
def test_window_levels_within_the_measured_floor(name, hbar):
    # What `ebk run` reports of the catalog's wells: every level within its
    # floor_estimate, 1e-10 here, of the reference, and every level resolved
    # with its index in nodes, the double well's doublets at hbar = 0.025,
    # split below rounding, included: each member is solved in its own
    # parity block.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_basis(pot, window, hbar)
    levels, indices = stencil_levels(pot, window, hbar)
    assert np.array_equal(run.result.indices, indices) and indices.size > 0
    assert run.floor_estimate == ebk.oracle._FLOOR_MIN
    assert np.all(np.abs(run.result.eigenvalues - levels) <= run.floor_estimate)
    nodes, resolved = ebk.basis_nodes(pot, window, hbar, run)
    assert list(nodes) == list(run.result.indices) and all(resolved)


_NODE_CASES = {**_BASIS_CASES, "sextic_0.6": (_BASIS_CASES["sextic"][0], (0.1, 0.6))}
# The sextic's states whose eigenfunctions reach a well by under 1e-8 of
# their peak: the same sets the three-grid Sturm oracle marked unresolved.
# Every other level of the cases is resolved.
_UNRESOLVED = {
    ("sextic", 0.025): list(range(6, 15)),
    ("sextic", 0.0125): list(range(9, 32)),
    ("sextic_0.6", 0.025): list(range(6, 15)),
    ("sextic_0.6", 0.0125): list(range(9, 41)) + [42, 44],
}


@pytest.mark.parametrize("hbar", [0.1, 0.05, 0.025, 0.0125])
@pytest.mark.parametrize("name", list(_NODE_CASES))
def test_basis_node_counts_are_the_indices(name, hbar):
    # Every resolved level counts its index in nodes. At hbar = 0.0125 the
    # sextic's resolved 41 and 43 keep their counts only because entries
    # under 1e-12 of the peak, not 1e-8, are left out of the count.
    pot, (e1, e2) = _NODE_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_basis(pot, window, hbar)
    nodes, resolved = ebk.basis_nodes(pot, window, hbar, run)
    indices = run.result.indices.tolist()
    assert indices and len(nodes) == len(resolved) == len(indices)
    assert [i for i, ok in zip(indices, resolved) if not ok] == _UNRESOLVED.get((name, hbar), [])
    assert all(n == i for n, i, ok in zip(nodes, indices, resolved) if ok)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1200, 2000])
def test_hermite_functions_survive_underflow(n):
    # phi_n oscillates out to |y| = sqrt(2n + 1), but its plain recurrence
    # starts from exp(-y^2 / 2), which is 0 beyond |y| of about 38: it shows
    # 1,064 of phi_1200's sign changes and 1,452 of phi_2000's. Rescaled per
    # point, every one is counted; where the plain recurrence does not
    # underflow, both give the same values, across the blocks of 64 rows.
    ymax = 1.05 * math.sqrt(2 * n + 1)
    y = np.linspace(-ymax, ymax, 40001)
    C = np.zeros((n + 1, 1))
    C[n, 0] = 1.0
    unit = types.SimpleNamespace(x_c=0.0, hbar=1.0, omega=1.0)
    (phi,) = ebk.oracle._eigenfunctions(unit, C, y)
    assert ebk.node_count(phi) == n
    prev, plain = np.zeros_like(y), math.pi**-0.25 * np.exp(-0.5 * y * y)
    for k in range(n):
        prev, plain = plain, math.sqrt(2 / (k + 1)) * y * plain - math.sqrt(k / (k + 1)) * prev
    near = np.abs(y) <= 30.0
    assert np.max(np.abs(phi[near] - plain[near])) <= 1e-13
    assert 0.25 < np.max(np.abs(phi)) < math.pi**-0.25 + 1e-15


def test_basis_nodes_memory_peak():
    # The double well at hbar = 0.0025: 154 window levels of 2,342 states on
    # 2,031 points. The Hermite table of every state on every point would
    # take 36 MiB; evaluated in blocks, the pass peaks at 15 MiB, most of it
    # dsbevx's reduction of a 1,171-state parity block (10.5 MiB).
    pot, window = ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05)
    run = ebk.solve_basis(pot, window, 0.0025)
    tracemalloc.start()
    try:
        nodes, resolved = ebk.basis_nodes(pot, window, 0.0025, run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nodes) == 154 and list(nodes) == list(run.result.indices) and all(resolved)
    assert peak <= 16 * 2**20


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
    # oracle_tol sized the grids of an earlier oracle. An archived config
    # that sets it still runs, and the oracle writes what it writes without.
    digests = []
    for tols in ({"oracle_tol": oracle_tol}, {}):
        out = tmp_path / str(len(digests))
        config = {
            "symbol": symbol,
            "window": {"e1": e1, "e2": e2, "margin": 0.05},
            "hbars": [0.1, 0.05],
            "pipeline": ["oracle"],
            "tolerances": tols,
            "output_dir": str(out),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("hbar", [0.2, 0.1, 0.05, 0.025])
def test_basis_harmonic_levels_exact(hbar):
    run = ebk.solve_basis(ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05), hbar)
    exact = hbar * (run.result.indices + 0.5)
    assert np.max(np.abs(run.result.eigenvalues - exact)) <= 1e-12
    assert run.floor_estimate == ebk.oracle._FLOOR_MIN == 1e-10


def test_basis_of_one_state():
    # At hbar = 10 the harmonic window [0.2, 0.8] lies under the ground level
    # 5 and N = 1, so the coarse basis has an even-index block and no odd one.
    pot, window = ebk.harmonic_potential(), ebk.EnergyWindow(0.2, 0.8, 0.05)
    run = ebk.solve_basis(pot, window, 10.0)
    assert run.basis_sizes == (1, 2) and run.result.indices.size == 0
    assert ebk.basis_nodes(pot, window, 10.0, run) == ((), ())


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
    # 64 -> 128 by 5e-14. Horner's rule holds 3 bands of 5 rows on size + 4
    # states, so a cap one float under the 128-state matrix's 1,980 stops
    # the doubling after the second pair and names it. The quartic is even, so each size is
    # solved as its even- and odd-index blocks.
    monkeypatch.setattr(ebk.oracle, "_BASIS_SAFETY", 0.5)
    calls = _counted_band_solves(monkeypatch)
    window = ebk.EnergyWindow(0.5, 2.0, 0.05)
    monkeypatch.setattr(ebk.oracle, "_MAX_ENTRIES", 1979)
    with pytest.raises(TooManyLevels, match="from 32 to 64 oscillator states, and the 128-state"):
        ebk.solve_basis(ebk.quartic_potential(), window, 0.05)
    assert calls == [8, 8, 16, 16, 32, 32]
    monkeypatch.setattr(ebk.oracle, "_MAX_ENTRIES", 1980)
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
    levels, indices = stencil_levels(pot, window, 0.025)
    assert np.array_equal(run.result.indices, indices)
    assert np.max(np.abs(run.result.eigenvalues - levels)) <= _REFERENCE_TOL
    # 3 bands of 7 rows on 488 + 6 states: no second solve under a cap one float short.
    monkeypatch.setattr(ebk.oracle, "_MAX_ENTRIES", 3 * 7 * 494 - 1)
    with pytest.raises(TooManyLevels, match="from 122 to 244 oscillator states"):
        ebk.solve_basis(pot, window, 0.025)


@pytest.mark.parametrize("name", ["quartic", "double_well", "tilted_quartic", "morse"])
def test_basis_refused_before_its_first_matrix(monkeypatch, name):
    # At hbar = 1e-6 the first matrix is over the 2^25-float cap: the
    # quartic's would hold 9,254,688 states, Horner's rule three bands of
    # 46 million floats each.
    # It is refused before Horner's rule or the DVR builds anything, as is
    # a subnormal hbar, whose state count overflows.
    def refused(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(ebk.oracle, "_polynomial_band", refused)
    monkeypatch.setattr(ebk.oracle, "dstevd", refused)
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    with pytest.raises(TooManyLevels, match=r"\d+-state oscillator basis at hbar=1e-06 would store"):
        ebk.solve_basis(pot, window, 1e-6)
    if name == "quartic":
        with pytest.raises(TooManyLevels, match="the 9254688-state .* 138820380 floats"):
            ebk.oracle.check_basis_size(pot, window, 1e-6)
    with pytest.raises(TooManyLevels, match="an oscillator basis of inf states"):
        ebk.oracle.check_basis_size(pot, window, 1e-320)


@pytest.mark.parametrize(
    "name, size, levels, cap",
    [("double_well", 236, 8, 20_000), ("tilted_quartic", 134, 13, 20_000), ("morse", 98, 9, 40_000)],
)
def test_basis_vectors_over_the_cap(monkeypatch, name, size, levels, cap):
    # The window vectors and their evaluation count against the same cap:
    # at hbar = 0.05 those of an even band, an uneven band and the DVR are
    # refused before any matrix is built, under a cap their levels fit.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_basis(pot, window, 0.05)
    monkeypatch.setattr(ebk.oracle, "_MAX_ENTRIES", cap)
    monkeypatch.setattr(ebk.oracle, "_polynomial_band", None)
    monkeypatch.setattr(ebk.oracle, "dstevd", None)
    what = f"the {size}-state oscillator basis at hbar=0.05 and {levels} eigenfunctions"
    with pytest.raises(TooManyLevels, match=what):
        ebk.basis_nodes(pot, window, 0.05, run)


def test_window_below_minimum_raises_noncompact():
    # A window whose widened top is at the minimum has no basis to centre.
    pot = ebk.harmonic_potential()
    with pytest.raises(NonCompactWindow, match="not above the minimum"):
        ebk.solve_basis(pot, ebk.EnergyWindow(-0.35, -0.05, 0.05), 0.1)


def test_lapack_bindings_match_scipy_linalg():
    # ebk._lapack loads scipy.linalg._flapack without scipy.linalg. Its dstevd
    # must give the DVR nodes and vectors eigh_tridiagonal gives, bit for bit,
    # and its dsbev and dsbevx must be scipy.linalg.lapack's routines.
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
    ab = rng.normal(size=(5, 60))
    w, _, info = _lapack.dsbev(ab, compute_v=0, lower=1)
    ref_w, _, ref_info = scipy.linalg.lapack.dsbev(ab, compute_v=0, lower=1)
    assert info == ref_info == 0 and np.array_equal(w, ref_w)
    got = _lapack.dsbevx(ab.copy(), 0.0, 0.0, 3, 7, range=2, lower=1)
    ref = scipy.linalg.lapack.dsbevx(ab.copy(), 0.0, 0.0, 3, 7, range=2, lower=1)
    assert got[2] == ref[2] == 5 and got[4] == ref[4] == 0
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


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
    # The even harmonic's first block and the tilted quartic's whole band:
    # their levels, then their window vectors.
    pot, (e1, e2) = _BASIS_CASES[name]
    window = ebk.EnergyWindow(e1, e2, 0.05)
    run = ebk.solve_basis(pot, window, 0.1)
    monkeypatch.setattr(ebk.oracle, "dsbev", lambda ab, **kwargs: (ab[0], None, 3))
    with pytest.raises(BasisNotConverged, match=r"dsbev failed on the \d+-state band .*\(info = 3\)"):
        ebk.solve_basis(pot, window, 0.1)
    monkeypatch.setattr(ebk.oracle, "dsbevx", lambda ab, *args, **kwargs: (None, None, 0, None, 3))
    with pytest.raises(BasisNotConverged, match=r"dsbevx returned 0 of the eigenvectors .*\(info = 3\)"):
        ebk.basis_nodes(pot, window, 0.1, run)


@pytest.mark.parametrize("hbar, levels", [(0.025, 16), (0.0125, 30)])
def test_double_well_doublets_count_their_own_nodes(hbar, levels, monkeypatch):
    # The doublets are split below rounding, so the whole band's vectors may
    # be any basis of each pair's span. The parity blocks give each level
    # its own vector: node count, parity and index agree on every row, and
    # the levels are those of the whole band, as an uneven V is solved,
    # within its floor.
    pot, window = ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05)
    run = ebk.solve_basis(pot, window, hbar)
    indices = run.result.indices.tolist()
    nodes, resolved = ebk.basis_nodes(pot, window, hbar, run)
    assert len(indices) == levels
    assert list(nodes) == indices and all(resolved)
    x, psi = ebk.oracle._window_eigenfunctions(pot, window, hbar, run)
    assert np.max(np.abs(x + x[::-1])) <= 1e-14  # symmetric about 0, to rounding
    for i, v in zip(indices, psi):  # parity (-1)^index
        assert np.max(np.abs(v[::-1] - (-1) ** i * v)) <= 1e-9 * np.max(np.abs(v))
    monkeypatch.setitem(vars(pot), "even", False)
    whole = ebk.solve_basis(pot, window, hbar)
    assert whole.result.indices.tolist() == indices
    err = np.abs(run.result.eigenvalues - whole.result.eigenvalues)
    assert np.all(err <= whole.floor_estimate)


def test_parity_blocks_are_the_whole_band():
    # For an even V the band's even- and odd-index blocks hold all of it:
    # their levels merged are the whole band's, and a block's eigenvector,
    # on its own rows, is the whole band's eigenvector at that global index.
    pot, window = ebk.double_well_potential(1.0), ebk.EnergyWindow(0.1, 0.6, 0.05)
    basis = ebk.oracle._Basis(pot, window, 0.05)
    assert basis.blocks and basis.x_c == 0.0
    size = 236
    H = basis.matrix(size)
    assert not np.any(H[1::2])  # no odd diagonal couples the two parities
    whole = ebk.oracle._band_levels(H, size)
    assert np.max(np.abs(basis.levels(H, size) - whole) / np.maximum(1.0, whole)) <= 1e-14
    indices = np.arange(2, 10)
    C = basis.vectors(H, indices)
    dense = np.diag(H[0]) + sum(np.diag(H[j, : size - j], -j) + np.diag(H[j, : size - j], j)
                                for j in range(1, len(H)))
    for k, c in zip(indices, C.T):
        assert not np.any(c[1 - k % 2 :: 2])
        assert np.max(np.abs(dense @ c - whole[k] * c)) <= 1e-12


def test_nodes_resolved_only_where_every_well_is_resolved():
    # At hbar = 0.025 the sextic's central state of index 6 reaches its outer
    # wells at ~1e-13 of its peak, so its eigenfunction misses the nodes
    # there; the harmonic's reach every allowed point.
    pot = _BASIS_CASES["sextic"][0]
    run, x, psi = _window_psi(pot, ebk.EnergyWindow(0.1, 0.4, 0.05), 0.025)
    assert run.result.indices[0] == 6
    assert ebk.node_count(psi[0]) != 6
    assert not ebk.nodes_resolved(psi[0], pot.value(x), run.result.eigenvalues[0])
    pot = ebk.harmonic_potential()
    run, x, psi = _window_psi(pot, ebk.EnergyWindow(0.2, 0.8, 0.05), 0.1)
    for lam, v in zip(run.result.eigenvalues, psi):
        assert ebk.nodes_resolved(v, pot.value(x), lam)
