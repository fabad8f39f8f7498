"""Direct Schrodinger ground truth: two independent eigensolvers.

The Sturm oracle (solve_window) is the reference of `ebk run`. The operator
-(hbar^2/2) d^2/dx^2 + V is discretized by the 3-point stencil on N nodes
x_i = -L + i*h, h = 2L/(N-1), with Dirichlet behavior outside the grid,
giving a symmetric tridiagonal matrix:

    diag[i]    = hbar^2/h^2 + V(x_i)
    offdiag[i] = -hbar^2/(2 h^2)

Eigenvalue counts come from LAPACK's Sturm count for symmetric tridiagonal
matrices, dstebz (Kahan and Demmel): count_below(T, lam) asks for the
eigenvalues in (-inf, lam-], with lam- the next float below lam, which is
the number of eigenvalues strictly below lam. LAPACK replaces a pivot of
magnitude below its pivmin (a safe minimum scaled by the largest squared
off-diagonal entry) by -pivmin, so counts reproduce bit for bit. These
counts fix the global indices of the window eigenvalues, which dstebz then
localizes by bisection in one call per grid. The leading O(h^2)
discretization error is removed by Richardson extrapolation across nested
grids N and 2N-1. Eigenvectors come from LAPACK's inverse iteration for
tridiagonal matrices, dstein, in one call for all window levels. The grid
carries what the rest of the pipeline needs besides eigenvalues: exact
counts at any shift (Weyl checks, ball multiplicities) and eigenvectors on
x (node counts, well masses), so it stays the pipeline's reference.

The basis oracle (solve_basis) is what convergence_study uses: it only
needs the window levels, and gets them far more accurately and quickly.
It is Rayleigh-Ritz in the first N harmonic-oscillator states centred on
the window's sublevel interval, with V in the X-matrix discrete variable
representation (Light, Hamilton and Lill, J. Chem. Phys. 82 (1985) 1400),
checked by solving again with 2N states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dstein

from .errors import (
    BasisNotConverged,
    BisectionFailed,
    ConfigError,
    DomainTooSmall,
    GridTooLarge,
    InverseIterationFailed,
    NonCompactWindow,
)
from .symbols import EnergyWindow, PotentialSpec

DEFAULT_PHASE_TOL = 1e-5
DEFAULT_BISECT_TOL = 1e-11
_MAX_GRID = 600_000
_NODE_RESOLUTION = 1e-8
# solve_basis: N is _BASIS_SAFETY times the states in the phase-space box of
# the window top, at least _BASIS_MIN (the narrow outer wells of the
# three-well sextic need ~150 states at any hbar >= 0.05); _BASIS_TOL is the
# largest level change from N to 2N states it accepts; the DVR has 2N +
# _DVR_EXTRA_NODES nodes; V - min V is capped at _V_CEILING (top - min V).
_BASIS_SAFETY = 3.0
_BASIS_MIN = 150
_BASIS_TOL = 1e-10
_DVR_EXTRA_NODES = 8
_V_CEILING = 100.0

# dstebz range codes in scipy's wrapper (0 would ask for all eigenvalues).
_BY_VALUE = 1
_BY_INDEX = 2


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization with its grid metadata."""

    diag: np.ndarray
    offdiag: np.ndarray
    L: float
    n: int
    h: float
    hbar: float

    def potential_values(self) -> np.ndarray:
        return self.diag - self.hbar**2 / self.h**2

    def grid(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


@dataclass(frozen=True)
class EigenResult:
    """Sorted eigenvalues with their global spectral indices."""

    eigenvalues: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # Ties are allowed: the discrete spectrum is simple, but a doublet
        # split below the bracketing tolerance resolves to equal floats.
        if self.eigenvalues.size > 1 and np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted")


def discretize(
    potential: PotentialSpec,
    hbar: float,
    L: float,
    N: int,
    *,
    window: EnergyWindow | None = None,
) -> TridiagonalOperator:
    """Assemble the 3-point operator on [-L, L] with N nodes.

    When a window is supplied, V(+-L) must clear e2 + margin so truncation
    cannot push window eigenvalues around (DomainTooSmall otherwise).
    """
    if N < 3:
        raise ValueError("need at least 3 grid points")
    if L <= 0 or hbar <= 0:
        raise ValueError("L and hbar must be positive")
    if window is not None:
        need = window.e2 + window.margin
        if float(potential.value(-L)) < need or float(potential.value(L)) < need:
            raise DomainTooSmall(
                f"V(+-{L:g}) does not reach {need:g}; enlarge the domain"
            )
    h = 2.0 * L / (N - 1)
    x = -L + h * np.arange(N)
    diag = hbar**2 / h**2 + np.asarray(potential.value(x), dtype=float)
    offdiag = np.full(N - 1, -(hbar**2) / (2.0 * h**2))
    return TridiagonalOperator(diag=diag, offdiag=offdiag, L=L, n=N, h=h, hbar=hbar)


def domain_auto(
    potential: PotentialSpec,
    window: EnergyWindow,
    hbar: float,
    *,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> tuple[float, int]:
    """Half-width and grid size adequate for the window at this hbar.

    L is the smallest half-width whose potential wall reaches the window top
    plus a tunneling-tail margin of 10*hbar, padded by 1.5; for potentials
    with a finite plateau the wall target is capped below the plateau (decay
    under the barrier replaces the wall, which the L-doubling stability
    check validates). N keeps the local stencil phase error
    (xi_max*h/hbar)^2/12 below phase_tol. Raises ConfigError when N is
    under the stencil's 3 points, and GridTooLarge when the finer grid of
    solve_window's pair, 2N - 1 points, exceeds the cap.
    """
    top = window.e2 + window.margin
    if not potential.confining_below(top):
        raise NonCompactWindow(
            f"level {top:g} is not confined by the {potential.kind} potential"
        )
    sup_l, sup_r = potential.tail_sup()
    headroom = min(sup_l, sup_r) - top
    target = top + min(10.0 * hbar, 0.9 * headroom)
    xlo, xhi = potential.sublevel_interval(target)
    L = 1.5 * max(abs(xlo), abs(xhi))
    ximax = math.sqrt(2.0 * (top - potential.min_value()))
    h = hbar * math.sqrt(12.0 * phase_tol) / ximax
    N = int(math.ceil(2.0 * L / h)) + 1
    if N < 3:
        raise ConfigError(f"grid of {N} points is under the 3-point stencil; tighten phase_tol")
    _check_cap(2 * N - 1)
    return L, N


def _check_cap(n: int):
    if n > _MAX_GRID:
        raise GridTooLarge(f"grid of {n} points exceeds the {_MAX_GRID} cap; relax phase_tol")


def count_below(T: TridiagonalOperator, lam):
    """Number of eigenvalues strictly below lam (scalar or array).

    One dstebz call per shift over (-inf, nextafter(lam, -inf)]. The
    infinite tolerance stops LAPACK right after its Sturm count, before it
    bisects any eigenvalue. Raises BisectionFailed if dstebz reports an
    error.
    """
    scalar = np.isscalar(lam) or np.asarray(lam).ndim == 0
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    counts = np.empty(lams.size, dtype=np.int64)
    for j, shift in enumerate(np.nextafter(lams, -np.inf)):
        counts[j], _, _, _, info = dstebz(
            T.diag, T.offdiag, _BY_VALUE, -np.inf, shift, 0, 0, np.inf, "E"
        )
        if info != 0:
            raise BisectionFailed(
                f"dstebz could not count the eigenvalues below {lams[j]!r} "
                f"(info = {info})"
            )
    return int(counts[0]) if scalar else counts


def eigenvalues_in(
    T: TridiagonalOperator, a: float, b: float, tol: float = DEFAULT_BISECT_TOL
) -> EigenResult:
    """All eigenvalues in (a, b), bracketed to width <= tol by Sturm bisection.

    count_below fixes the global indices ca .. cb-1 of the eigenvalues in
    (a, b). LAPACK dstebz then bisects for exactly those indices (its
    1-based ca+1 .. cb) with absolute tolerance tol, so the indices follow
    count_below's convention even for an eigenvalue within rounding of a
    or b. A pair split by less than tol comes back as a tie with
    consecutive indices. Raises BisectionFailed if dstebz reports an error
    or returns a different number of eigenvalues.
    """
    if not a < b:
        raise ValueError("need a < b")
    ca, cb = count_below(T, np.array([a, b]))
    m = int(cb - ca)
    if m == 0:
        return EigenResult(np.empty(0), np.empty(0, dtype=int))
    found, w, _, _, info = dstebz(
        T.diag, T.offdiag, _BY_INDEX, a, b, int(ca) + 1, int(cb), tol, "E"
    )
    if info != 0 or found != m:
        raise BisectionFailed(
            f"dstebz returned {found} of the {m} eigenvalues with indices "
            f"{ca}..{cb - 1} (info = {info})"
        )
    return EigenResult(w[:m], ca + np.arange(m))


def eigenvector(T: TridiagonalOperator, lam):
    """Unit grid-norm eigenvectors at lam (scalar or ascending array).

    One LAPACK dstein call runs inverse iteration at every shift: a scalar
    gives an (n,) vector, an array of m shifts an (n, m) matrix of columns.
    dstein starts from a fixed pseudo-random vector, so repeated runs are
    identical, and orthogonalizes the vectors of close shifts against each
    other, so an unresolved doublet gives an orthonormal pair. Raises
    InverseIterationFailed if dstein reports a failure or a residual
    |T v - lam v| exceeds 1e-8 * ||T||.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    n = T.n
    z, info = dstein(
        T.diag, T.offdiag, lams, np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32)
    )
    if info != 0:
        raise InverseIterationFailed(f"dstein did not converge (info = {info})")
    scale = float(np.max(np.abs(T.diag))) + 2.0 * float(np.max(np.abs(T.offdiag)))
    for j, shift in enumerate(lams):
        v = z[:, j]
        if not np.linalg.norm(T.apply(v) - shift * v) <= 1e-8 * scale:
            raise InverseIterationFailed(f"no convergence at lam = {shift:g}")
        v /= math.sqrt(T.h * float(np.dot(v, v)))
    return z[:, 0] if np.ndim(lam) == 0 else z


def node_count(v: np.ndarray) -> int:
    """Strict sign changes, ignoring entries below 1e-12 of the peak."""
    v = np.asarray(v, dtype=float)
    if v.size == 0 or not np.any(v != 0.0):
        raise ValueError("vector must be nonzero")
    kept = v[np.abs(v) >= 1e-12 * float(np.max(np.abs(v)))]
    signs = np.sign(kept)
    return int(np.sum(signs[1:] != signs[:-1]))


def nodes_resolved(v: np.ndarray, T: TridiagonalOperator, energy: float) -> bool:
    """Whether v reaches _NODE_RESOLUTION of its peak in every allowed interval.

    The intervals are the runs of grid points with V < energy, where an
    eigenfunction oscillates. A state that tunnels into one of them by less
    (a deep well of a multi-well potential, or a multiplet split below
    rounding) has nodes there that its computed vector need not show:
    dstein's entries are good to about eps ||T|| / gap, 1e-10 of the peak on
    the fine grids, so node_count is only meaningful for a resolved v.
    """
    allowed = T.potential_values() < energy
    edges = np.flatnonzero(np.diff(allowed)) + 1
    floor = _NODE_RESOLUTION * max(v.max(), -v.min())
    segments = zip(np.split(v, edges), allowed[np.r_[0, edges]])
    return all(max(seg.max(), -seg.min()) >= floor for seg, inside in segments if inside)


def allowed_region_mass(
    v: np.ndarray, T: TridiagonalOperator, energy: float, delta: float
) -> float:
    """Probability mass sitting where V(x) > energy + delta."""
    pot = T.potential_values()
    w = np.square(np.asarray(v, dtype=float))
    total = float(np.sum(w))
    if total == 0.0:
        raise ValueError("vector must be nonzero")
    return float(np.sum(w[pot > energy + delta]) / total)


def ball_multiplicity(T: TridiagonalOperator, center: float, radius: float) -> int:
    """Exact eigenvalue count in [center - radius, center + radius), half-open.

    Both ends are count_below shifts, so an eigenvalue equal to
    center - radius is counted and one equal to center + radius is not.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    lo, hi = count_below(T, np.array([center - radius, center + radius]))
    return int(hi - lo)


@dataclass(frozen=True)
class OracleRun:
    """Extrapolated window eigenvalues plus the finest operator used."""

    result: EigenResult
    operator: TridiagonalOperator
    L: float
    grid_sizes: tuple[int, ...]
    gate_residual: float | None
    floor_estimate: float


def solve_window(
    potential: PotentialSpec,
    window: EnergyWindow,
    hbar: float,
    *,
    phase_tol: float = DEFAULT_PHASE_TOL,
    bisect_tol: float = DEFAULT_BISECT_TOL,
    gate: bool = False,
) -> OracleRun:
    """Window eigenvalues with the O(h^2) error removed by extrapolation.

    gate=True adds a third nested grid and reports the spread between the
    two extrapolations (the self-consistency residual a comparison must
    check before trusting the oracle). Raises GridTooLarge before building
    any grid if the finest one exceeds the cap.
    """
    a, b = window.e1, window.e2
    L, N = domain_auto(potential, window, hbar, phase_tol=phase_tol)
    sizes = [N, 2 * N - 1] + ([4 * N - 3] if gate else [])
    _check_cap(sizes[-1])
    pad = 0.01 * (b - a)
    per_grid = []
    for n_i in sizes:
        T = discretize(potential, hbar, L, n_i, window=window)
        per_grid.append((T, eigenvalues_in(T, a - pad, b + pad, tol=bisect_tol)))

    def _extrap(coarse: EigenResult, fine: EigenResult):
        common = np.intersect1d(coarse.indices, fine.indices)
        ec = coarse.eigenvalues[np.searchsorted(coarse.indices, common)]
        ef = fine.eigenvalues[np.searchsorted(fine.indices, common)]
        # Sorted: a doublet tied below bisect_tol can swap order here.
        ext = np.sort((4.0 * ef - ec) / 3.0)
        return common, ext, float(np.max(np.abs(ef - ec), initial=0.0))

    idx1, ext1, corr1 = _extrap(per_grid[0][1], per_grid[1][1])
    gate_residual = None
    if gate:
        idx2, ext2, corr2 = _extrap(per_grid[1][1], per_grid[2][1])
        both = np.intersect1d(idx1, idx2)
        d1 = ext1[np.searchsorted(idx1, both)]
        d2 = ext2[np.searchsorted(idx2, both)]
        gate_residual = float(np.max(np.abs(d1 - d2), initial=0.0))
        idx1, ext1, corr1 = idx2, ext2, corr2
    keep = (ext1 >= a) & (ext1 <= b)
    result = EigenResult(eigenvalues=ext1[keep], indices=idx1[keep])
    floor = max(10.0 * bisect_tol, 0.1 * corr1 / 3.0)
    return OracleRun(
        result=result,
        operator=per_grid[-1][0],
        L=L,
        grid_sizes=tuple(sizes),
        gate_residual=gate_residual,
        floor_estimate=floor,
    )


@dataclass(frozen=True)
class BasisRun:
    """Window eigenvalues of the 2N-state basis and their change from N states."""

    result: EigenResult
    basis_sizes: tuple[int, int]
    basis_residual: float

    @property
    def floor_estimate(self) -> float:
        return max(10.0 * DEFAULT_BISECT_TOL, self.basis_residual)


def solve_basis(potential: PotentialSpec, window: EnergyWindow, hbar: float) -> BasisRun:
    """Window eigenvalues by Rayleigh-Ritz in a harmonic-oscillator basis.

    The basis is centred at the middle x_c of the sublevel interval at the
    window top e2 + margin, with frequency omega = xi_max / half-width so
    its ellipses have the aspect of that level set's box. N is
    _BASIS_SAFETY times the box area over 2 pi hbar, at least _BASIS_MIN.
    xi^2/2 is pentadiagonal in closed form; V is the X-matrix DVR, with
    the Q = 2N + _DVR_EXTRA_NODES nodes y and vectors U of the truncated
    position matrix giving V_mn = sum_q U_mq V(x_c + y_q) U_nq, the
    Gauss-Hermite quadrature of the matrix elements. V is capped at _V_CEILING times the window's height above the minimum: only
    nodes deep in the forbidden region reach the cap, where window states
    are negligible, and the cap keeps the matrix norm, hence the rounding
    of the eigensolve, small (a Morse wall otherwise reaches 1e9 at the
    outer nodes). The 2N-state matrix and its leading
    N x N block are solved; Ritz values bound the true ones from above, so a
    level's global index is its rank. The result holds the 2N-state levels
    in [e1, e2]. basis_residual is the largest change from N states over
    every level up to the first one above the window, so an unconverged
    level can neither shift the ranks nor drop out of the window; over
    _BASIS_TOL it raises BasisNotConverged.
    """
    top = window.e2 + window.margin
    xlo, xhi = potential.sublevel_interval(top)
    half = 0.5 * (xhi - xlo)
    vmin = potential.min_value()
    ximax = math.sqrt(2.0 * (top - vmin))
    omega = ximax / half
    n = max(_BASIS_MIN, math.ceil(_BASIS_SAFETY * 4.0 * half * ximax / (2.0 * math.pi * hbar)))
    q = 2 * n + _DVR_EXTRA_NODES
    nodes, U = eigh_tridiagonal(np.zeros(q), np.sqrt(0.5 * np.arange(1, q)))
    v = potential.value(0.5 * (xlo + xhi) + math.sqrt(hbar / omega) * nodes) - vmin
    # The rows of U are orthonormal, so V = vmin + W W^T with W = U sqrt(V - vmin).
    W = U[: 2 * n]
    W *= np.sqrt(np.clip(v, 0.0, _V_CEILING * (top - vmin)))
    H = W @ W.T
    del U, W
    # xi^2/2 = (hbar omega / 2) p^2, with p^2 = a^+ a + 1/2 - (a^2 + a^+^2)/2.
    k = np.arange(2 * n)
    H[k, k] += vmin + 0.5 * hbar * omega * (k + 0.5)
    band = -0.25 * hbar * omega * np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0))
    H[k[:-2], k[2:]] += band
    H[k[2:], k[:-2]] += band
    coarse, fine = np.linalg.eigvalsh(H[:n, :n]), np.linalg.eigvalsh(H)
    top_rank = int(np.searchsorted(fine, window.e2, side="right"))
    if top_rank < n:
        residual = float(np.max(np.abs(fine[: top_rank + 1] - coarse[: top_rank + 1])))
    else:
        residual = math.inf
    if not residual <= _BASIS_TOL:
        raise BasisNotConverged(
            f"window levels moved by {residual:.3g} from {n} to {2 * n} oscillator "
            f"states at hbar={hbar:g} (tolerance {_BASIS_TOL:g})"
        )
    indices = np.nonzero((fine >= window.e1) & (fine <= window.e2))[0]
    return BasisRun(EigenResult(fine[indices], indices), (n, 2 * n), residual)
