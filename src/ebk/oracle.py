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
off-diagonal entry) by -pivmin, so counts reproduce bit for bit. The
O(h^2) and O(h^4) discretization errors are removed by Romberg
extrapolation across the nested grids N, 2N-1 and 4N-3, and the change
of the last step is the measured error floor. One count per finer grid
fixes the global indices of the window eigenvalues, the same on both. On
the coarsest grid dstebz bisects them over a slightly wider range in one
call, only as far as inverse iteration needs its shifts (_SHIFT_TOL), and
LAPACK's inverse iteration for tridiagonal matrices, dstein, runs once at
those shifts. Rayleigh-Ritz on the span of its vectors gives the coarsest
levels, each Ritz pair certified by its residual (Parlett), and the Ritz
vectors' sign changes are the node counts. The Ritz vectors are prolonged
to the next grid, and one step of inverse iteration per level there, a
tridiagonal solve by LAPACK's dgtsv shifted by the level below moved by
the stencil's leading error, gives a basis whose Ritz values are that
grid's levels, certified the same way. The window levels come back
complete and with their global indices, so the levels between two
energies in the window are counted from that list (the Weyl checks). The
grid carries what the rest of the pipeline needs besides eigenvalues:
exact counts at any shift and eigenvectors on x (node counts), so it
stays the pipeline's reference. For an even V the grids are symmetric
about 0 and every step runs on their even and their odd blocks, two
ladders of half size whose levels have exact global indices and node
counts (_parity_blocks), a doublet split below rounding included.

The basis oracle (solve_basis) is what convergence_study uses: it only
needs the window levels, and gets them far more accurately and quickly.
It is Rayleigh-Ritz in the first N harmonic-oscillator states centred on
the window's sublevel interval, checked by solving again with 2N states;
the basis doubles until that check passes, so the check alone sizes it.
For a polynomial V the matrix is exact and banded: V of the tridiagonal
position matrix by Horner's rule, plus the pentadiagonal kinetic term,
solved by LAPACK's symmetric band eigensolver, dsbev, in two parity blocks
when V is even. Any other V (Morse) is taken in the X-matrix discrete
variable representation (Light, Hamilton and Lill, J. Chem. Phys. 82
(1985) 1400), whose nodes and vectors come from LAPACK's
divide-and-conquer tridiagonal eigensolver, dstevd, on the truncated
position matrix. All five LAPACK routines are bound in _lapack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv, dsbev, dstebz, dstein, dstevd
from .errors import (
    BasisNotConverged,
    BisectionFailed,
    ConfigError,
    DomainTooSmall,
    GridTooLarge,
    InverseIterationFailed,
    NonCompactWindow,
    TooManyLevels,
)
from .symbols import EnergyWindow, PotentialSpec

DEFAULT_PHASE_TOL = 3e-4
DEFAULT_BISECT_TOL = 1e-11
# solve_window bisects the coarse grid's levels only to this width: they are
# dstein's shifts, and the levels themselves are Ritz values (1e-4 changed a
# Morse node count at hbar = 0.05; 1e-6 leaves the catalog's counts as they
# are with 1e-11).
_SHIFT_TOL = 1e-6
_MAX_GRID = 600_000
_MAX_BASIS = 2**25  # finest-grid basis entries, one column per window level: 256 MiB
_NODE_RESOLUTION = 1e-8
# solve_basis: N starts at _BASIS_SAFETY times the states in the phase-space
# box of the window top; _BASIS_TOL is the largest level change from N to 2N
# states it accepts, and N doubles until the change is that small, as long
# as 2N stays within _BASIS_MAX (a 32 MiB dense DVR matrix); the DVR of a
# non-polynomial V has 2N + _DVR_EXTRA_NODES nodes, and V - min V is capped
# there at _V_CEILING (top - min V).
_BASIS_SAFETY = 3.0
_BASIS_TOL = 1e-10
_BASIS_MAX = 2048
_DVR_EXTRA_NODES = 8
_V_CEILING = 100.0

# dstebz range code in scipy's wrapper for the eigenvalues in (vl, vu].
_BY_VALUE = 1


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

    The nodes are x_i = -L + i h, or (i - m) h with m = (N - 1) / 2 for an
    even V (PotentialSpec.even) on an odd N, which makes diag persymmetric
    to the last bit (_parity_blocks). When a window is supplied, V(+-L)
    must clear e2 + margin so truncation cannot push window eigenvalues
    around (DomainTooSmall otherwise).
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
    if potential.even and N % 2:
        x = h * (np.arange(N) - N // 2)  # x_i = -x_{N-1-i} to the last bit
    else:
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
    (xi_max*h/hbar)^2/12 below phase_tol; for an even V it is odd, so that
    the grids of solve_window are symmetric about 0. Raises
    NonCompactWindow when the window top is unconfined or not above the
    minimum, ConfigError when N is under the stencil's 3 points, and
    GridTooLarge when the finest of
    solve_window's three grids, 4N - 3 points, exceeds the cap or N is not
    finite. phase_tol is that bound on the coarsest grid; the default
    3e-4 leaves the Romberg levels of solve_window within about 1e-12 of
    the basis oracle's on the catalog's wells at hbar = 0.1 and 0.05.
    """
    top = window.e2 + window.margin
    if not (potential.confining_below(top) and top > potential.min_value()):
        raise NonCompactWindow(
            f"level {top:g} is not confined by, or not above the minimum of, {potential.name}"
        )
    sup_l, sup_r = potential.tail_sup()
    headroom = min(sup_l, sup_r) - top
    target = top + min(10.0 * hbar, 0.9 * headroom)
    xlo, xhi = potential.sublevel_interval(target)
    L = 1.5 * max(abs(xlo), abs(xhi))
    ximax = math.sqrt(2.0 * (top - potential.min_value()))
    h = hbar * math.sqrt(12.0 * phase_tol) / ximax
    cells = 2.0 * L / h if h > 0.0 else math.inf
    if not math.isfinite(cells):  # an overflowing landmark or an underflowing step
        raise GridTooLarge(f"grid of {cells:g} points exceeds the {_MAX_GRID} cap")
    N = int(math.ceil(cells)) + 1
    if N < 3:
        raise ConfigError(f"grid of {N} points is under the 3-point stencil; tighten phase_tol")
    N += potential.even and N % 2 == 0  # an even V's grids are symmetric about 0
    if 4 * N - 3 > _MAX_GRID:
        raise GridTooLarge(
            f"grid of {4 * N - 3} points exceeds the {_MAX_GRID} cap; relax phase_tol"
        )
    return L, N


def count_below(T: TridiagonalOperator, lam) -> np.ndarray:
    """Number of eigenvalues strictly below each shift of the array lam.

    One dstebz call per shift over (-inf, nextafter(lam, -inf)]. The
    infinite tolerance stops LAPACK right after its Sturm count, before it
    bisects any eigenvalue. Returns an int64 array of the shape of lam.
    Raises BisectionFailed if dstebz reports an error.
    """
    lams = np.asarray(lam, dtype=float)
    counts = np.empty(lams.size, dtype=np.int64)
    for j, shift in enumerate(np.nextafter(lams, -np.inf).ravel()):
        counts[j], _, _, _, info = dstebz(
            T.diag, T.offdiag, _BY_VALUE, -np.inf, shift, 0, 0, np.inf, "E"
        )
        if info != 0:
            raise BisectionFailed(
                f"dstebz could not count the eigenvalues below {lams.flat[j]!r} "
                f"(info = {info})"
            )
    return counts.reshape(lams.shape)


def eigenvalues_in(
    T: TridiagonalOperator, a: float, b: float, tol: float = DEFAULT_BISECT_TOL
) -> EigenResult:
    """All eigenvalues in (a, b), bracketed to width <= tol by Sturm bisection.

    One two-shift count_below call fixes the global indices ca .. cb-1 of
    the eigenvalues in (a, b). LAPACK dstebz then bisects every eigenvalue
    in the value range (a-, b-], the same range the counts cover, with
    absolute tolerance tol, and returns the midpoints of the final brackets.
    Both calls take the same Sturm counts at a- and b-, so the indices follow
    count_below's convention even for an eigenvalue within rounding of a or
    b. A pair split by less than tol comes back as a tie with consecutive
    indices. Raises BisectionFailed if dstebz reports an error or finds a
    different number of eigenvalues than the counts.
    """
    if not a < b:
        raise ValueError("need a < b")
    ca, cb = count_below(T, np.array([a, b]))
    m = int(cb - ca)
    if m == 0:
        return EigenResult(np.empty(0), np.empty(0, dtype=int))
    lo, hi = np.nextafter([a, b], -np.inf)
    found, w, _, _, info = dstebz(T.diag, T.offdiag, _BY_VALUE, lo, hi, 0, 0, tol, "E")
    if info != 0 or found != m:
        raise BisectionFailed(
            f"dstebz returned {found} of the {m} eigenvalues with indices "
            f"{ca}..{cb - 1} (info = {info})"
        )
    return EigenResult(w[:m], ca + np.arange(m))


def eigenvector(T: TridiagonalOperator, lam) -> np.ndarray:
    """Unit grid-norm eigenvectors at the m ascending shifts lam, as (n, m) columns.

    One LAPACK dstein call runs inverse iteration at every shift. dstein
    starts from a fixed pseudo-random vector, so repeated runs are
    identical, and orthogonalizes the vectors of close shifts against each
    other, so an unresolved doublet gives an orthonormal pair. Raises
    InverseIterationFailed if dstein reports a failure; the vectors are not
    checked against the shifts, which solve_window bisects only to
    _SHIFT_TOL (_ritz_pairs certifies the Ritz pairs of their span).
    """
    lams = np.asarray(lam, dtype=float)
    n = T.n
    z, info = dstein(
        T.diag, T.offdiag, lams, np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32)
    )
    if info != 0:
        raise InverseIterationFailed(f"dstein did not converge (info = {info})")
    for v in z.T:
        v /= math.sqrt(T.h * float(np.dot(v, v)))
    return z


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
    starts = np.r_[0, np.flatnonzero(np.diff(allowed)) + 1]
    peaks = np.maximum.reduceat(np.abs(v), starts)  # of each run of allowed or forbidden points
    return bool(np.all(peaks[allowed[starts]] >= _NODE_RESOLUTION * peaks.max()))


def _ritz_pairs(T: TridiagonalOperator, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Ritz pairs of T on the span of the m columns Z, certified, and their bound rho.

    Z may be any basis of full rank m. With L the Cholesky factor of its
    grid Gram matrix h Z^T Z, Q = sqrt(h) Z L^-T is orthonormal, so the
    ascending Ritz values theta and the eigenvectors S of
    L^-1 (h Z^T T Z) L^-T are the Rayleigh-Ritz pairs of T on that span;
    S is returned as L^-T S, so the Ritz vectors are the unit grid-norm
    columns Z S. rho is sqrt(m) times the largest unit residual
    sqrt(h) |T y - theta y| of a Ritz pair, which bounds |T Q - Q Q^T T Q|_2,
    so m eigenvalues of T lie within rho of the m Ritz values, in order
    (Parlett, The Symmetric Eigenvalue Problem, 11.5). T Z and the Ritz
    vectors are formed one column at a time: no n x m array besides Z, and
    no whole-array sum of d z z + e z z terms, whose cancellation put the
    Ritz values up to 1.4e-9 off (the quartic at hbar = 0.05; 1e-11 this
    way). InverseIterationFailed if the columns are dependent or a Ritz
    pair's residual exceeds 1e-8 ||T||.
    """
    m = Z.shape[1]
    H = np.empty((m, m))
    for j in range(m):
        H[:, j] = Z.T @ T.apply(Z[:, j])
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(T.h * (Z.T @ Z)))
    except np.linalg.LinAlgError as exc:
        raise InverseIterationFailed(f"the {m} inverse-iteration vectors are dependent") from exc
    theta, S = np.linalg.eigh(Linv @ (T.h * H) @ Linv.T)
    S = Linv.T @ S
    tol = 1e-8 * (float(np.max(np.abs(T.diag))) + 2.0 * float(np.max(np.abs(T.offdiag))))
    worst = 0.0
    for j in range(m):
        y = Z @ S[:, j]
        resid = math.sqrt(T.h) * float(np.linalg.norm(T.apply(y) - theta[j] * y))
        if not resid <= tol:
            raise InverseIterationFailed(
                f"Ritz pair {j} of {m} at {theta[j]:.17g} has residual {resid:.3g} "
                f"(tolerance {tol:.3g})"
            )
        worst = max(worst, resid)
    return theta, S, math.sqrt(m) * worst


def _inverse_step(T: TridiagonalOperator, Z: np.ndarray, shifts: np.ndarray) -> None:
    """One step of inverse iteration on each column of Z, in place.

    Column j becomes the solution x of (T - shifts[j]) x = z_j, by LAPACK's
    dgtsv (Gaussian elimination with partial pivoting) on the column itself:
    Z must be Fortran-ordered for dgtsv to solve in place. The columns are
    left unnormalized, a basis for _ritz_pairs. Raises
    InverseIterationFailed if a solve meets an exactly singular pivot.
    """
    for j in range(Z.shape[1]):
        *_, info = dgtsv(T.offdiag, T.diag - shifts[j], T.offdiag, Z[:, j : j + 1], overwrite_b=1)
        if info != 0:
            raise InverseIterationFailed(
                f"dgtsv met a singular pivot at shift {float(shifts[j])!r} (info = {info})"
            )


@dataclass(frozen=True)
class OracleRun:
    """Romberg-extrapolated window eigenvalues with the coarsest grid's node counts.

    node_counts and resolved follow result.indices and come from the
    coarsest grid's Ritz vectors; grid_sizes are the three nested grids;
    floor_estimate is the largest change of a level from the finer
    Richardson value to the Romberg one, at least 10 * DEFAULT_BISECT_TOL;
    ritz_residual is the largest of the bounds rho that certified the
    grids' levels. parities is None when the whole grids were solved, and
    for an even V, solved in parity blocks, it holds the parity (-1)^index
    of each level's eigenvector, +1 even and -1 odd.
    """

    result: EigenResult
    node_counts: tuple[int, ...]
    resolved: tuple[bool, ...]
    L: float
    grid_sizes: tuple[int, int, int]
    floor_estimate: float
    ritz_residual: float
    parities: tuple[int, ...] | None = None


def _parity_blocks(T: TridiagonalOperator) -> tuple[TridiagonalOperator, TridiagonalOperator]:
    """The even and odd blocks of T on 2m + 1 nodes with a persymmetric diag.

    T commutes with the reflection v_i -> v_{2m-i}. In the orthonormal
    coordinates u_0 = v_m, u_k = sqrt(2) v_{m+k} of its even vectors, and
    u_k = sqrt(2) v_{m+1+k} of its odd ones (v_m = 0), it is the direct sum
    of the even block, diag[m:] with its first off-diagonal entry times
    sqrt(2), and the odd block, diag[m+1:]. The grid norm h |u|^2 is that of
    v, so each block is solved as a grid of step h. By Sturm oscillation
    eigenvector n of a Jacobi matrix has n sign changes and parity (-1)^n:
    level k of the even block is T's level 2k, of the odd block 2k + 1.
    """
    m = T.n // 2
    first = T.offdiag[m:].copy()
    first[0] *= math.sqrt(2.0)
    even = TridiagonalOperator(T.diag[m:], first, T.L, m + 1, T.h, T.hbar)
    odd = TridiagonalOperator(T.diag[m + 1 :], T.offdiag[m + 1 :], T.L, m, T.h, T.hbar)
    return even, odd


def _index(k, parity):
    """Global index of level k of a ladder: the whole grids' (parity None) or a block's."""
    return k if parity is None else 2 * k + (parity < 0)


def _grid_name(T: TridiagonalOperator, parity) -> str:
    if parity is None:
        return f"{T.n}-point grid"
    kind, full = ("even", 2 * T.n - 1) if parity > 0 else ("odd", 2 * T.n + 1)
    return f"{kind} block of the {full}-point grid"


def _prolong(Zc: np.ndarray, parity) -> np.ndarray:
    """The columns Zc of a grid, or a block, on the one that halves its step.

    The finer grid's even nodes are the grid's nodes and its midpoints take
    the mean of their neighbours; in a block's coordinates (_parity_blocks)
    that is the same but for the first fine node: (sqrt(2) u_0 + u_1) / 2 in
    the even block, and u_0 / 2, midway to the zero at the centre, in the
    odd block, whose coarse nodes are the fine block's odd nodes. The
    result is Fortran-ordered, as _inverse_step needs.
    """
    n, m = Zc.shape
    odd = parity is not None and parity < 0
    Z = np.empty((2 * n if odd else 2 * n - 1, m), order="F")
    Z[odd::2] = Zc
    mid = Z[1 + odd :: 2]
    np.add(Zc[:-1], Zc[1:], out=mid)
    mid *= 0.5
    if odd:
        Z[0] = 0.5 * Zc[0]
    elif parity is not None:
        Z[1] = 0.5 * (math.sqrt(2.0) * Zc[0] + Zc[1])
    return Z


def _unfold(z: np.ndarray, parity) -> np.ndarray:
    """A block's vector z as the whole grid's (_parity_blocks); a grid's as it is."""
    if parity is None:
        return z
    if parity > 0:
        side = z[1:] / math.sqrt(2.0)
        return np.concatenate([side[::-1], z[:1], side])
    side = z / math.sqrt(2.0)
    return np.concatenate([-side[::-1], [0.0], side])


def _refine(
    Tc: TridiagonalOperator,
    Zc: np.ndarray,
    levels: np.ndarray,
    T: TridiagonalOperator,
    lo: float,
    hi: float,
    parity=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Ritz pairs of T, the grid (block) that halves Tc's step, from Tc's Ritz pairs.

    Zc holds Tc's unit grid-norm Ritz vectors, column j at its Ritz value
    levels[j]. Zc is prolonged to T (_prolong), and one step of inverse
    iteration per column (_inverse_step) gives the basis Z. The
    shift of column j is levels[j] moved by the stencil's leading error:
    the 3-point stencil adds -(hbar^2 h^2 / 24) d^4/dx^4 to the operator,
    and psi'' = 2 (V - E) psi / hbar^2, so a level E of Tc lies about
    h^2 <(V - E)^2> / (6 hbar^2) below its limit and 3/4 of that below T's,
    with <.> the mean over its Ritz vector's density. (At the default
    phase_tol, shifts at the bare levels would leave the bound rho of T's
    Ritz pairs at 1e-8 to 1.7e-6 on the catalog's wells, since one step
    damps a neighbour outside the window only by the shift's O(h^2) offset
    over its distance; these leave rho under 5e-10 down to hbar = 0.025.)

    Returns the Ritz values theta of T on the span of Z, Z and the Ritz
    coefficients S (_ritz_pairs), and the bound rho. When the count of T in
    (lo, hi) leaves room for exactly Z.shape[1] eigenvalues, every theta
    more than rho inside (lo, hi) makes them those eigenvalues, each to
    within rho; InverseIterationFailed otherwise.
    """
    m = Zc.shape[1]
    d = (Tc.potential_values()[:, None] - levels) * Zc
    shifts = levels + Tc.h**3 * np.sum(d * d, axis=0) / (8.0 * Tc.hbar**2)
    del d
    Z = _prolong(Zc, parity)
    _inverse_step(T, Z, shifts)
    theta, S, rho = _ritz_pairs(T, Z)
    if m and not (lo + rho < theta[0] and theta[-1] < hi - rho):
        raise InverseIterationFailed(
            f"Ritz values {theta[0]:.17g}..{theta[-1]:.17g} of the {_grid_name(T, parity)} are "
            f"not inside ({lo:.17g}, {hi:.17g}) by the residual bound {rho:.3g}"
        )
    return theta, Z, S, rho


def _ladder_levels(grids, parity, full: TridiagonalOperator, ca: int, cb: int, a, b):
    """Levels ca..cb-1 of a ladder, three nested grids or their blocks, on each grid.

    Returns E1, E2, E3, the coarsest grid's node counts and resolved flags,
    read from its Ritz vectors unfolded onto full, the coarsest whole grid,
    and the largest bound rho (solve_window).
    """
    Tc, T2, T3 = grids
    pad = 0.01 * (b - a)
    coarse = eigenvalues_in(Tc, a - 2 * pad, b + 2 * pad, tol=_SHIFT_TOL)
    first = int(coarse.indices[0]) if coarse.indices.size else ca
    if cb > ca and not first <= ca <= cb <= first + coarse.indices.size:
        raise BisectionFailed(
            f"the levels {_index(first, parity)}..{_index(first + coarse.indices.size - 1, parity)}"
            f" of the coarse {_grid_name(Tc, parity)} do not cover the finer grids' "
            f"{_index(ca, parity)}..{_index(cb - 1, parity)}"
        )
    Zc = eigenvector(Tc, coarse.eigenvalues[ca - first : cb - first])
    E1, S, rho1 = _ritz_pairs(Tc, Zc)
    Zc = Zc @ S
    nodes, resolved = [], []
    for z, e in zip(Zc.T, E1):
        v = _unfold(z, parity)
        nodes.append(node_count(v))
        resolved.append(nodes_resolved(v, full, e))
    E2, Z, S, rho2 = _refine(Tc, Zc, E1, T2, a - pad, b + pad, parity)
    del Zc
    Z = Z @ S
    E3, *_, rho3 = _refine(T2, Z, E2, T3, a - pad, b + pad, parity)
    return E1, E2, E3, nodes, resolved, max(rho1, rho2, rho3)


def solve_window(
    potential: PotentialSpec,
    window: EnergyWindow,
    hbar: float,
    *,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> OracleRun:
    """Window eigenvalues with the O(h^2) and O(h^4) errors removed by Romberg.

    The window levels are found on the nested grids N, 2N - 1 and 4N - 3 of
    domain_auto, which raises GridTooLarge before any grid is built if the
    finest one exceeds the cap, and matched by global index. With E1, E2,
    E3 a level on the three grids, r1 = (4 E2 - E1) / 3 and
    r2 = (4 E3 - E2) / 3 cancel the O(h^2) term and (16 r2 - r1) / 15 the
    O(h^4) one (the stencil's error is even in h for a smooth V); the
    largest |(16 r2 - r1) / 15 - r2| is the floor_estimate.

    The three grids form one ladder, or for an even V (PotentialSpec.even),
    whose grids are symmetric about 0, two: their even blocks and their odd
    blocks (_parity_blocks), each of about half the size, whose level k is
    the global index 2k and 2k + 1. The same steps run on each ladder. With
    pad = 1 % of the window, one count_below on each finer grid at
    (e1 - pad, e2 + pad) fixes the indices ca .. cb-1, the same on both,
    and only then, once every ladder is counted, eigenvalues_in bisects the
    coarsest levels in (e1 - 2 pad, e2 + 2 pad) to _SHIFT_TOL. One
    eigenvector call on the coarsest grid at the shifts of those indices
    spans its window subspace, and Rayleigh-Ritz on it (_ritz_pairs) gives
    the coarsest levels and their Ritz vectors Zc, column j at level j.
    Each finer grid takes the Ritz pairs of the grid below through _refine:
    prolongation, one dgtsv step per level shifted by that grid's level
    moved by the stencil's leading error, and Rayleigh-Ritz, its Ritz
    values certified as the eigenvalues ca .. cb-1 of its grid.

    Raises TooManyLevels before the bisection if the finest grid's basis,
    one column per index, would hold over _MAX_BASIS entries,
    BisectionFailed if the two finer grids count different indices, the
    two blocks' indices do not interleave, or the coarsest levels miss one
    of them, and InverseIterationFailed if the columns of a basis are
    dependent, a Ritz pair's residual exceeds its certificate, a solve
    fails, or a finer grid's Ritz value is not more than rho inside
    (e1 - pad, e2 + pad). node_counts and resolved are read from the
    columns of Zc, unfolded onto the whole grid. A block has no doublet, so
    each of its levels carries its own node count, its index; on the whole
    grids of an uneven V, a pair split below rounding, whose Ritz vectors
    are any orthonormal basis of its span, may not. The levels are sorted
    with their indices in order, so the two levels of a doublet that tie to
    rounding may trade values, never node counts or parities.
    """
    a, b = window.e1, window.e2
    L, N = domain_auto(potential, window, hbar, phase_tol=phase_tol)
    sizes = (N, 2 * N - 1, 4 * N - 3)
    pad = 0.01 * (b - a)
    lo, hi = a - pad, b + pad
    grids = [discretize(potential, hbar, L, n, window=window) for n in sizes]
    if potential.even:
        even, odd = zip(*map(_parity_blocks, grids))
        ladders = [(even, 1), (odd, -1)]
    else:
        ladders = [(grids, None)]
    spans = []
    for (_, T2, T3), parity in ladders:
        ca, cb = count_below(T2, [lo, hi]).tolist()
        fa, fb = count_below(T3, [lo, hi]).tolist()
        if (fa, fb) != (ca, cb):
            raise BisectionFailed(
                f"the {_grid_name(T2, parity)} and the {_grid_name(T3, parity)} count the levels "
                f"{_index(ca, parity)}..{_index(cb - 1, parity)} and "
                f"{_index(fa, parity)}..{_index(fb - 1, parity)} in ({lo:.17g}, {hi:.17g})"
            )
        spans.append((ca, cb))
    indices = np.concatenate([_index(np.arange(*span), p) for span, (_, p) in zip(spans, ladders)])
    m = indices.size
    if sizes[2] * m > _MAX_BASIS:
        basis = f"{m} window levels on the {sizes[2]}-point grid, {sizes[2] * m} basis entries"
        raise TooManyLevels(f"{basis}, over the {_MAX_BASIS} cap")
    order = np.argsort(indices, kind="stable")
    if m and not np.array_equal(indices[order], indices[order[0]] + np.arange(m)):
        raise BisectionFailed(
            f"the even and odd blocks count the levels {sorted(indices.tolist())}, not a run"
        )
    solved = [
        _ladder_levels(ladder, parity, grids[0], *span, a, b)
        for span, (ladder, parity) in zip(spans, ladders)
    ]
    E1, E2, E3 = (np.concatenate([s[i] for s in solved])[order] for i in range(3))
    nodes, resolved = ([x for s in solved for x in s[i]] for i in (3, 4))
    r1, r2 = (4.0 * E2 - E1) / 3.0, (4.0 * E3 - E2) / 3.0
    rom = (16.0 * r2 - r1) / 15.0
    # Sorted: a doublet whose levels tie to rounding can swap order here.
    ext = np.sort(rom)
    keep = np.flatnonzero((ext >= a) & (ext <= b))
    kept = order[keep]
    return OracleRun(
        result=EigenResult(eigenvalues=ext[keep], indices=indices[kept]),
        node_counts=tuple(nodes[k] for k in kept),
        resolved=tuple(resolved[k] for k in kept),
        L=L,
        grid_sizes=sizes,
        floor_estimate=max(10.0 * DEFAULT_BISECT_TOL, float(np.max(np.abs(rom - r2), initial=0))),
        ritz_residual=max(s[5] for s in solved),
        parities=tuple((1 - 2 * (indices[kept] % 2)).tolist()) if potential.even else None,
    )


@dataclass(frozen=True)
class BasisRun:
    """Window eigenvalues of the finer basis and their change from the coarser one."""

    result: EigenResult
    basis_sizes: tuple[int, int]
    basis_residual: float

    @property
    def floor_estimate(self) -> float:
        return max(10.0 * DEFAULT_BISECT_TOL, self.basis_residual)


def _polynomial_band(terms, x0: float, s: float, q: int, width: int) -> np.ndarray:
    """V(x0 + s X) on the first q oscillator states, by Horner's rule, as diagonals.

    X = (a + a^+)/sqrt(2) is the tridiagonal position matrix and terms are
    V's ascending coefficients. Row j of the returned (width + 1, q) array
    holds subdiagonal j, entry i being the matrix element (i + j, i); width
    is at least the degree. Each Horner step R -> R Y + c, with Y = x0 +
    s X, updates every diagonal at once; R Y is symmetric since R is a
    polynomial in Y. The entries of the q-state truncation are exact where
    no path of the product leaves the q states: for rows and columns below
    q - deg / 2.
    """
    e = s * np.sqrt(0.5 * np.arange(1, q))
    R = np.zeros((width + 1, q))
    R[0] = terms[-1]
    for c in terms[-2::-1]:
        # (R Y)[i + j, i] = R[i + j, i - 1] e[i - 1] + R[i + j, i] x0 + R[i + j, i + 1] e[i],
        # the last term from subdiagonal j - 1, or for j = 0 from R[i + 1, i].
        RY = x0 * R
        RY[:-1, 1:] += R[1:, :-1] * e
        RY[1:, :-1] += R[:-1, 1:] * e
        RY[0, :-1] += R[1, :-1] * e
        if c:
            RY[0] += c
        R = RY
    return R


def _band_levels(diagonals, m: int) -> np.ndarray:
    """Ascending eigenvalues of the symmetric m x m band whose subdiagonal j starts diagonals[j].

    LAPACK's dsbev gets the matrix with its index order reversed, in lower
    band storage, so its reduction to tridiagonal form starts at the end of
    large V (on the sextic at hbar = 0.2 with 512 states the natural order
    left the levels 1.9e-12 off the Sturm oracle's, the reversed one
    1.8e-13). Raises BasisNotConverged if dsbev reports an error.
    """
    ab = np.zeros((min(len(diagonals), m), m))
    for j, row in enumerate(ab):
        row[: m - j] = diagonals[j][m - j - 1 :: -1]
    w, _, info = dsbev(ab, compute_v=0, lower=1)
    if info != 0:
        raise BasisNotConverged(f"dsbev failed on the {m}-state band matrix (info = {info})")
    return w


def solve_basis(potential: PotentialSpec, window: EnergyWindow, hbar: float) -> BasisRun:
    """Window eigenvalues by Rayleigh-Ritz in a harmonic-oscillator basis.

    The basis is centred at the middle x_c of the sublevel interval at the
    window top e2 + margin, with frequency omega = xi_max / half-width so
    its ellipses have the aspect of that level set's box. N starts at
    _BASIS_SAFETY times the box area over 2 pi hbar.
    xi^2/2 is pentadiagonal in closed form. A polynomial V of degree d is
    exact and banded: _polynomial_band builds V(x_c + sqrt(hbar/omega) X) on
    size + d states by Horner's rule and keeps the leading size x size
    block, of half-bandwidth max(d, 2), and dsbev solves it (_band_levels).
    For an even V, x_c is 0 and states of even and odd index do not couple,
    so the even-index and odd-index blocks are solved apart and their
    levels merged. Any other V is the X-matrix DVR, with the
    Q = 2N + _DVR_EXTRA_NODES nodes y and vectors U of the truncated
    position matrix (one dstevd call per matrix size) giving
    V_mn = sum_q U_mq V(x_c + y_q) U_nq, the Gauss-Hermite quadrature of
    the matrix elements, and the dense matrix is solved by eigvalsh. V is
    capped there at _V_CEILING times the window's height above the minimum:
    only nodes deep in the forbidden region reach the cap, where window
    states are negligible, and the cap keeps the matrix norm, hence the
    rounding of the eigensolve, small (a Morse wall otherwise reaches 1e9
    at the outer nodes). The 2N-state matrix and its leading
    N x N block are solved; Ritz values bound the true ones from above, so a
    level's global index is its rank. basis_residual is the largest change
    from N to 2N states over every level up to the first one above the
    window, so an unconverged level can neither shift the ranks nor drop
    out of the window. While it exceeds _BASIS_TOL, the basis doubles: the
    2N levels become the coarse ones and a 4N-state matrix is solved. The
    result holds the finer level's eigenvalues in [e1, e2], basis_sizes the
    last pair of sizes; when the next finer size would exceed _BASIS_MAX,
    a change still over _BASIS_TOL raises BasisNotConverged naming that
    pair, as does a LAPACK failure. The first N to 2N solve always runs.
    """
    top = window.e2 + window.margin
    xlo, xhi = potential.sublevel_interval(top)
    half = 0.5 * (xhi - xlo)
    vmin = potential.min_value()
    ximax = math.sqrt(2.0 * (top - vmin))
    omega = ximax / half
    n = math.ceil(_BASIS_SAFETY * 4.0 * half * ximax / (2.0 * math.pi * hbar))
    terms = potential.terms
    even = terms is not None and potential.even
    x_c = 0.0 if even else 0.5 * (xlo + xhi)

    def kinetic(size):
        # xi^2/2 = (hbar omega / 2) p^2, with p^2 = a^+ a + 1/2 - (a^2 + a^+^2)/2:
        # its diagonal and its second subdiagonal.
        k = np.arange(size)
        diag = 0.5 * hbar * omega * (k + 0.5)
        return diag, -0.25 * hbar * omega * np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0))

    if terms is None:

        def hamiltonian(size):
            q = size + _DVR_EXTRA_NODES
            nodes, U, info = dstevd(np.zeros(q), np.sqrt(0.5 * np.arange(1, q)))
            if info != 0:
                raise BasisNotConverged(
                    f"dstevd failed on the {q}-node DVR position matrix (info = {info})"
                )
            v = potential.value(x_c + math.sqrt(hbar / omega) * nodes) - vmin
            # The rows of U are orthonormal, so V = vmin + W W^T with W = U sqrt(V - vmin).
            W = U[:size] * np.sqrt(np.clip(v, 0.0, _V_CEILING * (top - vmin)))
            H = W @ W.T
            diag, band = kinetic(size)
            k = np.arange(size)
            H[k, k] += vmin + diag
            H[k[:-2], k[2:]] += band
            H[k[2:], k[:-2]] += band
            return H

        def levels(H, m):
            return np.linalg.eigvalsh(H[:m, :m])

    else:
        degree = len(terms) - 1

        def hamiltonian(size):
            # Subdiagonal j in row j, as _polynomial_band returns it.
            H = _polynomial_band(terms, x_c, math.sqrt(hbar / omega), size + degree, max(degree, 2))
            H = H[:, :size]
            diag, band = kinetic(size)
            H[0] += diag
            H[2, :-2] += band
            return H

        def levels(H, m):
            if not even:
                return _band_levels(H, m)
            blocks = [_band_levels(H[::2, i::2], (m + 1 - i) // 2) for i in (0, 1) if i < m]
            return np.sort(np.concatenate(blocks))

    def residual(coarse, fine):
        top_rank = int(np.searchsorted(fine, window.e2, side="right"))
        if top_rank >= len(coarse):
            return math.inf
        return float(np.max(np.abs(fine[: top_rank + 1] - coarse[: top_rank + 1])))

    H = hamiltonian(2 * n)
    coarse, fine = levels(H, n), levels(H, 2 * n)
    del H
    change = residual(coarse, fine)
    while not change <= _BASIS_TOL and 2 * len(fine) <= _BASIS_MAX:
        size = 2 * len(fine)
        coarse, fine = fine, levels(hamiltonian(size), size)
        change = residual(coarse, fine)
    if not change <= _BASIS_TOL:
        raise BasisNotConverged(
            f"window levels moved by {change:.3g} from {len(coarse)} to {len(fine)} oscillator "
            f"states at hbar={hbar:g} (tolerance {_BASIS_TOL:g})"
        )
    indices = np.nonzero((fine >= window.e1) & (fine <= window.e2))[0]
    return BasisRun(EigenResult(fine[indices], indices), (len(coarse), len(fine)), change)
