"""Direct Schrodinger ground truth: the oscillator-basis oracle.

solve_basis gives the window levels of -(hbar^2/2) d^2/dx^2 + V and their
global indices, for `ebk run` and for convergence_study. It is
Rayleigh-Ritz in the first N harmonic-oscillator states centred on the
window's sublevel interval, checked by solving again with 2N states; the
basis doubles until that check passes, so the check alone sizes it. For a
polynomial V the matrix is exact and banded: V of the tridiagonal position
matrix by Horner's rule, plus the pentadiagonal kinetic term, solved by
LAPACK's symmetric band eigensolver, dsbev, in two parity blocks when V is
even. Any other V (Morse) is taken in the X-matrix discrete variable
representation (Light, Hamilton and Lill, J. Chem. Phys. 82 (1985) 1400),
whose nodes and vectors come from LAPACK's divide-and-conquer tridiagonal
eigensolver, dstevd, on the truncated position matrix.

basis_nodes gives their node counts, which `ebk run` checks against their
indices (Sturm oscillation): the window eigenvectors of the final basis,
by index range from LAPACK's dsbevx or from the dense DVR matrix, are
evaluated by the Hermite-function recurrence on a grid over the sublevel
interval. Every matrix is counted against one cap on the floats the
oracle stores before it is allocated. LAPACK is bound in _lapack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dsbev, dsbevx, dstevd
from .errors import BasisNotConverged, NonCompactWindow, TooManyLevels
from .symbols import EnergyWindow, PotentialSpec

# Floats one oracle solve may store: its matrix, and for basis_nodes also the
# dense reduction, the window vectors and the evaluation table (256 MiB).
_MAX_ENTRIES = 2**25
_NODE_RESOLUTION = 1e-8
# The least floor_estimate: the basis residual of an exact basis is 0.
_FLOOR_MIN = 1e-10
# solve_basis: N starts at _BASIS_SAFETY times the states in the phase-space
# box of the window top; _BASIS_TOL is the largest level change from N to 2N
# states it accepts, and N doubles until the change is that small; the DVR
# of a non-polynomial V has 2N + _DVR_EXTRA_NODES nodes, and V - min V is
# capped there at _V_CEILING (top - min V).
_BASIS_SAFETY = 3.0
_BASIS_TOL = 1e-10
_DVR_EXTRA_NODES = 8
_V_CEILING = 100.0
# basis_nodes: the grid spans the sublevel interval widened by _SPAN of its
# half-width on each side (twice that reaches far tails, where the basis
# leaves noise of about 1e-11 of the peak: 12 false nodes on the three-well
# sextic at hbar = 0.1), with _POINTS_PER_NODE points per least half-wavelength
# pi hbar / xi_max; the Hermite functions are evaluated _ROW_BLOCK at a time.
_SPAN = 0.3
_POINTS_PER_NODE = 4
_ROW_BLOCK = 64


@dataclass(frozen=True)
class EigenResult:
    """Sorted eigenvalues with their global spectral indices."""

    eigenvalues: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # Ties are allowed: the discrete spectrum is simple, but a doublet
        # split below rounding resolves to equal floats.
        if self.eigenvalues.size > 1 and np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted")


@dataclass(frozen=True)
class BasisRun:
    """Window eigenvalues of the finer basis and their change from the coarser one."""

    result: EigenResult
    basis_sizes: tuple[int, int]
    basis_residual: float

    @property
    def floor_estimate(self) -> float:
        return max(_FLOOR_MIN, self.basis_residual)


def node_count(v: np.ndarray) -> int:
    """Strict sign changes, ignoring entries below 1e-12 of the peak."""
    v = np.asarray(v, dtype=float)
    if v.size == 0 or not np.any(v != 0.0):
        raise ValueError("vector must be nonzero")
    kept = v[np.abs(v) >= 1e-12 * float(np.max(np.abs(v)))]
    signs = np.sign(kept)
    return int(np.sum(signs[1:] != signs[:-1]))


def nodes_resolved(v: np.ndarray, potential_values: np.ndarray, energy: float) -> bool:
    """Whether v reaches _NODE_RESOLUTION of its peak in every allowed interval.

    The intervals are the runs of grid points with V < energy, where an
    eigenfunction oscillates. A state that tunnels into one of them by less
    (a deep well of a multi-well potential, or a multiplet split below
    rounding) has nodes there that its computed vector need not show: the
    vector's coefficients are good to about eps ||H|| / gap, so node_count
    is only meaningful for a resolved v.
    """
    allowed = potential_values < energy
    starts = np.r_[0, np.flatnonzero(np.diff(allowed)) + 1]
    peaks = np.maximum.reduceat(np.abs(v), starts)  # of each run of allowed or forbidden points
    return bool(np.all(peaks[allowed[starts]] >= _NODE_RESOLUTION * peaks.max()))


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


def _lower_band(diagonals, m: int) -> np.ndarray:
    """The m x m band whose subdiagonal j starts diagonals[j], in LAPACK's lower
    band storage with its index order reversed.

    Reversed, the reduction to tridiagonal form starts at the end of large V
    (on the sextic at hbar = 0.2 with 512 states the natural order left the
    levels 1.9e-12 off a 3-point-stencil reference, the reversed one 1.8e-13).
    """
    ab = np.zeros((min(len(diagonals), m), m))
    for j, row in enumerate(ab):
        row[: m - j] = diagonals[j][m - j - 1 :: -1]
    return ab


def _band_levels(diagonals, m: int) -> np.ndarray:
    """Ascending eigenvalues of the band (_lower_band) by dsbev; BasisNotConverged if it fails."""
    w, _, info = dsbev(_lower_band(diagonals, m), compute_v=0, lower=1)
    if info != 0:
        raise BasisNotConverged(f"dsbev failed on the {m}-state band matrix (info = {info})")
    return w


def _band_vectors(diagonals, m: int, lo: int, hi: int) -> np.ndarray:
    """Eigenvectors lo .. hi - 1 of the band (_lower_band), as columns in the natural order.

    dsbevx finds them by index range, bisecting their eigenvalues to twice
    the safe minimum, LAPACK's most accurate tolerance; BasisNotConverged if
    it fails or returns another number of vectors.
    """
    ab, tol = _lower_band(diagonals, m), 2.0 * np.finfo(float).tiny
    _, z, found, _, info = dsbevx(ab, 0.0, 0.0, lo + 1, hi, range=2, lower=1, abstol=tol)
    if info != 0 or found != hi - lo:
        raise BasisNotConverged(
            f"dsbevx returned {found} of the eigenvectors {lo}..{hi - 1} of the {m}-state "
            f"band matrix (info = {info})"
        )
    return z[::-1, :found]


class _Basis:
    """The oscillator basis of a window at hbar, and the Hamiltonian on its first states.

    The basis is centred at the middle x_c of the sublevel interval at the
    window top e2 + margin, with frequency omega = xi_max / half-width so
    its ellipses have the aspect of that level set's box, and length
    s = sqrt(hbar / omega). n, the coarse size of the first N to 2N solve,
    is _BASIS_SAFETY times the box area over 2 pi hbar. For an even
    polynomial V, x_c is 0 and states of even and odd index do not couple,
    so its even-index and odd-index blocks are solved apart (blocks).
    Raises NonCompactWindow when the window top is not above the minimum of
    V or not confined by it, and TooManyLevels when the first solve's
    matrix would store over _MAX_ENTRIES floats.
    """

    def __init__(self, potential: PotentialSpec, window: EnergyWindow, hbar: float):
        self.top = top = window.e2 + window.margin
        self.vmin = vmin = potential.min_value()
        xlo = xhi = 0.0
        if top > vmin:
            xlo, xhi = potential.sublevel_interval(top)
        if not xhi > xlo:  # the top at or under the minimum, to rounding
            raise NonCompactWindow(f"level {top:g} is not above the minimum of {potential.name}")
        self.xlo, self.xhi = xlo, xhi
        half = 0.5 * (xhi - xlo)
        self.ximax = ximax = math.sqrt(2.0 * (top - vmin))
        self.omega = ximax / half
        self.hbar = hbar
        self.potential = potential
        self.terms = potential.terms
        self.blocks = self.terms is not None and potential.even
        self.x_c = 0.0 if self.blocks else 0.5 * (xlo + xhi)
        states = _BASIS_SAFETY * 4.0 * half * ximax / (2.0 * math.pi * hbar)
        if not states <= _MAX_ENTRIES:  # an overflowing or subnormal hbar included
            raise TooManyLevels(f"an oscillator basis of {states:.3g} states at hbar={hbar:g}")
        self.n = math.ceil(states)
        self.check(2 * self.n)

    def check(self, size: int, vectors: int = 0, points: int = 0) -> None:
        """TooManyLevels unless the size-state matrix, and for vectors window vectors
        on points grid points their dense reduction and evaluation, fit under _MAX_ENTRIES.

        Building the matrix holds three arrays of its size at once: the
        DVR's U, W and H, or Horner's R, R Y and a product (_polynomial_band).
        """
        if self.terms is None:
            entries = 3 * (size + _DVR_EXTRA_NODES) ** 2
        else:
            degree = len(self.terms) - 1
            entries = 3 * (max(degree, 2) + 1) * (size + degree)
        if vectors:
            dense = (size + 1) // 2 if self.blocks else size
            entries += dense * dense + (size + points) * vectors + _ROW_BLOCK * points
        if entries > _MAX_ENTRIES:
            what = f" and {vectors} eigenfunctions on {points} points" if vectors else ""
            raise TooManyLevels(
                f"the {size}-state oscillator basis at hbar={self.hbar:g}{what} would store "
                f"{entries} floats, over the {_MAX_ENTRIES} cap"
            )

    def matrix(self, size: int) -> np.ndarray:
        """H on the first size states: its diagonals (_polynomial_band) for a polynomial V.

        A polynomial V of degree d is built on size + d states by Horner's
        rule, exact in the leading size x size block, of half-bandwidth
        max(d, 2). Any other V is the dense X-matrix DVR, whose
        Q = size + _DVR_EXTRA_NODES nodes y and vectors U of the truncated
        position matrix (one dstevd call) give V_mn = sum_q U_mq V(x_c +
        s y_q) U_nq, the Gauss-Hermite quadrature of the matrix elements. V
        is capped there at _V_CEILING times the window's height above the
        minimum: only nodes deep in the forbidden region reach the cap,
        where window states are negligible, and the cap keeps the matrix
        norm, hence the rounding of the eigensolve, small (a Morse wall
        otherwise reaches 1e9 at the outer nodes).
        """
        hbar, omega = self.hbar, self.omega
        # xi^2/2 = (hbar omega / 2) p^2, with p^2 = a^+ a + 1/2 - (a^2 + a^+^2)/2:
        # its diagonal and its second subdiagonal.
        k = np.arange(size)
        diag = 0.5 * hbar * omega * (k + 0.5)
        band = -0.25 * hbar * omega * np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0))
        s = math.sqrt(hbar / omega)
        if self.terms is None:
            q = size + _DVR_EXTRA_NODES
            nodes, U, info = dstevd(np.zeros(q), np.sqrt(0.5 * np.arange(1, q)))
            if info != 0:
                raise BasisNotConverged(
                    f"dstevd failed on the {q}-node DVR position matrix (info = {info})"
                )
            v = self.potential.value(self.x_c + s * nodes) - self.vmin
            # The rows of U are orthonormal, so V = vmin + W W^T with W = U sqrt(V - vmin).
            W = U[:size] * np.sqrt(np.clip(v, 0.0, _V_CEILING * (self.top - self.vmin)))
            H = W @ W.T
            H[k, k] += self.vmin + diag
            H[k[:-2], k[2:]] += band
            H[k[2:], k[:-2]] += band
            return H
        degree = len(self.terms) - 1
        H = _polynomial_band(self.terms, self.x_c, s, size + degree, max(degree, 2))[:, :size]
        H[0] += diag
        H[2, :-2] += band
        return H

    def levels(self, H: np.ndarray, m: int) -> np.ndarray:
        """Ascending eigenvalues of the leading m x m block of H (matrix)."""
        if self.terms is None:
            return np.linalg.eigvalsh(H[:m, :m])
        if not self.blocks:
            return _band_levels(H, m)
        blocks = [_band_levels(H[::2, i::2], (m + 1 - i) // 2) for i in (0, 1) if i < m]
        return np.sort(np.concatenate(blocks))

    def vectors(self, H: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Eigenvectors of H (matrix) at the ascending run of global indices, as columns.

        In parity blocks, level k of the even-index block is the global
        level 2k and of the odd-index block 2k + 1, and each block's
        vectors fill its own rows.
        """
        size = H.shape[-1]
        if self.terms is None:
            return np.linalg.eigh(H)[1][:, indices]
        if not self.blocks:
            return _band_vectors(H, size, indices[0], indices[-1] + 1)
        C = np.zeros((size, indices.size))
        for i in (0, 1):
            cols = np.flatnonzero(indices % 2 == i)
            k = indices[cols] // 2
            if cols.size:
                C[i::2, cols] = _band_vectors(H[::2, i::2], (size + 1 - i) // 2, k[0], k[-1] + 1)
        return C


def check_basis_size(potential: PotentialSpec, window: EnergyWindow, hbar: float) -> None:
    """Raise what solve_basis raises before its first matrix: TooManyLevels over the cap (_Basis)."""
    _Basis(potential, window, hbar)


def solve_basis(potential: PotentialSpec, window: EnergyWindow, hbar: float) -> BasisRun:
    """Window eigenvalues by Rayleigh-Ritz in a harmonic-oscillator basis (_Basis).

    The 2N-state matrix and its leading N x N block are solved; Ritz values
    bound the true ones from above, so a level's global index is its rank.
    basis_residual is the largest change from N to 2N states over every
    level up to the first one above the window, so an unconverged level can
    neither shift the ranks nor drop out of the window. While it exceeds
    _BASIS_TOL, the basis doubles: the 2N levels become the coarse ones and
    a 4N-state matrix is solved. The result holds the finer level's
    eigenvalues in [e1, e2], basis_sizes the last pair of sizes. Every
    matrix is checked against the cap before it is built: TooManyLevels
    names the size that would exceed it, and the change so far after a
    first solve. BasisNotConverged if a LAPACK eigensolve fails.
    """
    basis = _Basis(potential, window, hbar)
    n = basis.n

    def residual(coarse, fine):
        top_rank = int(np.searchsorted(fine, window.e2, side="right"))
        if top_rank >= len(coarse):
            return math.inf
        return float(np.max(np.abs(fine[: top_rank + 1] - coarse[: top_rank + 1])))

    H = basis.matrix(2 * n)
    coarse, fine = basis.levels(H, n), basis.levels(H, 2 * n)
    del H
    change = residual(coarse, fine)
    while not change <= _BASIS_TOL:
        size = 2 * len(fine)
        try:
            basis.check(size)
        except TooManyLevels as exc:
            moved = f"window levels moved by {change:.3g} from {len(coarse)} to {len(fine)}"
            raise TooManyLevels(f"{moved} oscillator states, and {exc}") from None
        coarse, fine = fine, basis.levels(basis.matrix(size), size)
        change = residual(coarse, fine)
    indices = np.nonzero((fine >= window.e1) & (fine <= window.e2))[0]
    return BasisRun(EigenResult(fine[indices], indices), (len(coarse), len(fine)), change)


def _eigenfunctions(basis: _Basis, C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """psi_j(x) = sum_n C[n, j] phi_n((x - x_c) / s), one row per column of C.

    The Hermite functions phi_n(y) follow the three-term recurrence from
    phi_0 = pi^-1/4 exp(-y^2/2). That start underflows to 0 for |y| above
    about 38, and every phi_n of the plain recurrence with it, though phi_n
    oscillates out to |y| = sqrt(2n + 1): phi_1200 showed 1,064 of its 1,200
    sign changes. So each point carries its pair of values as p exp(l), with
    p rescaled to at most 1 at the start of every block of _ROW_BLOCK rows.
    A block's rows are summed into psi as one product, so the table is
    never every state on every point at once.
    """
    y = (x - basis.x_c) / math.sqrt(basis.hbar / basis.omega)
    log_scale = -0.5 * y * y - 0.25 * math.log(math.pi)
    # phi_{n+1} = a_n y phi_n - b_n phi_{n-1}, a_n = sqrt(2 / (n + 1)), b_n = sqrt(n / (n + 1))
    k = np.arange(len(C) + 1.0)
    a, b = np.sqrt(2.0 / (k + 1.0)).tolist(), np.sqrt(k / (k + 1.0)).tolist()
    prev, cur = np.zeros_like(y), np.ones_like(y)
    psi = np.zeros((C.shape[1], y.size))
    for start in range(0, len(C), _ROW_BLOCK):
        peak = np.maximum(np.abs(prev), np.abs(cur))
        prev, cur = prev / peak, cur / peak
        log_scale += np.log(peak)
        rows = []
        for n in range(start, min(start + _ROW_BLOCK, len(C))):
            rows.append(cur)
            prev, cur = cur, a[n] * y * cur - b[n] * prev
        psi += C[start : start + len(rows)].T @ (np.array(rows) * np.exp(log_scale))
    return psi


def _window_eigenfunctions(
    potential: PotentialSpec, window: EnergyWindow, hbar: float, run: BasisRun
) -> tuple[np.ndarray, np.ndarray]:
    """The grid of basis_nodes and the eigenfunctions of run's window levels on it, one row each."""
    basis = _Basis(potential, window, hbar)
    size, indices = run.basis_sizes[1], run.result.indices
    pad = 0.5 * _SPAN * (basis.xhi - basis.xlo)
    lo, hi = basis.xlo - pad, basis.xhi + pad
    points = math.ceil(_POINTS_PER_NODE * (hi - lo) * basis.ximax / (math.pi * hbar)) + 1
    basis.check(size, indices.size, points)
    C = basis.vectors(basis.matrix(size), indices)
    x = np.linspace(lo, hi, points)
    return x, _eigenfunctions(basis, C, x)


def basis_nodes(
    potential: PotentialSpec, window: EnergyWindow, hbar: float, run: BasisRun
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Node counts and resolved flags of run's window levels, in their order.

    run is solve_basis's at the same arguments. The window eigenvectors of
    its final basis (_Basis.vectors) are evaluated on a grid over the
    sublevel interval at the window top, widened by _SPAN of its half-width
    on each side, with _POINTS_PER_NODE points per least half-wavelength
    pi hbar / xi_max (_eigenfunctions). node_count reads each level's nodes
    and nodes_resolved whether they can be read, the potential sampled on
    the same grid. TooManyLevels before the matrix is built if the vectors
    and their evaluation would exceed the cap.
    """
    if not run.result.indices.size:
        return (), ()
    x, psi = _window_eigenfunctions(potential, window, hbar, run)
    vx = np.asarray(potential.value(x), dtype=float)
    nodes = tuple(node_count(v) for v in psi)
    resolved = tuple(nodes_resolved(v, vx, e) for v, e in zip(psi, run.result.eigenvalues))
    return nodes, resolved
