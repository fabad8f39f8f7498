"""Action data of component families: A0(E), period, Maslov index.

The loop action A0 = integral of xi dx over a component is accumulated
during flow tracing (the integrand xi * dH/dxi rides along the orbit ODE),
so the value returned here is the one the tracer computed. The enclosed
polygon area provides an independent cross-check through the Stokes
identity |A0| = |area|.

With the flow orientation the action of a catalog well is positive and the
Maslov index is +2; reversing the traversal negates both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import (
    DegenerateCaustic,
    NotDiffeomorphism,
    NotSimple,
    OutOfWindow,
)
from .portrait import LevelComponent, ComponentFamily
from .symbols import EnergyWindow


def loop_action(component: LevelComponent) -> float:
    """Loop integral of xi dx along the component, sign from its orientation."""
    return component.action


def _shoelace(points: np.ndarray) -> float:
    x = points[:, 0]
    xi = points[:, 1]
    return 0.5 * float(
        np.sum(x * np.roll(xi, -1) - np.roll(x, -1) * xi)
    )


def _check_simple(points: np.ndarray):
    """Reject self-intersecting polylines.

    Segments are bucketed on a grid whose cell is the longest segment, and
    every pair of non-adjacent segments sharing a cell is tested for a
    strict crossing (both orientation signs change), as arrays.
    """
    n = len(points)
    nxt = np.roll(points, -1, axis=0)
    cell = max(float(np.max(np.linalg.norm(nxt - points, axis=1))), 1e-300)
    lo = np.floor(np.minimum(points, nxt) / cell)
    span = (np.floor(np.maximum(points, nxt) / cell) - lo).astype(np.int64) + 1
    # One entry per (segment, cell touched), sorted by cell, then segment.
    per_seg = span[:, 0] * span[:, 1]
    seg = np.repeat(np.arange(n), per_seg)
    off = np.arange(len(seg)) - np.repeat(np.cumsum(per_seg) - per_seg, per_seg)
    cx = lo[seg, 0] + off // span[seg, 1]
    cy = lo[seg, 1] + off % span[seg, 1]
    order = np.lexsort((seg, cy, cx))
    seg, cx, cy = seg[order], cx[order], cy[order]
    bucket = np.concatenate(([0], np.cumsum((cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1]))))

    def orient(a, b, c):
        ba, ca = b - a, c - a
        return ba[:, 0] * ca[:, 1] - ba[:, 1] * ca[:, 0]

    # Entry p meets entry p + d for d = 1, 2, ... while both share a bucket.
    first = np.arange(len(seg))
    d = 1
    while first.size:
        first = first[first + d < len(seg)]
        first = first[bucket[first + d] == bucket[first]]
        i, j = seg[first], seg[first + d]
        apart = (j - i > 1) & (j - i != n - 1)
        i, j = i[apart], j[apart]
        p1, p2, p3, p4 = points[i], nxt[i], points[j], nxt[j]
        crossed = ((orient(p3, p4, p1) > 0) != (orient(p3, p4, p2) > 0)) & (
            (orient(p1, p2, p3) > 0) != (orient(p1, p2, p4) > 0)
        )
        if crossed.any():
            k = int(np.argmax(crossed))
            raise NotSimple(f"segments {i[k]} and {j[k]} intersect")
        d += 1


def green_area(component: LevelComponent) -> float:
    """Signed enclosed area of the sample polygon (Stokes cross-check).

    Uses the shoelace sum at full and half resolution, extrapolated to
    remove the quadratic inscription bias, so the result matches the flow
    quadrature to well below the sampling error of the polyline itself.
    """
    pts = component.points
    if len(pts) < 3:
        raise NotSimple("need at least 3 points to enclose area")
    _check_simple(pts)
    a_full = _shoelace(pts)
    a_half = _shoelace(pts[::2])
    return (4.0 * a_full - a_half) / 3.0


def maslov_index(component: LevelComponent) -> int:
    """Signed count of vertical tangencies in the stored orientation.

    Each sign change of the horizontal tangent component contributes +1 or
    -1 according to the turning sense of the tangent, taken in the phase
    area orientation where the flow loop of a well is positively oriented.
    Any embedded loop yields +2 or -2.
    """
    pts = component.points
    chords = np.roll(pts, -1, axis=0) - pts
    dx = chords[:, 0]
    nz = np.nonzero(dx != 0.0)[0]
    if nz.size < 2:
        raise DegenerateCaustic("horizontal tangent component vanishes everywhere")
    run = len(dx) - nz.size
    if run > max(16, len(dx) // 64):
        raise DegenerateCaustic(f"{run} samples with vanishing horizontal tangent")
    signs = np.sign(dx[nz])
    turns = np.nonzero(signs != np.roll(signs, -1))[0]
    u = chords[nz[turns]]
    v = chords[nz[(turns + 1) % nz.size]]
    w = u[:, 1] * v[:, 0] - u[:, 0] * v[:, 1]
    if np.any(w == 0.0):
        raise DegenerateCaustic("unresolved tangent turn at a caustic")
    total = int(np.sum(np.where(w > 0, 1, -1)))
    if abs(total) != 2:
        raise DegenerateCaustic(f"tangent winding {total} is not +-2")
    return total


@dataclass
class ActionTable:
    """Sampled E -> (A0, tau) for one family, with its Chebyshev interpolant.

    A0 is interpolated by the degree-(n - 1) Chebyshev series through the n
    samples on [energies[0], energies[-1]], and tau by its derivative
    series. On the Lobatto energies of a regular window A0 is analytic, so
    the interpolant converges geometrically in n. The build requires
    positive sampled periods, strictly increasing sampled actions, a
    derivative series with no real root on the window (so the inverse is
    well defined) and sampled periods that agree with dA0/dE at the samples
    to 1e-2 relative; tau_consistency is the largest such relative gap.
    The table truncates the semiclassical action at two terms: A0(E)/hbar
    plus the constant Maslov half-integer shift.
    """

    k: int
    energies: np.ndarray
    a0: np.ndarray
    tau: np.ndarray
    maslov: int
    window: EnergyWindow
    tau_consistency: float = field(init=False)
    _a0: Chebyshev = field(init=False, repr=False)
    _tau: Chebyshev = field(init=False, repr=False)

    def __post_init__(self):
        e, a, t = self.energies, self.a0, self.tau
        if np.any(t <= 0):
            raise NotDiffeomorphism("period must be positive on the window")
        if np.any(np.diff(a) <= 0):
            raise NotDiffeomorphism("sampled action is not strictly increasing")
        self._a0 = Chebyshev.fit(e, a, len(e) - 1, domain=[e[0], e[-1]])
        self._tau = self._a0.deriv()
        roots = self._tau.roots()
        roots = roots[np.isreal(roots)].real
        if np.any((roots >= e[0]) & (roots <= e[-1])):
            raise NotDiffeomorphism("interpolated action is not monotone on the window")
        self.tau_consistency = float(np.max(np.abs(self._tau(e) - t) / t))
        if self.tau_consistency > 1e-2:
            raise NotDiffeomorphism("sampled periods are inconsistent with dA0/dE")

    def a0_at(self, energy):
        return self._a0(energy)

    def tau_at(self, energy):
        return self._tau(energy)

    @property
    def a0_range(self) -> tuple[float, float]:
        return float(self.a0[0]), float(self.a0[-1])

    @property
    def tau_max(self) -> float:
        return float(np.max(self.tau))

    @property
    def tau_min(self) -> float:
        return float(np.min(self.tau))


def build_action_table(family: ComponentFamily, window: EnergyWindow) -> ActionTable:
    """Fit the Chebyshev interpolant to the family's traced (A0, tau) samples.

    The samples are the family's components, traced by build_families at
    its Lobatto energies; the table traces nothing itself.
    """
    comps = family.components
    mu = maslov_index(comps[0])
    if abs(mu) != 2:
        raise DegenerateCaustic(f"family {family.k}: Maslov index {mu}")
    return ActionTable(
        k=family.k,
        energies=family.energies,
        a0=np.array([c.action for c in comps]),
        tau=np.array([c.period for c in comps]),
        maslov=mu,
        window=window,
    )


def invert_action(table: ActionTable, a: float) -> float:
    """Energy with A0(E) = a, by Newton on the interpolant with bisection fallback."""
    lo_a, hi_a = table.a0_range
    tol = 1e-12 * max(1.0, abs(a))
    if a < lo_a - tol or a > hi_a + tol:
        raise OutOfWindow(f"action {a:g} outside table range [{lo_a:g}, {hi_a:g}]")
    lo, hi = table.window.e1, table.window.e2
    if a <= lo_a:
        return lo
    if a >= hi_a:
        return hi
    e = lo + (hi - lo) * (a - lo_a) / (hi_a - lo_a)
    resid_tol = 1e-13 * max(1.0, abs(a))
    for _ in range(100):
        fa = float(table.a0_at(e)) - a
        if abs(fa) <= resid_tol:
            break
        if fa > 0:
            hi = e
        else:
            lo = e
        e_new = e - fa / float(table.tau_at(e))
        if not (lo < e_new < hi):
            e_new = 0.5 * (lo + hi)
        if abs(e_new - e) < 1e-17 * max(1.0, abs(e)):
            e = e_new
            break
        e = e_new
    return float(min(max(e, table.window.e1), table.window.e2))
