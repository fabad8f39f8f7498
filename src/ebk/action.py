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

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .errors import (
    DegenerateCaustic,
    NotDiffeomorphism,
    NotSimple,
    OutOfWindow,
)
from .portrait import LevelComponent, ComponentFamily, refine_to_level, trace_component
from .symbols import EnergyWindow, SymbolSpec


def loop_action(component: LevelComponent) -> float:
    """Loop integral of xi dx along the component, sign from its orientation."""
    return component.action


def _shoelace(points: np.ndarray) -> float:
    x = points[:, 0]
    xi = points[:, 1]
    return 0.5 * float(
        np.sum(x * np.roll(xi, -1) - np.roll(x, -1) * xi)
    )


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def _check_simple(points: np.ndarray):
    """Reject self-intersecting polylines with a hash-grid sweep."""
    n = len(points)
    nxt = np.roll(points, -1, axis=0)
    seg_len = np.linalg.norm(nxt - points, axis=1)
    cell = max(float(np.max(seg_len)), 1e-300)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        lo_x = math.floor(min(points[i, 0], nxt[i, 0]) / cell)
        hi_x = math.floor(max(points[i, 0], nxt[i, 0]) / cell)
        lo_y = math.floor(min(points[i, 1], nxt[i, 1]) / cell)
        hi_y = math.floor(max(points[i, 1], nxt[i, 1]) / cell)
        for cx in range(lo_x, hi_x + 1):
            for cy in range(lo_y, hi_y + 1):
                buckets.setdefault((cx, cy), []).append(i)
    for members in buckets.values():
        m = len(members)
        for a in range(m):
            i = members[a]
            for b in range(a + 1, m):
                j = members[b]
                gap = abs(i - j)
                if gap <= 1 or gap == n - 1:
                    continue
                if _segments_intersect(points[i], nxt[i], points[j], nxt[j]):
                    raise NotSimple(f"segments {i} and {j} intersect")


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
    total = 0
    m = nz.size
    for a in range(m):
        b = (a + 1) % m
        if signs[a] != signs[b]:
            u = chords[nz[a]]
            v = chords[nz[b]]
            w = u[1] * v[0] - u[0] * v[1]
            if w == 0.0:
                raise DegenerateCaustic("unresolved tangent turn at a caustic")
            total += 1 if w > 0 else -1
    if abs(total) != 2:
        raise DegenerateCaustic(f"tangent winding {total} is not +-2")
    return total


def trace_family_component(
    spec: SymbolSpec,
    family: ComponentFamily,
    energy: float,
    *,
    trace_tol: float = 1e-10,
    n_points: int = 4096,
) -> LevelComponent:
    """Trace the family's component at an arbitrary window energy."""
    seed = refine_to_level(spec, family.seed_near(energy), energy)
    return trace_component(spec, seed, energy, trace_tol, n_points=n_points)


@dataclass
class ActionTable:
    """Sampled E -> (A0, tau) for one family, with a monotone interpolant.

    The A0 interpolant is a cubic Hermite spline through the sampled
    actions with the sampled periods as exact slopes; shape preservation is
    validated at build time so the inverse is well defined on the window.
    The table truncates the semiclassical action at two terms: A0(E)/hbar
    plus the constant Maslov half-integer shift.
    """

    # Expansion terms kept in the quantization phase: A0/hbar + mu*pi/2.
    TRUNCATION_TERMS: ClassVar[int] = 2

    k: int
    energies: np.ndarray
    a0: np.ndarray
    tau: np.ndarray
    maslov: int
    window: EnergyWindow
    _spline: CubicHermiteSpline = field(init=False, repr=False)
    _dspline: object = field(init=False, repr=False)

    def __post_init__(self):
        e, a, t = self.energies, self.a0, self.tau
        if np.any(t <= 0):
            raise NotDiffeomorphism("period must be positive on the window")
        da = np.diff(a)
        de = np.diff(e)
        if np.any(da <= 0):
            raise NotDiffeomorphism("sampled action is not strictly increasing")
        delta = da / de
        alpha = t[:-1] / delta
        beta = t[1:] / delta
        if np.any(alpha * alpha + beta * beta > 9.0):
            raise NotDiffeomorphism("Hermite slopes violate monotonicity bounds")
        mid_err = np.abs(delta - 0.5 * (t[:-1] + t[1:])) / np.abs(delta)
        if np.any(mid_err > 1e-2):
            raise NotDiffeomorphism(
                "sampled periods are inconsistent with the action increments"
            )
        self._spline = CubicHermiteSpline(e, a, t)
        self._dspline = self._spline.derivative()

    def a0_at(self, energy):
        return self._spline(energy)

    def tau_at(self, energy):
        return self._dspline(energy)

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
    """Fit the monotone interpolant to the family's traced (A0, tau) samples.

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
