"""Independent references for loop actions, periods and Sturm counts.

The action and period references never touch the flow tracer: turning
points come from root finding on V(x) = E and the integrals use adaptive
Gauss-Kronrod quadrature after the sine substitution x = c + r*sin(theta),
which removes the square-root endpoint singularity. The Sturm count
reference runs the pivot recurrence in NumPy, independent of LAPACK. The
self-intersection reference tests segment pairs one at a time in Python,
and the marching-squares reference walks the crossed grid edges one at a
time through dictionaries. The action inversion reference solves one
target at a time with scalar interpolant evaluations.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from ebk.errors import EmptyLevelSet, NotSimple, OutOfWindow, PreimageNotEnclosed
from ebk.portrait import _lobatto
from ebk.symbols import compact_preimage_box


def sturm_counts_py(diag, offsq, lams):
    """Eigenvalues strictly below each shift, by the Sturm pivot recurrence.

    d_1 = a_1 - lam, d_i = (a_i - lam) - b_{i-1}^2 / d_{i-1}; negative
    pivots are counted and a zero pivot is replaced by +1e-300.
    """
    lams = np.asarray(lams, dtype=float)
    d = diag[0] - lams
    d[d == 0.0] = 1e-300
    counts = (d < 0.0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(1, diag.size):
            d = (diag[i] - lams) - offsq[i - 1] / d
            d[d == 0.0] = 1e-300
            counts += d < 0.0
    return counts


def turning_points(v, energy, x_lo, x_hi, samples=4001):
    """Outermost solutions of V(x) = E inside [x_lo, x_hi].

    The bracket must contain exactly one classically allowed interval.
    """
    xs = np.linspace(x_lo, x_hi, samples)
    below = np.asarray(v(xs)) < energy
    idx = np.nonzero(below)[0]
    if idx.size == 0:
        raise ValueError("no classically allowed region in the bracket")
    i0, i1 = idx[0], idx[-1]
    if i0 == 0 or i1 == samples - 1:
        raise ValueError("allowed region touches the bracket")
    left = brentq(lambda x: v(x) - energy, xs[i0 - 1], xs[i0], xtol=1e-15)
    right = brentq(lambda x: v(x) - energy, xs[i1], xs[i1 + 1], xtol=1e-15)
    return left, right


def action_integral(v, energy, x_lo, x_hi):
    """2 * integral of sqrt(2(E - V)) dx over the allowed interval."""
    a, b = turning_points(v, energy, x_lo, x_hi)
    c, r = 0.5 * (a + b), 0.5 * (b - a)

    def f(theta):
        x = c + r * math.sin(theta)
        return math.sqrt(2.0 * max(energy - v(x), 0.0)) * r * math.cos(theta)

    val, _ = quad(f, -math.pi / 2, math.pi / 2, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 2.0 * val


def period_integral(v, energy, x_lo, x_hi):
    """2 * integral of dx / sqrt(2(E - V)) over the allowed interval."""
    a, b = turning_points(v, energy, x_lo, x_hi)
    c, r = 0.5 * (a + b), 0.5 * (b - a)

    def f(theta):
        x = c + r * math.sin(theta)
        dv = 2.0 * max(energy - v(x), 0.0)
        if dv == 0.0:
            return 0.0
        return r * math.cos(theta) / math.sqrt(dv)

    val, _ = quad(f, -math.pi / 2, math.pi / 2, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 2.0 * val


def morse_action_closed_form(energy, depth=1.0, a=1.0):
    """Loop action of xi^2/2 + D(1 - exp(-a x))^2 below the plateau."""
    return (
        2.0
        * math.pi
        * math.sqrt(2.0 * depth)
        * (1.0 - math.sqrt(1.0 - energy / depth))
        / a
    )


def morse_level_closed_form(n, hbar, depth=1.0, a=1.0):
    """Bound levels of the same operator: the two-term rule is exact here."""
    omega = a * math.sqrt(2.0 * depth)
    s = hbar * omega * (n + 0.5)
    return s - s * s / (4.0 * depth)


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


def check_simple_sweep(points: np.ndarray):
    """Reject self-intersecting closed polylines with a hash-grid sweep.

    Segments go into grid buckets one by one and each bucket's pairs are
    tested in Python; adjacent segments (the closing one included) are
    skipped and NotSimple is raised on the first strict crossing.
    """
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


def marching_loops_py(spec, energy, box, grid_n):
    """Closed contour loops of {H = E} on the grid, edge by edge in Python.

    Edge (i, j, axis) joins node (i, j) to (i + 1, j) for axis 0 and to
    (i, j + 1) for axis 1. Crossed edges are linked through the cells they
    bound, a saddle cell by the sign of H - E at its centre, and walked
    from the least unvisited edge; a walk that does not close raises
    PreimageNotEnclosed.
    """
    xs = np.linspace(box.x_lo, box.x_hi, grid_n)
    xis = np.linspace(box.xi_lo, box.xi_hi, grid_n)
    F = np.asarray(spec.value(xs[:, None], xis[None, :]), dtype=float) - energy
    pos = F > 0.0

    def edge_point(i, j, axis):
        if axis == 0:
            t = F[i, j] / (F[i, j] - F[i + 1, j])
            return (xs[i] + t * (xs[i + 1] - xs[i]), xis[j])
        t = F[i, j] / (F[i, j] - F[i, j + 1])
        return (xs[i], xis[j] + t * (xis[j + 1] - xis[j]))

    crossings = {}
    for i, j in zip(*np.nonzero(pos[:-1, :] != pos[1:, :])):
        crossings[(int(i), int(j), 0)] = edge_point(int(i), int(j), 0)
    for i, j in zip(*np.nonzero(pos[:, :-1] != pos[:, 1:])):
        crossings[(int(i), int(j), 1)] = edge_point(int(i), int(j), 1)
    if not crossings:
        raise EmptyLevelSet(f"no crossing of level {energy:g} on the grid")

    links = {key: [] for key in crossings}
    n = grid_n
    cells = set()
    for i, j, axis in crossings:
        if axis == 0:  # bottom of cell (i, j), top of cell (i, j - 1)
            if j < n - 1:
                cells.add((i, j))
            if j > 0:
                cells.add((i, j - 1))
        else:  # left of cell (i, j), right of cell (i - 1, j)
            if i < n - 1:
                cells.add((i, j))
            if i > 0:
                cells.add((i - 1, j))
    for ci, cj in sorted(cells):
        b0, b1 = (ci, cj, 0), (ci, cj + 1, 0)
        l0, r0 = (ci, cj, 1), (ci + 1, cj, 1)
        edges = [key for key in (b0, b1, l0, r0) if key in crossings]
        if len(edges) == 2:
            pairs = (tuple(edges),)
        else:
            cx = 0.5 * (xs[ci] + xs[ci + 1])
            cxi = 0.5 * (xis[cj] + xis[cj + 1])
            centre_pos = float(spec.value(cx, cxi)) - energy > 0.0
            if centre_pos == pos[ci, cj]:
                pairs = ((b0, r0), (b1, l0))
            else:
                pairs = ((b0, l0), (b1, r0))
        for a, b in pairs:
            links[a].append(b)
            links[b].append(a)

    loops = []
    unvisited = set(crossings)
    while unvisited:
        start = min(unvisited)
        chain = [start]
        unvisited.discard(start)
        prev, cur = None, start
        closed = False
        while True:
            nxts = [e for e in links[cur] if e != prev]
            if not nxts:
                break
            nxt = nxts[0]
            if nxt == start:
                closed = True
                break
            if nxt not in unvisited:
                break
            chain.append(nxt)
            unvisited.discard(nxt)
            prev, cur = cur, nxt
        if not closed:
            raise PreimageNotEnclosed("open contour chain: the level set leaves the box")
        loops.append([crossings[key] for key in chain])
    return loops


def scan_arcs_py(spec, window, n_samples, crossings, grid_n=201):
    """Arcs of each reference loop at each Lobatto energy of a family scan:
    one per `crossings` edge crossings of the loop, at least one. For an
    even symbol loop d - 1 - j of d is the reflection of loop j, so for
    j < d - 1 - j loop d - 1 - j is traced as 0 arcs and loop j as one per
    `crossings` of twice its crossings; a self-symmetric loop keeps its own."""
    box = compact_preimage_box(spec, window)
    scan = []
    for e in _lobatto(window, n_samples):
        loops = marching_loops_py(spec, e, box, grid_n)
        d, arcs = len(loops), []
        for j, loop in enumerate(loops):
            share = 1 if not spec.even or j == d - 1 - j else 2 if j < d - 1 - j else 0
            arcs.append(max(1, share * len(loop) // crossings) if share else 0)
        scan.append(arcs)
    return scan


def invert_action_py(table, a: float) -> float:
    """Energy with A0(E) = a, one scalar Newton/bisection iteration at a time."""
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
