"""Level-set extraction by Hamiltonian flow tracing.

The connected components of {H = E} are found in two stages. A marching
pass over a grid of H values yields one closed contour loop per component.
The pass computes every edge crossing and pairs the crossings of every
cell as arrays, and walks each loop along an integer neighbour table; a
crossing on the box boundary means the level set leaves the box. Each loop
then gives one seed per _ARC_CROSSINGS of its edge crossings, at least one,
at evenly spaced crossings, refined onto the level set along the gradient.
The seeds cut the orbit into arcs of about the same grid length, and the
flow

    x' = dH/dxi,   xi' = -dH/dx,

is integrated along every arc, from its seed to the section normal to the
flow at the next seed along the flow, accumulating the action integral of
xi dx on the way. The arcs' times and actions add up to the period and the
loop action, as local pieces over an open cover of the circle do, and the
sample polyline is resampled across them. The arcs of a scan (every loop of
every sampled energy) are integrated together as one batch, each with its
own step size, section and landing test, so the stepper's sequential depth
is that of the longest arc, which does not grow with the orbit's length.
An arc that crosses its section steps on, pending, until the pending arcs
are half of those still running; their landings are then solved in one
call, so a scan makes a few such calls, not one per stepper attempt with
a crossing. A family scan refines every seed in one Newton pass and checks
its traces by one broadcast over all energies, with no loop over the
energies; its family k is the k-th marching loop from the left at every
energy. For an even symbol only one family of each mirror pair is traced,
and the other is its exact reflection (x, xi) -> (-x, -xi); the traced
family takes the arcs of both, so the batch keeps the width and the short
arcs it would have with both families traced.

Component counting near a topology change never relies on tracing (a trace
started on a critical level would stall), only on the marching pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import integrate
from .errors import (
    ConfigError,
    CriticalSeed,
    EmptyLevelSet,
    NonConstantTopology,
    PreimageNotEnclosed,
    TraceDiverged,
)
from .symbols import Box, EnergyWindow, SymbolSpec, compact_preimage_box

DEFAULT_TRACE_TOL = 1e-10
DEFAULT_POINTS = 1024
# Lobatto energies per family scan, the nodes of each action table: its
# Hermite fit of (A0, tau) on 9 is as accurate as an A0-only fit on 17.
DEFAULT_ACTION_SAMPLES = 9
GRID_N = 201  # grid nodes per axis of the marching pass of build_families
# Every family keeps its component at each sample, 1024 samples of (x, xi)
# at 16 B, 16 KiB: 512 samples hold 8 MiB per family. The action table
# converges geometrically in the samples, so far fewer suffice.
MAX_ACTION_SAMPLES = 512
_MIN_GRAD = 1e-8
_REFINE_TOL = 1e-12  # refine_to_level's target |H - E|
_REFINE_ITERS = 80  # and its most Newton steps
# Local integration error per step, well under the trace tolerance so the
# accumulated drift over one period stays within it.
_LOCAL_TOL_FACTOR = 1e-3
# The least trace_tol whose local tolerance clears rounding by 100 eps
# (SciPy's RK45 clamps rtol the same way); below it the error estimates are
# noise and the step size shrinks without limit.
MIN_TRACE_TOL = 100.0 * np.finfo(float).eps / _LOCAL_TOL_FACTOR
# Edge crossings per arc. A marching loop of n crossings is traced as
# max(1, n // _ARC_CROSSINGS) arcs side by side in one batch, so every arc
# spans about the same grid length and the stepper's sequential depth is
# that of one such arc, whatever the orbit's length; a loop under
# 2 * _ARC_CROSSINGS crossings is one arc.
_ARC_CROSSINGS = 12
_MAX_ATTEMPTS = 10_000  # per arc; scans take 30-60, one-seed whole orbits up to ~1,700


def check_trace_tol(trace_tol: float) -> None:
    """Raise ConfigError unless trace_tol is at least MIN_TRACE_TOL."""
    if not trace_tol >= MIN_TRACE_TOL:
        raise ConfigError(
            f"trace_tol {trace_tol:g} is under {MIN_TRACE_TOL:.3g}, "
            "where the flow stepper's local error estimates are rounding noise"
        )


def check_action_samples(n) -> None:
    """Raise ConfigError unless n is an integer from 9 to MAX_ACTION_SAMPLES."""
    integral = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    if not (integral and 9 <= n <= MAX_ACTION_SAMPLES):
        raise ConfigError(
            f"action_samples {n!r} must be an integer of at least 9 and at most "
            f"{MAX_ACTION_SAMPLES}"
        )


@dataclass(frozen=True)
class LevelComponent:
    """One closed oriented component of {H = E}, sampled along the flow.

    points are the orbit's positions at the n flow times np.linspace(0,
    period, n, endpoint=False) from seed, along the Hamiltonian flow;
    action is the loop integral of xi dx in that orientation.
    """

    energy: float
    points: np.ndarray  # (n, 2) columns x, xi
    period: float
    seed: tuple[float, float]
    action: float
    steps: int = 0  # accepted DP45 steps of the trace, summed over its arcs
    arcs: int = 1  # arcs the orbit was traced as
    attempts: int = 0  # stepper attempts of its batch until its last arc landed
    landing_solves: int = 0  # batched landing solves of its batch until then


@dataclass(frozen=True)
class ComponentFamily:
    """A level-set component followed across the window.

    components holds the component at each sampled energy, in ascending
    energy order: family k is the k-th marching loop of every energy, the
    k-th component from the left. reflects is None for a traced family, and
    for the reflection of a traced one under (x, xi) -> (-x, -xi) it is
    that family's k.
    """

    k: int
    components: tuple[LevelComponent, ...]
    reflects: int | None = None

    @property
    def energies(self) -> np.ndarray:
        return np.array([c.energy for c in self.components])


def _grid_values(spec, box: Box, n: int):
    xs = np.linspace(box.x_lo, box.x_hi, n)
    xis = np.linspace(box.xi_lo, box.xi_hi, n)
    H = np.asarray(
        spec.value(xs[:, None], xis[None, :]), dtype=float
    )
    return xs, xis, H


def _marching_loops(spec, energies, box, grid_n):
    """Closed contour loops of {H = E} on the grid at each of several energies.

    An ascending sequence of energies gives one list of loops per energy,
    each loop an (n, 2) array of the edge-crossing points (x, xi) in loop
    order, a slice of one array of every loop's points, from one evaluation
    of H on the grid and one pass over every level's crossings. Edge
    (i, j, axis) of level k joins node (i, j) to (i + 1, j) for axis 0 and
    to (i, j + 1) for axis 1; its code is k * 2n^2 + (i * n + j) * 2 + axis,
    so the sorted codes run level by level and, within a level, in the order
    of a single-level scan. A node's band, the number of levels below H
    there, comes from one searchsorted, and an edge crosses the levels from
    the lesser band of its ends up to the greater. The crossing points and
    the pairing of every cell's crossed edges, a saddle cell's by the sign
    of H - E at its centre, are array operations over all levels with the
    arithmetic of one level at a time. Every interior edge then has two
    neighbours, so a chain is open exactly when a crossed edge lies on the
    box boundary. The least energy without a crossing raises EmptyLevelSet,
    or with a boundary crossing PreimageNotEnclosed, whichever comes first.
    Each loop starts at its least edge, the lowest crossing in its leftmost
    column of cells, and goes on down into that edge's lower cell, so every
    loop runs counterclockwise in (x, xi), against the flow around a well;
    pointer doubling ranks each crossing along its loop, so the walk is
    array operations too.
    """
    levels = np.asarray(energies, dtype=float)
    if np.any(np.diff(levels) < 0.0):
        raise ValueError("marching energies must be ascending")
    xs, xis, H = _grid_values(spec, box, grid_n)
    n = grid_n
    per_level = 2 * n * n
    # H > E_k exactly for k < band: an edge crosses the levels from the
    # lesser band of its ends up to, not including, the greater.
    band = np.searchsorted(levels, H).ravel()
    node0 = np.flatnonzero(band[:-n] != band[n:])  # axis-0 edges, by first node
    node1 = np.flatnonzero(band[:-1] != band[1:])
    node1 = node1[node1 % n != n - 1]  # axis-1 edges, by first node
    tail = np.concatenate([node0, node1])
    head = np.concatenate([node0 + n, node1 + 1])
    lowest, reps = np.minimum(band[tail], band[head]), np.abs(band[tail] - band[head])
    nth = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    edges = 2 * tail + np.repeat([0, 1], [len(node0), len(node1)])
    codes = np.sort((np.repeat(lowest, reps) + nth) * per_level + np.repeat(edges, reps))

    level, edge = codes // per_level, codes % per_level
    i, j, axis = edge // (2 * n), edge // 2 % n, edge % 2
    leaks = np.zeros(len(levels), dtype=bool)
    leaks[level[np.where(axis, (i == 0) | (i == n - 1), (j == 0) | (j == n - 1))]] = True
    empty = np.bincount(level, minlength=len(levels)) == 0
    bad = np.flatnonzero(empty | leaks)
    if bad.size and empty[bad[0]]:
        raise EmptyLevelSet(f"no crossing of level {levels[bad[0]]:g} on the grid")
    if bad.size:
        raise PreimageNotEnclosed("open contour chain: the level set leaves the box")

    # No crossed edge is on the boundary, so both neighbours are on the grid.
    f0 = H[i, j] - levels[level]
    f1 = np.where(axis, H[i, j + 1], H[i + 1, j]) - levels[level]
    t = f0 / (f0 - f1)
    px = np.where(axis, xs[i], xs[i] + t * (xs[i + 1] - xs[i]))
    pxi = np.where(axis, xis[j] + t * (xis[j + 1] - xis[j]), xis[j])

    # A cell is named by the code of its bottom edge; its bottom, top, left
    # and right edges sit at these offsets from it.
    offset = np.array([0, 2, 1, 2 * n + 1])
    cells = np.sort(np.concatenate([codes - axis, codes - axis - np.where(axis, 2 * n, 2)]))
    cells = cells[np.r_[True, cells[1:] != cells[:-1]]]  # np.unique hashes, several times slower
    # A side is crossed when its corners lie on either side of the level.
    ck, corner = cells // per_level, cells % per_level // 2
    p00, p10, p01, p11 = (ck < band[corner + d] for d in (0, n, 1, n + 1))
    sides = np.column_stack([p00 != p10, p01 != p11, p00 != p01, p10 != p11])
    cell, side = np.nonzero(sides)  # 2 or 4 crossed sides per cell, in that order
    ends = cells[cell] + offset[side]
    count = sides.sum(axis=1)
    first = (np.cumsum(count) - count)[count == 4, None]
    saddle = count == 4
    ci, cj = corner[saddle] // n, corner[saddle] % n
    centre = np.asarray(spec.value(0.5 * (xs[ci] + xs[ci + 1]), 0.5 * (xis[cj] + xis[cj + 1])))
    # A saddle centre of the sign of corner (i, j) pairs bottom with right and
    # top with left, otherwise bottom with left and top with right.
    same = (centre - levels[ck[saddle]] > 0.0) == p00[saddle]
    ends[first + np.arange(4)] = ends[first + np.where(same[:, None], [0, 3, 1, 2], [0, 2, 1, 3])]
    # Each edge's two neighbours, the one from the lower cell first.
    a, b, pair_cell = ends[0::2], ends[1::2], cells[cell[0::2]]
    order = np.argsort(np.concatenate([a, b]) * len(levels) * per_level + np.tile(pair_cell, 2))
    nbr = np.searchsorted(codes, np.concatenate([b, a])[order]).reshape(-1, 2)

    # succ runs every loop with H > E on the left, the cyclic order the walk
    # takes: it leaves an axis-0 edge (+xi) into its upper cell when the
    # edge's first node is above the level, and an axis-1 edge (+x) when not.
    up = (level < band[edge // 2]) != axis.astype(bool)
    succ = np.where(up, nbr[:, 1], nbr[:, 0])
    # By pointer doubling: each crossing's loop start, the least edge of its
    # loop, and its distance along succ to that start.
    idx = np.arange(len(codes))
    start, jump = idx, succ
    for _ in range(len(codes).bit_length()):
        start, jump = np.minimum(start, start[jump]), jump[jump]
    at_start = idx == start
    dist, jump = (~at_start).astype(idx.dtype), np.where(at_start, idx, succ)
    for _ in range(len(codes).bit_length()):
        dist, jump = dist + dist[jump], jump[jump]
    # A walk leaves its start towards the neighbour from the lower cell, so
    # it runs counterclockwise: along succ when that neighbour is succ of the start.
    size = dist[succ[start]] + 1
    rank = np.where(up[start], dist, (size - dist) % size)
    walk = np.argsort(start * len(codes) + rank)
    firsts = np.flatnonzero(at_start[walk])
    bounds = np.append(firsts, len(walk)).tolist()
    points = np.column_stack([px[walk], pxi[walk]])
    loops = [[] for _ in levels]
    for p, q, k in zip(bounds[:-1], bounds[1:], level[walk[firsts]].tolist()):
        loops[k].append(points[p:q])
    return loops


def refine_to_level(spec, points, energy):
    """Move (n, 2) points (x, xi) onto {H = E} along the gradient, to _REFINE_TOL.

    energy is one E or an (n,) array, one per point. Returns the (n, 2) moved
    points; each point takes the Newton steps it would take alone.
    """
    x, xi = np.array(points, dtype=float).T.copy()
    energy = np.broadcast_to(np.asarray(energy, dtype=float), x.shape)
    todo = np.arange(len(x))
    for _ in range(_REFINE_ITERS):
        h = np.asarray(spec.value(x[todo], xi[todo]), dtype=float) - energy[todo]
        off = np.abs(h) > _REFINE_TOL
        todo, h = todo[off], h[off]
        if not todo.size:
            return np.column_stack([x, xi])
        gx, gxi = (np.asarray(g, dtype=float) for g in spec.gradient(x[todo], xi[todo]))
        n2 = gx * gx + gxi * gxi
        if np.any(n2 < _MIN_GRAD**2):
            raise EmptyLevelSet("refinement stalled at a near-critical point")
        x[todo] -= h * gx / n2
        xi[todo] -= h * gxi / n2
    raise EmptyLevelSet(f"could not refine seed onto level {energy[todo[0]]:g}")


def _section_crossing(step: integrate.Step, normal, target) -> np.ndarray:
    """Time in each entry of step where its dense state crosses a section.

    The section of entry j is normal[:, j] . (y - target[:, j]) = 0, with
    the section value g < 0 at the step start and >= 0 at its end. On the
    quartic interpolant g is a quartic in theta = (t - t0)/h; safeguarded
    Newton from the secant root keeps a sign bracket and bisects it when a
    Newton step would leave it, until the update is under 1e-13 in t; an
    entry stops at its own first such update, so it takes the steps it
    would take alone.
    """
    # g(theta) = g0 + h theta (c0 + theta (c1 + theta (c2 + theta c3))) per entry.
    c = np.einsum("ik,jik->jk", normal, step.q[:, :2])
    g0 = np.einsum("ik,ik->k", normal, step.y0[:2] - target)
    h = step.h
    lo, hi = np.zeros(len(h)), np.ones(len(h))
    # The secant root; g0 < 0, so a rounding-negative g1 only moves it to 1.
    theta = g0 / (g0 - np.maximum(g0 + h * c.sum(axis=0), 0.0))
    c0, c1, c2, c3 = c
    d1, d2, d3 = 2.0 * c1, 3.0 * c2, 4.0 * c3  # g's derivative; 4 theta c3 rounds as theta (4 c3)
    done = np.zeros(len(h), dtype=bool)
    for _ in range(64):
        g = g0 + h * theta * (c0 + theta * (c1 + theta * (c2 + theta * c3)))
        dg = h * (c0 + theta * (d1 + theta * (d2 + theta * d3)))
        below = g < 0.0
        lo, hi = np.where(below, theta, lo), np.where(below, hi, theta)
        new = theta - g / dg
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        theta, done = np.where(done, theta, new), done | (np.abs(new - theta) * h <= 1e-13)
        if done.all():
            break
    return step.t0 + h * theta


def _flow_order(seeds, counts, flow):
    """Reorder each orbit's seeds to run along the flow from its first seed.

    seeds (M, 2) holds the orbits' seeds one orbit after another, counts
    their number per orbit and flow (2, M) the unit flow direction at each
    seed. The seeds of an orbit run against the flow when the flow
    direction at each seed, dotted with the chord from its predecessor to
    its successor and summed over the orbit, is negative; such an orbit is
    read backwards from its first seed; every orbit of a family scan is, as
    its marching loop runs counterclockwise and the flow clockwise around a
    minimum of H. Returns the reordering of the M seeds and, in the new
    order, the index of each seed's successor along its orbit.
    """
    starts = np.cumsum(counts) - counts
    first, size = np.repeat(starts, counts), np.repeat(counts, counts)
    i = np.arange(len(seeds)) - first
    nxt, prv = first + (i + 1) % size, first + (i - 1) % size
    chord = seeds[nxt] - seeds[prv]
    along = np.add.reduceat(np.einsum("ij,ji->j", flow, chord), starts)
    order = first + np.where(np.repeat(along < 0.0, counts), (size - i) % size, i)
    return order, nxt


def trace_component(
    spec: SymbolSpec,
    seeds,
    energies,
    trace_tol: float = DEFAULT_TRACE_TOL,
) -> list[LevelComponent]:
    """Trace the closed flow orbit through each of m seeds on {H = E} at its energy.

    seeds holds m seeds, each one (x, xi) pair or a (K, 2) sequence of K
    points on the orbit in cyclic order (along the flow or against it), and
    energies their m energies; returns the m components in that order.
    Every orbit of a call is split at its seed points into arcs, and all
    arcs are the columns of one batched integration; each arc is traced as
    it would be alone. The orbit and its first seed are the same whichever
    way its seeds are given.

    The arc from each seed stops on the section through the next seed along
    the flow, normal to the flow there, at the first crossing in the flow
    direction that lands within trace_tol of the point where the arc's own
    level set meets that section; a lone seed's arc returns to it. The
    crossing time is refined by safeguarded Newton on the step's quartic
    dense output to 1e-13. A column whose step crosses its section is
    pending and steps on; the pending crossings are solved together, in
    one _section_crossing call, once they are at least half of the columns
    not yet landed, and before a pending column's next crossing or the
    budget's raise. A solved crossing either lands or fails the landing
    test, and its column then goes on as it did from the crossing; a
    landed column's steps after its crossing are dropped. So every orbit
    is what it would be alone, and LevelComponent.landing_solves counts the
    calls of the batch until its last arc landed. The period and action are
    the sums over the arcs, and the points are resampled across the arcs
    from the first seed, DEFAULT_POINTS of them, for every orbit in one
    evaluation, and checked for energy drift in one evaluation of H.
    Raises ConfigError (check_trace_tol) if trace_tol is under
    MIN_TRACE_TOL, CriticalSeed if a seed sits at a near-critical point,
    and TraceDiverged if an arc has not landed after _MAX_ATTEMPTS stepper
    attempts, the one budget of a trace (no flow time bounds it), or its
    sampled energies drift or its step size underflows.
    """
    check_trace_tol(trace_tol)
    energies = np.asarray(energies, dtype=float)
    orbits = [np.array(s, dtype=float).reshape(-1, 2) for s in seeds]
    if len(orbits) != len(energies):
        raise ValueError(f"{len(orbits)} seeds for {len(energies)} energies")
    counts = np.array([len(o) for o in orbits])
    starts = np.cumsum(counts) - counts
    pts = np.concatenate(orbits)
    gx, gxi = spec.gradient(pts[:, 0], pts[:, 1])
    speed = np.hypot(gxi, gx)
    if np.any(speed <= _MIN_GRAD):
        raise CriticalSeed("seed gradient too small; refusing to trace near a critical point")
    flow = np.vstack([gxi, -gx]) / speed
    order, nxt = _flow_order(pts, counts, flow)
    pts, flow, speed = pts[order], flow[:, order], speed[order]
    # Column c traces the arc from pts[c] to the section of pts[nxt[c]], and
    # lands where its own level set meets it: that seed moved along its
    # gradient by the difference of the two seeds' levels (under 1e-12, but
    # at a small gradient far enough to fail the landing test). A lone seed
    # is its own target.
    level = np.asarray(spec.value(pts[:, 0], pts[:, 1]), dtype=float)
    normal = flow[:, nxt]
    uphill = np.vstack([-normal[1], normal[0]])  # the unit gradient at each target
    target = pts[nxt].T - (level[nxt] - level) / speed[nxt] * uphill

    def rhs(y):
        dx, dxi = spec.gradient(y[0], y[1])
        return np.array([dxi, -dx, y[1] * dxi])

    M = len(pts)
    y0 = np.vstack([pts.T, np.zeros(M)])
    # Accepted steps in attempt order, x and xi rows only, copied so no
    # whole step array stays alive.
    history = []
    running = np.ones(M, dtype=bool)  # not yet landed; the stepper drops the rest
    # Signed distance past each column's target section; exactly 0 for a lone seed.
    g_prev = normal[0] * (y0[0] - target[0]) + normal[1] * (y0[1] - target[1])
    arc_time = np.zeros(M)
    arc_action = np.zeros(M)
    attempts = np.zeros(M, dtype=int)  # each landed column's crossing attempt + 1
    solves = np.zeros(M, dtype=int)  # and the landing solves of the batch until then
    pending = np.zeros(M, dtype=bool)  # crossed its section, landing not yet solved
    crossings = []  # the crossing step entries of the pending columns
    solved = 0  # landing solves so far
    live = None  # the stepper's cols, whose sections nrm and tgt hold

    def land():
        """Solve every pending crossing in one _section_crossing call."""
        nonlocal solved
        fields = zip(*((s.cols, s.t0, s.h, s.y0, s.y1, s.q) for s in crossings))
        cross = integrate.Step(*(np.concatenate(f, axis=-1) for f in fields))
        at = np.concatenate([np.full(len(s.cols), s.attempt) for s in crossings])
        crossings.clear()
        solved += 1
        c = cross.cols
        pending[c] = False
        t_star = _section_crossing(cross, normal[:, c], target[:, c])
        y_star = cross.eval(t_star)
        back = np.hypot(y_star[0] - target[0, c], y_star[1] - target[1, c]) <= trace_tol
        c = c[back]
        arc_time[c] = t_star[back]
        arc_action[c] = y_star[2, back]
        attempts[c] = at[back] + 1
        solves[c] = solved
        running[c] = False

    # Overflow leaves NaNs, which the stepper's underflow test and the drift
    # check below turn into TraceDiverged.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        local_tol = trace_tol * _LOCAL_TOL_FACTOR
        for step in integrate.dp45_steps(rhs, y0, local_tol, active=running):
            if step.attempt >= _MAX_ATTEMPTS:
                if crossings:  # they may land, and a column not pending runs on
                    land()
                x, xi = pts[np.argmax(running)]
                raise TraceDiverged(
                    f"arc from seed ({x:g}, {xi:g}) not landed after "
                    f"{_MAX_ATTEMPTS} stepper attempts"
                )
            history.append(
                (step.attempt, step.cols, step.t0, step.h, step.y0[:2].copy(), step.q[:, :2].copy())
            )
            if step.cols is not live:  # a new array only when a column lands or rejects
                live, nrm, tgt = step.cols, normal[:, step.cols], target[:, step.cols]
            g_new = nrm[0] * (step.y1[0] - tgt[0]) + nrm[1] * (step.y1[1] - tgt[1])
            hit = (g_prev[step.cols] < 0.0) & (g_new >= 0.0)
            g_prev[step.cols] = g_new
            if not hit.any():
                continue
            if pending[step.cols[hit]].any():  # its first crossing is solved first
                land()
                hit &= running[step.cols]
                if not hit.any():
                    continue
            crossings.append(step.take(hit))
            pending[step.cols[hit]] = True
            if 2 * np.count_nonzero(pending) >= np.count_nonzero(running):
                land()
    period = np.add.reduceat(arc_time, starts)
    at, cols, t0, h, y_start, q = zip(*history)
    del history  # freed before the samples are made
    at = np.repeat(at, [len(c) for c in cols])
    cols, t0, h, y_start, q = (np.concatenate(f, axis=-1) for f in (cols, t0, h, y_start, q))
    # A landed column's steps after its crossing are dropped; the rest are
    # sorted by column, in time order within each, so orbit j's steps, arc
    # by arc, are the slice bounds[j]:bounds[j + 1].
    keep = np.flatnonzero(at < attempts[cols])
    by_col = keep[np.argsort(cols[keep], kind="stable")]
    cols = cols[by_col]
    bounds = np.searchsorted(cols, np.append(starts, M))
    # Each arc's start time along its orbit, np.cumsum(arc_time) - arc_time
    # per orbit: one row of a cumsum per orbit, padded with zeros.
    along = np.arange(counts.max()) < counts[:, None]
    padded = np.zeros(along.shape)
    padded[along] = arc_time
    ends = np.cumsum(padded, axis=1)[along]
    points = integrate.resample(
        t0[by_col] + (ends - arc_time)[cols],
        h[by_col],
        np.take(y_start, by_col, axis=-1).T,
        np.take(q, by_col, axis=-1).transpose(2, 0, 1),
        [np.linspace(0.0, p, DEFAULT_POINTS, endpoint=False) for p in period],
        bounds,
    )
    value = np.asarray(spec.value(points[:, 0], points[:, 1]), dtype=float)
    drift = np.abs(value - np.repeat(energies, DEFAULT_POINTS)).reshape(len(orbits), -1)
    drift = drift.max(axis=1)
    if np.any(drift > trace_tol):
        raise TraceDiverged(
            f"energy drift {drift[np.argmax(drift > trace_tol)]:.3e} exceeds {trace_tol:g}"
        )
    components = []
    for j in range(len(orbits)):
        arcs = slice(starts[j], starts[j] + counts[j])
        components.append(
            LevelComponent(
                energy=float(energies[j]),
                points=points[j * DEFAULT_POINTS : (j + 1) * DEFAULT_POINTS],
                period=float(period[j]),
                seed=(float(pts[starts[j], 0]), float(pts[starts[j], 1])),
                action=float(np.sum(arc_action[arcs])),
                steps=int(bounds[j + 1] - bounds[j]),
                arcs=int(counts[j]),
                attempts=int(np.max(attempts[arcs])),
                landing_solves=int(np.max(solves[arcs])),
            )
        )
    return components


def _candidates(spec, energies, loops):
    """The arc seeds of every marching loop of every energy, refined onto its level.

    loops holds the d loops of each energy; returns the seeds of each loop,
    energy by energy in loop order, from one refine_to_level call. A loop of
    n edge crossings gets k = max(1, n // _ARC_CROSSINGS) seeds at the
    evenly spaced crossings i * n // k in loop order, the first crossing
    first. For an even H a reflected loop (_traced_loops) gets its first
    crossing only, and a traced loop whose mirror is reflected gets
    k = max(1, 2n // _ARC_CROSSINGS), the arcs of both.
    """
    d = len(loops[0])
    traced = _traced_loops(spec, d)
    # Each loop j's share of the arcs: 2 with a reflected mirror, 0 reflected.
    weights = [2 if d - 1 - j >= traced else int(j < traced) for j in range(d)]
    flat = [(w, loop) for ls in loops for w, loop in zip(weights, ls)]
    sizes = [max(1, w * len(loop) // _ARC_CROSSINGS) for w, loop in flat]
    picks = [loop[np.arange(k) * len(loop) // k] for (_, loop), k in zip(flat, sizes)]
    levels = np.repeat(np.repeat(energies, [len(ls) for ls in loops]), sizes)
    seeds = refine_to_level(spec, np.concatenate(picks), levels)
    return np.split(seeds, np.cumsum(sizes)[:-1])


def _squared_norm(v) -> np.ndarray:
    """Squared norm over a last axis of length 2, rounded as np.linalg.norm rounds it."""
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]


def _reflected(comp: LevelComponent) -> LevelComponent:
    """comp under (x, xi) -> (-x, -xi), which traced nothing."""
    return replace(
        comp, points=-comp.points, seed=(-comp.seed[0], -comp.seed[1]),
        steps=0, arcs=0, attempts=0, landing_solves=0,
    )


def _traced_loops(spec, d: int) -> int:
    """How many of d loops per energy are traced: the loops j <= d - 1 - j for an even H."""
    return (d + 1) // 2 if spec.even else d


def _traced_components(spec, energies, loops, trace_tol):
    """The component of each of the d loops of each energy, in loop order.

    For an even H (SymbolSpec.even) loop d - 1 - j of every energy is the
    reflection of loop j, the marching loops being ordered from the left: the
    loops j <= d - 1 - j are traced (_traced_loops) and each later loop's
    component is the exact reflection of loop d - 1 - j's (_reflected), which
    must pass within its polyline resolution of the loop's own first seed,
    or NonConstantTopology is raised. Otherwise every loop is traced. The
    traced loops go from their _candidates seeds into one trace_component
    call; a reflected loop gets only its first seed, in the same
    _candidates call, and its mirror max(1, 2n // _ARC_CROSSINGS) arcs for
    its n crossings, the arcs the two loops would have together, so the
    batch's arcs stay as short as with both loops traced. A self-symmetric
    or uneven loop keeps max(1, n // _ARC_CROSSINGS). A component passing
    within its polyline resolution of a later loop's first seed at its
    energy raises NonConstantTopology.
    """
    d = len(loops[0])
    traced = _traced_loops(spec, d)
    seeds = _candidates(spec, energies, loops)
    starts = range(0, len(seeds), d)
    runs = trace_component(
        spec,
        [seeds[s + j] for s in starts for j in range(traced)],
        np.repeat(energies, traced),
        trace_tol,
    )
    per_energy = [runs[i : i + traced] for i in range(0, len(runs), traced)]
    for comps in per_energy:
        comps += [_reflected(comps[d - 1 - j]) for j in range(traced, d)]
    points = np.stack([c.points for comps in per_energy for c in comps])
    points = points.reshape(len(energies), d, -1, 2)
    firsts = np.array([seeds[s + j][0] for s in starts for j in range(d)]).reshape(-1, d, 2)
    chords = np.sqrt(_squared_norm(np.diff(points, axis=2, append=points[:, :, :1])))
    merge_dist = np.maximum(3.0 * np.max(chords, axis=2), 1e-9)
    # Each component i against each later seed j at its energy: the strict upper triangle.
    i, j = np.triu_indices(d, 1)
    gap = np.sqrt(np.min(_squared_norm(points[:, i] - firsts[:, j, None]), axis=2))
    if np.any(gap <= merge_dist[:, i]):
        raise NonConstantTopology("traced component count disagrees with the grid scan")
    # Each reflected component against its own loop's seed.
    r = np.arange(traced, d)
    gap = np.sqrt(np.min(_squared_norm(points[:, r] - firsts[:, r, None]), axis=2))
    if np.any(gap > merge_dist[:, r]):
        raise NonConstantTopology("a loop of an even symbol is not the reflection of its mirror")
    return per_energy


def _lobatto(window: EnergyWindow, n: int) -> np.ndarray:
    """n Chebyshev-Lobatto energies of the window, ascending, ends exact."""
    mid = 0.5 * (window.e1 + window.e2)
    half = 0.5 * (window.e2 - window.e1)
    nodes = mid + half * np.cos(np.pi * np.arange(n) / (n - 1))
    nodes = np.sort(nodes)
    nodes[0], nodes[-1] = window.e1, window.e2
    return nodes


def build_families(
    spec: SymbolSpec,
    window: EnergyWindow,
    n_samples: int = DEFAULT_ACTION_SAMPLES,
    *,
    trace_tol: float = DEFAULT_TRACE_TOL,
) -> list[ComponentFamily]:
    """Follow each component across the window; labels are the loop order.

    The window is sampled at n_samples Chebyshev-Lobatto energies, the
    nodes an action table is fitted on, and every family carries its
    component at each of them. The component count is taken on every
    sampled energy first, by one marching pass over all of them on one
    evaluation of H on a GRID_N x GRID_N grid, the constant read at call
    time; any variation raises NonConstantTopology
    (a critical value sits inside the window, violating the regular-window
    hypothesis), as does a loop traced twice by _traced_components. Family
    k holds the k-th loop of every energy: _marching_loops lists each
    energy's loops by their least edge code, their leftmost crossed grid
    column. For xi^2/2 + V each component lies over its own interval of
    {V <= E}, and on a regular window these keep their left-to-right order
    (a closed form has one component), so the k-th loop is the same
    component at every energy and no trace is matched across energies.
    For an exactly even symbol (SymbolSpec.even: a polynomial V with no odd
    term, kerr, anisotropic_harmonic) the reflection (x, xi) -> (-x, -xi)
    commutes with the flow, so of a mirror pair of families j < d + 1 - j
    only j is traced, still in the scan's one trace_component call, and
    family d + 1 - j is its exact reflection: negated points and seed, the
    same action, period and Maslov index, no DP45 step and no arc, and
    reflects = j. It must pass within its polyline resolution of its own
    loop's first seed at every energy, or NonConstantTopology is raised.
    Family j is traced as the arcs of both loops (_traced_components). A
    self-symmetric family (the only one of kerr or the quartic, the middle
    one of an odd count) is traced as for any symbol.
    Raises ConfigError (check_action_samples) unless n_samples is an integer
    from 9 to MAX_ACTION_SAMPLES.
    """
    check_action_samples(n_samples)
    box = compact_preimage_box(spec, window)
    energies = _lobatto(window, n_samples)
    loops = _marching_loops(spec, energies, box, GRID_N)
    counts = [len(ls) for ls in loops]
    if len(set(counts)) != 1:
        raise NonConstantTopology(
            f"component count varies over the window: {sorted(set(counts))}"
        )
    d = counts[0]  # at least 1: a level without a crossing raised EmptyLevelSet

    per_energy = _traced_components(spec, energies, loops, trace_tol)
    traced = _traced_loops(spec, d)
    return [
        ComponentFamily(
            k=j + 1,
            components=tuple(comps[j] for comps in per_energy),
            reflects=None if j < traced else d - j,
        )
        for j in range(d)
    ]
