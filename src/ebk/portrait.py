"""Level-set extraction by Hamiltonian flow tracing.

The connected components of {H = E} are found in two stages. A marching
pass over a grid of H values yields one candidate point per closed contour
loop, interpolated on a grid edge and refined onto the level set along the
gradient. The pass computes every edge crossing and pairs the crossings of
every cell as arrays, and walks each loop along an integer neighbour table;
a crossing on the box boundary means the level set leaves the box. Each
candidate then seeds an integration of the flow

    x' = dH/dxi,   xi' = -dH/dx,

which traces the component, detects the first return through a section
normal to the flow at the seed, and accumulates the loop action integral
of xi dx along the way. Period, action and the sample polyline therefore
come from a single adaptive integration. The orbits of a scan (every
candidate of every sampled energy) are integrated together as one batch,
each with its own step size, section and return test.

Component counting near a topology change never relies on tracing (a trace
started on a critical level would stall), only on the marching pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import integrate
from .errors import (
    CriticalSeed,
    EmptyLevelSet,
    NonConstantTopology,
    NotClosedOrbit,
    PreimageNotEnclosed,
    TraceDiverged,
)
from .symbols import Box, EnergyWindow, SymbolSpec, compact_preimage_box

DEFAULT_TRACE_TOL = 1e-10
DEFAULT_MAX_TIME = 1e4
DEFAULT_POINTS = 4096
# Lobatto energies per family scan, the nodes of each action table.
DEFAULT_ACTION_SAMPLES = 17
_MIN_GRAD = 1e-8
# Local integration error per step, well under the trace tolerance so the
# accumulated drift over one period stays within it.
_LOCAL_TOL_FACTOR = 1e-3


@dataclass(frozen=True)
class LevelComponent:
    """One closed oriented component of {H = E}, sampled along the flow.

    points are approximately equispaced in flow time over one period and do
    not repeat the initial point at t = period. orientation +1 means the
    stored order follows the Hamiltonian flow; action is the loop integral
    of xi dx in the stored orientation.
    """

    energy: float
    points: np.ndarray  # (n, 2) columns x, xi
    times: np.ndarray
    period: float
    seed: tuple[float, float]
    orientation: int
    action: float
    trace_tol: float
    closure_gap: float = 0.0  # |flow(seed, period) - seed|, already <= trace_tol
    steps: int = 0  # accepted DP45 steps of the trace

    def reversed(self) -> "LevelComponent":
        pts = self.points[::-1].copy()
        pts = np.roll(pts, 1, axis=0)  # keep the seed sample first
        return replace(
            self,
            points=pts,
            orientation=-self.orientation,
            action=-self.action,
        )


@dataclass(frozen=True)
class ComponentFamily:
    """A level-set component followed continuously across the window.

    components holds the traced component at each sampled energy, in
    ascending energy order.
    """

    k: int
    components: tuple[LevelComponent, ...]

    @property
    def energies(self) -> np.ndarray:
        return np.array([c.energy for c in self.components])

    @property
    def seeds(self) -> np.ndarray:
        """(n, 2), the seed of each sampled component."""
        return np.array([c.seed for c in self.components])


def _grid_values(spec, box: Box, n: int):
    xs = np.linspace(box.x_lo, box.x_hi, n)
    xis = np.linspace(box.xi_lo, box.xi_hi, n)
    H = np.asarray(
        spec.value(xs[:, None], xis[None, :]), dtype=float
    )
    return xs, xis, H


def _marching_loops(spec, energy, box, grid_n):
    """Closed contour loops of {H = E} on the grid.

    Returns a list of loops, each an ordered list of edge-crossing points
    (x, xi). Edge (i, j, axis) joins node (i, j) to (i + 1, j) for axis 0
    and to (i, j + 1) for axis 1; its code (i * n + j) * 2 + axis is its flat
    index in the crossing mask. The crossing points, one array per axis, and
    the pairing of every cell's crossed edges, a saddle cell's by the sign of
    H - E at its centre, are array operations. Every interior edge then has
    two neighbours, so a chain is open exactly when a crossed edge lies on
    the box boundary: PreimageNotEnclosed. Only the walk over the integer
    neighbour table runs in Python; each loop starts at its least edge.
    """
    xs, xis, H = _grid_values(spec, box, grid_n)
    n = grid_n
    F = H - energy
    pos = F > 0.0
    cross = np.zeros((n, n, 2), dtype=bool)
    cross[:-1, :, 0] = pos[:-1, :] != pos[1:, :]
    cross[:, :-1, 1] = pos[:, :-1] != pos[:, 1:]
    codes = np.flatnonzero(cross)
    if not codes.size:
        raise EmptyLevelSet(f"no crossing of level {energy:g} on the grid")
    if cross[:, [0, -1], 0].any() or cross[[0, -1], :, 1].any():
        raise PreimageNotEnclosed("open contour chain: the level set leaves the box")

    i, j, axis = codes // (2 * n), codes // 2 % n, codes % 2
    px, pxi = xs[i], xis[j]
    ia, ja = i[axis == 0], j[axis == 0]
    t = F[ia, ja] / (F[ia, ja] - F[ia + 1, ja])
    px[axis == 0] = xs[ia] + t * (xs[ia + 1] - xs[ia])
    ia, ja = i[axis == 1], j[axis == 1]
    t = F[ia, ja] / (F[ia, ja] - F[ia, ja + 1])
    pxi[axis == 1] = xis[ja] + t * (xis[ja + 1] - xis[ja])

    # A cell is named by the code of its bottom edge; its bottom, top, left
    # and right edges sit at these offsets from it.
    offset = np.array([0, 2, 1, 2 * n + 1])
    cells = np.unique(np.concatenate([codes - axis, codes - axis - np.where(axis, 2 * n, 2)]))
    sides = cross.ravel()[cells[:, None] + offset]
    cell, side = np.nonzero(sides)  # 2 or 4 crossed sides per cell, in that order
    ends = cells[cell] + offset[side]
    count = sides.sum(axis=1)
    first = (np.cumsum(count) - count)[count == 4, None]
    ci, cj = cells[count == 4] // (2 * n), cells[count == 4] // 2 % n
    centre = np.asarray(spec.value(0.5 * (xs[ci] + xs[ci + 1]), 0.5 * (xis[cj] + xis[cj + 1])))
    # A saddle centre of the sign of corner (i, j) pairs bottom with right and
    # top with left, otherwise bottom with left and top with right.
    same = (centre - energy > 0.0) == pos[ci, cj]
    ends[first + np.arange(4)] = ends[first + np.where(same[:, None], [0, 3, 1, 2], [0, 2, 1, 3])]
    # Each edge's two neighbours, the one from the lower cell first.
    a, b, pair_cell = ends[0::2], ends[1::2], cells[cell[0::2]]
    order = np.lexsort((np.tile(pair_cell, 2), np.concatenate([a, b])))
    nbr = np.searchsorted(codes, np.concatenate([b, a])[order]).reshape(-1, 2).tolist()

    points = list(zip(px.tolist(), pxi.tolist()))
    seen, loops = set(), []
    for start in range(len(points)):
        if start in seen:
            continue
        chain, prev, cur = [start], start, nbr[start][0]
        while cur != start:
            chain.append(cur)
            fwd, back = nbr[cur]
            prev, cur = cur, back if fwd == prev else fwd
        seen.update(chain)
        loops.append([points[e] for e in chain])
    return loops


def marching_component_count(
    spec: SymbolSpec, energy: float, box: Box, grid_n: int = 201
) -> int:
    """Number of closed contour loops on the grid; no flow integration."""
    return len(_marching_loops(spec, energy, box, grid_n))


def refine_to_level(spec, point, energy, tol=1e-12, max_iter=80):
    """Move a point onto {H = E} along the gradient direction."""
    x, xi = float(point[0]), float(point[1])
    for _ in range(max_iter):
        h = float(spec.value(x, xi)) - energy
        if abs(h) <= tol:
            return x, xi
        gx, gxi = spec.gradient(x, xi)
        gx, gxi = float(gx), float(gxi)
        n2 = gx * gx + gxi * gxi
        if n2 < _MIN_GRAD**2:
            raise EmptyLevelSet("refinement stalled at a near-critical point")
        x -= h * gx / n2
        xi -= h * gxi / n2
    raise EmptyLevelSet(f"could not refine seed onto level {energy:g}")


class _History:
    """Dense-output history of a batch, x and xi rows only.

    Steps are stored per column in preallocated (steps, ..., m) buffers that
    grow geometrically, so a batch never builds a list of step objects.
    """

    def __init__(self, m: int, capacity: int = 256):
        self.n = np.zeros(m, dtype=int)
        self.t0 = np.empty((capacity, m))
        self.h = np.empty((capacity, m))
        self.y0 = np.empty((capacity, 2, m))
        self.q = np.empty((capacity, 4, 2, m))

    def append(self, step: integrate.Step):
        rows, cols = self.n[step.cols], step.cols
        if rows.max() >= len(self.t0):
            for name in ("t0", "h", "y0", "q"):
                old = getattr(self, name)
                grown = np.empty((2 * len(old),) + old.shape[1:])
                grown[: len(old)] = old
                setattr(self, name, grown)
        self.t0[rows, cols] = step.t0
        self.h[rows, cols] = step.h
        self.y0[rows, :, cols] = step.y0[:2].T
        self.q[rows, :, :, cols] = step.q[:, :2].transpose(2, 0, 1)
        self.n[cols] += 1

    def resample(self, j: int, ts: np.ndarray) -> np.ndarray:
        n = self.n[j]
        return integrate.resample(
            self.t0[:n, j], self.h[:n, j], self.y0[:n, :, j], self.q[:n, :, :, j], ts
        )


def _bisect_crossing(step: integrate.Step, section) -> np.ndarray:
    """Time in each entry of step where section(state) turns non-negative.

    section(step.eval(t0)) < 0 <= section(step.eval(t0 + h)) entry by
    entry; each bracket is halved on the dense output until it is at most
    1e-13 wide (64 halvings at most).
    """
    lo, hi = step.t0, step.t0 + step.h
    bisecting = np.ones(len(lo), dtype=bool)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = section(step.eval(mid)) < 0.0
        lo = np.where(bisecting & below, mid, lo)
        hi = np.where(bisecting & ~below, mid, hi)
        bisecting &= hi - lo > 1e-13
        if not bisecting.any():
            break
    return 0.5 * (lo + hi)


def trace_component(
    spec: SymbolSpec,
    seed,
    energy,
    trace_tol: float = DEFAULT_TRACE_TOL,
    *,
    max_time: float = DEFAULT_MAX_TIME,
    n_points: int = DEFAULT_POINTS,
) -> LevelComponent | list[LevelComponent]:
    """Trace the closed flow orbit through seed on {H = E}.

    seed is one (x, xi) pair with a scalar energy, giving one
    LevelComponent, or a sequence of m pairs with a sequence of m energies,
    giving a list of m components traced together in one batched
    integration; each orbit of a batch is traced as it would be alone.

    The first return is detected on the section through the seed normal to
    the flow, accepting only crossings in the flow direction that land back
    at the seed within trace_tol; the return time is refined by bisection on
    the dense output to 1e-13. Raises CriticalSeed if a seed sits at a
    near-critical point, NotClosedOrbit if an orbit does not return before
    max_time and TraceDiverged if its sampled energies drift or its step
    size underflows.
    """
    batch = np.ndim(energy) > 0
    seeds = np.array(seed, dtype=float).reshape(-1, 2)
    energies = np.atleast_1d(np.asarray(energy, dtype=float))
    if len(seeds) != len(energies):
        raise ValueError(f"{len(seeds)} seeds for {len(energies)} energies")
    m = len(seeds)
    sx, sxi = seeds[:, 0].copy(), seeds[:, 1].copy()
    gx, gxi = spec.gradient(sx, sxi)
    speed = np.hypot(gxi, gx)
    if np.any(speed <= _MIN_GRAD):
        raise CriticalSeed("seed gradient too small; refusing to trace near a critical point")
    nx, nxi = gxi / speed, -gx / speed  # flow direction at each seed

    def section(y, c):
        """Signed distance of states y of columns c past their seed sections."""
        return nx[c] * (y[0] - sx[c]) + nxi[c] * (y[1] - sxi[c])

    def rhs(y):
        dx, dxi = spec.gradient(y[0], y[1])
        return np.array([dxi, -dx, y[1] * dxi])

    y0 = np.vstack([sx, sxi, np.zeros(m)])
    local_tol = trace_tol * _LOCAL_TOL_FACTOR
    history = _History(m)
    running = np.ones(m, dtype=bool)  # not yet returned; the stepper drops the rest
    g_prev = np.zeros(m)
    period = np.zeros(m)
    y_ret = np.zeros((3, m))
    for step in integrate.dp45_steps(rhs, y0, local_tol, max_time, active=running):
        history.append(step)
        g_new = section(step.y1, step.cols)
        hit = (g_prev[step.cols] < 0.0) & (g_new >= 0.0)
        g_prev[step.cols] = g_new
        if not hit.any():
            continue
        cross = step.take(hit)
        c = cross.cols
        t_star = _bisect_crossing(cross, lambda y: section(y, c))
        y_star = cross.eval(t_star)
        back = np.hypot(y_star[0] - sx[c], y_star[1] - sxi[c]) <= trace_tol
        period[c[back]] = t_star[back]
        y_ret[:, c[back]] = y_star[:, back]
        running[c[back]] = False
    if running.any():
        j = int(np.argmax(running))
        raise NotClosedOrbit(
            f"no return to the section within t = {max_time:g} from seed "
            f"({sx[j]:g}, {sxi[j]:g})"
        )

    components = []
    for j in range(m):
        ts = np.linspace(0.0, period[j], n_points, endpoint=False)
        points = history.resample(j, ts)
        drift = np.abs(
            np.asarray(spec.value(points[:, 0], points[:, 1]), dtype=float) - energies[j]
        )
        if float(np.max(drift)) > trace_tol:
            raise TraceDiverged(
                f"energy drift {float(np.max(drift)):.3e} exceeds {trace_tol:g}"
            )
        components.append(
            LevelComponent(
                energy=float(energies[j]),
                points=points,
                times=ts,
                period=float(period[j]),
                seed=(float(sx[j]), float(sxi[j])),
                orientation=+1,
                action=float(y_ret[2, j]),
                trace_tol=trace_tol,
                closure_gap=float(math.hypot(y_ret[0, j] - sx[j], y_ret[1, j] - sxi[j])),
                steps=int(history.n[j]),
            )
        )
    return components if batch else components[0]


def _candidates(spec, energy, loops):
    """One seed per marching loop, refined onto the level set."""
    return [refine_to_level(spec, loop[0], energy) for loop in loops]


def _distinct(candidates, traces):
    """Traces of distinct components, first come first kept.

    A candidate is covered once a kept trace passes within its polyline
    resolution; the trace of a covered candidate is dropped.
    """
    components: list[LevelComponent] = []
    covered = [False] * len(candidates)
    for i, comp in enumerate(traces):
        if covered[i]:
            continue
        components.append(comp)
        chords = np.linalg.norm(np.diff(comp.points, axis=0, append=comp.points[:1]), axis=1)
        merge_dist = max(3.0 * float(np.max(chords)), 1e-9)
        for j in range(i, len(candidates)):
            d = float(
                np.min(np.linalg.norm(comp.points - np.asarray(candidates[j]), axis=1))
            )
            if d <= merge_dist:
                covered[j] = True
    return components


def _components_at(spec, energy, box, grid_n, trace_tol, n_points=DEFAULT_POINTS):
    """All components of {H = E} in the box, traced and deduplicated."""
    candidates = _candidates(spec, energy, _marching_loops(spec, energy, box, grid_n))
    traces = trace_component(
        spec, candidates, [energy] * len(candidates), trace_tol, n_points=n_points
    )
    return _distinct(candidates, traces)


def seed_components(
    spec: SymbolSpec,
    energy: float,
    box: Box,
    grid_n: int = 201,
    *,
    trace_tol: float = DEFAULT_TRACE_TOL,
) -> list[tuple[float, float]]:
    """One refined seed per connected component of {H = E} in the box.

    Candidates come from grid-edge sign changes refined to |H - E| <= 1e-12;
    two candidates are merged when the trace from one passes within the
    polyline resolution of the other.
    """
    comps = _components_at(spec, energy, box, grid_n, trace_tol, n_points=1024)
    return [c.seed for c in comps]


def component_count(
    spec: SymbolSpec, energy: float, box: Box, grid_n: int = 201
) -> int:
    """Number of deduplicated traced components of {H = E}."""
    return len(_components_at(spec, energy, box, grid_n, DEFAULT_TRACE_TOL, n_points=1024))


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
    grid_n: int = 201,
    trace_tol: float = DEFAULT_TRACE_TOL,
) -> list[ComponentFamily]:
    """Follow each component across the window; labels are stable in energy.

    The window is sampled at n_samples Chebyshev-Lobatto energies, the
    nodes an action table is fitted on, and every family carries its traced
    component at each of them. The component count is taken on every
    sampled energy by the marching pass first; any variation raises
    NonConstantTopology (a critical value sits inside the window, violating
    the regular-window hypothesis).
    """
    if n_samples < 9:
        raise ValueError("need at least 9 action samples")
    box = compact_preimage_box(spec, window)
    energies = _lobatto(window, n_samples)
    loops = [_marching_loops(spec, e, box, grid_n) for e in energies]
    counts = [len(ls) for ls in loops]
    if len(set(counts)) != 1:
        raise NonConstantTopology(
            f"component count varies over the window: {sorted(set(counts))}"
        )
    d = counts[0]
    if d == 0:
        raise EmptyLevelSet("window contains no level-set components")

    # Every candidate of every energy is traced in one batch, then each
    # energy's traces are deduplicated in candidate order.
    candidates = [_candidates(spec, e, ls) for e, ls in zip(energies, loops)]
    traces = trace_component(
        spec,
        [c for cs in candidates for c in cs],
        np.repeat(energies, counts),
        trace_tol,
    )
    per_energy = []
    for cs in candidates:
        per_energy.append(_distinct(cs, traces[: len(cs)]))
        traces = traces[len(cs) :]
    if any(len(comps) != d for comps in per_energy):
        raise NonConstantTopology("traced component count disagrees with the grid scan")

    # Initial labels: order by leftmost point. Continuation: nearest polyline.
    order = np.argsort([float(np.min(c.points[:, 0])) for c in per_energy[0]])
    tracks = [[per_energy[0][j]] for j in order]
    for comps in per_energy[1:]:
        taken = [False] * d
        for track in tracks:
            seed_prev = np.asarray(track[-1].seed)
            dists = [
                np.inf
                if taken[j]
                else float(np.min(np.linalg.norm(comps[j].points - seed_prev, axis=1)))
                for j in range(d)
            ]
            j = int(np.argmin(dists))
            taken[j] = True
            track.append(comps[j])
    return [
        ComponentFamily(k=k, components=tuple(track))
        for k, track in enumerate(tracks, start=1)
    ]
