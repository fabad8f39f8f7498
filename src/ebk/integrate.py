"""Embedded Dormand-Prince 5(4) stepper with quartic dense output, batched.

The traced flows are small autonomous systems (position, momentum,
accumulated action), and a scan needs many of them at once: one orbit per
energy of an action table or per candidate of a family scan. The stepper
therefore advances a (dim, m) batch of independent states in one loop, the
standard batched-IVP form of the DP5(4) pair with Shampine dense output
(Hairer, Norsett, Wanner, Solving ODEs I, II.4-6). Every column keeps its
own time, step size, accept/reject decision, FSAL stage and error norm, and
all arithmetic is column by column, so a column advances bit for bit as it
would alone. The right-hand side is evaluated once per stage for all live
columns together, which is where the batch saves interpreter overhead, and
every stage sum is one np.einsum over the stacked stages, added in stage
order. An attempt that accepts every live column, almost every attempt of a
scan, yields its arrays as they are; only one with a rejected column selects
the accepted columns and tests for step-size underflow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TraceDiverged

# Butcher tableau; stage times are omitted because all traced systems are
# autonomous.
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Quartic interpolant weights (Shampine); same accuracy order as the solution.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

# The B, E and P weights stacked for one sum. A stage sum is an np.einsum over
# the stage axis of the stage values k (stages, dim, m); without optimize it
# takes no BLAS path and adds the products in stage order, as the explicit sum
# w0 k0 + w1 k1 + ... does, so a column advances bit for bit as alone.
_BEP = np.vstack([_B, _E, _P.T])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _dense(t0, h, y0, q, t):
    """y(t) = y0 + h * (q[0] th + q[1] th^2 + q[2] th^3 + q[3] th^4), th = (t - t0)/h.

    q holds the four interpolant coefficients on its first axis; the other
    arguments broadcast against q[0].
    """
    theta = (t - t0) / h
    return y0 + h * theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))


@dataclass(frozen=True)
class Step:
    """Accepted steps of the batch columns cols in one attempt.

    Entry j is the step of column cols[j] from t0[j] to t0[j] + h[j]; its
    dense state is _dense(t0, h, y0, q, t) column by column. attempt counts
    the attempts of the batch before this one.
    """

    cols: np.ndarray  # (k,) batch column indices
    t0: np.ndarray  # (k,)
    h: np.ndarray  # (k,)
    y0: np.ndarray  # (dim, k)
    y1: np.ndarray  # (dim, k)
    q: np.ndarray  # (4, dim, k)
    attempt: int = 0

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Dense state at one time per column, (k,) -> (dim, k)."""
        return _dense(self.t0, self.h, self.y0, self.q, t)

    def take(self, idx) -> "Step":
        """The entries idx of this step."""
        return Step(
            self.cols[idx], self.t0[idx], self.h[idx],
            self.y0[:, idx], self.y1[:, idx], self.q[:, :, idx], self.attempt,
        )


def _initial_step(f, y0):
    scale = np.linalg.norm(y0, axis=0) + 1.0
    rate = np.linalg.norm(f(y0), axis=0) + 1e-12
    return np.minimum(np.maximum(0.01 * scale / rate, 1e-8), 0.5)


def dp45_steps(f, y0, tol: float, *, active):
    """Yield a Step for every attempt in which at least one column is accepted.

    y0 is a (dim, m) batch of states; f maps a (dim, k) array of states
    to their derivatives column by column. Each column runs from t = 0
    until the caller clears its entry of active, an (m,) bool array, between
    two steps; the generator returns once every entry is clear. tol is used
    as both absolute and relative local error target per step. f is
    evaluated 2 times at start-up and 6 times per attempt.
    Raises TraceDiverged on step-size underflow in any column, a NaN step
    size (after an overflowing trial stage) included. The state arrays are
    rebound, never written in place, so a yielded Step stays valid.
    """
    y = np.array(y0, dtype=float)
    dim, m = y.shape
    cols = np.arange(m)  # batch column of each live column
    t = np.zeros(m)
    k = np.empty((7, dim, m))
    k[0] = f(y)
    h = _initial_step(f, y)
    for attempt in itertools.count():
        live = active[cols]
        if not live.all():
            cols, t, h, y = cols[live], t[live], h[live], y[:, live]
            k = np.ascontiguousarray(k[:, :, live])  # keeps the summation order
        if not cols.size:
            return
        for i in range(1, 7):
            k[i] = f(y + h * np.einsum("j,jdm->dm", _A[i], k[:i]))
        bep = np.einsum("rj,jdm->rdm", _BEP, k)
        y1 = y + h * bep[0]
        ratio = h * bep[1] / (tol + tol * np.maximum(np.abs(y), np.abs(y1)))
        err = np.sqrt((ratio * ratio).sum(axis=0) / dim)
        # err = 0 gives the largest growth factor, as does any err < 1e-300.
        factor = np.maximum(_SAFETY * np.maximum(err, 1e-300) ** -0.2, _MIN_FACTOR)
        factor = np.minimum(factor, _MAX_FACTOR)
        ok = err <= 1.0
        if ok.all():  # the usual attempt: no selection, no copies
            yield Step(cols, t, h, y, y1, bep[2:], attempt)
            t, y = t + h, y1
            k[0] = k[6]  # FSAL
        else:
            if ok.any():
                yield Step(
                    cols[ok], t[ok], h[ok], y[:, ok], y1[:, ok], bep[2:, :, ok], attempt
                )
                t, y = np.where(ok, t + h, t), np.where(ok, y1, y)
                k[0][:, ok] = k[6][:, ok]
            # Written as "not >=" so that a NaN step size counts as underflow.
            if np.any(~ok & ~(h * factor >= 1e-14 * np.maximum(1.0, np.abs(t)))):
                raise TraceDiverged("step size underflow in dp45")
        h = h * factor


def resample(t0, h, y0, q, ts, bounds=None) -> np.ndarray:
    """Evaluate dense trajectories at sorted times.

    t0, h (n,), y0 (n, dim) and q (n, 4, dim) are accepted steps in order of
    their start times t0; returns (len(ts), dim). Each time is served by the
    last step starting at or before it, so the steps of several arcs, each
    shifted to start where the one before it ends, form one trajectory even
    where an arc's last step runs past the next arc's start. Given bounds,
    the steps bounds[j]:bounds[j + 1] are trajectory j and ts its sorted
    times ts[j], and the rows are every trajectory's samples in turn, from
    one evaluation.
    """
    if bounds is None:
        ts, bounds = [ts], [0, len(t0)]
    idx = np.concatenate([
        lo + np.maximum(np.searchsorted(t0[lo:hi], t, side="right") - 1, 0)
        for lo, hi, t in zip(bounds[:-1], bounds[1:], ts)
    ])
    # Gathered as one row per coefficient and dimension, the layout of a
    # Step, whose arithmetic runs on contiguous rows; given y0 and q as the
    # transposes of such arrays, as the stepper's steps give them, every
    # gather is along a contiguous row.
    y0 = np.take(y0.T, idx, axis=-1)
    q = np.take(np.moveaxis(q, 0, -1), idx, axis=-1)
    return _dense(t0[idx], h[idx], y0, q, np.concatenate(ts)).T.copy()
