import numpy as np
import pytest

from ebk import integrate


def _counted(f):
    calls = []

    def rhs(y):
        calls.append(y.shape[1])
        return f(y)

    return rhs, calls


def _pendulum(y):
    # Large-amplitude pendulum plus the action integrand, column by column.
    return np.array([y[1], -np.sin(y[0]), y[1] * y[1]])


Y0 = np.array([[0.5, 2.0, 3.0, -1.0], [0.0, 0.3, 0.0, 1.5], [0.0, 0.0, 0.0, 0.0]])


def _until(f, y0, tol, T):
    """dp45_steps over the columns of y0, each stopped once a step ends at or past T."""
    active = np.ones(y0.shape[1], dtype=bool)
    for step in integrate.dp45_steps(f, y0, tol, active=active):
        yield step
        active[step.cols[step.t0 + step.h >= T]] = False


def _history(steps, m):
    """Per column: list of (t0, h, y1) of its accepted steps."""
    out = [[] for _ in range(m)]
    for step in steps:
        for j, c in enumerate(step.cols):
            out[c].append((step.t0[j], step.h[j], step.y1[:, j].copy()))
    return out


def _entries(steps, m):
    """Per column: list of (t0, h, y0, y1, q) of its accepted steps."""
    out = [[] for _ in range(m)]
    for step in steps:
        for j, c in enumerate(step.cols):
            out[c].append(
                (step.t0[j], step.h[j], step.y0[:, j], step.y1[:, j], step.q[:, :, j])
            )
    return out


def test_batch_rhs_count_and_columns_match_single_runs():
    rhs, calls = _counted(_pendulum)
    steps = list(_until(rhs, Y0, 1e-9, 12.0))
    attempts, extra = divmod(len(calls) - 2, 6)
    assert extra == 0
    assert attempts >= len(steps) > 0
    # Every call sees the live columns at once.
    assert calls[0] == calls[1] == Y0.shape[1]
    batch = _history(steps, Y0.shape[1])
    for j in range(Y0.shape[1]):
        single_rhs, single_calls = _counted(_pendulum)
        single = list(_until(single_rhs, Y0[:, j : j + 1], 1e-9, 12.0))
        assert (len(single_calls) - 2) % 6 == 0
        ref = _history(single, 1)[0]
        # A column's arithmetic does not depend on the rest of the batch.
        assert len(batch[j]) == len(ref)
        for (t0, h, y1), (t0r, hr, y1r) in zip(batch[j], ref):
            assert (t0, h) == (t0r, hr)
            np.testing.assert_array_equal(y1, y1r)
        ends = [t0 + h for t0, h, _ in batch[j][-2:]]
        assert ends[0] < 12.0 <= ends[1]


def test_rejected_attempts_are_counted():
    # A column starting almost at rest gets a 0.5 initial step, far too
    # long for its frequency, so attempts are rejected; the batch holds
    # a second column and still advances the first exactly as alone.
    def oscillator(y):
        return np.array([y[1], -400.0 * y[0]])

    rhs, calls = _counted(oscillator)
    slow = np.array([[0.0], [1e-3]])
    steps = list(_until(rhs, slow, 1e-12, 1.0))
    attempts, extra = divmod(len(calls) - 2, 6)
    assert extra == 0
    assert attempts > len(steps)
    y0 = np.array([[1.0, 0.0], [0.0, 1e-3]])
    batch = list(_until(oscillator, y0, 1e-12, 1.0))
    # Attempts where only one column is accepted take the selecting path.
    assert any(len(step.cols) == 1 for step in batch)
    for j in range(2):
        ref = _entries(_until(oscillator, y0[:, j : j + 1], 1e-12, 1.0), 1)[0]
        got = _entries(batch, 2)[j]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            for u, v in zip(a, b):
                assert np.asarray(u).tobytes() == np.asarray(v).tobytes()


def test_active_mask_stops_a_column():
    rhs, calls = _counted(_pendulum)
    active = np.ones(Y0.shape[1], dtype=bool)
    seen = []
    for step in integrate.dp45_steps(rhs, Y0, 1e-9, active=active):
        seen.append(set(step.cols.tolist()))
        if len(seen) == 5:
            active[1] = False
        if len(seen) == 40:
            active[:] = False
    assert len(seen) == 40  # the stepper returns once every column is stopped
    assert all(1 in cols for cols in seen[:5])
    assert all(1 not in cols for cols in seen[5:])
    assert (len(calls) - 2) % 6 == 0
    assert Y0.shape[1] - 1 in calls


def test_resample_matches_dense_step_output():
    steps = list(_until(_pendulum, Y0[:, :1], 1e-9, 6.0))
    t0 = np.array([s.t0[0] for s in steps])
    h = np.array([s.h[0] for s in steps])
    y0 = np.array([s.y0[:, 0] for s in steps])
    q = np.array([s.q[:, :, 0] for s in steps])
    ts = np.linspace(0.0, 6.0, 97, endpoint=False)
    got = integrate.resample(t0, h, y0, q, ts)
    for i, t in enumerate(ts):
        s = steps[int(np.searchsorted(t0 + h, t))]
        np.testing.assert_allclose(got[i], s.eval(np.array([t]))[:, 0], rtol=0, atol=1e-15)
    # Step ends reproduce the accepted states.
    np.testing.assert_allclose(
        integrate.resample(t0, h, y0, q, t0[1:]), y0[1:], rtol=0, atol=1e-12
    )


def _stage_order_sum(weights, k):
    """w0 k0 + w1 k1 + ..., added left to right."""
    acc = weights[0] * k[0]
    for w, kj in zip(weights[1:], k[1:]):
        acc = acc + w * kj
    return acc


def _first_attempt(f, y, tol):
    """Accept mask, h, y1 and dense coefficients of the stepper's first attempt."""
    h = integrate._initial_step(f, y)
    k = [f(y)]
    for a in integrate._A[1:]:
        k.append(f(y + h * _stage_order_sum(a, k)))
    y1 = y + h * _stage_order_sum(integrate._B, k)
    ratio = h * _stage_order_sum(integrate._E, k) / (tol + tol * np.maximum(np.abs(y), np.abs(y1)))
    ok = np.sqrt((ratio * ratio).sum(axis=0) / y.shape[0]) <= 1.0
    q = np.array([_stage_order_sum(p, k) for p in integrate._P.T])
    return ok, h, y1, q


@pytest.mark.parametrize("m", [1, 7, 450, 1000])
def test_attempt_equals_stage_order_sums(m):
    # Every column's stage sums add their products in stage order, exactly as
    # written out; a reordered accumulation would change the traced levels.
    rng = np.random.default_rng(m)
    rate = rng.uniform(1.0, 400.0, m)
    # Every third column starts almost at rest, so its first step is far too
    # long for its frequency and is rejected.
    scale = np.where(np.arange(m) % 3 == 1, 1e-3, 1.0)
    y0 = np.vstack([scale * rng.normal(size=m), scale * rng.normal(size=m), np.zeros(m)])

    def rhs(y):
        return np.array([y[1], -rate * np.sin(y[0]), y[1] * y[1]])

    ok, h, y1, q = _first_attempt(rhs, y0, 1e-9)
    assert ok.any() and (m == 1 or not ok.all())
    step = next(integrate.dp45_steps(rhs, y0, 1e-9, active=np.ones(m, dtype=bool)))
    assert step.attempt == 0
    np.testing.assert_array_equal(step.cols, np.flatnonzero(ok))
    for got, ref in [(step.h, h[ok]), (step.y1, y1[:, ok]), (step.q, q[:, :, ok])]:
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
