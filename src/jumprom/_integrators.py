"""One interval driver, ``integrate_intervals``, for rollouts, the baseline
model and the synthetic generator.

Two modes: an adaptive embedded Runge-Kutta pair for accuracy (an in-house
RK45 with scipy's step rule: the Dormand-Prince 5(4) tableau, initial step,
error norm and step-size control of ``scipy.integrate.RK45``, so its steps
and results are bit-identical to ``solve_ivp``'s), and a classic fixed-step
RK4 for bit-reproducible runs.  Both step a stack (N, n) of independent
systems in lockstep, one right-hand-side call for all rows per stage; a
single system is a stack of one row.  Under RK45 each row keeps its own
time and step size, so it takes exactly the steps it takes alone.
``integrate_intervals`` advances one output interval at a time so callers
can switch dynamics and hold inputs constant between samples; a row that
fails stops there, and the others step on.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import DivergenceError, ValidationError

INTEGRATORS = ("adaptive", "fixed_rk4")

# Adaptive intervals that need more right-hand-side evaluations than this
# are treated as a stiffness hint (reported, never auto-switched).
STIFF_NFEV_PER_INTERVAL = 500

# Relative and absolute error tolerances of the adaptive integrator.
RTOL = 1e-8
ATOL = 1e-10

# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980), as tabulated in
# scipy.integrate.RK45: stage times C, stage weights A, 5th-order weights B
# and the error weights E over the six stages and the end derivative.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_STAGES = tuple((s, _A[s, :s]) for s in range(1, 6))

# Step-size control: the step found from the error estimate is scaled by
# SAFETY and the change per step is clamped to [MIN_FACTOR, MAX_FACTOR].
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5           # -1 / (error estimator order + 1)


def rk4_interval(f, t0, y0, h, substeps=1):
    """Classic fourth-order Runge-Kutta over one interval of length h."""
    y = np.asarray(y0, dtype=float)
    step = h / substeps
    t = t0
    for _ in range(substeps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * step, y + 0.5 * step * k1)
        k3 = f(t + 0.5 * step, y + 0.5 * step * k2)
        k4 = f(t + step, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
    return y


def _rms(x):
    """Root mean square over the last axis, with the bits of
    ``np.linalg.norm(row) / row.size ** 0.5`` for each row."""
    return np.sqrt(np.vecdot(x, x)) / x.shape[-1] ** 0.5


def _initial_step(fun, t0, y0, f0, interval, direction):
    """Each row's first step size by scipy's ``select_initial_step`` (Hairer,
    Norsett & Wanner, Sec. II.4) for the error order 4 of RK45.

    The norms are taken for all rows at once and the choices made per row
    in scalars, as scipy makes them; ``fun`` is evaluated once on the stack.
    """
    scale = ATOL + np.abs(y0) * RTOL
    d0 = _rms(y0 / scale).tolist()
    d1 = _rms(f0 / scale).tolist()
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, interval) for a, b in zip(d0, d1)]
    h0_array = np.array(h0)
    f1 = fun(t0 + h0_array * direction, y0 + (h0_array * direction)[:, None] * f0)
    d2 = (_rms((f1 - f0) / scale) / h0_array).tolist()
    h1 = [max(1e-6, h * 1e-3) if b <= 1e-15 and c <= 1e-15 else (0.01 / max(b, c)) ** (1 / 5)
          for h, b, c in zip(h0, d1, d2)]
    return [min(100 * h, g, interval) for h, g in zip(h0, h1)]


def _step_control(t, t_end, h_abs, direction):
    """One row's step-size control under scipy's RK45 rule, as a generator.

    Yields (t, step) for each step it attempts and is sent that step's
    error norm back.  It returns when the row reaches t_end, and raises
    DivergenceError, at the row's time, when the step size falls below the
    spacing of floats there.  Its arithmetic is scipy's, in Python floats,
    whose power rounds as scipy's does; numpy's vectorised power may differ
    in the last bit.
    """
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise DivergenceError(
                    f"adaptive integrator stopped at t={t:.4f}s: Required step size "
                    "is less than spacing between numbers.", t)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            step = t_new - t
            h_abs = abs(step)
            error_norm = yield t, step
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        h_abs *= factor
        t = t_new


# rows that are not stepped may hold any values
@np.errstate(over="ignore", invalid="ignore")
def adaptive_interval(f, t0, y0, h, live=None):
    """Adaptive embedded RK at RTOL/ATOL over one interval, for a stack y0
    (N, n) of independent systems.

    f(t, y) gets all N rows with each row's own time t (N,), so one call
    evaluates every row per stage.  Each row takes the steps, end state and
    evaluation count of ``scipy.integrate.solve_ivp(fi, (t0, t0 + h),
    y0[i], method="RK45")`` on its own right-hand side fi: it keeps its own
    time, step size, rejections and initial step.  A row that is done or
    failed is still evaluated with the others, and its results are
    discarded.  ``live`` (N,) bools, default all, selects the rows to step;
    the others keep their state and count nothing.

    The result is (y_end, nfev, row_nfev, failures): nfev is the Python int
    sum of row_nfev, the count of each row, and failures holds, per row,
    None or its DivergenceError.  A row fails at the time the solver
    stopped when it cannot reach t0 + h (its step size fell below the
    spacing of floats), and at t0 + h, as fixed-step RK4 does, when its
    first step size is nan (a nan right-hand side at t0 from a nonzero
    state), where scipy's stepper loops forever.  Raises ValueError when y0
    is not a stack or a stepped row is not finite.
    """
    y = np.asarray(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError("`y0` must be a stack (N, n) of states.")
    rows = range(len(y)) if live is None else np.flatnonzero(live).tolist()
    if not np.isfinite(y[rows]).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    n_rows, n = y.shape
    row_nfev = [0] * n_rows
    failures = [None] * n_rows
    t, t_end = float(t0), float(t0 + h)
    times = np.full(n_rows, t)
    f_cur = f(times, y)
    if n == 0 or t == t_end:
        for i in rows:
            row_nfev[i] = 1
        return y, sum(row_nfev), row_nfev, failures
    direction = 1.0 if t_end > t else -1.0
    h_abs = _initial_step(f, t, y, f_cur, abs(t_end - t), direction)
    steps = np.zeros(n_rows)
    control = {}
    for i in rows:
        row_nfev[i] = 2
        if math.isnan(h_abs[i]):
            failures[i] = DivergenceError(
                f"state became non-finite at t={t_end:.4f}s: the right-hand side is nan at "
                f"t={t:.4f}s", t_end)
        else:
            control[i] = _step_control(t, t_end, h_abs[i], direction)
            times[i], steps[i] = next(control[i])
    K = np.empty((n_rows, 7, n))
    KT = K.transpose(0, 2, 1)   # each row's stages as columns
    while control:
        step = steps[:, None]
        # the times of stages 1-5; the last, at c = 1, is also the end time
        stage_t = times + np.multiply.outer(_C[1:], steps)
        K[:, 0] = f_cur
        for s, a in _STAGES:
            K[:, s] = f(stage_t[s - 1], y + (KT[:, :, :s] @ a) * step)
        y_new = y + step * (KT[:, :, :-1] @ _B)
        f_new = K[:, -1] = f(stage_t[-1], y_new)
        scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
        error_norm = _rms((KT @ _E) * step / scale).tolist()
        accepted = []
        for i in list(control):
            row_nfev[i] += 6
            if error_norm[i] < 1:
                accepted.append(i)
            try:
                times[i], steps[i] = control[i].send(error_norm[i])
                continue
            except StopIteration:
                pass
            except DivergenceError as e:
                failures[i] = e
            del control[i]
            steps[i] = 0.0
        if len(accepted) == n_rows:
            y, f_cur = y_new, f_new
        elif accepted:
            moved = np.zeros((n_rows, 1), dtype=bool)
            moved[accepted] = True
            y = np.where(moved, y_new, y)
            f_cur = np.where(moved, f_new, f_cur)
    return y, sum(row_nfev), row_nfev, failures


def integrate_intervals(f, y0, n_samples, h, integrator, *, substeps=1, reset=None):
    """States at the sample times k*h, k < n_samples, row 0 being y0.

    Interval k uses the right-hand side f(k, t, y).  integrator: "fixed_rk4"
    (substeps RK4 steps per interval) or "adaptive" (``adaptive_interval``,
    the in-house RK45 with scipy's step rule, at RTOL/ATOL).  reset(k, y),
    when given, returns None or the state that replaces y at sample k.

    y0 is a stack (N, n) of independent systems stepped in lockstep, and
    n_samples one count for all rows or a count (N,) per row.  The result is
    (states, errors): states (max count, N, n), errors one entry per row,
    None or its DivergenceError.  A row fails at its first non-finite state
    or failed adaptive interval and stops there; the other rows step on.  A
    row's states past its own count, or past the end of the interval where
    it failed, are unspecified.  f is called on the whole stack, with the
    interval's start t under fixed_rk4 and each row's own time t (N,) under
    adaptive; rows that are done or failed are carried along and their
    derivatives discarded, so f must accept every row at every interval
    below the largest count.  Raises ValueError when y0 is not a stack.

    Each row warns once, in row order, when an adaptive interval before
    its end needed more than STIFF_NFEV_PER_INTERVAL evaluations, as it
    does when run alone.  numpy's overflow and invalid-value warnings are
    silenced while stepping: a non-finite stage always reaches the
    interval's end state, where the check above reports it.
    """
    if integrator not in INTEGRATORS:
        raise ValidationError(f"unknown integrator {integrator!r}")
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError("`y0` must be a stack (N, n) of states.")
    n_rows = len(y)
    ends = np.broadcast_to(n_samples, (n_rows,))
    drops = set(ends.tolist())       # the samples after which a row is done
    out = np.empty((int(ends.max()),) + y.shape)
    live = np.ones(n_rows, dtype=bool)
    notes = [None] * n_rows          # each row's stiffness warning
    errors = [None] * n_rows
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(out)):
            if reset is not None and (state := reset(k, y)) is not None:
                y = state
            out[k] = y
            if k + 1 in drops:
                live &= ends > k + 1
                if not live.any():
                    break
            t = k * h
            row_nfev, failures = [0] * n_rows, [None] * n_rows
            if integrator == "fixed_rk4":
                y = rk4_interval(functools.partial(f, k), t, y, h, substeps)
            else:
                y, _, row_nfev, failures = adaptive_interval(functools.partial(f, k), t, y, h, live)
            if any(failures) or max(row_nfev) > STIFF_NFEV_PER_INTERVAL or not np.isfinite(y).all():
                finite = np.isfinite(y).all(axis=1)
                for i in np.flatnonzero(live):
                    if failures[i] is None and not finite[i]:
                        failures[i] = DivergenceError(
                            f"state became non-finite at t={t + h:.4f}s", t + h)
                    if failures[i] is not None:
                        errors[i] = failures[i]
                        live[i] = False
                    elif notes[i] is None and row_nfev[i] > STIFF_NFEV_PER_INTERVAL:
                        notes[i] = (f"adaptive integrator needed {row_nfev[i]} evaluations in "
                                    f"one output interval near t={t:.4f}s; dynamics may be stiff")
                if not live.any():
                    break
    for note in notes:
        if note is not None:
            warnings.warn(note, stacklevel=3)
    return out, errors
