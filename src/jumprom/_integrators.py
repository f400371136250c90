"""One interval driver, ``integrate_intervals``, for rollouts, the baseline
model and the synthetic generator.

Two modes: an adaptive embedded Runge-Kutta pair for accuracy (an in-house
RK45 with scipy's step rule: the Dormand-Prince 5(4) tableau, initial step,
error norm and step-size control of ``scipy.integrate.RK45``, so its steps
and results are bit-identical to ``solve_ivp``'s), and a classic fixed-step
RK4 for bit-reproducible runs, which also steps a stack of independent
systems in lockstep.  The driver advances one output interval at a time so
callers can switch dynamics and hold inputs constant between samples.
"""

from __future__ import annotations

import functools
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
_STAGES = tuple((s, _A[s, :s], _C[s]) for s in range(1, 6))

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
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, interval, direction):
    """The first step size of scipy's ``select_initial_step`` (Hairer,
    Norsett & Wanner, Sec. II.4) for the error order 4 of RK45."""
    scale = ATOL + np.abs(y0) * RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def adaptive_interval(f, t0, y0, h):
    """Adaptive embedded RK at RTOL/ATOL over one interval; returns (y_end, nfev).

    The steps, end state and evaluation count are those of
    ``scipy.integrate.solve_ivp(f, (t0, t0 + h), y0, method="RK45")``.
    y0 is 1-D.  Raises DivergenceError at the time the solver stopped when
    it cannot reach t0 + h (its step size fell below the spacing of floats),
    and at t0 + h, as fixed-step RK4 does, when the first step size is nan
    (a nan right-hand side at t0 from a nonzero state), where scipy's
    stepper loops forever.
    """
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")

    def fun(t, y):
        return np.asarray(f(t, y), dtype=float)

    t, t_end = float(t0), float(t0 + h)
    f_cur = fun(t, y)
    if y.size == 0 or t == t_end:
        return y, 1
    direction = np.sign(t_end - t)
    h_abs = _initial_step(fun, t, y, f_cur, abs(t_end - t), direction)
    if np.isnan(h_abs):
        raise DivergenceError(f"state became non-finite at t={t_end:.4f}s: the right-hand "
                              f"side is nan at t={t:.4f}s", t_end)
    nfev = 2
    K = np.empty((7, y.size))
    while direction * (t - t_end) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                t_fail = float(t)
                raise DivergenceError(
                    f"adaptive integrator stopped at t={t_fail:.4f}s: Required step size "
                    "is less than spacing between numbers.", t_fail)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            step = t_new - t
            h_abs = np.abs(step)
            K[0] = f_cur
            for s, a, c in _STAGES:
                K[s] = fun(t + c * step, y + np.dot(K[:s].T, a) * step)
            y_new = y + step * np.dot(K[:-1].T, _B)
            f_new = K[-1] = fun(t + step, y_new)
            nfev += 6
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            error_norm = _rms(np.dot(K.T, _E) * step / scale)
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
        t, y, f_cur = t_new, y_new, f_new
    return y, nfev


def integrate_intervals(f, y0, n_samples, h, integrator, *, substeps=1, reset=None):
    """States at the sample times k*h, k < n_samples, row 0 being y0.

    Interval k uses the right-hand side f(k, t, y).  integrator: "fixed_rk4"
    (substeps RK4 steps per interval) or "adaptive" (``adaptive_interval``,
    the in-house RK45 with scipy's step rule, at RTOL/ATOL; 1-D state only).
    A non-None reset(k) replaces the state at sample k.  Warns once when an
    adaptive interval needs more than STIFF_NFEV_PER_INTERVAL evaluations;
    raises DivergenceError at the first non-finite state or failed adaptive
    interval.  numpy's overflow and invalid-value warnings are silenced
    while stepping: a non-finite stage always reaches the interval's end
    state, where this check reports it.
    """
    if integrator not in INTEGRATORS:
        raise ValidationError(f"unknown integrator {integrator!r}")
    y = np.asarray(y0, dtype=float)
    out = np.empty((n_samples,) + y.shape)
    stiff_warned = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_samples):
            if reset is not None and (state := reset(k)) is not None:
                y = state
            out[k] = y
            if k == n_samples - 1:
                break
            t = k * h
            if integrator == "fixed_rk4":
                y = rk4_interval(functools.partial(f, k), t, y, h, substeps)
            else:
                y, nfev = adaptive_interval(functools.partial(f, k), t, y, h)
                if not stiff_warned and nfev > STIFF_NFEV_PER_INTERVAL:
                    warnings.warn(
                        f"adaptive integrator needed {nfev} evaluations in one output "
                        f"interval near t={t:.4f}s; dynamics may be stiff",
                        stacklevel=3,
                    )
                    stiff_warned = True
            if not np.all(np.isfinite(y)):
                raise DivergenceError(f"state became non-finite at t={t + h:.4f}s", t + h)
    return out
