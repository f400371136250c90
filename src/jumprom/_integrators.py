"""One interval driver, ``integrate_intervals``, for rollouts, the baseline
model and the synthetic generator.

Two modes: an adaptive embedded Runge-Kutta pair (scipy's RK45) for
accuracy, and a classic fixed-step RK4 for bit-reproducible runs, which
also steps a stack of independent systems in lockstep.  The driver
advances one output interval at a time so callers can switch dynamics and
hold inputs constant between samples.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DivergenceError, ValidationError

INTEGRATORS = ("adaptive", "fixed_rk4")

# Adaptive intervals that need more right-hand-side evaluations than this
# are treated as a stiffness hint (reported, never auto-switched).
STIFF_NFEV_PER_INTERVAL = 500

# Relative and absolute error tolerances of the adaptive integrator.
RTOL = 1e-8
ATOL = 1e-10


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


def adaptive_interval(f, t0, y0, h):
    """Adaptive embedded RK at RTOL/ATOL over one interval; returns (y_end, nfev).

    Raises DivergenceError at the time the solver stopped when it cannot
    reach t0 + h (say, its step size fell below the spacing of floats).
    """
    sol = solve_ivp(f, (t0, t0 + h), np.asarray(y0, dtype=float),
                    method="RK45", rtol=RTOL, atol=ATOL)
    if sol.status != 0:
        t_fail = float(sol.t[-1])
        raise DivergenceError(
            f"adaptive integrator stopped at t={t_fail:.4f}s: {sol.message}", t_fail)
    return sol.y[:, -1], sol.nfev


def integrate_intervals(f, y0, n_samples, h, integrator, *, substeps=1, reset=None):
    """States at the sample times k*h, k < n_samples, row 0 being y0.

    Interval k uses the right-hand side f(k, t, y).  integrator: "fixed_rk4"
    (substeps RK4 steps per interval) or "adaptive" (RK45 at RTOL/ATOL, 1-D
    state only).  A non-None reset(k) replaces the state at sample k.
    Warns once when an adaptive interval needs more than
    STIFF_NFEV_PER_INTERVAL evaluations; raises DivergenceError at the first
    non-finite state or failed adaptive interval.  numpy's overflow and
    invalid-value warnings are silenced while stepping: a non-finite stage
    always reaches the interval's end state, where this check reports it.
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
