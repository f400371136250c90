"""Shared single-interval integrators for rollouts, the baseline model and
the synthetic generator.

Two modes: an adaptive embedded Runge-Kutta pair (scipy's RK45) for
accuracy, and a classic fixed-step RK4 for bit-reproducible runs.  Both
advance one output interval at a time so callers can switch dynamics and
hold inputs constant between samples.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

# Adaptive intervals that need more right-hand-side evaluations than this
# are treated as a stiffness hint (reported, never auto-switched).
STIFF_NFEV_PER_INTERVAL = 500


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


def adaptive_interval(f, t0, y0, h, rtol, atol):
    """Adaptive embedded RK over one interval; returns (y_end, nfev)."""
    sol = solve_ivp(f, (t0, t0 + h), np.asarray(y0, dtype=float),
                    method="RK45", rtol=rtol, atol=atol)
    return sol.y[:, -1], sol.nfev
