"""Comparison helpers shared by the test modules."""

import functools

import numpy as np
from scipy.integrate import solve_ivp

from jumprom import _integrators


def models_equal(a, b):
    """Bitwise equality of autoencoder weights and phase coefficients."""
    ae_a, ae_b = a.autoencoder, b.autoencoder
    if not all(
        np.array_equal(getattr(ae_a, n), getattr(ae_b, n))
        for n in ("W_enc", "b_enc", "W_dec", "b_dec")
    ):
        return False
    if a.phase_labels != b.phase_labels:
        return False
    for pa, pb in zip(a.phases, b.phases):
        if not np.array_equal(pa.coefficients.Xi, pb.coefficients.Xi):
            return False
        if pa.coefficients.library != pb.coefficients.library:
            return False
    return True


def set_cell(path, column, row, value):
    """Rewrite one cell of a jump file, given by column name and data row."""
    header, *rows = path.read_text().splitlines()
    cells = rows[row].split(",")
    cells[header.split(",").index(column)] = value
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header] + rows) + "\n")


def integrate_alone(f, y0, n, h, integrator, *, substeps=1, reset=None):
    """One system's states at the sample times k*h, k < n, the reference
    for a row of ``_integrators.integrate_intervals``.

    Steps the plain 1-D state y0 interval by interval with f(k, t, y):
    by ``rk4_interval`` under fixed_rk4 and by scipy's ``solve_ivp`` (RK45
    at the integrators' RTOL/ATOL) under adaptive.  reset(k) gives None or
    the state that replaces y at sample k.
    """
    y, out = np.asarray(y0, dtype=float), []
    for k in range(n):
        if reset is not None and (state := reset(k)) is not None:
            y = state
        out.append(y)
        if k == n - 1:
            break
        t, fk = k * h, functools.partial(f, k)
        if integrator == "fixed_rk4":
            y = _integrators.rk4_interval(fk, t, y, h, substeps)
        else:
            sol = solve_ivp(fk, (t, t + h), y, method="RK45",
                            rtol=_integrators.RTOL, atol=_integrators.ATOL)
            assert sol.status == 0, sol.message
            y = sol.y[:, -1]
    return np.array(out)
