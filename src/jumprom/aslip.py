"""Actuated spring-loaded inverted pendulum baseline.

Point-mass CoM on a massless spring leg: in flight the CoM is ballistic;
in contact the spring pushes the CoM away from the stance foot with a
force proportional to the scalar leg compression, plus gravity and an
additive per-unit-mass actuation.  Used as the comparison baseline for
base-position trajectory prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _integrators
from .errors import ValidationError, is_finite_real
from .trajectory_data import Phase, segment_phases


@dataclass(frozen=True)
class AslipParams:
    """spring constant (N/m), body mass (kg), rest-length vector (m), gravity (m/s^2).

    The scalars are stored as floats and ``l0`` as a float 3-vector.
    """

    k_s: float = 2500.0
    m: float = 12.0
    l0: np.ndarray = (0.0, 0.0, 0.3)
    g: float = 9.81

    def __post_init__(self):
        for name in ("k_s", "m", "g"):
            value = getattr(self, name)
            if not is_finite_real(value) or value <= 0:
                raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
            object.__setattr__(self, name, float(value))
        l0 = np.asarray(self.l0)
        if l0.shape != (3,) or l0.dtype.kind not in "iuf" or not np.all(np.isfinite(l0)):
            raise ValidationError(f"l0 must be a finite 3-vector, got {self.l0!r}")
        object.__setattr__(self, "l0", l0.astype(float))
        if float(np.linalg.norm(self.l0)) <= 0:
            raise ValidationError("rest length must be nonzero")

    @property
    def rest_length(self):
        return float(np.linalg.norm(self.l0))


@dataclass(frozen=True)
class AslipState:
    """CoM position/velocity, stance foot position, and contact phase."""

    b: np.ndarray
    db: np.ndarray
    foot: np.ndarray
    phase: Phase

    def __post_init__(self):
        if self.phase not in (Phase.CONTACT, Phase.FLIGHT):
            raise ValidationError(f"aSLIP phase must be Contact or Flight, got {self.phase}")


def aslip_accel(state, params, u=None):
    """CoM acceleration for one state.

    Flight: pure gravity.  Contact: spring force of magnitude
    k_s * |rest_length - leg_length| along the leg direction, per unit
    mass, plus gravity, plus the driving acceleration u.
    """
    gravity = np.array([0.0, 0.0, -params.g])
    if state.phase is Phase.FLIGHT:
        return gravity
    u = np.zeros(3) if u is None else np.asarray(u, dtype=float)
    leg = np.asarray(state.b, dtype=float) - np.asarray(state.foot, dtype=float)
    length = float(np.linalg.norm(leg))
    if length == 0.0:
        raise ValidationError("CoM coincides with the stance foot (zero leg length)")
    spring = params.k_s * abs(params.rest_length - length) / params.m * (leg / length)
    return spring + gravity + u


def _per_step(name, values, horizon):
    """``values`` as a float array of one 3-vector per step, at least
    ``horizon`` of them."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < horizon or values.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (>= {horizon}, 3), got {values.shape}")
    return values


def simulate_aslip(params, initial_state, u_of_t, contact_schedule, horizon, dt,
                   *, integrator="adaptive", rk4_substeps=1, foot_positions=None):
    """Integrate the aSLIP CoM over a sampled horizon.

    contact_schedule: length-``horizon`` phase labels (interval k uses the
    label at index k); u_of_t: (>= horizon, 3) driving accelerations held
    constant per interval, or None.  foot_positions: (>= horizon, 3) stance
    foot per step, defaulting to the initial state's foot throughout; a
    driving array of another shape raises ValidationError.
    Runs on the shared interval driver, ``_integrators.integrate_intervals``.

    Returns (b, db): two (horizon, 3) arrays sampled at dt.  Raises
    DivergenceError when the state leaves the finite range; warns once
    when an adaptive interval looks stiff.
    """
    schedule = tuple(contact_schedule)
    if len(schedule) < horizon:
        raise ValidationError(
            f"contact schedule covers {len(schedule)} steps, horizon needs {horizon}"
        )
    u_of_t = np.zeros((horizon, 3)) if u_of_t is None else _per_step("u_of_t", u_of_t, horizon)
    if foot_positions is None:
        foot_positions = np.repeat(np.asarray(initial_state.foot, dtype=float)[None, :], horizon, axis=0)
    else:
        foot_positions = _per_step("foot_positions", foot_positions, horizon)

    stance = [Phase.CONTACT if ph in (Phase.CONTACT, Phase.PARTIAL_CONTACT) else Phase.FLIGHT
              for ph in schedule]

    def rhs(k, t, y):
        s = AslipState(b=y[:3], db=y[3:], foot=foot_positions[k], phase=stance[k])
        return np.concatenate([y[3:], aslip_accel(s, params, u_of_t[k])])

    y0 = np.concatenate([np.asarray(initial_state.b, dtype=float),
                         np.asarray(initial_state.db, dtype=float)])
    out = _integrators.integrate_intervals(rhs, y0, horizon, dt, integrator,
                                           substeps=rk4_substeps)
    return out[:, :3], out[:, 3:]


def aslip_inputs_from_trajectory(traj):
    """Derive baseline inputs from a jump recording.

    Phase schedule and segments come from the recorded contact flags, by
    ``segment_phases`` (partial contact counts as stance).  The stance foot
    is the segment-average of the in-contact foot positions, held fixed per
    stance segment, and zero in flight.  The driving acceleration is the
    summed recorded ground reaction force per unit of the configured body
    mass, divided out later by the caller via params.m; here it is returned
    as the raw force sum.
    """
    T = traj.n_samples
    labels, segments = segment_phases(traj.contact)
    force_sum = np.zeros((T, 3))
    if traj.foot_forces is not None:
        force_sum = traj.foot_forces.reshape(T, 4, 3).sum(axis=1)
    foot_per_step = np.zeros((T, 3))
    if traj.foot_positions is not None:
        feet = traj.foot_positions.reshape(T, 4, 3)
        for seg in segments:  # a flight segment has no foot down and keeps zero
            rows = slice(seg.start, seg.end + 1)
            picked = feet[rows][traj.contact[rows].astype(bool)]
            if picked.size:
                foot_per_step[rows] = picked.mean(axis=0)
    return labels, foot_per_step, force_sum
