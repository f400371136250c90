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
from .errors import ValidationError, finite_array, is_finite_real, is_integer
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
        object.__setattr__(self, "l0", finite_array("l0", self.l0, (3,)))
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
    return _contact_accel(np.asarray(state.b, dtype=float)[None],
                          np.asarray(state.foot, dtype=float)[None], u[None],
                          params.k_s, params.m, params.rest_length, gravity)[0]


def _contact_accel(b, foot, u, k_s, m, rest_length, gravity):
    """The contact branch of ``aslip_accel`` for a stack of states: b, foot
    and u are (N, 3) float arrays.  Each row gets the bits of the one-state
    formula, its leg length being ``np.linalg.norm`` of its leg."""
    leg = b - foot
    length = np.sqrt(np.vecdot(leg, leg))[:, None]
    if not length.all():
        raise ValidationError("CoM coincides with the stance foot (zero leg length)")
    return k_s * np.abs(rest_length - length) / m * (leg / length) + gravity + u


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
    foot per step, defaulting to the initial state's foot throughout.  A
    horizon that is not an integer >= 1, or a driving array of another
    shape, raises ValidationError.  The one-CoM case of
    ``simulate_aslip_stack``.

    Returns (b, db): two (horizon, 3) arrays sampled at dt.  Raises
    DivergenceError when the state leaves the finite range; warns once
    when an adaptive interval looks stiff.
    """
    if not (is_integer(horizon) and horizon >= 1):
        raise ValidationError(f"horizon must be an integer >= 1, got {horizon!r}")
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

    y0 = np.concatenate([np.asarray(initial_state.b, dtype=float),
                         np.asarray(initial_state.db, dtype=float)])
    ((b, db),) = simulate_aslip_stack(params, [(y0, u_of_t, foot_positions, schedule[:horizon])],
                                      dt, integrator=integrator, rk4_substeps=rk4_substeps)
    return b, db


def simulate_aslip_stack(params, systems, dt, *, integrator="adaptive", rk4_substeps=1):
    """Integrate several aSLIP CoMs at one sample step as one stack.

    systems: per CoM (y0, u_of_t, foot_positions, schedule): its initial
    (b, db) as one (6,) array, then its driving accelerations and stance
    feet, (>= n, 3) float arrays, and its n phase labels, n being its
    horizon.  One right-hand-side call evaluates every CoM, and each
    (b, db) pair returned, (n, 3) arrays, is the one ``simulate_aslip``
    gives alone.  An error is raised as ``_integrators.integrate_intervals``
    raises it: the first failing CoM's, in order.
    """
    ends = [len(schedule) for *_, schedule in systems]
    # past its horizon a CoM is carried in flight
    stance = np.zeros((max(ends), len(systems)), dtype=bool)
    feet, drive = np.zeros((2,) + stance.shape + (3,))
    for i, (_, u_of_t, foot_positions, schedule) in enumerate(systems):
        n = ends[i]
        stance[:n, i] = [ph in (Phase.CONTACT, Phase.PARTIAL_CONTACT) for ph in schedule]
        drive[:n, i], feet[:n, i] = u_of_t[:n], foot_positions[:n]
    # per interval, the CoMs in stance (a slice when all are) and their feet and drives
    plans = []
    for k, column in enumerate(stance):
        rows = slice(None) if column.all() else np.flatnonzero(column)
        plans.append((rows, feet[k, rows], drive[k, rows]) if column.any() else None)
    gravity = np.array([0.0, 0.0, -params.g])
    flight = np.tile(gravity, (len(systems), 1))
    k_s, m, rest_length = params.k_s, params.m, params.rest_length

    def rhs(k, t, y):
        accel = flight
        if plans[k] is not None:
            rows, foot, u = plans[k]
            contact = _contact_accel(y[rows, :3], foot, u, k_s, m, rest_length, gravity)
            if isinstance(rows, slice):
                accel = contact
            else:
                accel = flight.copy()
                accel[rows] = contact
        return np.concatenate([y[:, 3:], accel], axis=1)

    y0 = np.stack([y0 for y0, *_ in systems])
    out = _integrators.integrate_intervals(rhs, y0, ends, dt, integrator, substeps=rk4_substeps)
    return [(out[:n, i, :3], out[:n, i, 3:]) for i, n in enumerate(ends)]


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
