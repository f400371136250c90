"""Forward integration of learned latent dynamics and error evaluation.

A rollout encodes the initial recorded state, integrates the second-order
latent system as a first-order system of size 2l (switching coefficient
matrices at phase boundaries, holding inputs constant between samples),
decodes every latent configuration back to configuration space, and scores
per-dimension RMSE against the recording.  The periodic-reset mode
re-encodes the recorded state every fixed number of steps to bound error
accumulation, emulating medium-horizon prediction inside a planning loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _integrators
from .autoencoder import decode, encode, transform_input
from .errors import MissingPhaseError, ValidationError, is_finite_real, is_integer
from .sindy import build_library_row
from .trajectory_data import Phase, sample_step, segment_phases


@dataclass(frozen=True)
class RolloutConfig:
    """Integration settings.

    step_rate: output sampling rate in Hz.  reset_interval: steps between
    re-encodings of the recorded state (0 disables resets).  integrator:
    "adaptive" (embedded RK pair) or "fixed_rk4" (bit-reproducible).
    """

    step_rate: float = 500.0
    reset_interval: int = 0
    integrator: str = "adaptive"
    rk4_substeps: int = 1

    def __post_init__(self):
        if not is_finite_real(self.step_rate) or self.step_rate <= 0:
            raise ValidationError(f"step_rate must be a finite number > 0, got {self.step_rate!r}")
        if not is_integer(self.reset_interval) or self.reset_interval < 0:
            raise ValidationError(
                f"reset_interval must be an integer >= 0, got {self.reset_interval!r}")
        if self.integrator not in _integrators.INTEGRATORS:
            raise ValidationError(f"unknown integrator {self.integrator!r}")
        if not is_integer(self.rk4_substeps) or self.rk4_substeps < 1:
            raise ValidationError(
                f"rk4_substeps must be an integer >= 1, got {self.rk4_substeps!r}")


@dataclass(frozen=True)
class RolloutResult:
    """Predicted trajectories and the recording they are scored against.

    latent_pred: (T, 2l) predicted (state, velocity); q_pred: (T, d)
    decoded configurations; q_true: (T, d) recorded configurations.  The
    errors are derived from q_pred - q_true: ``rmse`` (d,) per dimension
    and ``error_norm`` (T,) per step.
    """

    timestamps: np.ndarray
    latent_pred: np.ndarray
    q_pred: np.ndarray
    q_true: np.ndarray
    phase_schedule: tuple[Phase, ...]
    reset_indices: tuple[int, ...] = ()

    @property
    def rmse(self):
        """Root-mean-square error over the horizon, per dimension."""
        err = self.q_pred - self.q_true
        return np.sqrt(np.mean(err * err, axis=0))

    @property
    def error_norm(self):
        """Euclidean error over dimensions at each step."""
        return np.linalg.norm(self.q_pred - self.q_true, axis=1)


def _phase_table(model, schedule):
    needed = []
    for ph in schedule:
        if ph not in needed:
            needed.append(ph)
    table = {pm.phase: pm.coefficients for pm in model.phases}
    for ph in needed:
        if ph not in table:
            raise MissingPhaseError(ph)
    return table


def _reset_indices(n_steps, interval):
    """Steps at which a rollout re-encodes the recording: every ``interval``-th
    step after the first, none for interval 0."""
    return range(interval, n_steps, interval) if interval > 0 else range(0)


def integrate(model, xi0, dxi0, nu_seq, phase_schedule, config, reset_states=None):
    """Integrate the latent dynamics over a sampled horizon.

    Runs on the shared interval driver, ``_integrators.integrate_intervals``,
    with one library row per right-hand-side evaluation.  nu_seq: (T, l)
    inputs sampled at the output rate, held constant over each interval
    (zero-order), or None for zero input.  phase_schedule:
    length-T phase labels; interval k uses the label and input at index k.
    reset_states: optional (T, 2l) states to overwrite the integrated
    state with at every config.reset_interval-th step.

    Returns a (T, 2l) array of latent states at 1/step_rate spacing, row 0
    being the initial condition.  Raises DivergenceError when the state
    leaves the finite range and MissingPhaseError for unscheduled phases;
    warns once when an adaptive interval looks stiff.
    """
    schedule = tuple(phase_schedule)
    n_steps = len(schedule)
    if n_steps == 0:
        raise ValidationError("empty phase schedule")
    table = _phase_table(model, schedule)
    l = model.autoencoder.latent_dim
    xi0 = np.asarray(xi0, dtype=float).reshape(l)
    dxi0 = np.asarray(dxi0, dtype=float).reshape(l)
    if nu_seq is None:
        nu_seq = np.zeros((n_steps, l))
    else:
        nu_seq = np.asarray(nu_seq, dtype=float)
        if nu_seq.shape != (n_steps, l):
            raise ValidationError(f"inputs must have shape {(n_steps, l)}, got {nu_seq.shape}")

    def rhs(k, t, state):
        coeffs = table[schedule[k]]
        row = build_library_row(coeffs.library, state[:l], state[l:], nu_seq[k])
        return np.concatenate([state[l:], row @ coeffs.Xi])

    due = range(0) if reset_states is None else _reset_indices(n_steps, config.reset_interval)

    def reset(k):
        return reset_states[k] if k in due else None

    return _integrators.integrate_intervals(
        rhs, np.concatenate([xi0, dxi0]), n_steps, 1.0 / config.step_rate,
        config.integrator, substeps=config.rk4_substeps, reset=reset)


def _check_horizon(traj, config):
    dt = sample_step(traj.timestamps) if traj.n_samples > 1 else 1.0 / config.step_rate
    expected = 1.0 / config.step_rate
    if abs(dt - expected) > 0.01 * expected:
        raise ValidationError(
            f"recorded step {dt:.6g}s does not match the configured rate "
            f"{config.step_rate:g} Hz (expected {expected:.6g}s)"
        )


def _prepare(model, traj, config, horizon):
    if traj.u is None:
        raise ValidationError("trajectory has no input columns u; preprocess the dataset first")
    d = model.autoencoder.full_dim
    if traj.q.shape[1] != d:
        raise ValidationError(
            f"model dimension {d} does not match the trajectory ({traj.q.shape[1]})")
    n = traj.n_samples if horizon is None else min(horizon, traj.n_samples)
    if n < 1:
        raise ValidationError("empty rollout horizon")
    if n > 1:
        _check_horizon(traj, config)
    ae = model.autoencoder
    nu = transform_input(ae, traj.u[:n])
    schedule = segment_phases(traj.contact[:n])[0]
    return n, nu, schedule


def _finish(model, traj, latent, schedule, reset_indices, n):
    ae = model.autoencoder
    l = ae.latent_dim
    return RolloutResult(
        timestamps=traj.timestamps[:n],
        latent_pred=latent,
        q_pred=decode(ae, latent[:, :l], 0),
        q_true=traj.q[:n],
        phase_schedule=schedule,
        reset_indices=tuple(reset_indices),
    )


def rollout_full(model, traj, config, horizon=None):
    """Encode the initial recorded state once and integrate the whole horizon."""
    n, nu, schedule = _prepare(model, traj, config, horizon)
    ae = model.autoencoder
    xi0 = encode(ae, traj.q[0], 0)
    dxi0 = encode(ae, traj.dq[0], 1)
    latent = integrate(model, xi0, dxi0, nu, schedule, config)
    return _finish(model, traj, latent, schedule, (), n)


def rollout_with_reset(model, traj, config, horizon=None):
    """Rollout that re-encodes the recorded state every reset_interval steps.

    At each reset index the pre-integration latent state equals the
    encoding of the recorded (q, dq) exactly, so the latent configuration
    error at those instants is zero by construction.
    """
    if config.reset_interval <= 0:
        raise ValidationError("rollout_with_reset needs reset_interval > 0")
    n, nu, schedule = _prepare(model, traj, config, horizon)
    ae = model.autoencoder
    enc_q = encode(ae, traj.q[:n], 0)
    enc_dq = encode(ae, traj.dq[:n], 1)
    reset_states = np.concatenate([enc_q, enc_dq], axis=1)
    latent = integrate(model, enc_q[0], enc_dq[0], nu, schedule, config, reset_states=reset_states)
    return _finish(model, traj, latent, schedule, _reset_indices(n, config.reset_interval), n)
