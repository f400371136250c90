"""Forward integration of learned latent dynamics and error evaluation.

A rollout encodes the initial recorded state, integrates the second-order
latent system as a first-order system of size 2l (switching coefficient
matrices at phase boundaries, holding inputs constant between samples),
decodes every latent configuration back to configuration space, and scores
per-dimension RMSE against the recording.  The periodic-reset mode
re-encodes the recorded state every fixed number of steps to bound error
accumulation, emulating medium-horizon prediction inside a planning loop.
``rollout_jumps`` rolls out many jumps; under the adaptive integrator their
rollouts step together as one stack, and each gives the outcome, result
or error, it gives alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _integrators, autoencoder
from .autoencoder import decode, encode
from .errors import (JumpromError, MissingPhaseError, ValidationError, check_fields,
                     check_number, finite_array, result_or_raise)
from .sindy import build_library_row
from .trajectory_data import Phase, sample_step, segment_phases


@dataclass(frozen=True)
class RolloutConfig:
    """Integration settings.

    step_rate: output sampling rate in Hz.  reset_interval: steps between
    re-encodings of the recorded state (0 disables resets).  integrator:
    "adaptive" (embedded RK pair) or "fixed_rk4" (bit-reproducible).
    rk4_substeps: RK4 steps per output interval under fixed_rk4.
    """

    step_rate: float = 500.0
    reset_interval: int = 0
    integrator: str = "adaptive"
    rk4_substeps: int = 1
    BOUNDS = {"step_rate": "> 0", "reset_interval": ">= 0", "rk4_substeps": ">= 1"}

    def __post_init__(self):
        check_fields(self, self.BOUNDS)
        if self.integrator not in _integrators.INTEGRATORS:
            raise ValidationError(f"unknown integrator {self.integrator!r}")


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


def _phase_indices(model, schedule):
    """Each step's phase as an index into model.phases; MissingPhaseError
    names the first scheduled phase the model lacks."""
    index = {pm.phase: i for i, pm in enumerate(model.phases)}
    try:
        return [index[ph] for ph in schedule]
    except KeyError as e:
        raise MissingPhaseError(e.args[0]) from None


def _reset_indices(n_steps, interval):
    """Steps at which a rollout re-encodes the recording: every ``interval``-th
    step after the first, none for interval 0."""
    return range(interval, n_steps, interval) if interval > 0 else range(0)


def _stage_plans(model, phases):
    """Per interval, the coefficients of the stack's phases (T, N): Xi
    (N, p, l) holding each row's own, or the (p, l) Xi of a stack of one
    row.  Intervals with the same phases share one Xi."""
    Xis = [pm.coefficients.Xi for pm in model.phases]
    plans, cache = [], {}
    for column in phases:
        key = column.tobytes()
        if key not in cache:
            cache[key] = Xis[column[0]] if len(column) == 1 else np.stack([Xis[j] for j in column])
        plans.append(cache[key])
    return plans


def _integrate_rows(model, rows, config):
    """Integrate a stack of latent rollouts in lockstep.

    rows: per rollout (start (2l,), inputs (n, l), phase indices (n,),
    reset states (n, 2l) or None).  Each row has its own horizon, inputs,
    phase schedule and resets; one library call and one ``np.vecmat``
    evaluate every row per stage on the (N, 2l) stack, except that a lone
    rollout's row is evaluated as a plain, cheaper (2l,) state.  Returns
    each row's outcome: its (n, 2l) states, or its DivergenceError.
    """
    l = model.autoencoder.latent_dim
    ends = [len(phases) for _, _, phases, _ in rows]
    # past its horizon a row is carried with zero input in model.phases[0]
    nu = np.zeros((max(ends), len(rows), l))
    phases = np.zeros((max(ends), len(rows)), dtype=int)
    for i, (_, inputs, indices, _) in enumerate(rows):
        nu[:ends[i], i] = inputs
        phases[:ends[i], i] = indices
    plans = _stage_plans(model, phases)
    lone = len(rows) == 1
    nu = nu[:, 0] if lone else nu

    def rhs(k, t, y):
        state = y[0] if lone else y
        xi, dxi = state[..., :l], state[..., l:]
        # vecmat gives each row the bits of its own row @ Xi
        accel = np.vecmat(build_library_row(model.library, xi, dxi, nu[k]), plans[k])
        dy = np.concatenate([dxi, accel], axis=-1)
        return dy[None] if lone else dy

    resets = {i: (_reset_indices(ends[i], config.reset_interval), states)
              for i, (_, _, _, states) in enumerate(rows) if states is not None}

    def reset(k, y):
        due = [i for i, (steps, _) in resets.items() if k in steps]
        if not due:
            return None
        y = y.copy()
        y[due] = [resets[i][1][k] for i in due]
        return y

    out, errors = _integrators.integrate_intervals(
        rhs, np.stack([start for start, _, _, _ in rows]), ends, 1.0 / config.step_rate,
        config.integrator, substeps=config.rk4_substeps, reset=reset if resets else None)
    return [error or np.ascontiguousarray(out[:n, i])
            for i, (n, error) in enumerate(zip(ends, errors))]


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
    being the initial condition.  Raises ValidationError naming xi0, dxi0
    or reset_states unless each is finite numbers of shape (l,) or (T, 2l),
    DivergenceError when the state leaves the finite range and
    MissingPhaseError for unscheduled phases; warns once when an adaptive
    interval looks stiff.
    """
    schedule = tuple(phase_schedule)
    n_steps = len(schedule)
    if n_steps == 0:
        raise ValidationError("empty phase schedule")
    phases = _phase_indices(model, schedule)
    l = model.autoencoder.latent_dim
    xi0, dxi0 = finite_array("xi0", xi0, (l,)), finite_array("dxi0", dxi0, (l,))
    if reset_states is not None:
        reset_states = finite_array("reset_states", reset_states, (n_steps, 2 * l))
    if nu_seq is None:
        nu_seq = np.zeros((n_steps, l))
    else:
        nu_seq = np.asarray(nu_seq, dtype=float)
        if nu_seq.shape != (n_steps, l):
            raise ValidationError(f"inputs must have shape {(n_steps, l)}, got {nu_seq.shape}")
    rows = [(np.concatenate([xi0, dxi0]), nu_seq, phases, reset_states)]
    return result_or_raise(_integrate_rows(model, rows, config)[0])


def _check_horizon(traj, config):
    dt = sample_step(traj.timestamps) if traj.n_samples > 1 else 1.0 / config.step_rate
    expected = 1.0 / config.step_rate
    if abs(dt - expected) > 0.01 * expected:
        raise ValidationError(
            f"recorded step {dt:.6g}s does not match the configured rate "
            f"{config.step_rate:g} Hz (expected {expected:.6g}s)"
        )


def _prepare(model, traj, config, horizon, input_map):
    """A rollout's horizon, latent inputs and phase schedule; input_map()
    gives the model's (d, l) input map.  horizon: an integer >= 1, cut to
    the recording's length, or None for the whole recording."""
    if traj.u is None:
        raise ValidationError("trajectory has no input columns u; preprocess the dataset first")
    d = model.autoencoder.full_dim
    if traj.q.shape[1] != d:
        raise ValidationError(
            f"model dimension {d} does not match the trajectory ({traj.q.shape[1]})")
    if horizon is not None:
        check_number("horizon", horizon, "int", ">= 1")
    n = traj.n_samples if horizon is None else min(horizon, traj.n_samples)
    if n < 1:
        raise ValidationError("empty rollout horizon")
    if n > 1:
        _check_horizon(traj, config)
    nu = traj.u[:n] @ input_map()
    schedule = segment_phases(traj.contact[:n])[0]
    return n, nu, schedule


def _rollout_rows(model, rows, config, horizon=None):
    """The outcome, RolloutResult or JumpromError, of each rollout of rows
    [(traj, with_resets)], integrated as one stack.

    Each is the one ``rollout_full`` (with_resets False) or
    ``rollout_with_reset`` gives alone; a row that cannot be prepared takes
    that error and stays out of the stack.  The input map is computed once.
    """
    ae = model.autoencoder
    input_map = functools.cache(functools.partial(autoencoder.input_map, ae))
    outcomes, stack, done = [None] * len(rows), [], []
    for j, (traj, with_resets) in enumerate(rows):
        try:
            n, nu, schedule = _prepare(model, traj, config, horizon, input_map)
            phases = _phase_indices(model, schedule)
        except JumpromError as e:
            outcomes[j] = e
            continue
        if with_resets:
            states = np.concatenate([encode(ae, traj.q[:n], 0), encode(ae, traj.dq[:n], 1)], axis=1)
            stack.append((states[0], nu, phases, states))
        else:
            start = np.concatenate([encode(ae, traj.q[0], 0), encode(ae, traj.dq[0], 1)])
            stack.append((start, nu, phases, None))
        done.append((j, traj, n, schedule,
                     _reset_indices(n, config.reset_interval) if with_resets else ()))
    for (j, *row), latent in zip(done, _integrate_rows(model, stack, config) if stack else []):
        outcomes[j] = latent if isinstance(latent, JumpromError) else _finish(model, *row, latent)
    return outcomes


def _finish(model, traj, n, schedule, reset_indices, latent):
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
    return result_or_raise(_rollout_rows(model, [(traj, False)], config, horizon)[0])


def rollout_with_reset(model, traj, config, horizon=None):
    """Rollout that re-encodes the recorded state every reset_interval steps.

    At each reset index the pre-integration latent state equals the
    encoding of the recorded (q, dq) exactly, so the latent configuration
    error at those instants is zero by construction.
    """
    if config.reset_interval <= 0:
        raise ValidationError("rollout_with_reset needs reset_interval > 0")
    return result_or_raise(_rollout_rows(model, [(traj, True)], config, horizon)[0])


def rollout_jumps(model, jumps, config):
    """Every rollout of the (index, traj) pairs ``jumps``, in jump order.

    Returns (index, mode, outcome) triples: mode "full", then "reset"
    when config.reset_interval > 0.  Each outcome is the RolloutResult or
    JumpromError ``rollout_full`` or ``rollout_with_reset`` gives alone.
    Under the adaptive integrator all rollouts step together as one stack.
    """
    modes = ("full", "reset") if config.reset_interval > 0 else ("full",)
    rows = [(idx, mode, traj) for idx, traj in jumps for mode in modes]
    if config.integrator == "fixed_rk4":
        # one rollout per call: the benchmark's traced check counts one library call per
        # right-hand-side evaluation of each fixed_rk4 rollout (ROADMAP items 1 and 5)
        outcomes = []
        for _, mode, traj in rows:
            try:
                outcomes.append((rollout_full if mode == "full" else rollout_with_reset)(
                    model, traj, config))
            except JumpromError as e:
                outcomes.append(e)
    else:
        outcomes = _rollout_rows(model, [(traj, mode == "reset") for _, mode, traj in rows], config)
    return [(idx, mode, outcome) for (idx, mode, _), outcome in zip(rows, outcomes)]
