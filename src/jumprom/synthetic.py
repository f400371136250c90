"""Synthetic datasets with known latent dynamics, lifted to full dimension.

Ground truth is a low-dimensional second-order ODE written as sparse
coefficients over a declared candidate-function library.  The latent
trajectories of all jumps are stepped in lockstep as one stacked state
(fixed small-step RK4, dynamics switched per phase), then lifted
through a seeded orthonormal matrix plus offset (so the embedding is
well-conditioned but not axis aligned), and written in the standard
dataset format.  Inputs are chosen as smooth random splines in latent
space and mapped to configuration space as u = lift @ nu, which the
transposed-pseudoinverse input transform inverts exactly because the lift
has orthonormal columns.  The hidden truth is returned alongside for test
harness use, including a helper that re-expresses the true coefficients in
any trained encoder basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from . import _integrators
from .errors import ValidationError
from .sindy import FunctionLibrarySpec, build_library_row
from .trajectory_data import (
    Dataset,
    DatasetMeta,
    Phase,
    Trajectory,
    add_noise,
    save_dataset,
    split_dataset,
)

_CONTACT_FLAGS = {
    Phase.CONTACT: (1.0, 1.0, 1.0, 1.0),
    Phase.PARTIAL_CONTACT: (0.0, 0.0, 1.0, 1.0),  # rear feet only
    Phase.FLIGHT: (0.0, 0.0, 0.0, 0.0),
}

MAX_LIFT_CONDITION = 1e4
GROUND_TRUTH_NAME = "ground_truth.json"


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything needed to generate one dataset deterministically."""

    l_true: int
    full_dim: int
    lift_seed: int
    library: FunctionLibrarySpec
    phase_dynamics: tuple[tuple[Phase, np.ndarray], ...]   # (phase, Xi_true) pairs
    phase_durations: tuple[tuple[Phase, int], ...]         # schedule order, steps per phase
    n_jumps: int = 20
    dt: float = 0.002
    input_phases: tuple[Phase, ...] = (Phase.CONTACT,)
    input_mean: tuple[float, ...] = (0.0, 0.0)
    input_amplitude: float = 0.0
    input_knots: int = 6
    ic_center: tuple[float, ...] = (0.0, 0.0)
    ic_spread: float = 1.0
    velocity_spread: float = 1.0
    split_counts: tuple[int, int, int] | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.full_dim - 6 <= 0 or (self.full_dim - 6) % 4 != 0:
            raise ValidationError(
                f"full_dim must be m+6 with m divisible by 4, got {self.full_dim}"
            )
        phases = [ph for ph, _ in self.phase_durations]
        known = {ph for ph, _ in self.phase_dynamics}
        missing = [ph for ph in phases if ph not in known]
        if missing:
            raise ValidationError(f"no dynamics declared for scheduled phases {missing}")
        p = self.library.term_count(self.l_true)
        for ph, coeffs in self.phase_dynamics:
            if coeffs.shape != (p, self.l_true):
                raise ValidationError(
                    f"dynamics for {ph} must have shape {(p, self.l_true)}, got {coeffs.shape}"
                )

    def dynamics_for(self, phase):
        for ph, coeffs in self.phase_dynamics:
            if ph == phase:
                return coeffs
        raise ValidationError(f"no dynamics for phase {phase}")


@dataclass(frozen=True)
class SyntheticTruth:
    """Hidden ground truth of a generated dataset."""

    lift: np.ndarray
    offset: np.ndarray
    library: FunctionLibrarySpec
    coefficients: tuple[tuple[Phase, np.ndarray], ...]

    def coefficients_for(self, phase):
        for ph, coeffs in self.coefficients:
            if ph == phase:
                return coeffs
        raise ValidationError(f"no ground-truth dynamics for phase {phase}")


def affine_coefficients(library, l, constant=None, state_gain=None,
                        velocity_gain=None, input_gain=None):
    """Build a coefficient matrix from affine-linear blocks.

    The resulting dynamics are  accel = constant + state_gain @ state +
    velocity_gain @ velocity + input_gain @ input,  placed into the
    canonical slots of ``library``.
    """
    p = library.term_count(l)
    Xi = np.zeros((p, l))
    names = library.term_names(l)
    if constant is not None:
        if not library.include_constant:
            raise ValidationError("library has no constant term")
        Xi[names.index("1"), :] = np.asarray(constant, dtype=float)
    if state_gain is not None:
        if library.poly_degree < 1:
            raise ValidationError("library has no linear state terms")
        K = np.asarray(state_gain, dtype=float)
        for i in range(l):
            Xi[names.index(f"xi_{i + 1}"), :] = K[:, i]
    if velocity_gain is not None:
        if library.poly_degree < 1:
            raise ValidationError("library has no linear velocity terms")
        C = np.asarray(velocity_gain, dtype=float)
        for i in range(l):
            Xi[names.index(f"dxi_{i + 1}"), :] = C[:, i]
    if input_gain is not None:
        if not library.include_inputs:
            raise ValidationError("library has no input terms")
        N = np.asarray(input_gain, dtype=float)
        for i in range(l):
            Xi[names.index(f"nu_{i + 1}"), :] = N[:, i]
    return Xi


def _decompose_affine(library, Xi):
    """Split a coefficient matrix back into (k0, K, C, N); raise if any
    active entry sits outside the affine-linear slots."""
    p, l = Xi.shape
    names = library.term_names(l)
    k0 = np.zeros(l)
    K = np.zeros((l, l))
    C = np.zeros((l, l))
    N = np.zeros((l, l))
    for idx, name in enumerate(names):
        row = Xi[idx]
        if not np.any(row):
            continue
        if name == "1":
            k0 = row.copy()
        elif name.startswith("xi_") and "*" not in name and "^" not in name:
            K[:, int(name[3:]) - 1] = row
        elif name.startswith("dxi_") and "*" not in name and "^" not in name:
            C[:, int(name[4:]) - 1] = row
        elif name.startswith("nu_"):
            N[:, int(name[3:]) - 1] = row
        else:
            raise ValidationError(
                f"truth uses non-affine term {name!r}; basis transform is undefined"
            )
    return k0, K, C, N


def coefficients_in_basis(truth, encoder):
    """Re-express affine-linear true dynamics in a trained encoder basis.

    Given latent_learned = W_enc (lift @ latent_true + offset) + b_enc and
    nu_learned = pinv(W_enc)^T lift nu_true, returns for every phase the
    coefficient matrix over the same library that generates the identical
    accelerations in the learned coordinates.  Only valid when the learned
    latent dimension equals the true one.
    """
    l = truth.lift.shape[1]
    if encoder.latent_dim != l:
        raise ValidationError(
            f"basis transform needs latent_dim == {l}, got {encoder.latent_dim}"
        )
    A = encoder.W_enc @ truth.lift
    b = encoder.W_enc @ truth.offset + encoder.b_enc
    M = np.linalg.pinv(encoder.W_enc).T @ truth.lift
    A_inv = np.linalg.inv(A)
    M_inv = np.linalg.inv(M)
    out = []
    for phase, Xi in truth.coefficients:
        k0, K, C, N = _decompose_affine(truth.library, Xi)
        K_new = A @ K @ A_inv
        C_new = A @ C @ A_inv
        N_new = A @ N @ M_inv
        k0_new = A @ k0 - K_new @ b
        out.append(
            (phase, affine_coefficients(truth.library, l, k0_new, K_new, C_new, N_new))
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# generation


def _draw_lift(rng, full_dim, l_true):
    for _ in range(10):
        raw = rng.standard_normal((full_dim, l_true))
        lift, _ = np.linalg.qr(raw)
        cond = float(np.linalg.cond(lift))
        if cond <= MAX_LIFT_CONDITION:
            return lift
    raise ValidationError(
        f"could not draw a lift with condition <= {MAX_LIFT_CONDITION:g} in 10 attempts"
    )


def _foot_layout(rng):
    base = np.array([
        [+0.25, +0.18, 0.0],
        [+0.25, -0.18, 0.0],
        [-0.25, +0.18, 0.0],
        [-0.25, -0.18, 0.0],
    ])
    shift = np.array([rng.normal(0.0, 0.1), rng.normal(0.0, 0.1), 0.0])
    com = np.array([0.05, 0.0, 0.30]) + shift
    return base + shift, com


def _skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _realize_forces(wrench, flags, feet, com):
    """Per-foot forces whose aggregate CoM wrench equals ``wrench`` exactly."""
    T = wrench.shape[0]
    forces = np.zeros((T, 12))
    active = np.any(wrench != 0.0, axis=1)
    if not active.any():
        return forces
    feet_idx = np.flatnonzero(np.asarray(flags) != 0)
    if feet_idx.size == 0:
        raise ValidationError("nonzero wrench scheduled for a flight phase")
    cols = []
    for k in feet_idx:
        cols.append(np.vstack([np.eye(3), _skew(feet[k] - com)]))
    wmap = np.concatenate(cols, axis=1)       # (6, 3 * n_active)
    pinv = np.linalg.pinv(wmap)
    sol = wrench[active] @ pinv.T             # (n_active_rows, 3 * n_active)
    residual = np.max(np.abs(sol @ wmap.T - wrench[active]))
    if residual > 1e-9 * max(1.0, float(np.max(np.abs(wrench)))):
        raise ValidationError(
            f"scheduled wrench not realizable by the in-contact feet (residual {residual:.2e})"
        )
    for pos, k in enumerate(feet_idx):
        forces[active, 3 * k : 3 * k + 3] = sol[:, 3 * pos : 3 * pos + 3]
    return forces


def _simulate_jumps(spec, rng):
    """Every jump in latent coordinates, stepped in lockstep.

    Each jump's randomness is drawn in turn: initial state, spline knots
    for each driven phase, foot layout.  All jumps share the knot times, so
    each driven phase has one spline over the stacked knots.  Returns
    (n_jumps, T, l) states, velocities and inputs, and the foot layouts.
    """
    l, n = spec.l_true, spec.n_jumps
    starts = np.cumsum([0] + [steps for _, steps in spec.phase_durations])
    spans = [(a * spec.dt, b * spec.dt) for a, b in zip(starts[:-1], starts[1:])]
    n_knots = max(spec.input_knots, 2)
    knots = {i: np.empty((n_knots, n, l)) for i, (phase, _) in enumerate(spec.phase_durations)
             if phase in spec.input_phases and (spec.input_amplitude > 0 or any(spec.input_mean))}
    y0 = np.empty((n, 2 * l))
    layouts = []
    for j in range(n):
        y0[j, :l] = spec.ic_center + rng.uniform(-spec.ic_spread, spec.ic_spread, l)
        y0[j, l:] = rng.uniform(-spec.velocity_spread, spec.velocity_spread, l)
        for values in knots.values():
            values[:, j] = rng.normal(0.0, spec.input_amplitude, size=(n_knots, l))
        layouts.append(_foot_layout(rng))

    splines = {i: CubicSpline(np.linspace(*spans[i], n_knots), v) for i, v in knots.items()}
    phase_of = np.repeat(np.arange(len(spans)), np.diff(starts))
    coeffs = [spec.dynamics_for(phase) for phase, _ in spec.phase_durations]

    def inputs(k, t):
        i = phase_of[k]
        if i not in splines:
            return np.zeros((n, l))
        return spec.input_mean + splines[i](np.clip(t, *spans[i]))

    def rhs(k, t, y):
        rows = build_library_row(spec.library, y[:, :l], y[:, l:], inputs(k, t))
        # the stacked matmul gives each jump the bits of its own row @ Xi
        accel = (rows[:, None, :] @ coeffs[phase_of[k]])[:, 0, :]
        return np.concatenate([y[:, l:], accel], axis=1)

    states = _integrators.integrate_intervals(rhs, y0, starts[-1], spec.dt, "fixed_rk4",
                                              substeps=2).swapaxes(0, 1)
    nu = np.stack([inputs(k, k * spec.dt) for k in range(starts[-1])], axis=1)
    return states[..., :l], states[..., l:], nu, layouts


def generate(spec, out_dir=None):
    """Generate a dataset plus its hidden ground truth.

    Returns (dataset, truth) with the dataset in exactly the shape
    load_dataset produces (derived fields unfilled).  With ``out_dir`` the
    dataset files and a ground-truth sidecar are also written.  The same
    spec always yields identical files.
    """
    root_seq = np.random.SeedSequence(spec.lift_seed)
    lift_seq, data_seq, split_seq, noise_seq = root_seq.spawn(4)
    lift_rng = np.random.default_rng(lift_seq)
    data_rng = np.random.default_rng(data_seq)

    m = spec.full_dim - 6
    lift = _draw_lift(lift_rng, spec.full_dim, spec.l_true)
    offset = lift_rng.normal(0.0, 0.5, spec.full_dim)

    flags = np.concatenate([np.tile(_CONTACT_FLAGS[phase], (steps, 1))
                            for phase, steps in spec.phase_durations])
    jumps = []
    for xi, dxi, nu, (feet, com) in zip(*_simulate_jumps(spec, data_rng)):
        T = xi.shape[0]
        u = nu @ lift.T
        wrench = u[:, m:]
        cursor = 0
        forces = np.zeros((T, 12))
        for phase, steps in spec.phase_durations:
            seg = slice(cursor, cursor + steps)
            forces[seg] = _realize_forces(wrench[seg], _CONTACT_FLAGS[phase], feet, com)
            cursor += steps
        # derived fields stay unfilled, mirroring what load_dataset returns
        jumps.append(Trajectory(
            timestamps=np.arange(T) * spec.dt,
            q=offset + xi @ lift.T,
            dq=dxi @ lift.T,
            tau=u[:, :m],
            contact=flags.copy(),
            foot_forces=forces,
            foot_positions=np.tile(feet.reshape(-1), (T, 1)),
            com_positions=np.tile(com, (T, 1)),
        ))

    phases = "-".join(str(ph) for ph, _ in spec.phase_durations)
    meta = DatasetMeta(robot=f"synthetic-{phases}", m=m, dt=spec.dt, noise_sigma=0.0)
    dataset = Dataset(jumps=tuple(jumps), split=("train",) * spec.n_jumps, meta=meta)

    counts = spec.split_counts
    if counts is None:
        n_test = max(1, spec.n_jumps // 5)
        n_val = max(1, spec.n_jumps // 5)
        counts = (spec.n_jumps - n_val - n_test, n_val, n_test)
    dataset = split_dataset(dataset, counts, seed=split_seq.generate_state(1)[0])

    if spec.noise_sigma:
        dataset = add_noise(dataset, spec.noise_sigma, seed=noise_seq.generate_state(1)[0])

    truth = SyntheticTruth(
        lift=lift,
        offset=offset,
        library=spec.library,
        coefficients=tuple((ph, np.array(c)) for ph, c in spec.phase_dynamics),
    )
    if out_dir is not None:
        save_dataset(dataset, out_dir)
        _write_truth(truth, Path(out_dir) / GROUND_TRUTH_NAME)
    return dataset, truth


def _write_truth(truth, path):
    payload = {
        "lift": truth.lift.tolist(),
        "offset": truth.offset.tolist(),
        "library": {
            "poly_degree": truth.library.poly_degree,
            "include_constant": truth.library.include_constant,
            "include_sin_states": truth.library.include_sin_states,
            "include_sin_velocities": truth.library.include_sin_velocities,
            "include_inputs": truth.library.include_inputs,
        },
        "term_names": truth.library.term_names(truth.lift.shape[1]),
        "coefficients": {str(ph): c.tolist() for ph, c in truth.coefficients},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_truth(path):
    payload = json.loads(Path(path).read_text())
    library = FunctionLibrarySpec(**payload["library"])
    coeffs = tuple(
        (Phase(ph), np.asarray(c, dtype=float)) for ph, c in payload["coefficients"].items()
    )
    return SyntheticTruth(
        lift=np.asarray(payload["lift"], dtype=float),
        offset=np.asarray(payload["offset"], dtype=float),
        library=library,
        coefficients=coeffs,
    )


# ---------------------------------------------------------------------------
# standard fixtures


def two_phase_spec(n_jumps=20, lift_seed=3, noise_sigma=0.0, dt=0.002,
                   split_counts=(8, 2, 10)):
    """Spring-damper contact followed by ballistic flight, 2 latent dims.

    Contact: accel = -4 state - 0.8 velocity + input, driven by smooth
    offset splines.  Flight: constant acceleration, no input.  Large
    latent excursions keep the sine columns well separated from the linear
    ones, so sparse recovery is well-posed even under measurement noise.
    """
    library = FunctionLibrarySpec()
    l = 2
    contact = affine_coefficients(
        library, l,
        state_gain=-4.0 * np.eye(l),
        velocity_gain=-0.8 * np.eye(l),
        input_gain=np.eye(l),
    )
    flight = affine_coefficients(library, l, constant=(0.8, -2.2))
    return SyntheticSpec(
        l_true=l,
        full_dim=18,
        lift_seed=lift_seed,
        library=library,
        phase_dynamics=((Phase.CONTACT, contact), (Phase.FLIGHT, flight)),
        phase_durations=((Phase.CONTACT, 300), (Phase.FLIGHT, 200)),
        n_jumps=n_jumps,
        dt=dt,
        input_phases=(Phase.CONTACT,),
        input_mean=(2.4, -2.0),
        input_amplitude=1.2,
        ic_center=(0.6, -0.5),
        ic_spread=1.8,
        velocity_spread=3.0,
        split_counts=split_counts,
        noise_sigma=noise_sigma,
    )


def three_phase_spec(n_jumps=12, lift_seed=16, noise_sigma=0.0, dt=0.002,
                     split_counts=None):
    """Three-phase schedule: full contact, rear-feet contact, then flight."""
    library = FunctionLibrarySpec()
    l = 2
    contact = affine_coefficients(
        library, l,
        state_gain=-4.0 * np.eye(l),
        velocity_gain=-0.8 * np.eye(l),
        input_gain=np.eye(l),
    )
    partial = affine_coefficients(
        library, l,
        constant=(0.5, 0.9),
        state_gain=-2.5 * np.eye(l),
        velocity_gain=-1.2 * np.eye(l),
    )
    flight = affine_coefficients(library, l, constant=(0.8, -2.2))
    return SyntheticSpec(
        l_true=l,
        full_dim=18,
        lift_seed=lift_seed,
        library=library,
        phase_dynamics=(
            (Phase.CONTACT, contact),
            (Phase.PARTIAL_CONTACT, partial),
            (Phase.FLIGHT, flight),
        ),
        phase_durations=(
            (Phase.CONTACT, 250),
            (Phase.PARTIAL_CONTACT, 150),
            (Phase.FLIGHT, 150),
        ),
        n_jumps=n_jumps,
        dt=dt,
        input_phases=(Phase.CONTACT,),
        input_mean=(2.4, -2.0),
        input_amplitude=1.2,
        ic_center=(0.6, -0.5),
        ic_spread=1.8,
        velocity_spread=3.0,
        split_counts=split_counts,
        noise_sigma=noise_sigma,
    )
