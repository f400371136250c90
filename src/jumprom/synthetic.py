"""Synthetic datasets with known latent dynamics, lifted to full dimension.

The design is fixed: two latent dimensions (``L_TRUE``) lifted to 18
(``FULL_DIM``, m = 12 joints), the default library (``LIBRARY``), one
affine-linear law per phase (``LAWS``, placed into the library's constant,
``xi_i``, ``dxi_i`` and ``nu_i`` slots by ``affine_coefficients``), smooth
random inputs in the driven phase and uniform random initial states.  A
``SyntheticSpec`` holds only what varies: the phase schedule, the split,
the jump count, the lift seed, the sample step and the measurement noise.
The two presets, ``two_phase_spec`` and ``three_phase_spec``, are a
schedule each plus a rule that derives the default train/val/test split
from the jump count.  A spec checks its split, noise level, step and seed
when it is built, so a bad one fails before any jump is simulated.

The truth is a ``MultiPhaseModel`` like any learned one, and the one
holder of the true laws: its decoder is a seeded orthonormal lift plus
offset (so the embedding is well-conditioned but not axis aligned), its
encoder the lift's transpose, and each scheduled phase holds its law from
``LAWS`` at threshold 0.  The latent trajectories of all jumps are stepped
in lockstep with the truth's coefficients as one stacked state (fixed
small-step RK4, dynamics switched per phase), decoded through the truth's
autoencoder, and written in the standard dataset format, with the truth
beside them in the model-file format.  The inputs are not-a-knot cubic
splines through ``INPUT_KNOTS`` random knots (``_CubicSpline``, equal bit
for bit to scipy's ``CubicSpline``, so generation runs on numpy alone),
mapped to configuration space as u = lift @ nu, which the
transposed-pseudoinverse input transform inverts exactly because the lift
has orthonormal columns.  ``coefficients_in_basis`` re-expresses the true
coefficients in any trained encoder basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _integrators
from .autoencoder import AutoencoderParams, decode
from .errors import ValidationError, is_finite_real, is_integer
from .pipeline import MultiPhaseModel, load_model, save_model
from .sindy import FunctionLibrarySpec, PhaseModel, SparseCoefficients, build_library_row
from .trajectory_data import (
    Dataset,
    DatasetMeta,
    Phase,
    Trajectory,
    _sigma_map,
    add_noise,
    check_split_counts,
    save_dataset,
    split_dataset,
)

_CONTACT_FLAGS = {
    Phase.CONTACT: (1.0, 1.0, 1.0, 1.0),
    Phase.PARTIAL_CONTACT: (0.0, 0.0, 1.0, 1.0),  # rear feet only
    Phase.FLIGHT: (0.0, 0.0, 0.0, 0.0),
}

GROUND_TRUTH_NAME = "ground_truth.txt"


L_TRUE = 2
FULL_DIM = 18
LIBRARY = FunctionLibrarySpec()

# The true law of each phase, as affine blocks for ``affine_coefficients``:
# in contact a spring-damper (accel = -4 state - 0.8 velocity + input), in
# partial contact an undriven one with a constant push, in flight a
# constant acceleration.  Large latent excursions keep the sine columns
# well separated from the linear ones, so sparse recovery is well-posed
# even under measurement noise.
LAWS = {
    Phase.CONTACT: dict(state_gain=-4.0 * np.eye(L_TRUE), velocity_gain=-0.8 * np.eye(L_TRUE),
                        input_gain=np.eye(L_TRUE)),
    Phase.PARTIAL_CONTACT: dict(constant=(0.5, 0.9), state_gain=-2.5 * np.eye(L_TRUE),
                                velocity_gain=-1.2 * np.eye(L_TRUE)),
    Phase.FLIGHT: dict(constant=(0.8, -2.2)),
}

# The driven phase's latent input: INPUT_MEAN plus a spline through
# INPUT_KNOTS knots per jump, equally spaced over the phase, each drawn
# from N(0, INPUT_AMPLITUDE^2); the other phases are undriven.
INPUT_PHASE = Phase.CONTACT
INPUT_MEAN = (2.4, -2.0)
INPUT_AMPLITUDE = 1.2
INPUT_KNOTS = 6

# Initial latent states: IC_CENTER +- IC_SPREAD, velocities +- VELOCITY_SPREAD, uniform.
IC_CENTER = (0.6, -0.5)
IC_SPREAD = 1.8
VELOCITY_SPREAD = 3.0


@dataclass(frozen=True)
class SyntheticSpec:
    """What a preset or ``gen`` varies; the rest of the design is fixed above."""

    phase_durations: tuple[tuple[Phase, int], ...]   # schedule order, steps per phase
    split_counts: tuple[int, int, int]                # train, val, test jumps
    lift_seed: int
    n_jumps: int = 20
    dt: float = 0.002
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not is_integer(self.n_jumps) or self.n_jumps < 1:
            raise ValidationError(f"n_jumps must be an integer >= 1, got {self.n_jumps!r}")
        check_split_counts(self.split_counts, self.n_jumps)
        _sigma_map(self.noise_sigma)
        if not is_finite_real(self.dt) or self.dt <= 0:
            raise ValidationError(f"dt must be a finite number > 0, got {self.dt!r}")
        if not is_integer(self.lift_seed) or self.lift_seed < 0:
            raise ValidationError(f"lift_seed must be an integer >= 0, got {self.lift_seed!r}")


_AFFINE_BLOCKS = ("constant", "linear state", "linear velocity", "input")


def _affine_slots(library, l):
    """The library rows of each affine block, in ``_AFFINE_BLOCKS`` order:
    ``1``, ``xi_i``, ``dxi_i`` and ``nu_i`` (i = 1..l), each None where the
    library lacks that term class."""
    names = library.term_names(l)
    linear = library.poly_degree >= 1
    table = ((library.include_constant, ["1"]),
             (linear, [f"xi_{i + 1}" for i in range(l)]),
             (linear, [f"dxi_{i + 1}" for i in range(l)]),
             (library.include_inputs, [f"nu_{i + 1}" for i in range(l)]))
    return tuple([names.index(t) for t in terms] if present else None
                 for present, terms in table)


def affine_coefficients(library, l, constant=None, state_gain=None,
                        velocity_gain=None, input_gain=None):
    """Build a coefficient matrix from affine-linear blocks.

    The resulting dynamics are  accel = constant + state_gain @ state +
    velocity_gain @ velocity + input_gain @ input,  placed into the
    canonical slots of ``library``.
    """
    Xi = np.zeros((library.term_count(l), l))
    blocks = (constant, state_gain, velocity_gain, input_gain)
    for kind, rows, block in zip(_AFFINE_BLOCKS, _affine_slots(library, l), blocks):
        if block is None:
            continue
        if rows is None:
            raise ValidationError(f"library has no {kind} terms")
        # column i of a gain acts on variable i, which is row i of the slots
        Xi[rows] = np.atleast_2d(np.asarray(block, dtype=float).T)
    return Xi


def _decompose_affine(library, Xi):
    """Split a coefficient matrix back into (k0, K, C, N), zero where the
    library lacks the block; raise if any active entry sits outside the
    affine-linear slots."""
    l = Xi.shape[1]
    blocks = [np.zeros((l, 1)), np.zeros((l, l)), np.zeros((l, l)), np.zeros((l, l))]
    stray = np.any(Xi != 0, axis=1)
    for block, rows in zip(blocks, _affine_slots(library, l)):
        if rows is not None:
            block[:] = Xi[rows].T
            stray[rows] = False
    if stray.any():
        name = library.term_names(l)[np.flatnonzero(stray)[0]]
        raise ValidationError(
            f"truth uses non-affine term {name!r}; basis transform is undefined"
        )
    k0, K, C, N = blocks
    return k0[:, 0], K, C, N


def coefficients_in_basis(truth, encoder):
    """Re-express the affine-linear dynamics of the model ``truth`` in a
    trained encoder basis.

    With the truth's decoder weights ``lift`` and bias ``offset``, given
    latent_learned = W_enc (lift @ latent_true + offset) + b_enc and
    nu_learned = pinv(W_enc)^T lift nu_true, returns a (phase, coefficient
    matrix) pair per phase of ``truth``, in its order, each over that
    phase's library, that generates the identical accelerations in the
    learned coordinates.  Only valid when the learned latent dimension
    equals the true one.
    """
    lift, offset = truth.autoencoder.W_dec, truth.autoencoder.b_dec
    l = truth.autoencoder.latent_dim
    if encoder.latent_dim != l:
        raise ValidationError(
            f"basis transform needs latent_dim == {l}, got {encoder.latent_dim}"
        )
    A = encoder.W_enc @ lift
    b = encoder.W_enc @ offset + encoder.b_enc
    M = np.linalg.pinv(encoder.W_enc).T @ lift
    A_inv = np.linalg.inv(A)
    M_inv = np.linalg.inv(M)
    out = []
    for pm in truth.phases:
        library = pm.coefficients.library
        k0, K, C, N = _decompose_affine(library, pm.coefficients.Xi)
        K_new = A @ K @ A_inv
        C_new = A @ C @ A_inv
        N_new = A @ N @ M_inv
        k0_new = A @ k0 - K_new @ b
        out.append((pm.phase, affine_coefficients(library, l, k0_new, K_new, C_new, N_new)))
    return tuple(out)


# ---------------------------------------------------------------------------
# generation


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


def _solve_tridiagonal(dl, d, du, b):
    """Solve the tridiagonal system (sub-, main, super-diagonal) for the
    rows of ``b``, in place: LAPACK's reference ``dgtsv`` step for step,
    partial pivoting included, over all right-hand-side columns at once."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i+1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i].copy()
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        # the dl term stays even where dl[i] is zero: it can flip a signed zero
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _CubicSpline:
    """Not-a-knot cubic spline through values ``y`` (n, ...) at increasing
    knots ``x`` (n >= 4), equal bit for bit to scipy's ``CubicSpline``:
    the same knot-slope system and solver, the same Hermite coefficients
    ``c`` (4, n-1, ...), highest power first, and the same evaluation."""

    def __init__(self, x, y):
        n = len(x)
        dx = np.diff(x)
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        dl, d, du = np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        du[1:] = dx[:-1]
        dl[:-1] = dx[1:]
        b = np.empty(y.shape)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        w = x[2] - x[0]
        d[0], du[0] = dx[1], w
        b[0] = ((dxr[0] + 2 * w) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / w
        w = x[-1] - x[-3]
        d[-1], dl[-1] = dx[-2], w
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * w + dxr[-1]) * dxr[-2] * slope[-1]) / w
        s = _solve_tridiagonal(dl, d, du, b)
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        self.c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))

    def __call__(self, t):
        """Values at the scalar ``t``, on the piece with x[i] <= t < x[i+1]
        (the last piece at the right end; the end pieces extend outside)."""
        i = min(max(int(np.searchsorted(self.x, t, side="right")) - 1, 0), len(self.x) - 2)
        s = t - self.x[i]
        c = self.c[:, i]
        # scipy's order: powers of s by repeated products, summed constant first
        z = s * s
        return (((0.0 + c[3]) + c[2] * s) + c[1] * z) + c[0] * (z * s)


def _simulate_jumps(spec, truth, rng):
    """Every jump in latent coordinates, stepped in lockstep with the laws of ``truth``.

    Each jump's randomness is drawn in turn: initial state, spline knots
    for each driven phase, foot layout.  All jumps share the knot times, so
    each driven phase has one not-a-knot cubic spline (``_CubicSpline``)
    over the stacked knots.  Returns (n_jumps, T, l) states, velocities and
    inputs, and the foot layouts; raises the first failed jump's error.
    """
    l, n = truth.autoencoder.latent_dim, spec.n_jumps
    starts = np.cumsum([0] + [steps for _, steps in spec.phase_durations])
    spans = [(a * spec.dt, b * spec.dt) for a, b in zip(starts[:-1], starts[1:])]
    knots = {i: np.empty((INPUT_KNOTS, n, l)) for i, (phase, _) in enumerate(spec.phase_durations)
             if phase is INPUT_PHASE}
    y0 = np.empty((n, 2 * l))
    layouts = []
    for j in range(n):
        y0[j, :l] = IC_CENTER + rng.uniform(-IC_SPREAD, IC_SPREAD, l)
        y0[j, l:] = rng.uniform(-VELOCITY_SPREAD, VELOCITY_SPREAD, l)
        for values in knots.values():
            values[:, j] = rng.normal(0.0, INPUT_AMPLITUDE, size=(INPUT_KNOTS, l))
        layouts.append(_foot_layout(rng))

    splines = {i: _CubicSpline(np.linspace(*spans[i], INPUT_KNOTS), v) for i, v in knots.items()}
    phase_of = np.repeat(np.arange(len(spans)), np.diff(starts))
    coeffs = [truth.phase_model(phase).coefficients for phase, _ in spec.phase_durations]

    def inputs(k, t):
        i = phase_of[k]
        if i not in splines:
            return np.zeros((n, l))
        return INPUT_MEAN + splines[i](np.clip(t, *spans[i]))

    def rhs(k, t, y):
        c = coeffs[phase_of[k]]
        rows = build_library_row(c.library, y[:, :l], y[:, l:], inputs(k, t))
        # vecmat gives each jump the bits of its own row @ Xi
        accel = np.vecmat(rows, c.Xi)
        return np.concatenate([y[:, l:], accel], axis=1)

    states, errors = _integrators.integrate_intervals(rhs, y0, starts[-1], spec.dt, "fixed_rk4",
                                                      substeps=2)
    if any(errors):   # the truth must not blow up
        raise next(filter(None, errors))
    nu = np.stack([inputs(k, k * spec.dt) for k in range(starts[-1])], axis=1)
    return states[..., :l].swapaxes(0, 1), states[..., l:].swapaxes(0, 1), nu, layouts


def generate(spec, out_dir=None):
    """Generate a dataset plus its hidden ground truth.

    Returns (dataset, truth) with the dataset in exactly the shape
    load_dataset produces (derived fields unfilled) and the truth a
    ``MultiPhaseModel``: the seeded lift as its decoder weights, the offset
    as its decoder bias, the lift's transpose as its encoder, and the law
    of each scheduled phase from ``LAWS``, in schedule order, at threshold
    0.  Every jump is stepped with those laws, and every configuration,
    velocity and input is decoded from the simulated latents through that
    autoencoder.  With ``out_dir`` the dataset files and the truth, saved
    by ``save_model`` as ``GROUND_TRUTH_NAME``, are also written.  The same
    spec always yields identical files.
    """
    root_seq = np.random.SeedSequence(spec.lift_seed)
    lift_seq, data_seq, split_seq, noise_seq = root_seq.spawn(4)
    lift_rng = np.random.default_rng(lift_seq)
    data_rng = np.random.default_rng(data_seq)

    m = FULL_DIM - 6
    # QR columns are orthonormal, so the lift is perfectly conditioned
    lift = np.linalg.qr(lift_rng.standard_normal((FULL_DIM, L_TRUE)))[0]
    offset = lift_rng.normal(0.0, 0.5, FULL_DIM)
    truth = MultiPhaseModel(
        autoencoder=AutoencoderParams(W_enc=lift.T, b_enc=-(lift.T @ offset), W_dec=lift,
                                      b_dec=offset),
        phases=tuple(PhaseModel(ph, SparseCoefficients(
            affine_coefficients(LIBRARY, L_TRUE, **LAWS[ph]), 0.0, LIBRARY))
            for ph, _ in spec.phase_durations),
        provenance={"ground_truth": True, "lift_seed": spec.lift_seed},
    )

    flags = np.concatenate([np.tile(_CONTACT_FLAGS[phase], (steps, 1))
                            for phase, steps in spec.phase_durations])
    jumps = []
    for xi, dxi, nu, (feet, com) in zip(*_simulate_jumps(spec, truth, data_rng)):
        T = xi.shape[0]
        u = decode(truth.autoencoder, nu, 1)
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
            q=decode(truth.autoencoder, xi),
            dq=decode(truth.autoencoder, dxi, 1),
            tau=u[:, :m],
            contact=flags.copy(),
            foot_forces=forces,
            foot_positions=np.tile(feet.reshape(-1), (T, 1)),
            com_positions=np.tile(com, (T, 1)),
        ))

    phases = "-".join(str(ph) for ph, _ in spec.phase_durations)
    meta = DatasetMeta(robot=f"synthetic-{phases}", m=m, dt=spec.dt, noise_sigma=0.0)
    dataset = Dataset(jumps=tuple(jumps), split=("train",) * spec.n_jumps, meta=meta)
    dataset = split_dataset(dataset, spec.split_counts, seed=split_seq.generate_state(1)[0])

    if spec.noise_sigma:
        dataset = add_noise(dataset, spec.noise_sigma, seed=noise_seq.generate_state(1)[0])

    if out_dir is not None:
        save_dataset(dataset, out_dir)
        save_model(truth, Path(out_dir) / GROUND_TRUTH_NAME)
    return dataset, truth


# A second name of load_model, which reads the truth as it reads any model:
# perfbench/workloads.py imports this name to read the truth of a dataset.
load_truth = load_model


# ---------------------------------------------------------------------------
# standard fixtures


def _preset(schedule, split_every, n_jumps, lift_seed, noise_sigma, dt, split_counts):
    """The spec on a phase ``schedule`` of (phase, steps) pairs.

    Without ``split_counts``, n_jumps // split_every[0] jumps validate and
    n_jumps // split_every[1] test, at least one each; the rest train.
    """
    if split_counts is None and is_integer(n_jumps):  # a bad n_jumps is the spec's to report
        n_val, n_test = (max(1, n_jumps // k) for k in split_every)
        split_counts = (n_jumps - n_val - n_test, n_val, n_test)
    return SyntheticSpec(phase_durations=schedule, split_counts=split_counts,
                         lift_seed=lift_seed, n_jumps=n_jumps, dt=dt, noise_sigma=noise_sigma)


def two_phase_spec(n_jumps=20, lift_seed=3, noise_sigma=0.0, dt=0.002, split_counts=None):
    """Contact then flight; the default split is (8, 2, 10) at 20 jumps."""
    return _preset(((Phase.CONTACT, 300), (Phase.FLIGHT, 200)), (10, 2),
                   n_jumps, lift_seed, noise_sigma, dt, split_counts)


def three_phase_spec(n_jumps=12, lift_seed=16, noise_sigma=0.0, dt=0.002, split_counts=None):
    """Full contact, rear-feet contact, then flight; the default split is
    (8, 2, 2) at 12 jumps."""
    return _preset(((Phase.CONTACT, 250), (Phase.PARTIAL_CONTACT, 150), (Phase.FLIGHT, 150)),
                   (5, 5), n_jumps, lift_seed, noise_sigma, dt, split_counts)
