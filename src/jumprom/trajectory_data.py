"""Loading, validation, preprocessing, and phase segmentation of jump datasets.

A dataset on disk is one directory holding a ``manifest.json`` plus one
delimited text file per jump.  Column layout of a jump file (header row,
comma separated)::

    t, q_0..q_{m+5}, dq_0..dq_{m+5}, tau_0..tau_{m-1}, c_0..c_3
    [, ff_0..ff_11][, fp_0..fp_11][, com_x, com_y, com_z]

``q`` stacks the m actuated joint angles, then base position (x, y, z),
then base Euler angles in ZYX roll-pitch-yaw order.  Contact flags are one
per foot.  The optional groups carry world-frame foot forces (3 per foot),
world-frame foot positions, and the CoM position.  All floats are written
with full round-trip precision.

The manifest lists the jump files, the joint count m, the nominal sample
step dt, and the train/val/test assignment of each jump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DatasetLoadError,
    NonUniformTimestepError,
    SingularJacobianError,
    ValidationError,
)

SPLITS = ("train", "val", "test")

MANIFEST_NAME = "manifest.json"


class Phase(str, Enum):
    """Contact regime of a hybrid jump, derived from the per-foot flags."""

    CONTACT = "contact"
    PARTIAL_CONTACT = "partial_contact"
    FLIGHT = "flight"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class PhaseSegment:
    """Maximal contiguous run of one phase; ``start``/``end`` are inclusive."""

    phase: Phase
    start: int
    end: int

    def __len__(self):
        return self.end - self.start + 1


@dataclass(frozen=True)
class Trajectory:
    """One recorded jump, optionally with its derived tensors.

    Shapes: timestamps (T,), q and dq (T, m+6), tau (T, m), contact (T, 4).
    Optional: foot_forces (T, 12), foot_positions (T, 12), com_positions (T, 3).
    Derived by ``process_trajectory`` (None until then): ddq (T, m+6)
    accelerations and u (T, m+6), the joint torques stacked with the
    6-component CoM wrench (linear momentum rate first, then angular
    momentum rate).  Phases are not stored: ``segment_phases`` reads them
    from the contact flags.
    """

    timestamps: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    tau: np.ndarray
    contact: np.ndarray
    foot_forces: np.ndarray | None = None
    foot_positions: np.ndarray | None = None
    com_positions: np.ndarray | None = None
    ddq: np.ndarray | None = None
    u: np.ndarray | None = None

    @property
    def n_samples(self):
        return self.q.shape[0]


@dataclass(frozen=True)
class DatasetMeta:
    robot: str
    m: int
    dt: float
    noise_sigma: float = 0.0


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of jumps with a disjoint train/val/test split."""

    jumps: tuple[Trajectory, ...]
    split: tuple[str, ...]
    meta: DatasetMeta

    def __post_init__(self):
        if len(self.jumps) != len(self.split):
            raise ValidationError("split assignment length differs from jump count")
        bad = set(self.split) - set(SPLITS)
        if bad:
            raise ValidationError(f"unknown split labels {sorted(bad)}")

    def indices(self, split):
        return tuple(i for i, s in enumerate(self.split) if s == split)

    def jumps_in(self, split):
        return tuple(self.jumps[i] for i in self.indices(split))

    def split_counts(self):
        return tuple(len(self.indices(s)) for s in SPLITS)

    @property
    def n_jumps(self):
        return len(self.jumps)


# ---------------------------------------------------------------------------
# validation


def _column_names(m, with_forces, with_positions, with_com):
    names = ["t"]
    names += [f"q_{i}" for i in range(m + 6)]
    names += [f"dq_{i}" for i in range(m + 6)]
    names += [f"tau_{i}" for i in range(m)]
    names += [f"c_{i}" for i in range(4)]
    if with_forces:
        names += [f"ff_{i}" for i in range(12)]
    if with_positions:
        names += [f"fp_{i}" for i in range(12)]
    if with_com:
        names += ["com_x", "com_y", "com_z"]
    return names


def validate_trajectory(traj, m, origin="trajectory"):
    """Check the structural invariants of one jump; raise DatasetLoadError."""
    T = traj.timestamps.shape[0]
    if T < 3:
        raise DatasetLoadError(
            f"{origin}: too few samples for differentiation (T={T}, need >= 3)"
        )
    if m % 4 != 0:
        raise DatasetLoadError(f"{origin}: joint count m={m} not divisible by 4")
    shapes = {
        "q": (T, m + 6),
        "dq": (T, m + 6),
        "tau": (T, m),
        "contact": (T, 4),
    }
    for name, want in shapes.items():
        got = getattr(traj, name).shape
        if got != want:
            raise DatasetLoadError(f"{origin}: column block {name} has shape {got}, expected {want}")
    for name, width in (("foot_forces", 12), ("foot_positions", 12), ("com_positions", 3)):
        arr = getattr(traj, name)
        if arr is not None and arr.shape != (T, width):
            raise DatasetLoadError(
                f"{origin}: optional block {name} has shape {arr.shape}, expected {(T, width)}"
            )
    dts = np.diff(traj.timestamps)
    if np.any(dts <= 0):
        k = int(np.argmax(dts <= 0))
        raise DatasetLoadError(f"{origin}: timestamps not strictly increasing at row {k + 1}")
    bad = (traj.contact != 0) & (traj.contact != 1)
    if np.any(bad):
        r, c = map(int, np.argwhere(bad)[0])
        raise DatasetLoadError(
            f"{origin}: contact column c_{c} contains non-binary value "
            f"{traj.contact[r, c]!r} at row {r}"
        )
    for name in ("q", "dq", "tau"):
        if not np.all(np.isfinite(getattr(traj, name))):
            raise DatasetLoadError(f"{origin}: non-finite values in column block {name}")


# ---------------------------------------------------------------------------
# core per-sample operations


def differentiate_velocity(traj, *, smooth_window=0):
    """Estimate accelerations from the velocity rows.

    Second-order central differences on interior samples, second-order
    one-sided differences at the two endpoints.  The time grid must be
    uniform to within 1%; resampling is out of scope.  ``smooth_window``
    applies a centered moving average to the velocities before
    differencing (0 disables it).
    """
    t = traj.timestamps
    if t.shape[0] < 3:
        raise ValidationError("too few samples for differentiation (need T >= 3)")
    dts = np.diff(t)
    dt = float(np.median(dts))
    if np.max(np.abs(dts - dt)) > 0.01 * dt:
        raise NonUniformTimestepError(
            f"timestep varies by more than 1% (median {dt:.6g}); resampling is unsupported"
        )
    dq = traj.dq
    if smooth_window and smooth_window > 1:
        dq = _moving_average(dq, smooth_window)
    return np.gradient(dq, dt, axis=0, edge_order=2)


def _moving_average(x, window):
    if window % 2 == 0:
        raise ValidationError(f"smoothing window must be odd, got {window}")
    h = window // 2
    padded = np.concatenate([np.repeat(x[:1], h, axis=0), x, np.repeat(x[-1:], h, axis=0)])
    kernel = np.full(window, 1.0 / window)
    out = np.empty_like(x, dtype=float)
    for j in range(x.shape[1]):
        out[:, j] = np.convolve(padded[:, j], kernel, mode="valid")
    return out


def compute_foot_force(jacobian, leg_torques, *, max_condition=1e8):
    """Ground reaction force of one leg from its joint torques.

    Solves J^T F = tau, i.e. F = J^{-T} tau, for a square (3x3) leg
    Jacobian.  Raises SingularJacobianError when the condition number
    exceeds ``max_condition``.
    """
    J = np.asarray(jacobian, dtype=float)
    tau = np.asarray(leg_torques, dtype=float)
    if J.shape[0] != J.shape[1]:
        raise ValidationError(f"leg Jacobian must be square, got {J.shape}")
    cond = float(np.linalg.cond(J))
    if not np.isfinite(cond) or cond > max_condition:
        raise SingularJacobianError(
            f"leg Jacobian condition number {cond:.3e} exceeds {max_condition:.1e}", cond
        )
    return np.linalg.solve(J.T, tau)


def compute_com_wrench(foot_forces, foot_positions, com):
    """Aggregate the per-foot forces into the 6-vector CoM wrench.

    First three entries: total force (linear momentum rate).  Last three:
    total torque about the CoM (angular momentum rate).  Forces of feet
    not in contact must already be zeroed by the caller.

    Accepts single samples (4, 3) or batches (T, 4, 3).
    """
    F = np.asarray(foot_forces, dtype=float)
    P = np.asarray(foot_positions, dtype=float)
    b = np.asarray(com, dtype=float)
    if F.shape != P.shape or F.shape[-2:] != (4, 3):
        raise ValidationError(f"expected (..., 4, 3) forces/positions, got {F.shape} and {P.shape}")
    lin = F.sum(axis=-2)
    ang = np.cross(P - b[..., None, :], F).sum(axis=-2)
    return np.concatenate([lin, ang], axis=-1)


def assemble_input(tau, wrench):
    """Stack joint torques and CoM wrench into the (m+6)-vector input."""
    tau = np.asarray(tau, dtype=float)
    wrench = np.asarray(wrench, dtype=float)
    if wrench.shape[-1] != 6:
        raise ValidationError(f"wrench must have 6 components, got {wrench.shape[-1]}")
    return np.concatenate([tau, wrench], axis=-1)


# phase code by number of feet down (0..4), and the phase of each code
_FEET_DOWN_CODE = np.array([0, 1, 1, 1, 2])
_CODE_PHASE = np.array([Phase.FLIGHT, Phase.PARTIAL_CONTACT, Phase.CONTACT], dtype=object)


def segment_phases(contact):
    """Label each sample and list the maximal contiguous phase segments.

    All four feet down -> Contact, none down -> Flight, anything else ->
    PartialContact.  Segment bounds are inclusive and partition [0, T)
    (T = 0 gives ``((), [])``); the pipeline keeps a phase's regression rows
    at depth >= ``boundary_trim`` inside them.
    """
    c = np.asarray(contact)
    if c.ndim != 2 or c.shape[1] != 4:
        raise ValidationError(f"contact matrix must be (T, 4), got {c.shape}")
    code = _FEET_DOWN_CODE[np.count_nonzero(c, axis=1)]
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    ends = np.append(starts[1:], code.size) - 1
    labels = _CODE_PHASE[code]
    segments = [PhaseSegment(labels[s], int(s), int(e)) for s, e in zip(starts, ends)]
    return tuple(labels), segments


# ---------------------------------------------------------------------------
# derivation of the Trajectory fields ddq and u


def process_trajectory(traj, m, *, smooth_window=0, jacobians=None):
    """Return the jump with its derived fields ddq and u filled.

    The CoM wrench is built from recorded foot forces when present (forces
    of non-contact feet are zeroed first).  Otherwise per-sample leg
    Jacobians (T, 4, 3, 3) must be supplied and forces are recovered from
    the joint torques.  Foot positions are required either way; the CoM
    falls back to the base position when no com_positions are recorded.
    """
    ddq = differentiate_velocity(traj, smooth_window=smooth_window)
    T = traj.n_samples

    if traj.foot_forces is not None:
        F = traj.foot_forces.reshape(T, 4, 3).copy()
    elif jacobians is not None:
        J = np.asarray(jacobians, dtype=float)
        if J.shape != (T, 4, 3, 3):
            raise ValidationError(f"jacobians must have shape {(T, 4, 3, 3)}, got {J.shape}")
        n_j = m // 4
        if n_j != 3:
            raise ValidationError("torque-based force recovery needs 3 joints per leg")
        F = np.zeros((T, 4, 3))
        for k in range(4):
            leg_tau = traj.tau[:, 3 * k : 3 * k + 3]
            for i in range(T):
                if traj.contact[i, k]:
                    F[i, k] = compute_foot_force(J[i, k], leg_tau[i])
    elif np.any(traj.contact != 0):
        raise ValidationError(
            "cannot derive the CoM wrench: no recorded foot forces and no leg Jacobians"
        )
    else:
        F = np.zeros((T, 4, 3))

    F[traj.contact == 0] = 0.0

    if np.any(F != 0.0):
        if traj.foot_positions is None:
            raise ValidationError("foot positions are required to compute the CoM wrench")
        P = traj.foot_positions.reshape(T, 4, 3)
    else:
        P = np.zeros((T, 4, 3))
    com = traj.com_positions if traj.com_positions is not None else traj.q[:, m : m + 3]

    wrench = compute_com_wrench(F, P, com)
    return replace(traj, ddq=ddq, u=assemble_input(traj.tau, wrench))


def process_dataset(dataset, *, smooth_window=0, jacobians=None):
    """Apply process_trajectory to every jump; returns a new Dataset."""
    jumps = []
    for i, jump in enumerate(dataset.jumps):
        jac = jacobians[i] if jacobians is not None else None
        jumps.append(process_trajectory(jump, dataset.meta.m, smooth_window=smooth_window, jacobians=jac))
    return Dataset(jumps=tuple(jumps), split=dataset.split, meta=dataset.meta)


def is_processed(dataset):
    return all(j.ddq is not None and j.u is not None for j in dataset.jumps)


# ---------------------------------------------------------------------------
# split / noise


def split_dataset(dataset, counts, seed):
    """Reassign jumps to train/val/test with a seeded shuffle."""
    n = dataset.n_jumps
    counts = tuple(int(c) for c in counts)
    if len(counts) != 3 or sum(counts) != n:
        raise ValidationError(f"split counts {counts} do not sum to the jump count {n}")
    order = np.random.default_rng(seed).permutation(n)
    split = [""] * n
    cursor = 0
    for label, count in zip(SPLITS, counts):
        for idx in order[cursor : cursor + count]:
            split[int(idx)] = label
        cursor += count
    return Dataset(jumps=dataset.jumps, split=tuple(split), meta=dataset.meta)


def _sigma_map(sigma):
    if isinstance(sigma, Mapping):
        unknown = set(sigma) - {"q", "dq", "tau"}
        if unknown:
            raise ValidationError(f"unknown noise keys {sorted(unknown)}")
        out = {k: float(sigma.get(k, 0.0)) for k in ("q", "dq", "tau")}
    else:
        out = {k: float(sigma) for k in ("q", "dq", "tau")}
    if any(v < 0 for v in out.values()):
        raise ValidationError("noise standard deviations must be >= 0")
    return out


def add_noise(dataset, sigma, seed):
    """Additive i.i.d. Gaussian noise on q, dq, tau of the raw record.

    ``sigma`` is a scalar applied to all three signals or a mapping with
    keys among {"q", "dq", "tau"}.  Recorded foot forces and positions are
    left untouched.  The derived fields ddq and u are left unfilled, as
    ``load_dataset`` leaves them: derive them with ``process_dataset``,
    with the leg Jacobians the clean record needed, if any.
    """
    sig = _sigma_map(sigma)
    rng = np.random.default_rng(seed)
    jumps = []
    for jump in dataset.jumps:
        fields = {}
        for name in ("q", "dq", "tau"):
            arr = getattr(jump, name)
            if sig[name] > 0:
                arr = arr + rng.normal(0.0, sig[name], size=arr.shape)
            fields[name] = arr
        jumps.append(replace(jump, ddq=None, u=None, **fields))
    total = max(sig.values())
    meta = replace(dataset.meta, noise_sigma=float(np.hypot(dataset.meta.noise_sigma, total)))
    return Dataset(jumps=tuple(jumps), split=dataset.split, meta=meta)


# ---------------------------------------------------------------------------
# disk format


def _format_float(x):
    return repr(float(x))


def load_dataset(path):
    """Read a dataset directory; derived fields are left unfilled.

    Raises DatasetLoadError naming the offending file and column for any
    malformed or invariant-violating input.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetLoadError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise DatasetLoadError(f"{manifest_path.name}: invalid JSON ({e})") from e
    for key in ("robot", "m", "dt", "jumps"):
        if key not in manifest:
            raise DatasetLoadError(f"{manifest_path.name}: missing manifest key {key!r}")
    m = int(manifest["m"])
    meta = DatasetMeta(
        robot=str(manifest["robot"]),
        m=m,
        dt=float(manifest["dt"]),
        noise_sigma=float(manifest.get("noise_sigma", 0.0)),
    )

    jumps = []
    split = []
    for entry in manifest["jumps"]:
        name = entry["file"]
        label = entry.get("split", "train")
        if label not in SPLITS:
            raise DatasetLoadError(f"{manifest_path.name}: bad split {label!r} for {name}")
        jumps.append(_load_jump_file(root / name, m))
        split.append(label)
    return Dataset(jumps=tuple(jumps), split=tuple(split), meta=meta)


def _load_jump_file(path, m):
    if not path.exists():
        raise DatasetLoadError(f"{path.name}: file not found")
    with open(path, "r") as fh:
        header = fh.readline().strip()
        cols = [c.strip() for c in header.split(",")]
        with_forces = "ff_0" in cols
        with_positions = "fp_0" in cols
        with_com = "com_x" in cols
        expected = _column_names(m, with_forces, with_positions, with_com)
        if cols != expected:
            missing = [c for c in expected if c not in cols]
            extra = [c for c in cols if c not in expected]
            detail = []
            if missing:
                detail.append(f"missing columns {missing[:4]}")
            if extra:
                detail.append(f"unexpected columns {extra[:4]}")
            raise DatasetLoadError(f"{path.name}: header mismatch ({'; '.join(detail) or 'column order'})")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise DatasetLoadError(f"{path.name}: parse error: {e}") from e
    if data.shape[1] != len(expected):
        raise DatasetLoadError(
            f"{path.name}: row width {data.shape[1]} does not match header width {len(expected)}"
        )

    def take(n):
        nonlocal cursor
        block = data[:, cursor : cursor + n]
        cursor += n
        return block

    cursor = 0
    t = take(1)[:, 0]
    q = take(m + 6)
    dq = take(m + 6)
    tau = take(m)
    contact = take(4)
    ff = take(12) if with_forces else None
    fp = take(12) if with_positions else None
    com = take(3) if with_com else None
    traj = Trajectory(
        timestamps=t, q=q, dq=dq, tau=tau, contact=contact,
        foot_forces=ff, foot_positions=fp, com_positions=com,
    )
    validate_trajectory(traj, m, origin=path.name)
    return traj


def save_dataset(dataset, path):
    """Write a dataset directory in the manifest + per-jump file format.

    Floats are written with full precision so a load/save/load round trip
    is bit-exact on every stored column.  Derived fields are not stored.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (jump, label) in enumerate(zip(dataset.jumps, dataset.split)):
        name = f"jump_{i:03d}.csv"
        _save_jump_file(root / name, jump, dataset.meta.m)
        entries.append({"file": name, "split": label})
    manifest = {
        "robot": dataset.meta.robot,
        "m": dataset.meta.m,
        "dt": dataset.meta.dt,
        "noise_sigma": dataset.meta.noise_sigma,
        "jumps": entries,
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return root


def _save_jump_file(path, jump, m):
    with_forces = jump.foot_forces is not None
    with_positions = jump.foot_positions is not None
    with_com = jump.com_positions is not None
    names = _column_names(m, with_forces, with_positions, with_com)
    blocks = [jump.timestamps[:, None], jump.q, jump.dq, jump.tau, jump.contact]
    if with_forces:
        blocks.append(jump.foot_forces)
    if with_positions:
        blocks.append(jump.foot_positions)
    if with_com:
        blocks.append(jump.com_positions)
    table = np.concatenate(blocks, axis=1)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in table:
            fh.write(",".join(_format_float(x) for x in row) + "\n")
