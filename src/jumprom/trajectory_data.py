"""Loading, validation, preprocessing, and phase segmentation of jump datasets.

A dataset on disk is one directory holding a ``manifest.json`` plus one
delimited text file per jump.  Column layout of a jump file (header row,
comma separated), stated once by ``_layout`` and read from there by both
the loader and the writer::

    t, q_0..q_{m+5}, dq_0..dq_{m+5}, tau_0..tau_{m-1}, c_0..c_3
    [, ff_0..ff_11][, fp_0..fp_11][, com_x, com_y, com_z]

``q`` stacks the m actuated joint angles, then base position (x, y, z),
then base Euler angles in ZYX roll-pitch-yaw order.  Contact flags are one
per foot.  The optional groups carry world-frame foot forces (3 per foot),
world-frame foot positions, and the CoM position.  All floats are written
with full round-trip precision.

The manifest lists the jump files, the joint count m (a multiple of 4,
one group per leg), the nominal sample step dt, and the train/val/test
assignment of each jump.  ``load_dataset`` reads every jump file;
``load_split`` checks the same manifest and reads only one split's files.

Next to each jump file ``save_dataset`` writes the float64 table it
formatted, as ``<file>.<SHA-256 of the file's bytes>.npy``.  A loader
whose jump file still hashes to that name reads the table instead of
parsing the text; the text stays authoritative, and a missing or
unreadable table only costs the parse.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os
import re
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DatasetLoadError,
    NonUniformTimestepError,
    ValidationError,
    is_finite_real,
    is_integer,
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
# column layout and validation


def _layout(m):
    """Column layout of a jump file: (Trajectory field, column names, optional), in file order."""
    return (
        ("timestamps", ("t",), False),
        ("q", tuple(f"q_{i}" for i in range(m + 6)), False),
        ("dq", tuple(f"dq_{i}" for i in range(m + 6)), False),
        ("tau", tuple(f"tau_{i}" for i in range(m)), False),
        ("contact", tuple(f"c_{i}" for i in range(4)), False),
        ("foot_forces", tuple(f"ff_{i}" for i in range(12)), True),
        ("foot_positions", tuple(f"fp_{i}" for i in range(12)), True),
        ("com_positions", ("com_x", "com_y", "com_z"), True),
    )


def validate_trajectory(traj, origin):
    """Check the value invariants of one jump; raise DatasetLoadError.

    Timestamps strictly increase, contact flags are 0 or 1, and every
    stored block of ``_layout`` is finite.  Block shapes are not checked
    here: the loader builds the blocks from ``_layout`` after matching the
    header and the row width against it.
    """
    T = traj.timestamps.shape[0]
    if T < 3:
        raise DatasetLoadError(
            f"{origin}: too few samples for differentiation (T={T}, need >= 3)"
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
    for field, _, _ in _layout(traj.tau.shape[1]):
        block = getattr(traj, field)
        if block is not None and not np.all(np.isfinite(block)):
            raise DatasetLoadError(f"{origin}: non-finite values in column block {field}")


# ---------------------------------------------------------------------------
# core per-sample operations


def sample_step(timestamps):
    """Median step between consecutive timestamps (at least two); nan when a step is nan.

    Bit for bit ``np.median(np.diff(timestamps))``: the same partition,
    then the middle step or the mean of the two middle steps.  Calling
    ``np.median`` itself would import ``numpy.ma``.
    """
    steps = np.diff(timestamps)
    half, odd = divmod(steps.size, 2)
    middle = [half] if odd else [half - 1, half]
    part = np.partition(steps, middle + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[half] if odd else (part[half - 1] + part[half]) / 2)


def differentiate_velocity(traj):
    """Estimate accelerations from the velocity rows.

    Second-order central differences on interior samples, second-order
    one-sided differences at the two endpoints.  The time grid must be
    uniform to within 1%; resampling is out of scope.
    """
    t = traj.timestamps
    if t.shape[0] < 3:
        raise ValidationError("too few samples for differentiation (need T >= 3)")
    dt = sample_step(t)
    if np.max(np.abs(np.diff(t) - dt)) > 0.01 * dt:
        raise NonUniformTimestepError(
            f"timestep varies by more than 1% (median {dt:.6g}); resampling is unsupported"
        )
    return np.gradient(traj.dq, dt, axis=0, edge_order=2)


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
    (T = 0 gives ``((), [])``); stage 3 regresses on each segment less
    ``boundary_trim`` samples at either end.
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


def process_trajectory(traj, m):
    """Return the jump with its derived fields ddq and u filled.

    The CoM wrench is built from the recorded foot forces, those of feet
    not in contact zeroed first.  A jump with a foot down must record
    them; a jump with no foot down needs none and gets a zero wrench.
    Foot positions are required wherever a force is nonzero; the CoM
    falls back to the base position when no com_positions are recorded.
    """
    ddq = differentiate_velocity(traj)
    T = traj.n_samples

    if traj.foot_forces is not None:
        F = traj.foot_forces.reshape(T, 4, 3).copy()
    elif np.any(traj.contact != 0):
        raise ValidationError(
            "cannot derive the CoM wrench: recorded foot forces (ff_0..ff_11) are required "
            "while a foot is in contact"
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


def process_jump(index, traj, m):
    """``process_trajectory`` of the jump at manifest ``index``; its errors
    keep their type and say ``jump <index>:`` first."""
    try:
        return process_trajectory(traj, m)
    except ValidationError as e:
        raise type(e)(f"jump {index}: {e}") from e


def process_dataset(dataset):
    """Apply process_trajectory to every jump; returns a new Dataset.

    An error names the jump by its manifest index (see ``process_jump``).
    """
    jumps = tuple(process_jump(i, jump, dataset.meta.m) for i, jump in enumerate(dataset.jumps))
    return Dataset(jumps=jumps, split=dataset.split, meta=dataset.meta)


def is_processed(dataset):
    return all(j.ddq is not None and j.u is not None for j in dataset.jumps)


# ---------------------------------------------------------------------------
# split / noise


def check_split_counts(counts, n):
    """Raise unless ``counts`` are (train, val, test) integers >= 0 summing to ``n``."""
    if (not isinstance(counts, (list, tuple)) or len(counts) != 3
            or not all(is_integer(c) and c >= 0 for c in counts) or sum(counts) != n):
        raise ValidationError(
            f"split counts must be three integers >= 0 summing to the jump count {n}, "
            f"got {counts!r}")


def split_dataset(dataset, counts, seed):
    """Reassign jumps to train/val/test with a seeded shuffle."""
    n = dataset.n_jumps
    check_split_counts(counts, n)
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
        out = {k: sigma.get(k, 0.0) for k in ("q", "dq", "tau")}
    else:
        out = {k: sigma for k in ("q", "dq", "tau")}
    if not all(is_finite_real(v) and v >= 0 for v in out.values()):
        raise ValidationError(
            f"noise standard deviations must be finite numbers >= 0, got {sigma!r}")
    return {k: float(v) for k, v in out.items()}


def add_noise(dataset, sigma, seed):
    """Additive i.i.d. Gaussian noise on q, dq, tau of the raw record.

    ``sigma`` is a scalar applied to all three signals or a mapping with
    keys among {"q", "dq", "tau"}.  Recorded foot forces and positions are
    left untouched.  The derived fields ddq and u are left unfilled, as
    ``load_dataset`` leaves them: derive them again with
    ``process_dataset``.
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


def format_row(row, sep=","):
    """One text row of floats, each written by ``repr``: the shortest text
    that reads back to the same double, so a round trip is bit-exact.

    The row is converted to Python floats in one ``tolist`` call; callers
    pass one row at a time, so a whole table is never held as Python
    objects.
    """
    return sep.join(map(repr, np.asarray(row, dtype=float).tolist()))


def _read_manifest(path):
    """Read and check a dataset directory's manifest without opening any jump file.

    Returns (meta, entries), entries holding one (file name, split label)
    per jump in manifest order; a jump's index in it names the jump in
    every output.  Raises DatasetLoadError naming the manifest key or
    entry that is malformed.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetLoadError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:  # invalid JSON, or bytes that are not text
        raise DatasetLoadError(f"{manifest_path.name}: invalid JSON ({e})") from e
    if not isinstance(manifest, dict):
        raise DatasetLoadError(f"{manifest_path.name}: must hold a JSON object")
    for key in ("robot", "m", "dt", "jumps"):
        if key not in manifest:
            raise DatasetLoadError(f"{manifest_path.name}: missing manifest key {key!r}")
    robot, m, dt, entries = (manifest[k] for k in ("robot", "m", "dt", "jumps"))
    noise_sigma = manifest.get("noise_sigma", 0.0)
    for key, valid, expected in (
        ("robot", isinstance(robot, str), "a string"),
        ("m", is_integer(m) and m >= 1 and m % 4 == 0, "an integer >= 1 divisible by 4"),
        ("dt", is_finite_real(dt) and dt > 0, "a finite number > 0"),
        ("noise_sigma", is_finite_real(noise_sigma) and noise_sigma >= 0, "a finite number >= 0"),
        ("jumps", isinstance(entries, list)
         and all(isinstance(e, dict) and isinstance(e.get("file"), str) for e in entries),
         'a list of objects with a string "file"'),
    ):
        if not valid:
            raise DatasetLoadError(
                f"{manifest_path.name}: manifest key {key!r} must be {expected}, "
                f"got {manifest[key]!r}")
    meta = DatasetMeta(robot=robot, m=m, dt=float(dt), noise_sigma=float(noise_sigma))

    files = []
    for entry in entries:
        name = entry["file"]
        label = entry.get("split", "train")
        if label not in SPLITS:
            raise DatasetLoadError(f"{manifest_path.name}: bad split {label!r} for {name}")
        files.append((name, label))
    return meta, tuple(files)


def load_dataset(path):
    """Read a dataset directory, every jump file; derived fields are left unfilled.

    A jump file whose table cache matches its bytes is not parsed (see
    ``_load_jump_file``); nothing is written into the directory.  Raises
    DatasetLoadError naming the offending file and column for any
    malformed or invariant-violating input.
    """
    meta, entries = _read_manifest(path)
    jumps = tuple(_load_jump_file(Path(path) / name, meta.m) for name, _ in entries)
    return Dataset(jumps=jumps, split=tuple(label for _, label in entries), meta=meta)


def load_split(path, split):
    """Read the manifest and only the jump files of one split.

    Returns (meta, jumps), jumps holding one (manifest index, Trajectory)
    per jump of ``split`` in manifest order, derived fields unfilled.  The
    whole manifest is checked as ``load_dataset`` checks it; the files of
    other splits, and their table caches, are not opened.
    """
    meta, entries = _read_manifest(path)
    jumps = tuple((i, _load_jump_file(Path(path) / name, meta.m))
                  for i, (name, label) in enumerate(entries) if label == split)
    return meta, jumps


def _cache_path(path, digest):
    """The table cache of jump file ``path`` whose bytes hash to ``digest``."""
    return path.with_name(f"{path.name}.{digest}.npy")


def _cached_table(path, width):
    """The 2-D float64 table of ``width`` columns saved at ``path``, or None.

    The ``.npy`` header is checked before any data is read, so a missing,
    truncated, foreign or wrongly shaped file is a miss and never an error.
    """
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            major, _ = fmt.read_magic(fh)
            read_header = fmt.read_array_header_1_0 if major == 1 else fmt.read_array_header_2_0
            shape, fortran_order, dtype = read_header(fh)
            if len(shape) != 2 or shape[1] != width or dtype != np.float64 or fortran_order:
                return None
            # the data must fill the file exactly: a header claiming more is never allocated
            if os.fstat(fh.fileno()).st_size != fh.tell() + dtype.itemsize * shape[0] * shape[1]:
                return None
            fh.seek(0)
            return np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None


def _load_jump_file(path, m):
    """One jump file as a validated Trajectory.

    The file is read once and must be UTF-8 text; a byte that is not
    fails naming its offset.  Its header must match ``_layout``; the table
    is then taken from the cache named by the SHA-256 of the file's bytes
    when that holds a float64 array of the header's width, and parsed
    from the text otherwise.  Either way the same checks follow, with the
    same messages.
    """
    if not path.exists():
        raise DatasetLoadError(f"{path.name}: file not found")
    raw = path.read_bytes()
    try:
        raw.decode()
    except UnicodeDecodeError as e:
        raise DatasetLoadError(f"{path.name}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    # read with universal newlines, as ``open(path)`` reads, so a parse error reads the same
    fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    cols = [c.strip() for c in fh.readline().strip().split(",")]
    blocks = [(field, names) for field, names, optional in _layout(m)
              if not optional or names[0] in cols]
    expected = [name for _, names in blocks for name in names]
    if cols != expected:
        missing = [c for c in expected if c not in cols]
        extra = [c for c in cols if c not in expected]
        detail = []
        if missing:
            detail.append(f"missing columns {missing[:4]}")
        if extra:
            detail.append(f"unexpected columns {extra[:4]}")
        raise DatasetLoadError(f"{path.name}: header mismatch ({'; '.join(detail) or 'column order'})")
    data = _cached_table(_cache_path(path, hashlib.sha256(raw).hexdigest()), len(expected))
    if data is None:
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise DatasetLoadError(f"{path.name}: parse error: {e}") from e
    if data.shape[0] == 0:
        raise DatasetLoadError(f"{path.name}: no samples, only a header")
    if data.shape[1] != len(expected):
        raise DatasetLoadError(
            f"{path.name}: row width {data.shape[1]} does not match header width {len(expected)}"
        )
    cuts = np.cumsum([len(names) for _, names in blocks])[:-1]
    fields = {field: block for (field, _), block in zip(blocks, np.split(data, cuts, axis=1))}
    fields["timestamps"] = fields["timestamps"][:, 0]
    traj = Trajectory(**fields)
    validate_trajectory(traj, path.name)
    return traj


def save_dataset(dataset, path):
    """Write a dataset directory in the manifest + per-jump file format.

    Floats are written with full precision so a load/save/load round trip
    is bit-exact on every stored column.  Derived fields are not stored.
    Next to each jump file goes its table cache: the float64 table the
    file's text holds, saved by ``np.save`` under the name
    ``<file>.<SHA-256 of the file's bytes>.npy``, in place of any older
    cache of that file.  Every ``jump_<index>.csv`` already in the
    directory that the new manifest does not list is deleted with its
    caches; other files are left alone.
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
    listed = {entry["file"] for entry in entries}
    for old in root.glob("jump_*.csv"):
        if old.name not in listed and re.fullmatch(r"jump_\d+\.csv", old.name):
            _remove_caches(old)
            old.unlink()
    return root


def _remove_caches(path, keep=None):
    """Delete every table cache of the jump file ``path`` except ``keep``."""
    for old in path.parent.glob(f"{glob.escape(path.name)}.*.npy"):
        if old != keep:
            old.unlink()


def _save_jump_file(path, jump, m):
    """Write one jump file, hashing its bytes as they are written, then its table cache."""
    blocks = [(names, getattr(jump, field)) for field, names, _ in _layout(m)
              if getattr(jump, field) is not None]
    table = np.column_stack([block for _, block in blocks]).astype(np.float64, copy=False)
    header = ",".join(name for names, _ in blocks for name in names)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in chain([header], map(format_row, table)):
            data = (line + "\n").encode()
            fh.write(data)
            digest.update(data)
    cache = _cache_path(path, digest.hexdigest())
    tmp = cache.with_name(cache.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, table, allow_pickle=False)
        os.replace(tmp, cache)
    finally:
        tmp.unlink(missing_ok=True)
    _remove_caches(path, keep=cache)
