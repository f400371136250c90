"""Dataset loading, preprocessing primitives, and phase segmentation."""

import hashlib
import pickle
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import set_cell
from jumprom.errors import (
    DatasetLoadError,
    NonUniformTimestepError,
    ValidationError,
)
from jumprom.trajectory_data import (
    Dataset,
    DatasetMeta,
    Phase,
    PhaseSegment,
    SPLITS,
    Trajectory,
    add_noise,
    assemble_input,
    compute_com_wrench,
    differentiate_velocity,
    load_dataset,
    load_split,
    process_dataset,
    process_trajectory,
    sample_step,
    save_dataset,
    segment_phases,
    split_dataset,
)

M = 4  # smallest legal joint count


def _tiny_jump(T=5, dt=0.1, contact_value=1.0):
    rng = np.random.default_rng(0)
    return Trajectory(
        timestamps=np.arange(T) * dt,
        q=rng.normal(size=(T, M + 6)),
        dq=rng.normal(size=(T, M + 6)),
        tau=rng.normal(size=(T, M)),
        contact=np.full((T, 4), contact_value),
    )


def _write_jump_file(path, T=5, dt=0.1, contact_value=1.0, drop_column=None):
    names = (
        ["t"]
        + [f"q_{i}" for i in range(M + 6)]
        + [f"dq_{i}" for i in range(M + 6)]
        + [f"tau_{i}" for i in range(M)]
        + [f"c_{i}" for i in range(4)]
    )
    if drop_column:
        names.remove(drop_column)
    rng = np.random.default_rng(1)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for k in range(T):
            row = [k * dt] + list(rng.normal(size=2 * (M + 6) + M)) + [contact_value] * 4
            if drop_column:
                row = row[:-1]
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _write_manifest(root, files):
    import json

    payload = {
        "robot": "test",
        "m": M,
        "dt": 0.1,
        "jumps": [{"file": f, "split": "train"} for f in files],
    }
    (root / "manifest.json").write_text(json.dumps(payload))


class TestLoadDataset:
    def test_count_preserved(self, tmp_path):
        files = []
        for i in range(3):
            name = f"jump_{i}.csv"
            _write_jump_file(tmp_path / name)
            files.append(name)
        _write_manifest(tmp_path, files)
        dataset = load_dataset(tmp_path)
        assert dataset.n_jumps == 3
        assert dataset.jumps[0].ddq is None  # derived fields not yet filled

    def test_bad_contact_value_names_file(self, tmp_path):
        _write_jump_file(tmp_path / "jump_0.csv", contact_value=2.0)
        _write_manifest(tmp_path, ["jump_0.csv"])
        with pytest.raises(DatasetLoadError, match=r"jump_0\.csv.*c_0.*2"):
            load_dataset(tmp_path)

    def test_too_few_samples(self, tmp_path):
        _write_jump_file(tmp_path / "jump_0.csv", T=2)
        _write_manifest(tmp_path, ["jump_0.csv"])
        with pytest.raises(DatasetLoadError, match="too few samples for differentiation"):
            load_dataset(tmp_path)

    def test_missing_column(self, tmp_path):
        _write_jump_file(tmp_path / "jump_0.csv", drop_column="c_3")
        _write_manifest(tmp_path, ["jump_0.csv"])
        with pytest.raises(DatasetLoadError, match=r"jump_0\.csv.*c_3"):
            load_dataset(tmp_path)

    def test_nonmonotone_timestamps(self, tmp_path):
        _write_jump_file(tmp_path / "jump_0.csv", dt=-0.1)
        _write_manifest(tmp_path, ["jump_0.csv"])
        with pytest.raises(DatasetLoadError, match="not strictly increasing"):
            load_dataset(tmp_path)

    def test_truncated_file_positioned_error(self, tmp_path):
        name = tmp_path / "jump_0.csv"
        _write_jump_file(name)
        text = name.read_text()
        name.write_text(text[: len(text) * 2 // 3])  # cut mid-row
        _write_manifest(tmp_path, ["jump_0.csv"])
        with pytest.raises(DatasetLoadError, match=r"jump_0\.csv"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("text", ["5", "[]", '"robot, m, dt, jumps"'])
    def test_manifest_not_an_object(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(DatasetLoadError, match=r"manifest\.json: must hold a JSON object"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit,message", [
        # optional groups out of file order: fp_* before ff_*
        (lambda cols, rows: (cols + [f"fp_{i}" for i in range(12)]
                             + [f"ff_{i}" for i in range(12)], [r + ",0.0" * 24 for r in rows]),
         r"header mismatch \(column order\)"),
        (lambda cols, rows: (cols + ["extra"], [r + ",0.0" for r in rows]),
         r"unexpected columns \['extra'\]"),
        (lambda cols, rows: (cols, [rows[0] + ",0.0"] + rows[1:]), "parse error"),
        (lambda cols, rows: (cols, [r + ",0.0" for r in rows]), "row width"),
    ], ids=["optional_order", "extra_column", "one_row_wider", "all_rows_wider"])
    def test_file_off_layout_names_file(self, tmp_path, edit, message):
        dataset = Dataset(jumps=(_tiny_jump(),), split=("train",), meta=DatasetMeta("t", M, 0.1))
        path = save_dataset(dataset, tmp_path) / "jump_000.csv"
        header, *rows = path.read_text().splitlines()
        cols, rows = edit(header.split(","), rows)
        path.write_text("\n".join([",".join(cols)] + rows) + "\n")
        with pytest.raises(DatasetLoadError, match=rf"^jump_000\.csv: .*{message}"):
            load_dataset(tmp_path)


class TestDifferentiateVelocity:
    def test_linear_ramp(self):
        traj = _tiny_jump(T=3, dt=0.1)
        dq = np.tile(np.array([[0.0], [1.0], [2.0]]), (1, M + 6))
        traj = Trajectory(
            timestamps=traj.timestamps, q=traj.q, dq=dq, tau=traj.tau, contact=traj.contact
        )
        ddq = differentiate_velocity(traj)
        assert np.allclose(ddq, 10.0, atol=1e-12)

    def test_constant_velocity(self):
        traj = _tiny_jump(T=7)
        traj = Trajectory(
            timestamps=traj.timestamps, q=traj.q, dq=np.ones((7, M + 6)),
            tau=traj.tau, contact=traj.contact,
        )
        assert np.allclose(differentiate_velocity(traj), 0.0, atol=1e-14)

    def test_sine_against_analytic_derivative(self):
        # dq = sin(2 pi t) at 500 Hz; expect ddq ~ 2 pi cos(2 pi t)
        t = np.arange(500) / 500.0
        dq = np.tile(np.sin(2 * np.pi * t)[:, None], (1, M + 6))
        traj = Trajectory(
            timestamps=t, q=np.zeros((500, M + 6)), dq=dq,
            tau=np.zeros((500, M)), contact=np.ones((500, 4)),
        )
        ddq = differentiate_velocity(traj)
        expected = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.max(np.abs(ddq[:, 0] - expected)) < 1e-3

    def test_affine_exact(self):
        rng = np.random.default_rng(3)
        t = np.arange(50) * 0.01
        slope, icept = rng.normal(size=(M + 6,)), rng.normal(size=(M + 6,))
        dq = t[:, None] * slope + icept
        traj = Trajectory(
            timestamps=t, q=np.zeros((50, M + 6)), dq=dq,
            tau=np.zeros((50, M)), contact=np.ones((50, 4)),
        )
        assert np.allclose(differentiate_velocity(traj), slope, atol=1e-10)

    def test_nonuniform_dt_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3])
        traj = Trajectory(
            timestamps=t, q=np.zeros((4, M + 6)), dq=np.zeros((4, M + 6)),
            tau=np.zeros((4, M)), contact=np.ones((4, 4)),
        )
        with pytest.raises(NonUniformTimestepError):
            differentiate_velocity(traj)


class TestSampleStep:
    @given(arrays(np.float64, st.integers(2, 40), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]), st.floats(allow_nan=False))))
    def test_equals_median_bit_for_bit(self, timestamps):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.float64(np.median(np.diff(timestamps)))
            got = np.float64(sample_step(timestamps))
        assert got.view(np.uint64) == expected.view(np.uint64)

    @given(arrays(np.float64, st.integers(2, 40), elements=st.floats(-1e3, 1e3)), st.data())
    def test_nan_step_gives_nan(self, timestamps, data):
        timestamps[data.draw(st.integers(0, timestamps.size - 1))] = np.nan
        assert np.isnan(sample_step(timestamps))


class TestComWrench:
    def test_single_foot_cross_product(self):
        F = np.zeros((4, 3))
        P = np.zeros((4, 3))
        F[0] = [0.0, 0.0, 10.0]
        P[0] = [1.0, 0.0, 0.0]
        w = compute_com_wrench(F, P, np.zeros(3))
        assert np.allclose(w, [0, 0, 10, 0, -10, 0])

    def test_zero_forces(self):
        w = compute_com_wrench(np.zeros((4, 3)), np.ones((4, 3)), np.zeros(3))
        assert np.allclose(w, 0.0)

    def test_symmetric_feet_cancel_torque(self):
        P = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]], dtype=float)
        F = np.tile([0.0, 0.0, 5.0], (4, 1))
        w = compute_com_wrench(F, P, np.zeros(3))
        assert np.allclose(w, [0, 0, 20, 0, 0, 0], atol=1e-12)

    def test_linearity_in_forces(self):
        rng = np.random.default_rng(11)
        F = rng.normal(size=(4, 3))
        P = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        for alpha in (-2.0, 0.5, 3.0):
            assert np.allclose(
                compute_com_wrench(alpha * F, P, b), alpha * compute_com_wrench(F, P, b)
            )


class TestAssembleInput:
    def test_ones_then_zeros(self):
        u = assemble_input(np.ones(12), np.zeros(6))
        assert u.shape == (18,)
        assert np.all(u[:12] == 1.0) and np.all(u[12:] == 0.0)

    def test_zero_inputs(self):
        assert np.all(assemble_input(np.zeros(12), np.zeros(6)) == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        tau, w = rng.normal(size=12), rng.normal(size=6)
        u = assemble_input(tau, w)
        assert np.array_equal(u[:12], tau) and np.array_equal(u[12:], w)


class TestSegmentPhases:
    def test_all_down_is_contact(self):
        labels, _ = segment_phases(np.ones((1, 4)))
        assert labels == (Phase.CONTACT,)

    def test_rear_feet_only_is_partial(self):
        labels, _ = segment_phases(np.array([[0, 0, 1, 1]]))
        assert labels == (Phase.PARTIAL_CONTACT,)

    def test_segments_inclusive_bounds(self):
        contact = np.concatenate([np.ones((3, 4)), np.zeros((2, 4))])
        _, segments = segment_phases(contact)
        assert [(s.phase, s.start, s.end) for s in segments] == [
            (Phase.CONTACT, 0, 2),
            (Phase.FLIGHT, 3, 4),
        ]

    @given(st.integers(0, 80).flatmap(
        lambda T: arrays(np.int8, (T, 4), elements=st.integers(0, 1))))
    @example(np.zeros((0, 4), dtype=np.int8))
    def test_partition_property(self, contact):
        labels, segments = segment_phases(contact)
        assert (labels, segments) == _run_length_segments(contact)
        cursor = 0
        for seg in segments:
            assert seg.start == cursor and seg.end >= seg.start
            assert all(labels[i] == seg.phase for i in range(seg.start, seg.end + 1))
            cursor = seg.end + 1
        assert cursor == contact.shape[0]


def _run_length_segments(contact):
    """Per-sample labelling and run-length loop, the reference for segment_phases."""
    full = {4: Phase.CONTACT, 0: Phase.FLIGHT}
    labels = tuple(full.get(int(n), Phase.PARTIAL_CONTACT) for n in (contact != 0).sum(axis=1))
    segments = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            segments.append(PhaseSegment(labels[start], start, i - 1))
            start = i
    return labels, segments


def _in_memory_dataset(n_jumps, T=5):
    jumps = tuple(_tiny_jump(T=T) for _ in range(n_jumps))
    meta = DatasetMeta(robot="test", m=M, dt=0.1)
    return Dataset(jumps=jumps, split=("train",) * n_jumps, meta=meta)


class TestSplitDataset:
    def test_large_split_counts(self):
        dataset = split_dataset(_in_memory_dataset(156), (120, 30, 6), seed=4)
        assert dataset.split_counts() == (120, 30, 6)

    def test_single_jump_all_train(self):
        dataset = split_dataset(_in_memory_dataset(1), (1, 0, 0), seed=0)
        assert dataset.split == ("train",)

    def test_deterministic(self):
        ds = _in_memory_dataset(10)
        a = split_dataset(ds, (6, 2, 2), seed=42)
        b = split_dataset(ds, (6, 2, 2), seed=42)
        assert a.split == b.split

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            split_dataset(_in_memory_dataset(5), (3, 3, 3), seed=0)


class TestAddNoise:
    def _processed(self, n=2, T=64):
        ds = _in_memory_dataset(n, T=T)
        # airborne flags: the wrench is identically zero, no forces needed
        jumps = tuple(
            process_trajectory(
                Trajectory(
                    timestamps=j.timestamps, q=j.q, dq=j.dq, tau=j.tau,
                    contact=np.zeros_like(j.contact),
                ),
                M,
            )
            for j in ds.jumps
        )
        return Dataset(jumps=jumps, split=ds.split, meta=ds.meta)

    def test_zero_sigma_bitwise(self):
        ds = self._processed()
        out = process_dataset(add_noise(ds, 0.0, seed=0))
        for a, b in zip(ds.jumps, out.jumps):
            for name in ("q", "dq", "tau", "ddq", "u"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_half_normal_mean(self):
        ds = self._processed(n=8, T=256)
        sigma = 0.01
        out = process_dataset(add_noise(ds, {"q": sigma}, seed=1))
        deltas = np.concatenate(
            [np.abs(a.q - b.q).ravel() for a, b in zip(ds.jumps, out.jumps)]
        )
        expected = sigma * np.sqrt(2.0 / np.pi)
        assert abs(deltas.mean() - expected) < 0.1 * expected

    def test_deterministic(self):
        ds = self._processed()
        a = process_dataset(add_noise(ds, 0.05, seed=9))
        b = process_dataset(add_noise(ds, 0.05, seed=9))
        for ja, jb in zip(a.jumps, b.jumps):
            assert np.array_equal(ja.q, jb.q)
            assert np.array_equal(ja.ddq, jb.ddq)

    def test_returns_raw_record(self):
        out = add_noise(self._processed(), 0.05, seed=3)
        assert all(j.ddq is None and j.u is None for j in out.jumps)

    def test_torque_noise_changes_only_the_torque_inputs(self):
        # noise on tau alone, re-processed: q and ddq keep their bits, the
        # torque columns of u all move, and the wrench built from the
        # recorded foot forces keeps its bits
        m, T = 12, 6
        rng = np.random.default_rng(8)
        jump = Trajectory(
            timestamps=np.arange(T) * 0.01,
            q=rng.normal(size=(T, m + 6)),
            dq=rng.normal(size=(T, m + 6)),
            tau=rng.normal(size=(T, m)),
            contact=np.ones((T, 4)),
            foot_forces=rng.normal(size=(T, 12)),
            foot_positions=rng.normal(size=(T, 12)),
        )
        clean = process_dataset(
            Dataset(jumps=(jump,), split=("train",), meta=DatasetMeta(robot="test", m=m, dt=0.01))
        )
        noisy = process_dataset(add_noise(clean, {"tau": 0.1}, seed=0))
        (before,), (after,) = clean.jumps, noisy.jumps
        assert np.array_equal(after.q, before.q)
        assert np.array_equal(after.ddq, before.ddq)
        assert np.all(after.u[:, :m] != before.u[:, :m])
        assert np.array_equal(after.u[:, m:], before.u[:, m:])
        assert np.any(before.u[:, m:] != 0.0)


class TestProcessTrajectory:
    M12 = 12

    def _jump_without_forces(self, contact_value):
        rng = np.random.default_rng(21)
        T = 8
        return Trajectory(
            timestamps=np.arange(T) * 0.01,
            q=rng.normal(size=(T, self.M12 + 6)),
            dq=rng.normal(size=(T, self.M12 + 6)),
            tau=rng.normal(size=(T, self.M12)),
            contact=np.full((T, 4), contact_value),
            foot_positions=rng.normal(size=(T, 12)),
        )

    def test_no_force_source_errors(self):
        traj = self._jump_without_forces(1.0)
        with pytest.raises(ValidationError, match=r"foot forces \(ff_0..ff_11\) are required "
                                                  "while a foot is in contact"):
            process_trajectory(traj, self.M12)

    def test_flight_without_forces_has_zero_wrench(self):
        traj = self._jump_without_forces(0.0)
        processed = process_trajectory(traj, self.M12)
        assert np.array_equal(processed.u[:, : self.M12], traj.tau)
        assert np.all(processed.u[:, self.M12 :] == 0.0)


class TestDatasetRoundTrip:
    def test_save_load_save_lossless(self, tmp_path, clean_bundle):
        dataset = clean_bundle.dataset
        first = tmp_path / "first"
        save_dataset(dataset, first)
        loaded = load_dataset(first)
        for a, b in zip(dataset.jumps, loaded.jumps):
            for name in ("timestamps", "q", "dq", "tau", "contact",
                         "foot_forces", "foot_positions", "com_positions"):
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None) == (vb is None)
                if va is not None:
                    assert np.array_equal(va, vb), name
        assert loaded.split == dataset.split
        second = tmp_path / "second"
        save_dataset(loaded, second)
        for f in sorted(p.name for p in first.iterdir()):
            assert (first / f).read_bytes() == (second / f).read_bytes()

    def test_jump_file_text_is_repr_of_each_value(self, tmp_path):
        # values whose shortest round-trip text is easy to get wrong
        values = np.resize([-0.0, 5e-324, 1e300, 0.1, 1 / 3, 2.0, -7.0, 0.0, 1e-7], (3, 50))
        jump = Trajectory(timestamps=np.array([0.0, 0.1, 1 / 3]), q=values[:, :10],
                          dq=values[:, 10:20], tau=values[:, 20:24],
                          contact=np.array([[1.0, 0.0, 1.0, -0.0]] * 3),
                          foot_forces=values[:, 24:36], foot_positions=values[:, 36:48],
                          com_positions=values[:, 47:50])
        dataset = Dataset(jumps=(jump,), split=("test",), meta=DatasetMeta("t", M, 0.1))
        text = (save_dataset(dataset, tmp_path) / "jump_000.csv").read_text()
        table = np.column_stack([jump.timestamps, jump.q, jump.dq, jump.tau, jump.contact,
                                 jump.foot_forces, jump.foot_positions, jump.com_positions])
        body = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in table)
        assert text.split("\n", 1)[1] == body

    def test_load_split_matches_load_dataset(self, tmp_path):
        jumps = tuple(_tiny_jump(T=4 + i) for i in range(4))
        split = ("train", "test", "val", "test")
        save_dataset(Dataset(jumps=jumps, split=split, meta=DatasetMeta("t", M, 0.1)), tmp_path)
        full = load_dataset(tmp_path)
        meta, test = load_split(tmp_path, "test")
        assert meta == full.meta
        assert [i for i, _ in test] == list(full.indices("test")) == [1, 3]
        for i, jump in test:
            assert jump.n_samples == full.jumps[i].n_samples
            assert jump.q.tobytes() == full.jumps[i].q.tobytes()

    @given(st.data())
    def test_save_load_property(self, data):
        # every stored column, bit for bit (sign of zero included), over m,
        # T and each optional block on or off; once from the table caches
        # and once from the text with the caches deleted
        draw = data.draw
        m = draw(st.sampled_from([4, 8]))
        finite = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308, -1e308]),
                           st.floats(allow_nan=False, allow_infinity=False))
        jumps = []
        for _ in range(draw(st.integers(1, 2))):
            T = draw(st.integers(3, 6))
            block = lambda width, elements=finite: draw(arrays(np.float64, (T, width),
                                                               elements=elements))
            optional = lambda width: block(width) if draw(st.booleans()) else None
            times = draw(st.lists(st.floats(-1e9, 1e9), min_size=T, max_size=T, unique=True))
            jumps.append(Trajectory(
                timestamps=np.array(sorted(times)), q=block(m + 6), dq=block(m + 6),
                tau=block(m), contact=block(4, st.sampled_from([0.0, -0.0, 1.0])),
                foot_forces=optional(12), foot_positions=optional(12),
                com_positions=optional(3),
            ))
        split = tuple(draw(st.sampled_from(SPLITS)) for _ in jumps)
        meta = DatasetMeta(robot="prop", m=m, dt=draw(st.floats(1e-6, 1.0)),
                           noise_sigma=draw(st.floats(0.0, 1.0)))
        dataset = Dataset(jumps=tuple(jumps), split=split, meta=meta)
        with tempfile.TemporaryDirectory() as root:
            save_dataset(dataset, root)
            assert len(_caches(root)) == len(jumps)
            hit = load_dataset(root)
            for cache in _caches(root):
                cache.unlink()
            miss = load_dataset(root)
        for loaded in (hit, miss):
            assert loaded.split == split and loaded.meta == meta
            for a, b in zip(dataset.jumps, loaded.jumps):
                for name in STORED:
                    va, vb = getattr(a, name), getattr(b, name)
                    assert (va is None) == (vb is None), name
                    if va is not None:
                        assert vb.shape == va.shape, name
                        assert np.array_equal(vb.view(np.uint64), va.view(np.uint64)), name
                assert b.ddq is None and b.u is None


STORED = ("timestamps", "q", "dq", "tau", "contact", "foot_forces", "foot_positions",
          "com_positions")


def _caches(root):
    return sorted(Path(root).glob("*.npy"))


def _load_outcome(root):
    """The stored blocks of every jump as bytes, or the load error's message."""
    try:
        dataset = load_dataset(root)
    except DatasetLoadError as e:
        return str(e)
    return [[None if getattr(j, n) is None else getattr(j, n).tobytes() for n in STORED]
            for j in dataset.jumps]


def _text_outcome(root, tmp_path):
    """``_load_outcome`` of a copy of ``root`` without its table caches."""
    copy = tmp_path / "text_only"
    copy.mkdir()
    for f in Path(root).iterdir():
        if f.suffix != ".npy":
            (copy / f.name).write_bytes(f.read_bytes())
    return _load_outcome(copy)


class TestTableCache:
    """The ``.npy`` table saved next to each jump file, keyed by the file's SHA-256."""

    def _saved(self, root, seed=0):
        rng = np.random.default_rng(seed)
        jumps = tuple(replace(_tiny_jump(T=6), q=rng.normal(size=(6, M + 6)),
                              foot_forces=rng.normal(size=(6, 12))) for _ in range(2))
        save_dataset(Dataset(jumps=jumps, split=("train", "test"),
                             meta=DatasetMeta("t", M, 0.1)), root)
        return jumps

    def test_one_cache_per_jump_named_by_hash(self, tmp_path):
        self._saved(tmp_path)
        expected = [f"{csv.name}.{hashlib.sha256(csv.read_bytes()).hexdigest()}.npy"
                    for csv in sorted(tmp_path.glob("jump_*.csv"))]
        assert len(expected) == 2 and [c.name for c in _caches(tmp_path)] == expected

    def test_hit_never_parses_text(self, tmp_path, monkeypatch):
        jumps = self._saved(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a cache hit")

        monkeypatch.setattr(np, "loadtxt", refuse)
        loaded = load_dataset(tmp_path)
        assert all(np.array_equal(a.q, b.q) for a, b in zip(jumps, loaded.jumps))
        _, ((_, jump),) = load_split(tmp_path, "test")
        assert np.array_equal(jump.foot_forces, jumps[1].foot_forces)

    @pytest.mark.parametrize("damage", [
        "csv_value", "csv_garbled", "csv_non_finite", "truncated", "empty", "huge_shape",
        "int64", "narrow", "big_endian", "object_array", "pickle"])
    def test_falls_back_to_text(self, tmp_path, damage):
        root = tmp_path / "data"
        self._saved(root)
        cache = _caches(root)[0]
        table = np.load(cache)
        if damage.startswith("csv_"):
            value = {"csv_value": "0.5", "csv_garbled": "x", "csv_non_finite": "inf"}[damage]
            set_cell(root / "jump_000.csv", "q_3", 2, value)
        elif damage in ("truncated", "empty"):
            cut = len(cache.read_bytes()) - 8 if damage == "truncated" else 0
            cache.write_bytes(cache.read_bytes()[:cut])
        elif damage == "huge_shape":   # the data of a (1e12, width) table would not fit
            with open(cache, "wb") as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": "<f8", "fortran_order": False, "shape": (10**12, table.shape[1])})
                fh.write(table.tobytes())
        elif damage == "object_array":
            np.save(cache, np.array(table.tolist(), dtype=object), allow_pickle=True)
        elif damage == "pickle":   # would run code if it were unpickled
            cache.write_bytes(pickle.dumps(table))
        else:
            np.save(cache, {"int64": table.astype(np.int64), "narrow": table[:, :-1],
                            "big_endian": table.astype(">f8")}[damage])
        before = sorted(p.name for p in root.iterdir())
        outcome = _load_outcome(root)
        assert outcome == _text_outcome(root, tmp_path)
        assert sorted(p.name for p in root.iterdir()) == before   # loading writes nothing
        if damage == "csv_value":
            assert float(load_dataset(root).jumps[0].q[2, 3]) == 0.5
        if damage in ("csv_garbled", "csv_non_finite"):
            assert outcome.startswith("jump_000.csv: ")

    def test_resave_keeps_one_cache_per_jump(self, tmp_path):
        self._saved(tmp_path, seed=0)
        first = _caches(tmp_path)
        jumps = self._saved(tmp_path, seed=1)
        caches = _caches(tmp_path)
        assert len(caches) == 2 and not set(caches) & set(first)
        assert not list(tmp_path.glob("*.tmp"))
        assert all(np.array_equal(a.q, b.q) for a, b in zip(jumps, load_dataset(tmp_path).jumps))

    def test_smaller_resave_deletes_unlisted_jump_files(self, tmp_path):
        jump = _tiny_jump(T=6)
        for n in (4, 2):
            save_dataset(Dataset(jumps=(jump,) * n, split=("train",) * n,
                                 meta=DatasetMeta("t", M, 0.1)), tmp_path)
            if n == 4:
                foreign = ["jump_notes.csv", "jump_9.txt", "jump_003.bak.csv", "notes.csv"]
                for name in foreign:
                    (tmp_path / name).write_text("kept\n")
        assert not list(tmp_path.glob("jump_00[23].csv*"))
        assert [c.name.split(".")[0] for c in _caches(tmp_path)] == ["jump_000", "jump_001"]
        assert all((tmp_path / name).read_text() == "kept\n" for name in foreign)
        assert load_dataset(tmp_path).n_jumps == 2

    def test_header_only_file_has_no_samples(self, tmp_path):
        empty = replace(_tiny_jump(T=0), timestamps=np.zeros(0))
        save_dataset(Dataset(jumps=(empty,), split=("train",), meta=DatasetMeta("t", M, 0.1)),
                     tmp_path)
        assert len((tmp_path / "jump_000.csv").read_text().splitlines()) == 1
        for path in ("hit", "miss"):
            if path == "miss":
                _caches(tmp_path)[0].unlink()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DatasetLoadError, match=r"^jump_000\.csv: no samples"):
                    load_dataset(tmp_path)
