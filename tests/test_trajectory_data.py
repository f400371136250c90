"""Dataset loading, preprocessing primitives, and phase segmentation."""

import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jumprom.errors import (
    DatasetLoadError,
    NonUniformTimestepError,
    SingularJacobianError,
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
    compute_foot_force,
    differentiate_velocity,
    load_dataset,
    process_dataset,
    process_trajectory,
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


class TestFootForce:
    def test_identity_jacobian(self):
        F = compute_foot_force(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(F, [1.0, 2.0, 3.0])

    def test_diagonal_scaling(self):
        F = compute_foot_force(np.diag([2.0, 2.0, 2.0]), [2.0, 4.0, 6.0])
        assert np.allclose(F, [1.0, 2.0, 3.0])

    def test_torque_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            J = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
            if np.linalg.cond(J) > 1e6:
                continue
            tau = rng.normal(size=3)
            F = compute_foot_force(J, tau)
            assert np.max(np.abs(J.T @ F - tau)) < 1e-9

    def test_singular_jacobian(self):
        J = np.ones((3, 3))
        with pytest.raises(SingularJacobianError) as err:
            compute_foot_force(J, np.ones(3))
        assert err.value.condition > 1e8


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

    def test_jacobian_processed_dataset(self):
        # a wrench recovered from torques through leg Jacobians: the noised
        # record is processed again with the same Jacobians
        m, T = 12, 6
        rng = np.random.default_rng(8)
        jump = Trajectory(
            timestamps=np.arange(T) * 0.01,
            q=rng.normal(size=(T, m + 6)),
            dq=rng.normal(size=(T, m + 6)),
            tau=rng.normal(size=(T, m)),
            contact=np.ones((T, 4)),
            foot_positions=rng.normal(size=(T, 12)),
        )
        jac = [np.tile(np.eye(3), (T, 4, 1, 1))]
        clean = process_dataset(
            Dataset(jumps=(jump,), split=("train",), meta=DatasetMeta(robot="test", m=m, dt=0.01)),
            jacobians=jac,
        )
        noisy = process_dataset(add_noise(clean, {"tau": 0.1}, seed=0), jacobians=jac)
        (before,), (after,) = clean.jumps, noisy.jumps
        assert np.array_equal(after.q, before.q)
        assert np.array_equal(after.ddq, before.ddq)
        assert np.all(after.u != before.u)


class TestProcessTrajectory:
    M12 = 12

    def _jump(self, with_forces):
        rng = np.random.default_rng(21)
        T = 8
        traj = Trajectory(
            timestamps=np.arange(T) * 0.01,
            q=rng.normal(size=(T, self.M12 + 6)),
            dq=rng.normal(size=(T, self.M12 + 6)),
            tau=rng.normal(size=(T, self.M12)),
            contact=np.ones((T, 4)),
            foot_forces=rng.normal(size=(T, 12)) if with_forces else None,
            foot_positions=rng.normal(size=(T, 12)),
        )
        return traj

    def test_forces_take_priority_over_jacobians(self):
        traj = self._jump(with_forces=True)
        jac = np.tile(np.eye(3), (traj.n_samples, 4, 1, 1))
        with_jac = process_trajectory(traj, self.M12, jacobians=jac)
        without = process_trajectory(traj, self.M12)
        assert np.array_equal(with_jac.u, without.u)

    def test_jacobian_fallback_uses_torques(self):
        # identity leg Jacobians: the recovered force equals the leg torque
        traj = self._jump(with_forces=False)
        jac = np.tile(np.eye(3), (traj.n_samples, 4, 1, 1))
        processed = process_trajectory(traj, self.M12, jacobians=jac)
        forces = traj.tau.reshape(traj.n_samples, 4, 3)
        com = traj.q[:, self.M12 : self.M12 + 3]
        expected = compute_com_wrench(
            forces, traj.foot_positions.reshape(-1, 4, 3), com
        )
        assert np.allclose(processed.u[:, self.M12 :], expected)

    def test_no_force_source_errors(self):
        traj = self._jump(with_forces=False)
        with pytest.raises(ValidationError, match="no recorded foot forces"):
            process_trajectory(traj, self.M12)


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

    @given(st.data())
    def test_save_load_property(self, data):
        # every stored column, bit for bit (sign of zero included), over m,
        # T and each optional block on or off
        draw = data.draw
        m = draw(st.sampled_from([4, 8]))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        jumps = []
        for _ in range(draw(st.integers(1, 2))):
            T = draw(st.integers(3, 8))
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
            loaded = load_dataset(root)
        assert loaded.split == split and loaded.meta == meta
        for a, b in zip(dataset.jumps, loaded.jumps):
            for name in ("timestamps", "q", "dq", "tau", "contact",
                         "foot_forces", "foot_positions", "com_positions"):
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None) == (vb is None), name
                if va is not None:
                    assert vb.shape == va.shape and vb.tobytes() == va.tobytes(), name
            assert b.ddq is None and b.u is None
