"""Actuated-SLIP baseline: acceleration formulas, simulation, energy."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumprom.aslip import (
    AslipParams,
    AslipState,
    _contact_accel,
    aslip_accel,
    aslip_inputs_from_trajectory,
    simulate_aslip,
    simulate_aslip_stack,
)
from jumprom.errors import DivergenceError, ValidationError
from jumprom.trajectory_data import Phase, Trajectory

from helpers import integrate_alone

PARAMS = AslipParams(k_s=1000.0, m=10.0, l0=np.array([0.0, 0.0, 0.3]))


def _state(b, db=(0.0, 0.0, 0.0), foot=(0.0, 0.0, 0.0), phase=Phase.CONTACT):
    return AslipState(
        b=np.asarray(b, dtype=float), db=np.asarray(db, dtype=float),
        foot=np.asarray(foot, dtype=float), phase=phase,
    )


class TestAccel:
    def test_flight_is_pure_gravity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = _state(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3),
                       phase=Phase.FLIGHT)
            accel = aslip_accel(s, PARAMS, u=rng.normal(size=3))
            assert np.allclose(accel, [0.0, 0.0, -9.81], atol=1e-12)

    def test_rest_length_cancels_spring(self):
        s = _state([0.0, 0.0, 0.3])
        u = np.array([0.5, -0.25, 1.0])
        accel = aslip_accel(s, PARAMS, u)
        assert np.max(np.abs(accel - (np.array([0.0, 0.0, -9.81]) + u))) < 1e-9

    def test_compressed_leg_hand_value(self):
        # ||l0|| = 0.3, compressed to 0.27: 1000 * 0.03 / 10 - 9.81 = -6.81
        s = _state([0.0, 0.0, 0.27])
        accel = aslip_accel(s, PARAMS)
        assert np.max(np.abs(accel - [0.0, 0.0, -6.81])) < 1e-9

    def test_zero_leg_length_rejected(self):
        with pytest.raises(ValidationError, match="zero leg"):
            aslip_accel(_state([0.0, 0.0, 0.0]), PARAMS)

    def test_spring_force_along_leg_direction(self):
        s = _state([0.1, -0.05, 0.25])
        accel = aslip_accel(s, PARAMS) - np.array([0.0, 0.0, -9.81])
        leg = np.array([0.1, -0.05, 0.25])
        cross = np.cross(accel, leg / np.linalg.norm(leg))
        assert np.max(np.abs(cross)) < 1e-12

    def test_vertical_leg_has_no_horizontal_accel(self):
        accel = aslip_accel(_state([0.0, 0.0, 0.26]), PARAMS)
        assert accel[0] == 0.0 and accel[1] == 0.0


class TestSimulate:
    def test_flight_ballistic_closed_form(self):
        s = _state([0.0, 0.0, 1.0], db=[1.0, 0.0, 2.0], phase=Phase.FLIGHT)
        n = 101
        b, db = simulate_aslip(
            PARAMS, s, None, (Phase.FLIGHT,) * n, n, dt=1.0 / 500.0, integrator="fixed_rk4"
        )
        expected = np.array([0.2, 0.0, 1.0 + 0.4 - 0.5 * 9.81 * 0.04])
        assert np.max(np.abs(b[-1] - expected)) < 1e-6

    def test_actuation_cancels_spring(self):
        # u = -spring/m makes contact dynamics pure gravity
        z0 = 0.25
        s = _state([0.0, 0.0, z0], db=[0.0, 0.0, 0.0])
        n = 26
        dt = 1.0 / 500.0
        rest = PARAMS.rest_length

        def u_at(state_z):
            compression = abs(rest - state_z)
            return -PARAMS.k_s * compression / PARAMS.m

        # cancellation evaluated at interval starts; the zero-order hold on u
        # leaves a residual that grows cubically, so keep the window short
        t = np.arange(n) * dt
        z_free = z0 - 0.5 * 9.81 * t**2
        u = np.stack([np.zeros(n), np.zeros(n), [u_at(z) for z in z_free]], axis=1)
        b, _ = simulate_aslip(PARAMS, s, u, (Phase.CONTACT,) * n, n, dt,
                              integrator="fixed_rk4", rk4_substeps=4)
        assert np.max(np.abs(b[:, 2] - z_free)) < 1e-4

    def test_oscillation_period_matches_linearization(self):
        # small vertical oscillation about equilibrium compression:
        # period ~ 2 pi sqrt(m / k_s)
        eq = PARAMS.rest_length - PARAMS.m * PARAMS.g / PARAMS.k_s
        amp = 0.01
        s = _state([0.0, 0.0, eq - amp])
        dt = 1.0 / 500.0
        n = 2000
        b, _ = simulate_aslip(PARAMS, s, None, (Phase.CONTACT,) * n, n, dt,
                              integrator="fixed_rk4")
        z = b[:, 2] - eq
        crossings = np.flatnonzero((z[:-1] < 0) & (z[1:] >= 0))
        periods = np.diff(crossings) * dt
        expected = 2 * np.pi * np.sqrt(PARAMS.m / PARAMS.k_s)
        assert abs(np.mean(periods) - expected) < 0.02 * expected

    def test_energy_drift_in_unactuated_contact(self):
        eq = PARAMS.rest_length - PARAMS.m * PARAMS.g / PARAMS.k_s
        s = _state([0.0, 0.0, eq - 0.02])
        dt = 1.0 / 500.0
        n = 1001  # two simulated seconds
        b, db = simulate_aslip(PARAMS, s, None, (Phase.CONTACT,) * n, n, dt)

        def energy(bk, dbk):
            length = np.linalg.norm(bk)
            return (
                0.5 * PARAMS.m * dbk @ dbk
                + PARAMS.m * PARAMS.g * bk[2]
                + 0.5 * PARAMS.k_s * (PARAMS.rest_length - length) ** 2
            )

        e = np.array([energy(b[k], db[k]) for k in range(n)])
        scale = 0.5 * PARAMS.k_s * 0.02**2  # stored spring energy at release
        drift_per_second = np.max(np.abs(e - e[0])) / scale / (n * dt)
        assert drift_per_second < 1e-3

    def test_flight_independent_of_spring_and_actuation(self):
        n = 100
        dt = 1.0 / 500.0
        schedule = (Phase.FLIGHT,) * n
        s = _state([0.0, 0.0, 1.0], db=[0.5, -0.2, 3.0], phase=Phase.FLIGHT)
        rng = np.random.default_rng(1)
        reference = None
        for k_s, l0_z, scale in [(1000.0, 0.3, 0.0), (5.0, 1.7, 2.0), (9999.0, 0.05, -3.0)]:
            params = AslipParams(k_s=k_s, m=10.0, l0=np.array([0.0, 0.0, l0_z]))
            u = scale * rng.normal(size=(n, 3))
            b, db = simulate_aslip(params, s, u, schedule, n, dt, integrator="fixed_rk4")
            if reference is None:
                reference = (b, db)
            else:
                assert np.array_equal(b, reference[0])
                assert np.array_equal(db, reference[1])

    @pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
    def test_steps_aslip_accel_bit_for_bit(self, integrator):
        # the simulator's right-hand side keeps the arithmetic of aslip_accel
        n, dt = 60, 1.0 / 500.0
        rng = np.random.default_rng(2)
        schedule = tuple(Phase.FLIGHT if k % 20 < 5 else
                         (Phase.PARTIAL_CONTACT if k % 3 else Phase.CONTACT) for k in range(n))
        u, feet = rng.normal(size=(n, 3)), rng.normal(scale=0.05, size=(n, 3))
        s = _state([0.0, 0.0, 0.27], db=[0.1, 0.0, -0.2])
        b, db = simulate_aslip(PARAMS, s, u, schedule, n, dt, integrator=integrator,
                               foot_positions=feet)

        def rhs(k, t, y):
            phase = Phase.FLIGHT if schedule[k] is Phase.FLIGHT else Phase.CONTACT
            state = AslipState(b=y[:3], db=y[3:], foot=feet[k], phase=phase)
            return np.concatenate([y[3:], aslip_accel(state, PARAMS, u[k])])

        ref = integrate_alone(rhs, np.concatenate([s.b, s.db]), n, dt, integrator)
        assert b.tobytes() == ref[:, :3].tobytes() and db.tobytes() == ref[:, 3:].tobytes()

    def test_partial_contact_counts_as_stance(self):
        s = _state([0.0, 0.0, 0.27])
        n = 5
        b_partial, _ = simulate_aslip(PARAMS, s, None, (Phase.PARTIAL_CONTACT,) * n, n,
                                      1.0 / 500.0, integrator="fixed_rk4")
        b_contact, _ = simulate_aslip(PARAMS, s, None, (Phase.CONTACT,) * n, n,
                                      1.0 / 500.0, integrator="fixed_rk4")
        assert np.array_equal(b_partial, b_contact)

    @pytest.mark.parametrize("u, feet", [
        (None, np.zeros((2, 3))), (None, np.zeros((10, 12))), (None, np.zeros(30)),
        (np.zeros((10, 2)), None), (np.zeros((9, 3)), None), (np.zeros((10, 3, 1)), None)],
        ids=["feet_2_rows", "feet_12_cols", "feet_flat", "u_2_cols", "u_9_rows", "u_3d"])
    def test_driving_inputs_must_cover_the_horizon_in_3_vectors(self, u, feet):
        with pytest.raises(ValidationError, match=r"must have shape \(>= 10, 3\)"):
            simulate_aslip(PARAMS, _state([0.0, 0.0, 0.27]), u, (Phase.CONTACT,) * 10, 10,
                           1.0 / 500.0, integrator="fixed_rk4", foot_positions=feet)

    @pytest.mark.parametrize("driven", [True, False], ids=["inputs_and_feet", "no_inputs"])
    @pytest.mark.parametrize("horizon", [-3, 0, 2.5, True])
    def test_horizon_must_be_a_positive_integer(self, horizon, driven):
        u, feet = (np.zeros((10, 3)), np.zeros((10, 3))) if driven else (None, None)
        message = f"horizon must be an integer >= 1, got {horizon!r}"
        with pytest.raises(ValidationError, match=message):
            simulate_aslip(PARAMS, _state([0.0, 0.0, 0.27]), u, (Phase.CONTACT,) * 10, horizon,
                           1.0 / 500.0, integrator="fixed_rk4", foot_positions=feet)

    @pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.002])
    def test_step_must_be_a_finite_positive_number(self, dt, integrator):
        message = re.escape(f"sample step must be a finite number > 0, got {dt!r}")
        with pytest.raises(ValidationError, match=message):
            simulate_aslip(PARAMS, _state([0.0, 0.0, 0.27]), None, (Phase.CONTACT,) * 10, 10, dt,
                           integrator=integrator)
        system = (np.array([0.0, 0.0, 0.27, 0.0, 0.0, 0.0]), np.zeros((10, 3)), np.zeros((10, 3)),
                  (Phase.CONTACT,) * 10)
        with pytest.raises(ValidationError, match=message):
            simulate_aslip_stack(PARAMS, [system], dt, integrator=integrator)

    def test_divergence_raises(self):
        # k_s = 1e9 puts the contact oscillation far outside RK4's stability region
        stiff = AslipParams(k_s=1e9, m=10.0, l0=np.array([0.0, 0.0, 0.3]))
        with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
            simulate_aslip(stiff, _state([0.0, 0.0, 0.27]), None, (Phase.CONTACT,) * 300, 300,
                           1.0 / 500.0, integrator="fixed_rk4")

    def test_divergence_raises_without_runtime_warning(self):
        stiff = AslipParams(k_s=1e9, m=10.0, l0=np.array([0.0, 0.0, 0.3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError):
                simulate_aslip(stiff, _state([0.0, 0.0, 0.27]), None, (Phase.CONTACT,) * 300,
                               300, 1.0 / 500.0, integrator="fixed_rk4")

    def test_stiff_warns_once_per_call(self):
        stiff = AslipParams(k_s=1e9, m=10.0, l0=np.array([0.0, 0.0, 0.3]))
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                simulate_aslip(stiff, _state([0.0, 0.0, 0.27]), None, (Phase.CONTACT,) * 4, 4,
                               1.0 / 500.0)
            assert [str(w.message).endswith("dynamics may be stiff") for w in caught] == [True]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-6, 2))
def test_stacked_contact_accel_has_the_one_state_bits(n_rows, seed, log_scale):
    # each row of the stacked kernel equals the one-state formula, its leg
    # length taken as the float of np.linalg.norm
    rng = np.random.default_rng(seed)
    b, foot, u = rng.normal(scale=10.0 ** log_scale, size=(3, n_rows, 3))
    gravity = np.array([0.0, 0.0, -9.81])
    got = _contact_accel(b, foot, u, 2500.0, 12.0, 0.3, gravity)
    for i in range(n_rows):
        leg = b[i] - foot[i]
        length = float(np.linalg.norm(leg))
        expected = 2500.0 * abs(0.3 - length) / 12.0 * (leg / length) + gravity + u[i]
        assert got[i].tobytes() == expected.tobytes()


def test_stacked_zero_leg_rejected():
    b = np.array([[0.0, 0.0, 0.3], [0.1, 0.2, 0.0]])
    with pytest.raises(ValidationError, match="zero leg"):
        _contact_accel(b, np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.0]]), np.zeros((2, 3)),
                       1000.0, 10.0, 0.3, np.zeros(3))


@pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
def test_stack_rows_are_simulate_aslip_alone(integrator):
    # CoMs of different horizons and schedules (flight, contact, partial
    # contact, all stance, all flight) stepped together: each row has the
    # bits it has alone
    rng = np.random.default_rng(3)
    dt = 1.0 / 500.0
    schedules = [
        tuple(Phase.FLIGHT if k % 20 < 5 else
              (Phase.PARTIAL_CONTACT if k % 3 else Phase.CONTACT) for k in range(60)),
        (Phase.CONTACT,) * 25,
        (Phase.FLIGHT,) * 40,
        (Phase.CONTACT,) * 10 + (Phase.FLIGHT,) * 35,
    ]
    systems = []
    for schedule in schedules:
        n = len(schedule)
        y0 = np.concatenate([[0.0, 0.0, 0.27], rng.normal(scale=0.2, size=3)])
        systems.append((y0, rng.normal(size=(n + 3, 3)), rng.normal(scale=0.05, size=(n, 3)),
                        schedule))
    stacked = simulate_aslip_stack(PARAMS, systems, dt, integrator=integrator)
    for (y0, u, feet, schedule), (b, db) in zip(systems, stacked):
        state = _state(y0[:3], db=y0[3:])
        b_alone, db_alone = simulate_aslip(PARAMS, state, u, schedule, len(schedule), dt,
                                           integrator=integrator, foot_positions=feet)
        assert b.shape == (len(schedule), 3)
        assert b.tobytes() == b_alone.tobytes() and db.tobytes() == db_alone.tobytes()


class TestInputsFromTrajectory:
    def test_contact_partial_flight_jump(self):
        contact = np.array([[1, 1, 1, 1]] * 3 + [[0, 0, 1, 1], [1, 0, 0, 0], [0, 1, 1, 1]]
                           + [[0, 0, 0, 0]] * 3)
        T = contact.shape[0]
        rng = np.random.default_rng(5)
        positions, forces = rng.normal(size=(T, 12)), rng.normal(size=(T, 12))
        traj = Trajectory(timestamps=np.arange(T) * 0.002, q=np.zeros((T, 10)),
                          dq=np.zeros((T, 10)), tau=np.zeros((T, 4)), contact=contact,
                          foot_forces=forces, foot_positions=positions)
        schedule, feet, force_sum = aslip_inputs_from_trajectory(traj)
        assert schedule == (Phase.CONTACT,) * 3 + (Phase.PARTIAL_CONTACT,) * 3 + (Phase.FLIGHT,) * 3
        P = positions.reshape(T, 4, 3)
        stance = P[:3].reshape(-1, 3).mean(axis=0)
        partial = np.array([P[3, 2], P[3, 3], P[4, 0], P[5, 1], P[5, 2], P[5, 3]]).mean(axis=0)
        assert np.array_equal(feet, np.array([stance] * 3 + [partial] * 3 + [np.zeros(3)] * 3))
        assert np.array_equal(force_sum, forces.reshape(T, 4, 3).sum(axis=1))
