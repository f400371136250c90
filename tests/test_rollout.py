"""Latent integration, rollouts against recordings, resets, comparisons."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumprom import _integrators, autoencoder
from jumprom.autoencoder import AutoencoderParams, decode, encode, input_map
from jumprom.errors import DivergenceError, JumpromError, MissingPhaseError, ValidationError
from jumprom.pipeline import MultiPhaseModel
from jumprom.rollout import (
    RolloutConfig,
    integrate,
    rollout_full,
    rollout_jumps,
    rollout_with_reset,
)
from jumprom.sindy import FunctionLibrarySpec, PhaseModel, SparseCoefficients
from jumprom.synthetic import affine_coefficients, generate, three_phase_spec, two_phase_spec
from jumprom.trajectory_data import Phase, Trajectory, process_dataset

D = 18
LINEAR = FunctionLibrarySpec(
    poly_degree=1, include_sin_states=False, include_sin_velocities=False, include_inputs=False
)
DRIVEN = FunctionLibrarySpec(
    poly_degree=1, include_sin_states=False, include_sin_velocities=False, include_inputs=True
)
QUADRATIC = FunctionLibrarySpec(
    poly_degree=2, include_sin_states=False, include_sin_velocities=False, include_inputs=False
)


def _axis_autoencoder(l):
    W = np.zeros((l, D))
    W[:, :l] = np.eye(l)
    return AutoencoderParams(W_enc=W, b_enc=np.zeros(l), W_dec=W.T.copy(), b_dec=np.zeros(D))


def _model(phase_to_Xi, library, l=1):
    phases = []
    for phase, Xi in phase_to_Xi.items():
        coeffs = SparseCoefficients(
            Xi=np.asarray(Xi, dtype=float),
            threshold=0.0, library=library,
        )
        phases.append(PhaseModel(phase=phase, coefficients=coeffs))
    return MultiPhaseModel(autoencoder=_axis_autoencoder(l), phases=tuple(phases), provenance={})


@pytest.mark.parametrize("field,value", [
    ("step_rate", float("nan")), ("step_rate", float("inf")), ("step_rate", "500"),
    ("step_rate", True), ("step_rate", 0.0), ("rk4_substeps", 1.5), ("rk4_substeps", True),
    ("rk4_substeps", "2"), ("rk4_substeps", 0)])
def test_config_field_types_validated(field, value):
    with pytest.raises(ValidationError, match=field):
        RolloutConfig(**{field: value})


def _free_drift_model():
    return _model({Phase.FLIGHT: np.zeros((LINEAR.term_count(1), 1))}, LINEAR)


class TestIntegrate:
    def test_free_drift(self):
        model = _free_drift_model()
        schedule = (Phase.FLIGHT,) * 501
        cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4")
        out = integrate(model, [0.0], [1.0], None, schedule, cfg)
        assert out[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_ballistic_closed_form(self):
        Xi = affine_coefficients(LINEAR, 1, constant=(-9.81,))
        model = _model({Phase.FLIGHT: Xi}, LINEAR)
        schedule = (Phase.FLIGHT,) * 101
        for integrator in ("fixed_rk4", "adaptive"):
            cfg = RolloutConfig(step_rate=500, integrator=integrator)
            out = integrate(model, [0.0], [3.0], None, schedule, cfg)
            assert out[-1, 0] == pytest.approx(0.4038, abs=1e-6)

    def test_oscillator_period_return(self):
        om = 2 * np.pi
        Xi = affine_coefficients(LINEAR, 1, state_gain=[[-om**2]])
        model = _model({Phase.FLIGHT: Xi}, LINEAR)
        schedule = (Phase.FLIGHT,) * 501
        cfg = RolloutConfig(step_rate=500, integrator="adaptive")
        out = integrate(model, [1.0], [0.0], None, schedule, cfg)
        err = np.hypot(out[-1, 0] - 1.0, out[-1, 1] / om)
        assert err < 1e-4

    def test_rk4_fourth_order_convergence(self):
        om = 2 * np.pi
        Xi = affine_coefficients(LINEAR, 1, state_gain=[[-om**2]])
        model = _model({Phase.FLIGHT: Xi}, LINEAR)
        n = 501
        schedule = (Phase.FLIGHT,) * n
        t = np.arange(n) / 500.0
        errs = {}
        for sub in (1, 2):
            cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4", rk4_substeps=sub)
            out = integrate(model, [1.0], [0.0], None, schedule, cfg)
            errs[sub] = np.max(np.abs(out[:, 0] - np.cos(om * t)))
        ratio = errs[1] / errs[2]
        assert 8.0 <= ratio <= 32.0

    def test_missing_phase_model(self):
        model = _free_drift_model()
        with pytest.raises(MissingPhaseError, match="contact"):
            integrate(model, [0.0], [0.0], None, (Phase.CONTACT,) * 3,
                      RolloutConfig(integrator="fixed_rk4"))

    def test_divergence_detected(self):
        Xi = affine_coefficients(LINEAR, 1, state_gain=[[1e6]])
        model = _model({Phase.FLIGHT: Xi}, LINEAR)
        with pytest.raises(DivergenceError):
            with np.errstate(over="ignore", invalid="ignore"):
                integrate(model, [1.0], [0.0], None, (Phase.FLIGHT,) * 600,
                          RolloutConfig(integrator="fixed_rk4"))

    def test_divergence_raises_without_runtime_warning(self):
        Xi = affine_coefficients(LINEAR, 1, state_gain=[[1e6]])
        model = _model({Phase.FLIGHT: Xi}, LINEAR)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError):
                integrate(model, [1.0], [0.0], None, (Phase.FLIGHT,) * 600,
                          RolloutConfig(integrator="fixed_rk4"))

    @pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
    @pytest.mark.parametrize("arg,value", [
        ("xi0", [0.0, 0.0, 0.0]), ("xi0", [np.nan, 0.0]), ("xi0", ["1", "2"]),
        ("dxi0", [0.0]), ("dxi0", [np.inf, 0.0]), ("dxi0", [[0.0], [0.0, 1.0]]),
        ("reset_states", np.zeros((20, 5))), ("reset_states", np.zeros((8, 4))),
        ("reset_states", np.full((20, 4), np.nan))])
    def test_inputs_validated(self, arg, value, integrator):
        model = _model({Phase.FLIGHT: np.zeros((LINEAR.term_count(2), 2))}, LINEAR, l=2)
        args = {"xi0": [1.0, 0.0], "dxi0": [0.0, 0.0], "reset_states": np.zeros((20, 4))}
        args[arg] = value
        with pytest.raises(ValidationError, match=rf"^{arg} must be finite numbers of shape"):
            integrate(model, args["xi0"], args["dxi0"], None, (Phase.FLIGHT,) * 20,
                      RolloutConfig(integrator=integrator, reset_interval=5),
                      reset_states=args["reset_states"])

    def test_failed_adaptive_interval_raises(self):
        # dxi' = dxi^2 from dxi(0) = 1 blows up at t = 1, inside the second
        # interval; RK45 stops there instead of reaching t = 1.2, and the
        # thousands of evaluations it spent there warn of no stiffness
        Xi = np.zeros((QUADRATIC.term_count(1), 1))
        Xi[QUADRATIC.term_names(1).index("dxi_1^2")] = 1.0
        model = _model({Phase.FLIGHT: Xi}, QUADRATIC)
        with warnings.catch_warnings(), pytest.raises(DivergenceError,
                                                      match="adaptive integrator stopped") as err:
            warnings.simplefilter("error")
            integrate(model, [0.0], [1.0], None, (Phase.FLIGHT,) * 3,
                      RolloutConfig(step_rate=1 / 0.6, integrator="adaptive"))
        assert err.value.time == pytest.approx(1.0, abs=1e-6)

    def test_stiff_warns_once_per_call(self):
        # damping rate 1e6 /s: RK45 needs thousands of evaluations per 2 ms interval
        Xi = affine_coefficients(LINEAR, 1, velocity_gain=[[-1e6]])
        model = _model({Phase.FLIGHT: Xi}, LINEAR)
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                integrate(model, [1.0], [1.0], None, (Phase.FLIGHT,) * 3,
                          RolloutConfig(integrator="adaptive"))
            assert [str(w.message).endswith("dynamics may be stiff") for w in caught] == [True]

    def test_phase_switch_noop_is_bitwise(self):
        # identical dynamics under two labels: switching schedules must not
        # perturb fixed-step arithmetic at all
        om = 3.0
        Xi = affine_coefficients(LINEAR, 1, state_gain=[[-om**2]], velocity_gain=[[-0.1]])
        one = _model({Phase.FLIGHT: Xi}, LINEAR)
        two = _model({Phase.FLIGHT: Xi, Phase.CONTACT: Xi.copy()}, LINEAR)
        cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4")
        steady = (Phase.FLIGHT,) * 200
        mixed = tuple(Phase.FLIGHT if k % 7 else Phase.CONTACT for k in range(200))
        a = integrate(one, [1.0], [0.5], None, steady, cfg)
        b = integrate(two, [1.0], [0.5], None, mixed, cfg)
        assert np.array_equal(a, b)


def _recorded_from_model(model, n=400, l=2, with_input=True):
    """Let the model produce its own ground-truth recording."""
    cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4")
    schedule = (Phase.CONTACT,) * n
    rng = np.random.default_rng(3)
    nu = rng.normal(size=(n, l)) if with_input else np.zeros((n, l))
    xi0, dxi0 = rng.normal(size=(2, l))
    latent = integrate(model, xi0, dxi0, nu, schedule, cfg)
    ae = model.autoencoder
    q = decode(ae, latent[:, :l], 0)
    dq = decode(ae, latent[:, l:], 1)
    u = nu @ ae.W_enc  # right-inverse of the input transform (orthonormal rows)
    return Trajectory(
        timestamps=np.arange(n) / 500.0,
        q=q, dq=dq,
        tau=u[:, : D - 6], contact=np.ones((n, 4)),
        ddq=None, u=u,
    )


def _damped_driven_model():
    l = 2
    Xi = affine_coefficients(
        DRIVEN, l,
        state_gain=-4.0 * np.eye(l), velocity_gain=-0.5 * np.eye(l), input_gain=np.eye(l),
    )
    return _model({Phase.CONTACT: Xi}, DRIVEN, l=l)


class TestRollouts:
    def test_self_consistency(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        res = rollout_full(model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4"))
        assert np.all(res.rmse < 1e-6)

    def test_zero_length_horizon(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        res = rollout_full(model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4"),
                           horizon=1)
        assert res.q_pred.shape[0] == 1
        assert np.all(res.rmse < 1e-9)

    @pytest.mark.parametrize("horizon", [2.5, True, 0, -3, "3"])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        message = f"horizon must be an integer >= 1, got {horizon!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            rollout_full(model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4"),
                         horizon=horizon)

    def test_missing_inputs_precondition(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        bare = Trajectory(
            timestamps=traj.timestamps, q=traj.q, dq=traj.dq, tau=traj.tau,
            contact=traj.contact, ddq=None, u=None,
        )
        with pytest.raises(ValidationError, match="input columns"):
            rollout_full(model, bare, RolloutConfig(integrator="fixed_rk4"))

    def test_schedule_read_from_contact_flags(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        res = rollout_full(model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4"))
        assert res.phase_schedule == (Phase.CONTACT,) * traj.n_samples
        lifted = replace(traj, contact=np.zeros_like(traj.contact))
        with pytest.raises(MissingPhaseError, match="flight"):
            rollout_full(model, lifted, RolloutConfig(step_rate=500, integrator="fixed_rk4"))

    def test_rate_mismatch_rejected(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        with pytest.raises(ValidationError, match="does not match"):
            rollout_full(model, traj, RolloutConfig(step_rate=100, integrator="fixed_rk4"))

    def test_decode_consistency(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        res = rollout_full(model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4"))
        ae = model.autoencoder
        recomputed = res.latent_pred[:, :2] @ ae.W_dec.T + ae.b_dec
        assert np.max(np.abs(res.q_pred - recomputed)) < 1e-12


class TestResets:
    def _noisy_recording(self):
        model = _damped_driven_model()
        traj = _recorded_from_model(model)
        # perturb the model so rollouts actually drift
        worse = _model(
            {Phase.CONTACT: model.phases[0].coefficients.Xi * 1.02}, DRIVEN, l=2
        )
        return worse, traj

    def test_reset_state_equals_encoded_truth(self):
        model, traj = self._noisy_recording()
        cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4", reset_interval=50)
        res = rollout_with_reset(model, traj, cfg)
        assert res.reset_indices == tuple(range(50, traj.n_samples, 50))
        enc_q = encode(model.autoencoder, traj.q, 0)
        enc_dq = encode(model.autoencoder, traj.dq, 1)
        for k in res.reset_indices:
            assert np.array_equal(res.latent_pred[k, :2], enc_q[k])
            assert np.array_equal(res.latent_pred[k, 2:], enc_dq[k])

    def test_interval_one_is_stepwise_prediction(self):
        model, traj = self._noisy_recording()
        cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4", reset_interval=1)
        res = rollout_with_reset(model, traj, cfg)
        enc_q = encode(model.autoencoder, traj.q, 0)
        for k in res.reset_indices:
            assert np.array_equal(res.latent_pred[k, :2], enc_q[k])

    def test_reset_beats_full_rollout(self):
        model, traj = self._noisy_recording()
        full = rollout_full(model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4"))
        reset = rollout_with_reset(
            model, traj, RolloutConfig(step_rate=500, integrator="fixed_rk4", reset_interval=50)
        )
        assert reset.rmse.mean() <= full.rmse.mean()

    def test_requires_positive_interval(self):
        model, traj = self._noisy_recording()
        with pytest.raises(ValidationError):
            rollout_with_reset(model, traj, RolloutConfig(integrator="fixed_rk4"))


@given(p=st.integers(1, 261), l=st.integers(1, 18), n=st.integers(1, 13),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_matmul_with_own_coefficients_matches_per_row(p, l, n, seed):
    # a rollout's right-hand side relies on this to give each row its own
    # bits: one row (p,), rows (n, p) with their own Xi (n, p, l), or rows
    # sharing one Xi (p, l)
    rng = np.random.default_rng(seed)
    rows, Xi = rng.normal(size=(n, p)), rng.normal(size=(n, p, l))
    assert np.vecmat(rows[0], Xi[0]).tobytes() == (rows[0] @ Xi[0]).tobytes()
    for row, own, got in zip(rows, Xi, np.vecmat(rows, Xi)):
        assert got.tobytes() == (row @ own).tobytes()
    for row, got in zip(rows, np.vecmat(rows, Xi[0])):
        assert got.tobytes() == (row @ Xi[0]).tobytes()


def _assert_same_as_alone(model, jumps, config):
    """Each outcome of ``rollout_jumps`` is the rollout's alone, bit for bit:
    its result, or its error's type, message and time.  Returns the
    outcomes."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "adaptive integrator needed")   # blown-up rollouts
        outcomes = rollout_jumps(model, jumps, config)
        modes = ("full", "reset") if config.reset_interval else ("full",)
        assert [(idx, mode) for idx, mode, _ in outcomes] == [
            (idx, mode) for idx, _ in jumps for mode in modes]
        trajs = dict(jumps)
        for idx, mode, res in outcomes:
            try:
                alone = (rollout_full if mode == "full" else rollout_with_reset)(
                    model, trajs[idx], config)
            except JumpromError as e:
                alone = e
            assert type(res) is type(alone)
            if isinstance(alone, JumpromError):
                assert str(res) == str(alone)
                assert getattr(res, "time", None) == getattr(alone, "time", None)
                continue
            for field in ("timestamps", "latent_pred", "q_pred", "q_true"):
                assert getattr(res, field).tobytes() == getattr(alone, field).tobytes(), field
            assert res.phase_schedule == alone.phase_schedule
            assert res.reset_indices == alone.reset_indices
    return outcomes


@pytest.fixture(scope="module")
def mixed_jumps():
    """Jumps of both presets on one lift, of different lengths and phase
    schedules, and the truth that covers all their phases."""
    jumps = []
    for spec in (two_phase_spec(n_jumps=2, split_counts=(1, 0, 1)),
                 three_phase_spec(n_jumps=2, lift_seed=3, split_counts=(1, 0, 1))):
        dataset, truth = generate(spec)
        jumps += process_dataset(dataset).jumps
    return truth, list(enumerate(jumps))


def _failing_truth(truth, drop=None):
    """The truth with dxi_1' = 3 dxi_1^2 added in flight, which blows up the
    full rollouts of jumps 0 and 2 of ``mixed_jumps`` and none of their
    resets, and without the phase ``drop``."""
    phases = []
    for pm in truth.phases:
        Xi = pm.coefficients.Xi.copy()
        if pm.phase is Phase.FLIGHT:
            Xi[truth.library.term_names(2).index("dxi_1^2"), 0] += 3.0
        if pm.phase is not drop:
            phases.append(PhaseModel(pm.phase, replace(pm.coefficients, Xi=Xi)))
    return MultiPhaseModel(autoencoder=truth.autoencoder, phases=tuple(phases), provenance={})


class TestRolloutJumps:
    @pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
    @pytest.mark.parametrize("reset_interval", [0, 50])
    def test_mixed_schedules_match_per_jump_rollouts(self, mixed_jumps, integrator,
                                                     reset_interval):
        truth, jumps = mixed_jumps
        assert len({traj.n_samples for _, traj in jumps}) == 2
        _assert_same_as_alone(truth, jumps, RolloutConfig(integrator=integrator,
                                                          reset_interval=reset_interval))

    def test_one_input_map_per_call(self, mixed_jumps, monkeypatch):
        truth, jumps = mixed_jumps
        calls = []
        monkeypatch.setattr(autoencoder, "input_map",
                            lambda params: calls.append(1) or input_map(params))
        rollout_jumps(truth, jumps, RolloutConfig(reset_interval=50))
        assert len(calls) == 1

    @pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
    @pytest.mark.parametrize("drop, expected", [
        (None, ["E_BLOWUP", "ok", "ok", "ok", "E_BLOWUP", "ok", "ok", "ok"]),
        # the three_phase jumps 2 and 3 have partial contact
        (Phase.PARTIAL_CONTACT, ["E_BLOWUP", "ok", "ok", "ok"] + ["E_PHASE"] * 4)])
    def test_failed_rollouts_stop_no_other(self, mixed_jumps, integrator, drop, expected):
        truth, jumps = mixed_jumps
        outcomes = _assert_same_as_alone(_failing_truth(truth, drop), jumps,
                                         RolloutConfig(integrator=integrator, reset_interval=50))
        assert [getattr(outcome, "code", "ok") for _, _, outcome in outcomes] == expected

    @pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
    def test_each_rollout_keeps_its_own_failure(self, integrator):
        # xi'' = xi^2 blows up sooner from a larger start: jump 1 fails
        # first in time, and each jump keeps the error it has alone
        Xi = np.zeros((QUADRATIC.term_count(1), 1))
        Xi[QUADRATIC.term_names(1).index("xi_1^2")] = 1.0
        model = _model({Phase.FLIGHT: Xi}, QUADRATIC)
        traj = _recorded_from_model(_damped_driven_model(), n=200)
        jumps = []
        for idx, start in ((0, 100.0), (1, 1e4)):
            q = traj.q.copy()
            q[0, 0] = start
            jumps.append((idx, replace(traj, q=q, dq=np.zeros_like(q),
                                       contact=np.zeros_like(traj.contact))))
        outcomes = _assert_same_as_alone(model, jumps, RolloutConfig(step_rate=500,
                                                                     integrator=integrator))
        errors = [outcome for _, _, outcome in outcomes]
        assert all(isinstance(error, DivergenceError) for error in errors)
        assert errors[1].time < errors[0].time
