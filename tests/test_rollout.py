"""Latent integration, rollouts against recordings, resets, comparisons."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from jumprom import _integrators
from jumprom.autoencoder import AutoencoderParams, decode, encode
from jumprom.errors import DivergenceError, MissingPhaseError, ValidationError
from jumprom.pipeline import MultiPhaseModel
from jumprom.rollout import (
    RolloutConfig,
    integrate,
    rollout_full,
    rollout_with_reset,
)
from jumprom.sindy import FunctionLibrarySpec, PhaseModel, SparseCoefficients
from jumprom.synthetic import affine_coefficients
from jumprom.trajectory_data import Phase, Trajectory

D = 18
LINEAR = FunctionLibrarySpec(
    poly_degree=1, include_sin_states=False, include_sin_velocities=False, include_inputs=False
)
DRIVEN = FunctionLibrarySpec(
    poly_degree=1, include_sin_states=False, include_sin_velocities=False, include_inputs=True
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

    def test_failed_adaptive_interval_raises(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1, inside the second interval;
        # RK45 stops there instead of reaching t = 1.2
        with pytest.raises(DivergenceError, match="adaptive integrator stopped") as err:
            _integrators.integrate_intervals(lambda k, t, y: y * y, np.array([1.0]), 3, 0.6,
                                             "adaptive")
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
