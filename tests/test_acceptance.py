"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria that need the synthetic fixtures reuse the session
bundles from conftest (generation and training time are recorded there and
counted against the runtime budgets).
"""

import numpy as np
import pytest

from jumprom.aslip import AslipParams, AslipState, aslip_accel, simulate_aslip
from jumprom.autoencoder import encode
from jumprom.errors import DatasetLoadError, ModelFormatError
from jumprom.pipeline import (
    MultiPhaseModel,
    TrainingConfig,
    load_model,
    model_selection_scan,
    parse_model,
    save_model,
    selection_loss,
    serialize_model,
)
from jumprom.rollout import RolloutConfig, integrate, rollout_full, rollout_with_reset
from jumprom.sindy import (
    FunctionLibrarySpec,
    PhaseModel,
    SparseCoefficients,
    build_library,
    print_symbolic,
    stlsq,
)
from jumprom.synthetic import affine_coefficients, coefficients_in_basis
from jumprom.trajectory_data import Phase, load_dataset, save_dataset

from helpers import models_equal

RUNTIME_BUDGET_S = 120.0


def _pattern_and_errors(bundle):
    """Active-mask equality and relative errors against the rendered truth."""
    rendered = coefficients_in_basis(bundle.truth, bundle.model.autoencoder)
    worst = 0.0
    for phase, Xi_true in rendered:
        pm = bundle.model.phase_model(phase)
        expected_mask = np.abs(Xi_true) > 1e-6
        # guard: the fixture itself must keep every true coefficient well
        # clear of the sparsity threshold, else the oracle is degenerate
        assert np.abs(Xi_true[expected_mask]).min() > 3 * pm.coefficients.threshold
        assert np.array_equal(pm.coefficients.active_mask, expected_mask), (
            f"sparsity pattern mismatch in phase {phase}"
        )
        rel = np.abs(pm.coefficients.Xi[expected_mask] - Xi_true[expected_mask])
        rel /= np.abs(Xi_true[expected_mask])
        worst = max(worst, float(rel.max()))
    return worst


def test_criterion_01_oracle_recovery(clean_bundle):
    from jumprom.pipeline import decoder_test_error

    e_dec = decoder_test_error(clean_bundle.model, clean_bundle.dataset)
    assert e_dec < 1e-8, f"E_dec = {e_dec:.3e}"
    worst = _pattern_and_errors(clean_bundle)
    assert worst < 0.01, f"worst relative coefficient error {worst:.3%}"
    elapsed = clean_bundle.gen_seconds + clean_bundle.train_seconds
    assert elapsed < RUNTIME_BUDGET_S
    print(f"\nPASS criterion 1: oracle recovery (E_dec={e_dec:.2e}, "
          f"worst coef err={worst:.2%}, {elapsed:.0f}s)")


def test_criterion_02_noise_robustness(noisy_bundle):
    worst = _pattern_and_errors(noisy_bundle)
    assert worst < 0.10, f"worst relative coefficient error {worst:.3%}"
    elapsed = noisy_bundle.gen_seconds + noisy_bundle.train_seconds
    assert elapsed < RUNTIME_BUDGET_S
    print(f"\nPASS criterion 2: noise robustness (worst coef err={worst:.2%}, "
          f"{elapsed:.0f}s)")


def test_criterion_03_frozen_weight_ledger(clean_bundle, noisy_bundle):
    for bundle in (clean_bundle, noisy_bundle):
        ae, snaps = bundle.model.autoencoder, bundle.snapshots
        assert ae.W_enc.tobytes() == snaps.after_stage1.W_enc.tobytes()
        assert ae.b_enc.tobytes() == snaps.after_stage1.b_enc.tobytes()
        assert ae.W_dec.tobytes() == snaps.after_stage2.W_dec.tobytes()
        assert ae.b_dec.tobytes() == snaps.after_stage2.b_dec.tobytes()
    print("\nPASS criterion 3: encoder frozen across stages 1->3, decoder across 2->3")


def test_criterion_04_model_selection(noisy_bundle):
    config = TrainingConfig(latent_dim=2, seed=0)
    assert config.selection_lambda == 0.001
    seeds = [0, 1, 2, 3, 4]
    report = model_selection_scan(noisy_bundle.dataset, range(1, 9), seeds, config)
    for row in report.rows:
        recomputed = selection_loss(row.decoder_error, row.active_count,
                                    report.selection_lambda)
        assert abs(recomputed - row.selection_loss) < 1e-12
    wins = sum(report.best_latent_dim(seed=s) == 2 for s in seeds)
    assert wins >= 4, f"minimum at the true dimension for only {wins}/5 seeds"
    print(f"\nPASS criterion 4: L_mod recomputation exact; minimum at l=2 "
          f"for {wins}/5 seeds")


def test_criterion_05_integration_accuracy():
    linear = FunctionLibrarySpec(poly_degree=1, include_sin_states=False,
                                 include_sin_velocities=False, include_inputs=False)

    def model_for(Xi):
        from jumprom.autoencoder import AutoencoderParams

        W = np.zeros((1, 18))
        W[0, 0] = 1.0
        ae = AutoencoderParams(W_enc=W, b_enc=np.zeros(1), W_dec=W.T.copy(),
                               b_dec=np.zeros(18))
        coeffs = SparseCoefficients(Xi=Xi, threshold=0.0,
                                    library=linear)
        return MultiPhaseModel(autoencoder=ae,
                               phases=(PhaseModel(Phase.FLIGHT, coeffs),),
                               provenance={})

    # ballistic closed form over 0.2 s at 500 Hz
    model = model_for(affine_coefficients(linear, 1, constant=(-9.81,)))
    schedule = (Phase.FLIGHT,) * 101
    for integrator in ("fixed_rk4", "adaptive"):
        cfg = RolloutConfig(step_rate=500, integrator=integrator)
        out = integrate(model, [0.0], [3.0], None, schedule, cfg)
        assert abs(out[-1, 0] - 0.4038) < 1e-6

    # fourth-order convergence on the analytic oscillator
    om = 2 * np.pi
    model = model_for(affine_coefficients(linear, 1, state_gain=[[-om**2]]))
    n = 501
    schedule = (Phase.FLIGHT,) * n
    t = np.arange(n) / 500.0
    errs = {}
    for sub in (1, 2):
        cfg = RolloutConfig(step_rate=500, integrator="fixed_rk4", rk4_substeps=sub)
        out = integrate(model, [1.0], [0.0], None, schedule, cfg)
        errs[sub] = np.max(np.abs(out[:, 0] - np.cos(om * t)))
    ratio = errs[1] / errs[2]
    assert 8.0 <= ratio <= 32.0, f"step-halving error ratio {ratio:.2f}"
    print(f"\nPASS criterion 5: ballistic to 1e-6; RK4 halving ratio {ratio:.1f}")


def test_criterion_06_reset_semantics(clean_bundle):
    model = clean_bundle.model
    test_jumps = clean_bundle.dataset.jumps_in("test")
    assert len(test_jumps) >= 10
    cfg_full = RolloutConfig(step_rate=500, integrator="fixed_rk4")
    cfg_reset = RolloutConfig(step_rate=500, integrator="fixed_rk4", reset_interval=50)
    full_err, reset_err = [], []
    for jump in test_jumps:
        full = rollout_full(model, jump, cfg_full)
        reset = rollout_with_reset(model, jump, cfg_reset)
        full_err.append(full.rmse.mean())
        reset_err.append(reset.rmse.mean())
        enc_q = encode(model.autoencoder, jump.q, 0)
        l = model.autoencoder.latent_dim
        for k in reset.reset_indices:
            assert np.array_equal(reset.latent_pred[k, :l], enc_q[k]), (
                "latent configuration error at a reset index is not exactly zero"
            )
    assert np.mean(reset_err) <= np.mean(full_err)
    print(f"\nPASS criterion 6: exact resets; mean RMSE reset={np.mean(reset_err):.2e}"
          f" <= full={np.mean(full_err):.2e} over {len(test_jumps)} jumps")


def test_criterion_07_aslip_correctness():
    params = AslipParams(k_s=1000.0, m=10.0, l0=np.array([0.0, 0.0, 0.3]))
    grav = np.array([0.0, 0.0, -9.81])

    flight = AslipState(b=np.array([1.0, 2.0, 3.0]), db=np.array([0.1, 0.2, 0.3]),
                        foot=np.zeros(3), phase=Phase.FLIGHT)
    assert np.max(np.abs(aslip_accel(flight, params, u=np.ones(3)) - grav)) < 1e-9

    u = np.array([0.4, -0.2, 1.5])
    at_rest_length = AslipState(b=np.array([0.0, 0.0, 0.3]), db=np.zeros(3),
                                foot=np.zeros(3), phase=Phase.CONTACT)
    assert np.max(np.abs(aslip_accel(at_rest_length, params, u) - (grav + u))) < 1e-9

    compressed = AslipState(b=np.array([0.0, 0.0, 0.27]), db=np.zeros(3),
                            foot=np.zeros(3), phase=Phase.CONTACT)
    assert np.max(np.abs(aslip_accel(compressed, params) - [0.0, 0.0, -6.81])) < 1e-9

    # energy drift in unactuated stance oscillation, default tolerances
    eq = params.rest_length - params.m * params.g / params.k_s
    state = AslipState(b=np.array([0.0, 0.0, eq - 0.02]), db=np.zeros(3),
                       foot=np.zeros(3), phase=Phase.CONTACT)
    n, dt = 1001, 1.0 / 500.0
    b, db = simulate_aslip(params, state, None, (Phase.CONTACT,) * n, n, dt)
    energy = (
        0.5 * params.m * np.sum(db * db, axis=1)
        + params.m * params.g * b[:, 2]
        + 0.5 * params.k_s * (params.rest_length - np.linalg.norm(b, axis=1)) ** 2
    )
    scale = 0.5 * params.k_s * 0.02**2
    drift_per_s = np.max(np.abs(energy - energy[0])) / scale / (n * dt)
    assert drift_per_s < 1e-3
    print(f"\nPASS criterion 7: aSLIP formulas to 1e-9; energy drift "
          f"{drift_per_s:.2e}/s")


def test_criterion_08_stlsq_unit_oracle():
    t = np.linspace(0.0, 4.0, 300)
    x = np.cos(2 * t)
    lib = FunctionLibrarySpec(poly_degree=1, include_sin_states=False,
                              include_sin_velocities=False, include_inputs=False)
    theta = build_library(lib, x[:, None], (-2 * np.sin(2 * t))[:, None])
    target = (-4.0 * x)[:, None]

    coeffs = stlsq(theta, target, threshold=0.1, ridge=1e-12)
    assert np.allclose(coeffs.Xi[:, 0], [0.0, -4.0, 0.0], atol=1e-8)

    ridge = 1e-8
    dense = stlsq(theta, target, threshold=0.0, ridge=ridge)
    ref = np.linalg.solve(theta.T @ theta + ridge * np.eye(3), theta.T @ target[:, 0])
    assert np.allclose(dense.Xi[:, 0], ref, atol=1e-12)
    assert np.array_equal(dense.active_mask[:, 0], ref != 0.0)

    with pytest.warns(UserWarning):
        wiped = stlsq(theta, target, threshold=1e6)
    assert np.all(wiped.Xi == 0.0)
    print("\nPASS criterion 8: STLSQ recovers -4x to 1e-8; threshold-0 dense; "
          "over-threshold all-zero")


def test_criterion_09_format_round_trips(tmp_path, clean_bundle):
    # dataset: load -> save -> load, lossless
    first = tmp_path / "ds1"
    save_dataset(clean_bundle.dataset, first)
    loaded = load_dataset(first)
    second = tmp_path / "ds2"
    save_dataset(loaded, second)
    for f in sorted(p.name for p in first.iterdir()):
        assert (first / f).read_bytes() == (second / f).read_bytes()

    # model: save -> load, lossless; truncations carry positions
    path = tmp_path / "model.txt"
    save_model(clean_bundle.model, path)
    assert models_equal(load_model(path), clean_bundle.model)

    text = serialize_model(clean_bundle.model)
    with pytest.raises(ModelFormatError) as err:
        parse_model(text[: int(len(text) * 0.7)])
    assert err.value.byte_offset > 0

    csv = first / "jump_000.csv"
    body = csv.read_text()
    csv.write_text(body[: len(body) * 2 // 3])
    with pytest.raises(DatasetLoadError, match="jump_000.csv"):
        load_dataset(first)
    print("\nPASS criterion 9: dataset and model round trips lossless; "
          "truncations rejected with positions")


def test_criterion_10_symbolic_printing_golden():
    lib = FunctionLibrarySpec()
    names = lib.term_names(2)
    Xi = np.zeros((lib.term_count(2), 2))
    Xi[names.index("1"), 0] = 0.29
    Xi[names.index("dxi_1"), 0] = -1.22
    Xi[names.index("sin(dxi_1)"), 0] = -1.00
    Xi[names.index("nu_1"), 0] = 51.05
    Xi[names.index("dxi_1"), 1] = 0.42
    Xi[names.index("sin(dxi_1)"), 1] = 0.52
    coeffs = SparseCoefficients(Xi=Xi, threshold=0.1,
                                library=lib)
    lines = print_symbolic(PhaseModel(Phase.FLIGHT, coeffs), precision=2)
    golden = ("ξ̈_2 = 0.42·ξ̇_1"
              " + 0.52·sin(ξ̇_1)")
    assert lines[1] == golden
    print(f"\nPASS criterion 10: symbolic golden line {golden!r}")
