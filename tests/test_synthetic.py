"""Synthetic generator: schema round trip, subspace purity, determinism,
lockstep stepping, the input spline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from jumprom._integrators import rk4_interval
from jumprom.autoencoder import AutoencoderParams
from jumprom.pipeline import MultiPhaseModel, load_model
from jumprom.sindy import FunctionLibrarySpec, PhaseModel, SparseCoefficients, build_library
from jumprom.synthetic import (
    GROUND_TRUTH_NAME,
    SyntheticSpec,
    _CubicSpline,
    _decompose_affine,
    _foot_layout,
    _simulate_jumps,
    affine_coefficients,
    coefficients_in_basis,
    generate,
    load_truth,
    three_phase_spec,
    two_phase_spec,
)
from jumprom.trajectory_data import Phase, load_dataset, segment_phases
from jumprom.errors import ValidationError
from helpers import models_equal


def test_schema_round_trip(tmp_path, clean_bundle):
    spec = two_phase_spec()
    _, _ = generate(spec, out_dir=tmp_path)
    dataset = load_dataset(tmp_path)
    assert dataset.n_jumps == spec.n_jumps
    labels, segments = segment_phases(dataset.jumps[0].contact)
    assert [s.phase for s in segments] == [Phase.CONTACT, Phase.FLIGHT]
    truth = load_truth(tmp_path / GROUND_TRUTH_NAME)
    assert truth.autoencoder.W_dec.shape == (18, 2)


@pytest.mark.parametrize("preset", [two_phase_spec, three_phase_spec],
                         ids=["two_phase", "three_phase"])
def test_written_truth_loads_equal_in_phase_order(tmp_path, preset):
    _, truth = generate(preset(n_jumps=3, split_counts=(1, 1, 1)), out_dir=tmp_path)
    assert load_truth is load_model
    loaded = load_truth(tmp_path / GROUND_TRUTH_NAME)
    assert models_equal(loaded, truth)
    assert loaded.phase_labels == tuple(ph for ph, _ in preset().phase_durations)
    assert [pm.coefficients.threshold for pm in loaded.phases] == [0.0] * len(loaded.phases)
    assert loaded.provenance == truth.provenance


def test_data_lies_on_true_subspace(clean_bundle):
    q = np.concatenate([j.q for j in clean_bundle.dataset.jumps])
    sv = np.linalg.svd(q - q.mean(axis=0), compute_uv=False)
    assert sv[2] / sv[0] < 1e-9


def test_ddq_matches_numerical_differentiation(clean_bundle):
    # one-phase spec: no dynamics switches, so central differences are valid
    # everywhere except the trajectory endpoints
    lib = clean_bundle.truth.phase_model(Phase.CONTACT).coefficients.library
    contact = affine_coefficients(
        lib, 2, state_gain=-4.0 * np.eye(2), velocity_gain=-0.8 * np.eye(2),
        input_gain=np.eye(2),
    )
    spec = SyntheticSpec(
        l_true=2, full_dim=18, lift_seed=5, library=lib,
        phase_dynamics=((Phase.CONTACT, contact),),
        phase_durations=((Phase.CONTACT, 400),),
        n_jumps=2, input_mean=(2.0, -1.5), input_amplitude=1.0,
        ic_center=(0.5, -0.5), ic_spread=1.5, velocity_spread=2.0,
        split_counts=(2, 0, 0),
    )
    dataset, truth = generate(spec)
    from jumprom.trajectory_data import process_trajectory

    lift, offset = truth.autoencoder.W_dec, truth.autoencoder.b_dec
    for jump in dataset.jumps:
        processed = process_trajectory(jump, 12)
        xi = (jump.q - offset) @ lift
        dxi = jump.dq @ lift
        nu = processed.u @ lift
        theta = build_library(lib, xi, dxi, nu)
        ddq_true = (theta @ truth.phase_model(Phase.CONTACT).coefficients.Xi) @ lift.T
        err = np.abs(processed.ddq[2:-2] - ddq_true[2:-2])
        assert np.max(err) < 1e-3


def test_wrench_reconstruction_is_consistent(clean_bundle):
    # u recovered at load time equals lift @ nu used during generation:
    # transform through the true decoder must give smooth latent inputs
    jump = clean_bundle.dataset.jumps[0]
    lift = clean_bundle.truth.autoencoder.W_dec
    nu = jump.u @ lift
    u_rebuilt = nu @ lift.T
    assert np.max(np.abs(u_rebuilt - jump.u)) < 1e-8


def test_deterministic_files(tmp_path):
    spec = two_phase_spec(n_jumps=3, split_counts=(1, 1, 1))
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(spec, out_dir=a)
    generate(spec, out_dir=b)
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_three_phase_label_sequence(three_phase_bundle):
    dataset, _ = three_phase_bundle
    for jump in dataset.jumps:
        _, segments = segment_phases(jump.contact)
        assert [s.phase for s in segments] == [
            Phase.CONTACT, Phase.PARTIAL_CONTACT, Phase.FLIGHT,
        ]


def test_lift_is_well_conditioned(clean_bundle):
    cond = np.linalg.cond(clean_bundle.truth.autoencoder.W_dec)
    assert cond < 1e4
    assert cond == pytest.approx(1.0, abs=1e-10)  # QR-orthonormal columns


def test_coefficients_in_basis_identity():
    # encoder equal to the true projection: rendered == declared truth
    spec = two_phase_spec(n_jumps=1, split_counts=(1, 0, 0))
    _, truth = generate(spec)
    rendered = coefficients_in_basis(truth, truth.autoencoder)
    assert len(rendered) == len(truth.phases)
    for (ph_r, Xi_r), pm in zip(rendered, truth.phases):
        assert ph_r == pm.phase
        assert np.allclose(Xi_r, pm.coefficients.Xi, atol=1e-10)


def _contact_truth(Xi):
    """A truth of one contact phase with coefficients ``Xi``, lifted from 2 to 18 dims."""
    lift = np.linalg.qr(np.random.default_rng(0).normal(size=(18, 2)))[0]
    ae = AutoencoderParams(W_enc=lift.T, b_enc=np.zeros(2), W_dec=lift, b_dec=np.zeros(18))
    coeffs = SparseCoefficients(Xi, 0.0, two_phase_spec().library)
    return MultiPhaseModel(ae, (PhaseModel(Phase.CONTACT, coeffs),), {})


def test_coefficients_in_basis_rejects_nonaffine():
    lib = two_phase_spec().library
    Xi = np.zeros((lib.term_count(2), 2))
    Xi[lib.term_names(2).index("sin(dxi_1)"), 0] = 1.0
    truth = _contact_truth(Xi)
    with pytest.raises(ValidationError, match="non-affine"):
        coefficients_in_basis(truth, truth.autoencoder)


def test_coefficients_in_basis_rejects_another_latent_dim():
    lib = two_phase_spec().library
    truth = _contact_truth(np.zeros((lib.term_count(2), 2)))
    W = np.eye(3, 18)
    encoder = AutoencoderParams(W_enc=W, b_enc=np.zeros(3), W_dec=W.T, b_dec=np.zeros(18))
    with pytest.raises(ValidationError, match="latent_dim == 2, got 3"):
        coefficients_in_basis(truth, encoder)


@given(constant=st.booleans(), degree=st.integers(0, 2), sines=st.booleans(),
       inputs=st.booleans(), l=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_affine_blocks_round_trip(constant, degree, sines, inputs, l, seed):
    assume(constant or degree or sines or inputs)
    lib = FunctionLibrarySpec(poly_degree=degree, include_constant=constant,
                              include_sin_states=sines, include_sin_velocities=sines,
                              include_inputs=inputs)
    rng = np.random.default_rng(seed)
    present = (constant, degree >= 1, degree >= 1, inputs)
    shapes = ((l,), (l, l), (l, l), (l, l))
    blocks = [rng.normal(size=shape) if ok else None for ok, shape in zip(present, shapes)]
    for block, got in zip(blocks, _decompose_affine(lib, affine_coefficients(lib, l, *blocks))):
        assert np.array_equal(got, np.zeros_like(got) if block is None else block)
    for i, shape in enumerate(shapes):
        if not present[i]:  # a block the library has no terms for
            args = [None] * 4
            args[i] = np.ones(shape)
            with pytest.raises(ValidationError, match="library has no"):
                affine_coefficients(lib, l, *args)


@pytest.mark.parametrize("knots", [0, 1, 2.5, "6", True, None])
def test_input_knots_must_be_an_integer_of_at_least_two(knots):
    with pytest.raises(ValidationError, match="input_knots"):
        replace(two_phase_spec(n_jumps=3), input_knots=knots)


def test_preset_default_splits():
    assert two_phase_spec().split_counts == (8, 2, 10)
    assert three_phase_spec().split_counts == (8, 2, 2)
    assert three_phase_spec(n_jumps=6).split_counts == (4, 1, 1)


def _reference_jump(spec, rng):
    """One jump on its own: per-sample rk4_interval on a single state, one
    library row per right-hand-side evaluation."""
    l = spec.l_true
    total = sum(steps for _, steps in spec.phase_durations)
    xi, dxi, nu = np.empty((total, l)), np.empty((total, l)), np.empty((total, l))
    state = np.concatenate([
        np.asarray(spec.ic_center, dtype=float) + rng.uniform(-spec.ic_spread, spec.ic_spread, l),
        rng.uniform(-spec.velocity_spread, spec.velocity_spread, l),
    ])
    cursor = 0
    for phase, steps in spec.phase_durations:
        Xi = spec.dynamics_for(phase)
        t0, t1 = cursor * spec.dt, (cursor + steps) * spec.dt
        spline = None
        if phase in spec.input_phases and (spec.input_amplitude > 0 or any(spec.input_mean)):
            n_knots = max(spec.input_knots, 2)
            knots = rng.normal(0.0, spec.input_amplitude, size=(n_knots, l))
            spline = CubicSpline(np.linspace(t0, t1, n_knots), knots)

        def input_at(t):
            if spline is None:
                return np.zeros(l)
            return np.asarray(spec.input_mean, dtype=float) + spline(np.clip(t, t0, t1))

        def rhs(t, y):
            row = build_library(spec.library, y[:l], y[l:], input_at(t))
            return np.concatenate([y[l:], row @ Xi])

        for i in range(steps):
            t = (cursor + i) * spec.dt
            xi[cursor + i], dxi[cursor + i], nu[cursor + i] = state[:l], state[l:], input_at(t)
            state = rk4_interval(rhs, t, state, spec.dt, substeps=2)
        cursor += steps
    return xi, dxi, nu, _foot_layout(rng)


@pytest.mark.parametrize("spec", [two_phase_spec(n_jumps=3, split_counts=(1, 1, 1)),
                                  three_phase_spec(n_jumps=3, split_counts=(1, 1, 1))],
                         ids=["two_phase", "three_phase"])
def test_lockstep_matches_per_jump_reference(spec):
    xi, dxi, nu, layouts = _simulate_jumps(spec, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    for j in range(spec.n_jumps):
        ref_xi, ref_dxi, ref_nu, (ref_feet, ref_com) = _reference_jump(spec, rng)
        assert np.array_equal(xi[j], ref_xi)
        assert np.array_equal(dxi[j], ref_dxi)
        assert np.array_equal(nu[j], ref_nu)
        assert np.array_equal(layouts[j][0], ref_feet) and np.array_equal(layouts[j][1], ref_com)


@given(p=st.integers(1, 261), l=st.integers(1, 10), n=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_matmul_matches_per_row(p, l, n, seed):
    # the lockstep generator relies on this to reproduce per-jump bits;
    # plain rows @ Xi and einsum do not give it on every BLAS
    rng = np.random.default_rng(seed)
    rows, Xi = rng.normal(size=(n, p)), rng.normal(size=(p, l))
    stacked = (rows[:, None, :] @ Xi)[:, 0, :]
    for row, got in zip(rows, stacked):
        assert np.array_equal(got, row @ Xi)


@pytest.mark.parametrize("knots", [2, 3, 12])
def test_lockstep_matches_reference_at_any_knot_count(knots):
    # the clamped (2 knots) and parabola (3 knots) slope rules end to end
    spec = replace(two_phase_spec(n_jumps=2, split_counts=(1, 1, 0)), input_knots=knots)
    xi, dxi, nu, _ = _simulate_jumps(spec, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for j in range(spec.n_jumps):
        ref_xi, ref_dxi, ref_nu, _ = _reference_jump(spec, rng)
        assert np.array_equal(xi[j], ref_xi)
        assert np.array_equal(dxi[j], ref_dxi)
        assert np.array_equal(nu[j], ref_nu)


@example(n=2, uniform=True, shape=(3, 2), exponent=0.0, seed=0)
@example(n=3, uniform=True, shape=(3, 2), exponent=0.0, seed=0)
@example(n=3, uniform=False, shape=(1, 1), exponent=-3.0, seed=1)
@given(n=st.integers(2, 12), uniform=st.booleans(),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 3)),
       exponent=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_spline_matches_scipy_bit_for_bit(n, uniform, shape, exponent, seed):
    rng = np.random.default_rng(seed)
    start, width = rng.uniform(0.0, 2.0), rng.uniform(0.01, 1.0)
    if uniform:
        x = np.linspace(start, start + width, n)
    else:
        x = start + width * np.cumsum(np.concatenate([[0.0], rng.uniform(0.05, 1.0, n - 1)]))
    y = 10.0**exponent * rng.normal(size=(n, *shape))
    ref, got = CubicSpline(x, y), _CubicSpline(x, y)
    assert np.array_equal(got.c, ref.c)
    inside = rng.uniform(x[0], x[-1], 5)
    clipped = np.clip(rng.uniform(x[0] - width, x[-1] + width, 5), x[0], x[-1])
    points = np.concatenate([x, [x[0], x[-1]], inside, clipped])
    for t in points:
        assert np.array_equal(got(t), ref(t))
