"""Linear autoencoder: maps, input transform, training, decoder refit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumprom.autoencoder import (
    AutoencoderParams,
    align,
    decode,
    encode,
    finetune_decoder,
    input_map,
    recon_loss,
    reconstruct,
    train_autoencoder,
)
from jumprom.errors import RankDeficientEncoderError, ValidationError

D = 6


def _params(W_enc, b_enc=None, W_dec=None, b_dec=None):
    W_enc = np.asarray(W_enc, dtype=float)
    l, d = W_enc.shape
    return AutoencoderParams(
        W_enc=W_enc,
        b_enc=np.zeros(l) if b_enc is None else np.asarray(b_enc, dtype=float),
        W_dec=W_enc.T.copy() if W_dec is None else np.asarray(W_dec, dtype=float),
        b_dec=np.zeros(d) if b_dec is None else np.asarray(b_dec, dtype=float),
    )


def _subspace_data(n=400, d=D, l=2, seed=0, offset=True):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, l)))
    latent = rng.normal(size=(n, l)) * np.array([2.0, 0.7])[:l]
    data = latent @ basis.T
    if offset:
        data = data + rng.normal(size=d)
    return data, basis


class TestEncodeDecode:
    def test_bias_only_at_order_zero(self):
        W = np.zeros((1, D))
        W[0, 0] = 1.0
        p = _params(W, b_enc=[0.5])
        e1 = np.eye(D)[0]
        assert encode(p, e1, 0) == pytest.approx([1.5])
        assert encode(p, e1, 1) == pytest.approx([1.0])
        assert encode(p, np.zeros(D), 0) == pytest.approx([0.5])

    def test_decode_bias(self):
        p = _params(np.eye(2, D), b_dec=np.arange(D, dtype=float))
        assert np.array_equal(decode(p, np.zeros(2), 0), np.arange(D))
        assert np.array_equal(decode(p, np.zeros(2), 2), np.zeros(D))

    def test_invalid_order(self):
        p = _params(np.eye(2, D))
        with pytest.raises(ValidationError):
            encode(p, np.zeros(D), 3)

    def test_shared_weight_orders_identical(self):
        rng = np.random.default_rng(2)
        p = _params(rng.normal(size=(3, D)), b_enc=rng.normal(size=3))
        x = rng.normal(size=(10, D))
        assert np.array_equal(encode(p, x, 1), encode(p, x, 2))

    def test_linearity_above_order_zero(self):
        rng = np.random.default_rng(3)
        p = _params(rng.normal(size=(3, D)))
        x, y = rng.normal(size=(2, D))
        a, b = 1.7, -0.4
        assert np.allclose(
            encode(p, a * x + b * y, 1), a * encode(p, x, 1) + b * encode(p, y, 1)
        )


@st.composite
def _params_and_trajectory(draw):
    """(params, q, dt): random autoencoder weights and biases, and a smooth
    (n, d) trajectory, a sum of sinusoids about an offset, sampled every dt."""
    d = draw(st.integers(1, 18))
    l = draw(st.integers(1, d))
    n = draw(st.integers(2, 300))
    dt = draw(st.floats(1e-4, 0.1))
    bias_scale, offset_scale = draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = AutoencoderParams(W_enc=rng.normal(size=(l, d)), b_enc=bias_scale * rng.normal(size=l),
                               W_dec=rng.normal(size=(d, l)), b_dec=rng.normal(size=d))
    t = np.arange(n)[:, None, None] * dt
    omega = rng.uniform(0.1, 0.5, size=(3, d)) / (n * dt)  # under a period per horizon
    waves = rng.normal(size=(3, d)) * np.sin(omega * t + rng.uniform(0, 2 * np.pi, size=(3, d)))
    return params, offset_scale * rng.normal(size=d) + waves.sum(axis=1), dt


class TestDifferentiationCommutes:
    """The bias enters only at order 0, so encoding commutes with differentiation."""

    @pytest.mark.parametrize("order", [1, 2])
    @given(sample=_params_and_trajectory())
    def test_encode_of_derivative_is_derivative_of_encode(self, order, sample):
        params, q, dt = sample
        dq, dxi = q, encode(params, q, 0)
        for _ in range(order):
            dq, dxi = np.gradient(dq, dt, axis=0), np.gradient(dxi, dt, axis=0)
        # rounding in W q + b, amplified by 1/dt per difference
        scale = np.abs(params.W_enc).sum(axis=1) * np.abs(q).max() + np.abs(params.b_enc)
        bound = 8 * q.shape[1] * np.finfo(float).eps * scale / dt**order
        assert np.all(np.abs(encode(params, dq, order) - dxi) <= bound)


class TestTransformInput:
    def test_scalar_inverse_transpose(self):
        p = _params(2.0 * np.eye(D))
        nu = np.full(D, 2.0) @ input_map(p)
        assert np.allclose(nu, 1.0)

    def test_identity(self):
        p = _params(np.eye(D))
        u = np.arange(D, dtype=float)
        assert np.allclose(u @ input_map(p), u)

    def test_power_pairing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = rng.normal(size=(D, D)) + 2 * np.eye(D)
            p = _params(W)
            u, dq = rng.normal(size=(2, D))
            nu = u @ input_map(p)
            assert abs(nu @ encode(p, dq, 1) - u @ dq) < 1e-10

    def test_rank_deficient(self):
        W = np.ones((2, D))
        with pytest.raises(RankDeficientEncoderError) as err:
            input_map(_params(W))
        assert err.value.smallest_singular_value < 1e-12


class TestReconstruct:
    def test_orthonormal_projection(self):
        data, basis = _subspace_data(offset=False)
        p = _params(basis.T)
        assert np.allclose(reconstruct(p, data), data, atol=1e-12)

    def test_all_zero_params(self):
        p = _params(np.zeros((2, D)))
        assert np.array_equal(reconstruct(p, np.ones(D)), np.zeros(D))

    def test_trained_subspace_reconstruction(self):
        data, _ = _subspace_data()
        params = train_autoencoder(data, 2)
        assert np.max(np.abs(reconstruct(params, data) - data)) < 1e-6


class TestReconLoss:
    def test_perfect_is_zero(self):
        data, basis = _subspace_data(offset=False)
        assert recon_loss(_params(np.eye(D)), data) == 0.0
        assert recon_loss(_params(basis.T), data) < 1e-28

    def test_unit_error_vector(self):
        p = _params(np.zeros((1, D)))
        q = np.zeros(D)
        q[0] = 1.0
        assert recon_loss(p, q) == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(8)
        p = _params(np.zeros((1, D)))  # reconstructs everything to zero
        q = rng.normal(size=(5, D))
        assert recon_loss(p, 2 * q) == pytest.approx(4 * recon_loss(p, q))


class TestTraining:
    def test_exact_subspace_low_loss(self):
        data, _ = _subspace_data(n=500)
        params = train_autoencoder(data, 2)
        assert recon_loss(params, data) < 1e-8

    def test_full_dimension_identity_achievable(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(200, D))
        params = train_autoencoder(data, D)
        assert recon_loss(params, data) < 1e-8

    def test_standardize_returns_raw_unit_params(self):
        data, _ = _subspace_data(n=300)
        data = data * np.linspace(1.0, 50.0, D)  # wildly different column scales
        params = train_autoencoder(data, 2, standardize=True)
        assert recon_loss(params, data) / np.mean(data**2) < 1e-6

    def test_aligned_fit_centres_the_latent_state(self):
        # the encoder bias is a gauge: the fit centres the latent state and
        # align maps its bias to T @ b_enc, so the aligned latent state sits
        # at the origin wherever the data sit
        data, _ = _subspace_data(n=300)
        data = data + 50.0
        fit = train_autoencoder(data, 2)
        W_target = np.random.default_rng(12).normal(size=(2, D))
        params = align(fit, W_target)
        T = np.linalg.lstsq(fit.W_enc.T, W_target.T, rcond=None)[0].T
        assert np.array_equal(params.b_enc, T @ fit.b_enc)
        assert np.max(np.abs(encode(params, data).mean(axis=0))) < 1e-10

    def test_align_to_orthogonal_encoder_rejected(self):
        # the data vary in a rotated copy of columns 2-3, the encoder reads the
        # same rotation of columns 0-1: T = W_enc V^T holds rounding alone,
        # with singular values within a factor of 5 of each other
        rng = np.random.default_rng(13)
        R, _ = np.linalg.qr(rng.normal(size=(D, D)))
        data = np.zeros((50, D))
        data[:, 2:4] = rng.normal(size=(50, 2))
        with pytest.raises(ValidationError, match="l=2 latent directions in d=6"):
            align(train_autoencoder(data @ R.T, 2), np.eye(2, D) @ R.T)

    def test_standardize_leaves_constant_column_unscaled(self):
        data, _ = _subspace_data(n=17)
        data[:, 3] = 1.8835341365461846  # a joint that never moves
        assert data[:, 3].std() > 0  # the mean of equal values rounds
        pca = train_autoencoder(data, 2, standardize=True)
        resumed = align(pca, pca.W_enc)
        assert np.max(np.abs(resumed.W_enc - pca.W_enc)) <= 1e-12


@st.composite
def _scaled_offset_data(draw):
    """(data, latent_dim): n > d samples with column scales and offsets up to 3.

    A scale is 0 (a constant column, which ``standardize`` leaves unscaled)
    or in [0.5, 3].
    """
    d = draw(st.integers(2, 18))
    n = draw(st.integers(d + 1, 3 * d + 10))
    latent_dim = draw(st.integers(1, d))
    scale = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.5, 3.0)), min_size=d, max_size=d))
    offset = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, d)) * np.array(scale) + np.array(offset), latent_dim


class TestClosedFormPca:
    @pytest.mark.parametrize("standardize", [False, True])
    def test_runs_no_epoch(self, standardize):
        # the fit is the principal subspace itself: in the coordinates it runs
        # in, the encoder rows are orthonormal and the decoder is their transpose
        data, _ = _subspace_data(n=300)
        scale = data.std(axis=0) if standardize else np.ones(D)
        params = train_autoencoder(data, 2, standardize=standardize)
        W = params.W_enc * scale
        assert np.max(np.abs(W @ W.T - np.eye(2))) <= 1e-12
        assert np.max(np.abs(params.W_dec / scale[:, None] - W.T)) <= 1e-12

    @given(_scaled_offset_data(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_alignment_follows_the_parent_gauge(self, sample, standardize, seed):
        data, l = sample
        pca = train_autoencoder(data, l, standardize=standardize)
        aligned = align(pca, pca.W_enc)
        assert np.max(np.abs(aligned.W_enc - pca.W_enc)) <= 1e-12
        assert np.max(np.abs(aligned.b_enc - pca.b_enc)) <= 1e-12

        # a parent encoder in another gauge, A W_enc: the map recovers A and
        # leaves the reconstruction unchanged
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.normal(size=(l, l)))
        q2, _ = np.linalg.qr(rng.normal(size=(l, l)))
        A = q1 @ np.diag(rng.uniform(0.5, 2.0, size=l)) @ q2
        moved = align(pca, A @ pca.W_enc)
        want = A @ aligned.W_enc
        bound = 1e-12 * np.linalg.cond(A) * max(1.0, np.abs(want).max())
        assert np.max(np.abs(moved.W_enc - want)) <= bound
        recon_bound = 1e-12 * np.linalg.cond(A) * max(1.0, np.abs(data).max())
        assert np.max(np.abs(reconstruct(moved, data) - reconstruct(pca, data))) <= recon_bound


class TestFinetuneDecoder:
    def test_encoder_bit_identical(self):
        data, _ = _subspace_data()
        params = train_autoencoder(data, 2)
        tuned = finetune_decoder(params, np.random.default_rng(0).normal(size=(50, D)))
        assert tuned.W_enc.tobytes() == params.W_enc.tobytes()
        assert tuned.b_enc.tobytes() == params.b_enc.tobytes()

    def test_same_subspace_no_loss_increase(self):
        data, _ = _subspace_data(n=300)
        more, _ = _subspace_data(n=200, seed=0)  # same basis/offset stream
        params = train_autoencoder(data, 2)
        before = recon_loss(params, data)
        tuned = finetune_decoder(params, data)
        assert recon_loss(tuned, data) <= before + 1e-12

    def test_new_direction_strictly_improves(self):
        # stage-1 data spans 2 directions; the refit batch adds a third.
        rng = np.random.default_rng(14)
        basis, _ = np.linalg.qr(rng.normal(size=(D, 3)))
        stage1 = rng.normal(size=(300, 2)) @ basis[:, :2].T
        mixed = rng.normal(size=(300, 3)) @ basis.T
        params = train_autoencoder(stage1, 3)
        before = recon_loss(params, mixed)
        tuned = finetune_decoder(params, mixed)
        after = recon_loss(tuned, mixed)
        assert after < before
