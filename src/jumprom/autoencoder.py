"""Shared-weight linear encoder/decoder between configuration and latent space.

One weight matrix maps configurations, velocities, and accelerations alike;
the bias enters only at derivative order zero, so time differentiation and
encoding commute.  Inputs are carried into latent space through the
transposed pseudoinverse of the encoder weights, which preserves the
mechanical power pairing <input, velocity> whenever the encoder is square
and invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientEncoderError, TrainingDivergedError, ValidationError


@dataclass(frozen=True)
class AutoencoderParams:
    """Weights and biases of the linear autoencoder.

    W_enc: (l, d) encoder weights, b_enc: (l,) encoder bias,
    W_dec: (d, l) decoder weights, b_dec: (d,) decoder bias,
    with d = m + 6 the configuration dimension and l the latent dimension.
    """

    W_enc: np.ndarray
    b_enc: np.ndarray
    W_dec: np.ndarray
    b_dec: np.ndarray

    def __post_init__(self):
        l, d = self.W_enc.shape
        if not (1 <= l <= d):
            raise ValidationError(f"latent dimension must satisfy 1 <= l <= {d}, got {l}")
        if self.b_enc.shape != (l,) or self.W_dec.shape != (d, l) or self.b_dec.shape != (d,):
            raise ValidationError("autoencoder parameter shapes are inconsistent")
        for name in ("W_enc", "b_enc", "W_dec", "b_dec"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"non-finite entries in {name}")

    @property
    def latent_dim(self):
        return self.W_enc.shape[0]

    @property
    def full_dim(self):
        return self.W_enc.shape[1]


def _check_order(order):
    if order not in (0, 1, 2):
        raise ValidationError(f"derivative order must be 0, 1, or 2, got {order}")


def encode(params, x, order=0):
    """Map a configuration (or its time derivative) into latent space.

    The bias is applied only at order 0, so velocities and accelerations
    go through the bare linear map.  Accepts a single vector (d,) or a
    batch (N, d).
    """
    _check_order(order)
    x = np.asarray(x, dtype=float)
    y = x @ params.W_enc.T
    if order == 0:
        y = y + params.b_enc
    return y


def decode(params, z, order=0):
    """Map a latent vector (or derivative) back to configuration space."""
    _check_order(order)
    z = np.asarray(z, dtype=float)
    y = z @ params.W_dec.T
    if order == 0:
        y = y + params.b_dec
    return y


def transform_input(params, u, rcond=1e-10):
    """Carry a configuration-space input into latent space.

    Computes nu = pinv(W_enc)^T u.  For a square invertible encoder this is
    exactly W_enc^{-T} u, which preserves the power pairing nu . (W_enc dq)
    = u . dq.  Raises RankDeficientEncoderError when the smallest singular
    value of W_enc falls below ``rcond`` times the largest.
    """
    u = np.asarray(u, dtype=float)
    U_svd, s, Vt = np.linalg.svd(params.W_enc, full_matrices=False)
    if s[-1] <= rcond * s[0]:
        raise RankDeficientEncoderError(
            f"encoder weights are rank deficient (smallest singular value {s[-1]:.3e})",
            float(s[-1]),
        )
    pinv = Vt.T @ ((1.0 / s)[:, None] * U_svd.T)  # (d, l)
    return u @ pinv


def reconstruct(params, q):
    """Encode then decode a configuration."""
    return decode(params, encode(params, q, 0), 0)


def recon_loss(params, batch):
    """Mean squared reconstruction error over a batch of configurations."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    err = batch - reconstruct(params, batch)
    return float(np.mean(np.sum(err * err, axis=1)))


def _pca_init(data, latent_dim):
    mean = data.mean(axis=0)
    centered = data - mean
    _, _, Vt = np.linalg.svd(centered, full_matrices=False)
    if Vt.shape[0] < latent_dim:
        raise ValidationError(
            f"not enough samples ({data.shape[0]}) to seed {latent_dim} latent directions"
        )
    W_enc = Vt[:latent_dim].copy()
    return AutoencoderParams(
        W_enc=W_enc,
        b_enc=-W_enc @ mean,
        W_dec=W_enc.T.copy(),
        b_dec=mean.copy(),
    )


def _random_init(full_dim, latent_dim, rng):
    scale = 1.0 / np.sqrt(full_dim)
    return AutoencoderParams(
        W_enc=rng.normal(0.0, scale, size=(latent_dim, full_dim)),
        b_enc=np.zeros(latent_dim),
        W_dec=rng.normal(0.0, scale, size=(full_dim, latent_dim)),
        b_dec=np.zeros(full_dim),
    )


def train_autoencoder(
    data,
    latent_dim,
    *,
    epochs=200,
    learning_rate=1e-3,
    momentum=0.9,
    seed=0,
    init="pca",
    init_params=None,
    standardize=False,
):
    """Fit the autoencoder on a batch of configurations.

    The default ``init="pca"`` returns the principal-subspace solution in
    closed form: the encoder rows are the leading principal directions,
    the decoder is their transpose, and the biases center the data.
    ``init="random"`` starts from seeded Gaussian weights and
    ``init_params`` resumes from existing weights; both then run
    full-batch gradient descent with momentum on the mean squared
    reconstruction error, centred on the data mean (see ``_descend``).
    ``epochs``, ``learning_rate`` and ``momentum`` apply only to those two
    descent paths.

    With ``standardize`` the fit runs on per-column standardized data and
    the scaling is folded back into the returned weights, which therefore
    always act on raw physical units.

    Returns the fitted AutoencoderParams.  Raises TrainingDivergedError if
    the descent loss becomes non-finite.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 0:
        raise ValidationError("empty training set")
    full_dim = data.shape[1]
    if not (1 <= latent_dim <= full_dim):
        raise ValidationError(f"latent dimension must be in [1, {full_dim}], got {latent_dim}")

    col_scale = None
    if standardize:
        col_scale = data.std(axis=0)
        col_scale[np.ptp(data, axis=0) == 0] = 1.0  # constant columns stay unscaled
        data = data / col_scale

    if init_params is not None:
        params = init_params
        if standardize:
            params = _scale_params(params, col_scale, invert=True)
    elif init == "pca":
        # The PCA point is a stationary point and the global minimum of the
        # linear-autoencoder loss (Eckart-Young; Baldi & Hornik 1989), so
        # descent from it can only add rounding, or diverge once
        # learning_rate * curvature is too large.
        params = _pca_init(data, latent_dim)
        return _scale_params(params, col_scale) if standardize else params
    elif init == "random":
        params = _random_init(full_dim, latent_dim, np.random.default_rng(seed))
    else:
        raise ValidationError(f"unknown init {init!r}")

    if epochs:
        params = _descend(data, params, epochs, learning_rate, momentum)
    return _scale_params(params, col_scale) if standardize else params


def _descend(data, params, epochs, learning_rate, momentum):
    """Full-batch gradient descent with momentum on the reconstruction error.

    The descent runs on the centred data, with the mean folded into the
    biases on the way in and back out on the way out, so the step size
    that keeps it stable does not depend on where the data sit: an offset
    c adds about |c|^2 to the curvature of the uncentred loss.
    """
    mean = data.mean(axis=0)
    data = data - mean
    W_e = params.W_enc.copy()
    b_e = params.b_enc + W_e @ mean
    W_d = params.W_dec.copy()
    b_d = params.b_dec - mean
    v = [np.zeros_like(a) for a in (W_e, b_e, W_d, b_d)]
    n = data.shape[0]

    for epoch in range(epochs):
        Z = data @ W_e.T + b_e
        R = Z @ W_d.T + b_d - data
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.mean(np.sum(R * R, axis=1)))
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"reconstruction loss diverged at epoch {epoch}", epoch)
        grads = (
            (2.0 / n) * (R @ W_d).T @ data,
            (2.0 / n) * (R @ W_d).sum(axis=0),
            (2.0 / n) * R.T @ Z,
            (2.0 / n) * R.sum(axis=0),
        )
        for buf, (vel, g) in zip((W_e, b_e, W_d, b_d), zip(v, grads)):
            vel *= momentum
            vel -= learning_rate * g
            buf += vel

    return AutoencoderParams(W_enc=W_e, b_enc=b_e - W_e @ mean, W_dec=W_d, b_dec=b_d + mean)


def _scale_params(params, col_scale, invert=False):
    """Fold a per-column scaling q' = q / s into (or out of) the weights."""
    s = np.asarray(col_scale, dtype=float)
    if invert:
        # express raw-unit params in standardized coordinates
        W_enc = params.W_enc * s
        b_enc = params.b_enc.copy()
        W_dec = params.W_dec / s[:, None]
        b_dec = params.b_dec / s
    else:
        # fold standardized-coordinate params back to raw units
        W_enc = params.W_enc / s
        b_enc = params.b_enc.copy()
        W_dec = params.W_dec * s[:, None]
        b_dec = params.b_dec * s
    return AutoencoderParams(W_enc=W_enc, b_enc=b_enc, W_dec=W_dec, b_dec=b_dec)


def finetune_decoder(params, data, *, ridge=1e-10):
    """Refit only the decoder on a batch spanning all motion phases.

    With the encoder frozen the reconstruction objective is an ordinary
    (ridge-regularized) least-squares problem in (W_dec, b_dec), so it is
    solved in closed form; the bias column is left unregularized.  The
    returned params share the encoder arrays bit for bit.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 0:
        raise ValidationError("empty fine-tuning set")
    Z = encode(params, data, 0)
    n, l = Z.shape
    A = np.concatenate([Z, np.ones((n, 1))], axis=1)
    gram = A.T @ A
    gram[np.arange(l), np.arange(l)] += ridge
    coeffs = np.linalg.solve(gram, A.T @ data)  # (l+1, d)
    return AutoencoderParams(
        W_enc=params.W_enc,
        b_enc=params.b_enc,
        W_dec=coeffs[:l].T.copy(),
        b_dec=coeffs[l].copy(),
    )
