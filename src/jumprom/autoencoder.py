"""Shared-weight linear encoder/decoder between configuration and latent space.

One weight matrix maps configurations, velocities, and accelerations alike;
the bias enters only at derivative order zero, so time differentiation and
encoding commute.  Inputs are carried into latent space through the
transposed pseudoinverse of the encoder weights, which preserves the
mechanical power pairing <input, velocity> whenever the encoder is square
and invertible.  The fit is closed form (PCA); ``align`` re-expresses a
fitted autoencoder in another latent gauge without changing what it
reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientEncoderError, ValidationError


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


def input_map(params, rcond=1e-10):
    """The (d, l) matrix pinv(W_enc)^T that carries configuration-space
    inputs into latent space, as nu = ``u @ input_map(params)``.

    For a square invertible encoder this is exactly W_enc^{-T} u, which
    preserves the power pairing nu . (W_enc dq) = u . dq.  Raises
    RankDeficientEncoderError when the smallest singular value of W_enc
    falls below ``rcond`` times the largest.  Callers that carry many
    inputs compute it once.
    """
    U_svd, s, Vt = np.linalg.svd(params.W_enc, full_matrices=False)
    if s[-1] <= rcond * s[0]:
        raise RankDeficientEncoderError(
            f"encoder weights are rank deficient (smallest singular value {s[-1]:.3e})",
            float(s[-1]),
        )
    return Vt.T @ ((1.0 / s)[:, None] * U_svd.T)


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


def train_autoencoder(data, latent_dim, *, standardize=False):
    """Fit the autoencoder on a batch of configurations, in closed form.

    The fit is the principal-subspace solution: the encoder rows are the
    leading principal directions, the decoder is their transpose, and the
    biases center the data.  It is the global minimum of the reconstruction
    error (Eckart-Young; Baldi & Hornik 1989).

    With ``standardize`` the fit runs on per-column standardized data and
    the scaling is folded back into the returned weights, which therefore
    always act on raw physical units.

    Returns the fitted AutoencoderParams.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 0:
        raise ValidationError("empty training set")
    full_dim = data.shape[1]
    if not (1 <= latent_dim <= full_dim):
        raise ValidationError(f"latent dimension must be in [1, {full_dim}], got {latent_dim}")
    if not standardize:
        return _pca_init(data, latent_dim)
    col_scale = data.std(axis=0)
    col_scale[np.ptp(data, axis=0) == 0] = 1.0  # constant columns stay unscaled
    return _scale_params(_pca_init(data / col_scale, latent_dim), col_scale)


def align(params, W_target):
    """Re-express a fitted autoencoder in the latent coordinates closest to ``W_target``.

    T = W_target pinv(W_enc) is the l x l map that brings T W_enc closest to
    ``W_target`` in least squares: orthogonal Procrustes without the
    orthogonality constraint (Schoenemann, Psychometrika 31, 1966).  The
    encoder T W_enc, bias T b_enc and decoder W_dec T^-1 leave every
    reconstruction unchanged; b_dec is kept.  Raises ValidationError when
    T's smallest singular value is at most 1e-10 times the bound
    |W_target|_2 / s_min(W_enc) on its largest: the encoder's span is then
    orthogonal to a direction of ``W_target``.  Against T's own largest, a
    T made of rounding alone would pass.
    """
    W_enc = params.W_enc
    T = np.linalg.lstsq(W_enc.T, W_target.T, rcond=None)[0].T
    s = np.linalg.svd(T, compute_uv=False)
    scale = np.linalg.norm(W_target, 2) / np.linalg.svd(W_enc, compute_uv=False)[-1]
    if s[-1] <= 1e-10 * scale:
        l, d = W_enc.shape
        raise ValidationError(
            f"cannot align l={l} latent directions in d={d} columns: the data's principal span "
            f"is orthogonal to the encoder (smallest singular value {s[-1]:.3e} of {scale:.3e})"
        )
    return AutoencoderParams(W_enc=T @ W_enc, b_enc=T @ params.b_enc,
                             W_dec=np.linalg.solve(T.T, params.W_dec.T).T, b_dec=params.b_dec)


def _scale_params(params, col_scale):
    """Fold standardized-coordinate params, q' = q / s, back to raw units."""
    s = np.asarray(col_scale, dtype=float)
    return AutoencoderParams(W_enc=params.W_enc / s, b_enc=params.b_enc.copy(),
                             W_dec=params.W_dec * s[:, None], b_dec=params.b_dec * s)


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
