"""Candidate-function libraries and sparse regression of latent dynamics.

The latent acceleration of each phase is modeled as a sparse linear
combination of candidate functions of the latent state, latent velocity,
and transformed input.  Sparsity comes from sequentially thresholded least
squares (STLSQ): alternate ridge fits with hard elimination of small
coefficients until the support stabilizes.  The decoded-acceleration
residual couples the coefficient columns through the decoder, so every
fit runs on the vectorized joint system (M x Gram) vec(Xi) = vec(R); plain
column-wise STLSQ is the case M = I.  The whole Kronecker product is
never formed.  With a ridge, the system is factored once per fit, as l
Cholesky factors of size p decoupled through the eigenvectors of the small
l x l M.  A refit that keeps more than half the entries is a bordered
(KKT) solve on those factors, whose only dense system is the Schur matrix
of the eliminated entries; a refit that keeps at most half assembles the
block of the system on its support and factors it by Cholesky in place.
So no dense matrix larger than half the unknowns is factored.  A system
that is not numerically positive definite (a rank-deficient Gram far
larger than ridge/eps) is solved by LU on its support block instead, with
one warning per fit.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import ValidationError
from .trajectory_data import Phase

XI = "ξ"                 # latent symbol for pretty printing
DXI = "ξ̇"          # with combining dot
DDXI = "ξ̈"         # with combining diaeresis
NU = "ν"
CDOT = "·"


@dataclass(frozen=True)
class FunctionLibrarySpec:
    """Declarative description of the candidate-function set.

    Canonical term order: constant; states by index; velocities by index;
    higher monomials over (state, velocity) of total degree 2..poly_degree
    in nondecreasing index-tuple order; sin of states; sin of velocities;
    linear input terms.  The order is fixed so model files stay portable.
    """

    poly_degree: int = 2
    include_constant: bool = True
    include_sin_states: bool = True
    include_sin_velocities: bool = True
    include_inputs: bool = True

    def __post_init__(self):
        if (isinstance(self.poly_degree, bool) or not isinstance(self.poly_degree, numbers.Integral)
                or self.poly_degree < 0):
            raise ValidationError(f"poly_degree must be an integer >= 0, got {self.poly_degree!r}")
        if not (
            self.include_constant
            or self.poly_degree >= 1
            or self.include_sin_states
            or self.include_sin_velocities
            or self.include_inputs
        ):
            raise ValidationError("library must enable at least one term class")

    def _monomials(self, latent_dim):
        """Index tuples over the stacked (state, velocity) vector, degree >= 2."""
        out = []
        for degree in range(2, self.poly_degree + 1):
            out.extend(itertools.combinations_with_replacement(range(2 * latent_dim), degree))
        return out

    def term_count(self, latent_dim):
        p = 0
        if self.include_constant:
            p += 1
        if self.poly_degree >= 1:
            p += 2 * latent_dim
        p += len(self._monomials(latent_dim))
        if self.include_sin_states:
            p += latent_dim
        if self.include_sin_velocities:
            p += latent_dim
        if self.include_inputs:
            p += latent_dim
        return p

    def term_names(self, latent_dim, unicode_symbols=False):
        """Canonical term names; ASCII by default (used in model files)."""
        xi, dxi, nu = ("xi", "dxi", "nu")
        if unicode_symbols:
            xi, dxi, nu = (XI, DXI, NU)
        base = [f"{xi}_{i + 1}" for i in range(latent_dim)] + [
            f"{dxi}_{i + 1}" for i in range(latent_dim)
        ]
        names = []
        if self.include_constant:
            names.append("1")
        if self.poly_degree >= 1:
            names.extend(base)
        sep = CDOT if unicode_symbols else "*"
        for combo in self._monomials(latent_dim):
            factors = []
            for idx, reps in itertools.groupby(combo):
                count = len(list(reps))
                factors.append(base[idx] if count == 1 else f"{base[idx]}^{count}")
            names.append(sep.join(factors))
        if self.include_sin_states:
            names.extend(f"sin({xi}_{i + 1})" for i in range(latent_dim))
        if self.include_sin_velocities:
            names.extend(f"sin({dxi}_{i + 1})" for i in range(latent_dim))
        if self.include_inputs:
            names.extend(f"{nu}_{i + 1}" for i in range(latent_dim))
        return names

    def slot(self, name, latent_dim):
        """Index of a term name in the canonical order."""
        names = self.term_names(latent_dim)
        try:
            return names.index(name)
        except ValueError:
            raise ValidationError(f"term {name!r} not in library (l={latent_dim})") from None


@functools.lru_cache(maxsize=None)
def _library_plan(spec, latent_dim):
    """Gather indices over the stacked (state, velocity) vector, built once
    per (spec, l): one (terms, degree) monomial index array per degree
    2..poly_degree, then the indices of the sine terms."""
    monomials = tuple(
        np.array(list(group))
        for _, group in itertools.groupby(spec._monomials(latent_dim), key=len)
    )
    sines = []
    if spec.include_sin_states:
        sines.extend(range(latent_dim))
    if spec.include_sin_velocities:
        sines.extend(range(latent_dim, 2 * latent_dim))
    return monomials, np.array(sines, dtype=int)


def build_library(spec, xi, dxi, nu=None):
    """Evaluate every enabled candidate function on a batch of samples.

    xi, dxi, nu: (N, l) arrays, or (l,) vectors for one sample (nu may be
    omitted when the library has no input terms).  Returns the (N, p)
    design matrix, or the (p,) row, in canonical order.  The evaluation
    plan is cached per (spec, l): the monomials of each degree are one
    gather of the stacked (state, velocity) columns and one product over
    the gathered factors, the sine terms one gather and one sin.
    """
    xi = np.asarray(xi, dtype=float)
    dxi = np.asarray(dxi, dtype=float)
    if xi.shape != dxi.shape:
        raise ValidationError(f"state/velocity shapes differ: {xi.shape} vs {dxi.shape}")
    if spec.include_inputs:
        if nu is None:
            raise ValidationError("library includes input terms but no inputs were given")
        nu = np.asarray(nu, dtype=float)
        if nu.shape != xi.shape:
            raise ValidationError(f"inputs must have shape {xi.shape}, got {nu.shape}")
    monomials, sines = _library_plan(spec, xi.shape[-1])
    stacked = np.concatenate([xi, dxi], axis=-1)
    cols = []
    if spec.include_constant:
        cols.append(np.ones(xi.shape[:-1] + (1,)))
    if spec.poly_degree >= 1:
        cols.append(stacked)
    cols.extend(np.prod(stacked[..., idx], axis=-1) for idx in monomials)
    if sines.size:
        cols.append(np.sin(stacked[..., sines]))
    if spec.include_inputs:
        cols.append(nu)
    return np.concatenate(cols, axis=-1)


def build_library_row(spec, xi, dxi, nu=None):
    """Single-sample version of build_library; returns a (p,) vector."""
    return build_library(spec, xi, dxi, nu)


@dataclass(frozen=True)
class SparseCoefficients:
    """Sparse (p, l) coefficient matrix; its support is the nonzero pattern."""

    Xi: np.ndarray
    threshold: float
    library: FunctionLibrarySpec | None = None

    @property
    def active_mask(self):
        """(p, l) boolean support, ``Xi != 0``."""
        return self.Xi != 0.0


@dataclass(frozen=True)
class PhaseModel:
    phase: Phase
    coefficients: SparseCoefficients


def count_active(coeffs):
    """Number of nonzero coefficient entries."""
    return int(coeffs.active_mask.sum())


def _support_block(M, gram, idx, ridge):
    """Rows and columns ``idx`` of kron(M, gram) + ridge*I, without the kron.

    idx holds sorted column-major positions in the (p, l) coefficient
    matrix, so the entries of one latent column are contiguous and each
    (a, b) block of the gathered Gram entries is one slice, scaled by
    M[a, b] in place.  The ridge is added only when positive.
    """
    p, l = gram.shape[0], M.shape[0]
    rows = idx % p
    block = gram[np.ix_(rows, rows)]
    cuts = np.searchsorted(idx, p * np.arange(l + 1))
    for a, b in itertools.product(range(l), repeat=2):
        block[cuts[a]:cuts[a + 1], cuts[b]:cuts[b + 1]] *= M[a, b]
    if ridge > 0:
        block.flat[:: idx.size + 1] += ridge
    return block


def _cholesky_solve(a, b):
    """Solve a x = b for a symmetric positive definite a, destroying a.

    a is C-contiguous, so a.T is its F-contiguous view and LAPACK factors
    it in place; the upper triangle of a.T is the lower one of a, which
    equals its upper one.  Raises LinAlgError when a is not numerically
    positive definite.
    """
    factor = scipy.linalg.cho_factor(a.T, lower=False, overwrite_a=True, check_finite=False)
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def _inverse_from_cholesky(c):
    """The symmetric inverse of u^T u from the upper factor u of
    ``cho_factor(..., lower=False)``, overwriting c."""
    inv, info = scipy.linalg.lapack.dpotri(c, lower=False, overwrite_c=True)
    if info:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    inv = np.triu(inv)
    return inv + np.triu(inv, 1).T


class _DecoupledSystem:
    """A = kron(M, Gram) + ridge I, factored once per fit, and its refits.

    M = V diag(lam) V^T turns A into l independent p x p blocks
    lam_j Gram + ridge I, each factored by Cholesky, so memory is
    O(l p^2).  Gram itself is not diagonalised: the rounding of its
    near-zero eigenvalues is about eps*||Gram||, as large as a typical
    ridge, and would move the support.  ``x0`` is the full-support
    solution A^{-1} vec(R).
    """

    def __init__(self, M, gram, R, ridge):
        lam, self.V = np.linalg.eigh(M)
        Y = R @ self.V
        stride = gram.shape[0] + 1
        self.factors = []
        for j in range(M.shape[0]):
            a = lam[j] * gram
            a.flat[::stride] += ridge
            factor = scipy.linalg.cho_factor(a.T, lower=False, overwrite_a=True,
                                             check_finite=False)
            Y[:, j] = scipy.linalg.cho_solve(factor, Y[:, j], check_finite=False)
            self.factors.append(factor)
        self.x0 = (Y @ self.V.T).flatten(order="F")
        self.inverses = None

    def solve(self, support):
        """A_SS^{-1} b_S on the support S, zero on the eliminated set E.

        Solves the bordered (KKT) system of the equality-constrained
        quadratic: x = x0 - C (P_E^T C)^{-1} x0_E with C = A^{-1} P_E.
        The Schur matrix P_E^T C is SPD of size |E| and is factored by
        Cholesky.  The inverses of the l blocks are formed at the first
        refit with E non-empty, so every refit gathers its columns of C
        instead of solving for them, and a refit's result depends on its
        support alone.  Raises LinAlgError when the Schur matrix is not
        numerically positive definite.
        """
        elim = np.flatnonzero(~support)
        if not elim.size:
            return self.x0.copy()
        if self.inverses is None:
            self.inverses = [_inverse_from_cholesky(c) for c, _ in self.factors]
            self.factors = None
        p = self.inverses[0].shape[0]
        rows, W = elim % p, self.V[elim // p]
        schur = np.zeros((elim.size, elim.size))
        for w, inv in zip(W.T, self.inverses):
            entries = inv[np.ix_(rows, rows)]
            entries *= w[:, None]
            entries *= w
            schur += entries
        mu = _cholesky_solve(schur, self.x0[elim])
        Z = np.stack([inv[:, rows] @ (w * mu) for w, inv in zip(W.T, self.inverses)], axis=1)
        x = self.x0 - (Z @ self.V.T).flatten(order="F")
        x[elim] = 0.0
        return x


def _stlsq(theta, target, M, threshold, ridge, max_iters, init_support=None):
    """STLSQ on the normal equations (M x Gram) vec(Xi) = vec(Theta^T target).

    theta: (N, p) design matrix; target: (N, l); M: (l, l) symmetric
    coupling of the coefficient columns.  Elimination is strict: entries
    with |coef| < threshold are dropped, entries exactly at the threshold
    are kept.  Stops when the support is stable or after max_iters refits.
    Each refit solves the system restricted to its support S, with E the
    eliminated entries:

    - ridge > 0 and |S| > |E| (every full-support refit among them): the
      bordered solve of ``_DecoupledSystem``, on the decoupled Cholesky
      factors computed once per fit; the full support is their direct
      solution, and a smaller one needs only the |E| x |E| Schur matrix;
    - ridge > 0 and |S| <= |E|: the support block by Cholesky, in place;
    - either of those not numerically positive definite (a rank-deficient
      Gram much larger than ridge/eps): the support block by LU, with one
      warning per fit;
    - ridge <= 0: the support block by least squares.

    The largest dense matrix factored by Cholesky is therefore
    max(p, min(|S|, |E|)) <= max(p, p*l/2).

    Columns whose support empties out are returned as all-zero with a
    warning (constant-zero dynamics).
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    n, p = theta.shape
    l = target.shape[1]
    if n < p:
        warnings.warn(
            f"underdetermined sparse regression: {n} samples for {p} candidate functions",
            stacklevel=3,
        )
    gram = theta.T @ theta
    R = theta.T @ target
    rhs = R.flatten(order="F")
    support = (np.ones(p * l, dtype=bool) if init_support is None
               else np.asarray(init_support, dtype=bool).flatten(order="F"))
    x = np.zeros(p * l)
    system = None  # built at the first refit that needs it, then reused
    warned = False
    for _ in range(max_iters + 1):
        x[:] = 0.0
        if not support.any():
            break
        idx = np.flatnonzero(support)
        if ridge <= 0:
            x[idx] = np.linalg.lstsq(_support_block(M, gram, idx, ridge), rhs[idx],
                                     rcond=None)[0]
        else:
            try:
                if 2 * idx.size <= p * l:
                    x[idx] = _cholesky_solve(_support_block(M, gram, idx, ridge), rhs[idx])
                else:
                    if system is None:
                        system = _DecoupledSystem(M, gram, R, ridge)
                    x[:] = system.solve(support)
            except np.linalg.LinAlgError:
                if not warned:
                    warnings.warn(
                        f"support system of size {idx.size} with ridge {ridge:g} is not "
                        "numerically positive definite; solved by LU", stacklevel=3)
                    warned = True
                x[idx] = np.linalg.solve(_support_block(M, gram, idx, ridge), rhs[idx])
        small = support & (np.abs(x) < threshold)
        if not small.any():
            break
        support &= ~small
    Xi = x.reshape(p, l, order="F")
    zero = [str(j + 1) for j in range(l) if not Xi[:, j].any()]
    if zero:
        warnings.warn(f"all coefficients of column(s) {', '.join(zero)} eliminated "
                      "(constant-zero dynamics)", stacklevel=3)
    return SparseCoefficients(Xi=Xi, threshold=float(threshold))


def stlsq(theta, targets, threshold=0.1, ridge=1e-9, max_iters=20, init_support=None):
    """Sequentially thresholded (ridge) least squares on independent columns.

    theta: (N, p) design matrix; targets: (N,) or (N, l).  The target
    columns are uncoupled (M = I): the joint system is block diagonal.
    threshold=0 degenerates to the dense ridge solution.  Columns whose
    support empties out are returned as all-zero with a warning
    (constant-zero dynamics).
    """
    theta = np.asarray(theta, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    return _stlsq(theta, targets, np.eye(targets.shape[1]), threshold, ridge, max_iters,
                  init_support)


@dataclass(frozen=True)
class LatentPhaseData:
    """Per-phase training samples in latent coordinates.

    xi, dxi, nu, ddxi: (N, l); ddq: (N, d) decoded-space acceleration
    targets (may be None when the decoded residual is disabled).
    """

    xi: np.ndarray
    dxi: np.ndarray
    nu: np.ndarray
    ddxi: np.ndarray
    ddq: np.ndarray | None = None

    @property
    def n_samples(self):
        return self.xi.shape[0]


def fit_phase_model(
    params,
    spec,
    data,
    threshold=0.1,
    ridge=1e-9,
    *,
    latent_weight=1.0,
    decoded_weight=1.0,
    max_iters=20,
    init_support=None,
    phase=Phase.CONTACT,
):
    """Sparse-regress the latent dynamics of one motion phase.

    Minimizes

        latent_weight  * || ddxi - Theta Xi ||^2
      + decoded_weight * || ddq - W_dec (Theta Xi)^T ||^2

    over sparse Xi with the autoencoder frozen.  Both residuals are linear
    in Xi; because the decoder couples the columns, the joint system is
    vectorized and the normal equations take the Kronecker form
    (M x Gram) with M = latent_weight I + decoded_weight W_dec^T W_dec.
    With ridge > 0 the system is factored once per fit, decoupled through
    the eigenvectors of M; a refit that keeps more than half the entries
    is a bordered (KKT) solve on those factors, and one that keeps at most
    half factors its support block by Cholesky.  Either falls back to LU
    on the support block, with a warning, when its system is not
    numerically positive definite (see ``_stlsq``).  ddq may be None only
    when decoded_weight is 0.
    """
    if data.n_samples == 0:
        raise ValidationError(f"no data for phase {phase}")
    theta = build_library(spec, data.xi, data.dxi, data.nu if spec.include_inputs else None)
    W_d = params.W_dec
    M = latent_weight * np.eye(data.ddxi.shape[1]) + decoded_weight * W_d.T @ W_d
    target = latent_weight * data.ddxi
    if decoded_weight != 0.0:
        if data.ddq is None:
            raise ValidationError("decoded-acceleration residual enabled but ddq targets missing")
        target = target + decoded_weight * data.ddq @ W_d
    coeffs = _stlsq(theta, target, M, threshold, ridge, max_iters, init_support)
    return PhaseModel(phase=phase, coefficients=replace(coeffs, library=spec))


def print_symbolic(model, precision=2):
    """Render one human-readable equation per latent dimension.

    Terms appear in canonical order, zero entries are omitted, and
    coefficients are rounded to ``precision`` decimals.
    """
    coeffs = model.coefficients
    if coeffs.library is None:
        raise ValidationError("coefficients carry no library spec")
    p, l = coeffs.Xi.shape
    names = coeffs.library.term_names(l, unicode_symbols=True)
    active = coeffs.active_mask
    lines = []
    for j in range(l):
        parts = []
        for i in range(p):
            if not active[i, j]:
                continue
            c = coeffs.Xi[i, j]
            mag = f"{abs(c):.{precision}f}"
            body = mag if names[i] == "1" else f"{mag}{CDOT}{names[i]}"
            if not parts:
                parts.append(body if c >= 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c >= 0 else '-'} {body}")
        expr = " ".join(parts) if parts else "0"
        lines.append(f"{DDXI}_{j + 1} = {expr}")
    return lines
