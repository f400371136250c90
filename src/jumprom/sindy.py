"""Candidate-function libraries and sparse regression of latent dynamics.

The latent acceleration of each phase is modeled as a sparse linear
combination of candidate functions of the latent state, latent velocity,
and transformed input.  ``_terms`` enumerates them once, in canonical
order; the term count, the names in model files and the evaluation plan
all read that table.  Sparsity comes from sequentially thresholded least
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
block of the system on its support and factors it by Cholesky.  So with
a ridge > 0 no dense matrix larger than half the unknowns is factored by
Cholesky.  The regression runs on numpy alone: ``np.linalg.cholesky``
factors and checks positive definiteness, and the triangular solves and
the inverse of a factor go through the inverses of its diagonal blocks.
The design matrix is never held: each block of samples adds its rows'
Gram and right-hand side to the normal equations ``_BLOCK`` rows at a
time.  The factors become their inverses in place, and the gathers and
the triangular kernels work in blocks of rows, so a fit holds l p^2
doubles plus Gram and bounded blocks.  A system that is not numerically
positive definite (a rank-deficient Gram far larger than ridge/eps) is
solved by LU on its whole support block instead, with one warning per
fit.  The ridge must be > 0.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, check_fields, check_number
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
    ``_terms`` enumerates it once; the count, the names and the evaluation
    plan are all read from that table.
    """

    poly_degree: int = 2
    include_constant: bool = True
    include_sin_states: bool = True
    include_sin_velocities: bool = True
    include_inputs: bool = True
    BOUNDS = {"poly_degree": ">= 0"}

    def __post_init__(self):
        check_fields(self, self.BOUNDS)
        if not (
            self.include_constant
            or self.poly_degree >= 1
            or self.include_sin_states
            or self.include_sin_velocities
            or self.include_inputs
        ):
            raise ValidationError("library must enable at least one term class")

    def term_count(self, latent_dim):
        return len(_terms(self, latent_dim))

    def term_names(self, latent_dim, unicode_symbols=False):
        """Canonical term names; ASCII by default (used in model files)."""
        xi, dxi, nu = (XI, DXI, NU) if unicode_symbols else ("xi", "dxi", "nu")
        families = ((True, xi + "_{}"), (True, dxi + "_{}"),
                    (self.include_sin_states, f"sin({xi}_{{}})"),
                    (self.include_sin_velocities, f"sin({dxi}_{{}})"),
                    (self.include_inputs, nu + "_{}"))
        base = ["1"] + [form.format(i + 1) for enabled, form in families if enabled
                        for i in range(latent_dim)]
        sep = CDOT if unicode_symbols else "*"
        names = []
        for term in _terms(self, latent_dim):
            powers = [(base[i], len(list(reps))) for i, reps in itertools.groupby(term)]
            names.append(sep.join(name if n == 1 else f"{name}^{n}" for name, n in powers))
        return names


_ONE = np.ones(1)
_ONE.flags.writeable = False

# rows per library block of the normal equations, per in-place gather of
# the regression and per block of its triangular kernels: bounds their
# temporaries to _BLOCK x (columns) doubles.  A power of two, for
# ``_block_inverses``.
_BLOCK = 64


@functools.lru_cache(maxsize=None)
def _terms(spec, latent_dim):
    """Every term in canonical order, as the nondecreasing indices of its
    factors among the base columns (1, ξ, ξ̇, [sin ξ], [sin ξ̇], [ν]), the
    bracketed ones present when the spec enables them."""
    l = latent_dim
    terms = [(0,)] if spec.include_constant else []
    for degree in range(1, spec.poly_degree + 1):
        terms.extend(itertools.combinations_with_replacement(range(1, 1 + 2 * l), degree))
    column = 1 + 2 * l
    for enabled in (spec.include_sin_states, spec.include_sin_velocities, spec.include_inputs):
        if enabled:
            terms.extend((column + i,) for i in range(l))
            column += l
    return tuple(terms)


@functools.lru_cache(maxsize=None)
def _library_plan(spec, latent_dim):
    """Gather plan of the library, built once per (spec, l) from ``_terms``.

    The rows of a (max degree, p) index array into the base columns: row k
    holds every term's factor k, so term j is base[plan[0][j]] *
    base[plan[1][j]] * ... in index order.  Positions beyond a term's
    degree point at the constant column, and multiplying by 1.0 is exact.
    """
    terms = _terms(spec, latent_dim)
    plan = np.zeros((max(map(len, terms)), len(terms)), dtype=np.intp)
    for j, term in enumerate(terms):
        plan[: len(term), j] = term
    return tuple(plan)


def build_library(spec, xi, dxi, nu=None):
    """Evaluate every enabled candidate function on a batch of samples.

    xi, dxi, nu: (N, l) arrays, or (l,) vectors for one sample (nu may be
    omitted when the library has no input terms).  Returns the (N, p)
    design matrix, or the (p,) row, in canonical order.  The base columns
    of ``_library_plan`` are one concatenate; the terms are one take of
    their first factors, multiplied in place by one take per further
    factor position.  Its temporaries are a few N x p arrays, so the
    regression calls it on ``_BLOCK`` rows at a time.
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
    first, *later = _library_plan(spec, xi.shape[-1])
    base = [_ONE if xi.ndim == 1 else np.ones(xi.shape[:-1] + (1,)), xi, dxi]
    if spec.include_sin_states:
        base.append(np.sin(xi))
    if spec.include_sin_velocities:
        base.append(np.sin(dxi))
    if spec.include_inputs:
        base.append(nu)
    base = np.concatenate(base, axis=-1)
    # the indices are in range by construction, so no bounds check
    out = base.take(first, axis=-1, mode="clip")
    for factor in later:
        out *= base.take(factor, axis=-1, mode="clip")
    return out


# A second name of build_library, for one sample or stacked rows:
# perfbench/tracing.py patches this name in rollout and synthetic to count
# the library evaluations of rollouts and of data generation.
build_library_row = build_library


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
    M[a, b] in place.
    """
    p, l = gram.shape[0], M.shape[0]
    rows = idx % p
    block = gram[np.ix_(rows, rows)]
    cuts = np.searchsorted(idx, p * np.arange(l + 1))
    for a, b in itertools.product(range(l), repeat=2):
        block[cuts[a]:cuts[a + 1], cuts[b]:cuts[b + 1]] *= M[a, b]
    block.flat[:: idx.size + 1] += ridge
    return block


def _row_blocks(n, b):
    """(index, start, stop) of each block of b rows of n."""
    return [(k, start, min(start + b, n)) for k, start in enumerate(range(0, n, b))]


def _diagonal_blocks(stack, size):
    """Writable (N, b / size, size, size) view of the size x size diagonal
    blocks of every matrix of the C-contiguous (N, b, b) stack."""
    n, b, _ = stack.shape
    item = stack.itemsize
    return np.ndarray((n, b // size, size, size), stack.dtype, stack,
                      strides=(b * b * item, size * (b + 1) * item, b * item, item))


def _block_inverses(L):
    """The inverses of the diagonal blocks of lower-triangular factors L.

    L: (..., n, n).  Returns (..., k, b, b): b is ``_BLOCK`` (a power of
    two), or the least power of two >= n when n is smaller, and the last
    block is padded with the identity.  Every block of every factor is
    inverted at once by recursive doubling from the reciprocal diagonal:
    inv([[A, 0], [C, B]]) = [[inv(A), 0], [-inv(B) C inv(A), inv(B)]], so
    log2(b) batched steps of two products each, and each inverse is exactly
    lower triangular.  The blocks enter negated, which gives the sign of
    the corner without another pass.
    """
    n = L.shape[-1]
    b = min(_BLOCK, 1 << (n - 1).bit_length())
    blocks = _row_blocks(n, b)
    stack = np.zeros(L.shape[:-2] + (len(blocks), b, b))
    for k, start, stop in blocks:
        np.negative(L[..., start:stop, start:stop], out=stack[..., k, :stop - start, :stop - start])
    pad = len(blocks) * b - n
    if pad:
        stack[..., -1, -pad:, -pad:] = -np.eye(pad)
    diagonal = stack.reshape(-1, b * b)[:, :: b + 1]
    np.divide(-1.0, diagonal, out=diagonal)
    size = 1
    while size < b:
        pairs = _diagonal_blocks(stack.reshape(-1, b, b), 2 * size)
        corner = pairs[..., size:, :size]
        np.matmul(pairs[..., size:, size:], corner @ pairs[..., :size, :size], out=corner)
        size *= 2
    return stack


def _factor_solve(L, x):
    """Solve L L^T y = x for the lower-triangular factors L, overwriting x.

    L: (..., n, n); x: C-contiguous (..., n).  Forward, then backward
    substitution in blocks of ``_BLOCK`` rows: each block is one product
    with the inverse of its diagonal block, and ``_block_inverses`` forms
    all of those in one pass.  A stack of factors takes as many calls as
    one factor.
    """
    inverses = _block_inverses(L)
    b, n = inverses.shape[-1], L.shape[-1]
    blocks = _row_blocks(n, b)
    # unit strides throughout, so that a stack of products runs in BLAS
    column, row = x.reshape(x.shape + (1,)), x.reshape(x.shape[:-1] + (1, n))
    for k, start, stop in blocks:
        inverse = inverses[..., k, :stop - start, :stop - start]
        column[..., start:stop, :] = inverse @ (
            column[..., start:stop, :] - L[..., start:stop, :start] @ column[..., :start, :])
    for k, start, stop in reversed(blocks):
        inverse = inverses[..., k, :stop - start, :stop - start]
        row[..., start:stop] = (
            row[..., start:stop] - row[..., stop:] @ L[..., stop:, start:stop]) @ inverse
    return x


def _cholesky_solve(a, b):
    """Solve a x = b for a symmetric positive definite a; a is not changed.

    Raises LinAlgError when a is not numerically positive definite, as
    ``np.linalg.cholesky`` finds it.
    """
    return _factor_solve(np.linalg.cholesky(a), np.array(b, dtype=float))


def _inverse_from_cholesky(c):
    """The symmetric inverse of L L^T from its lower Cholesky factor L,
    overwriting c.

    First L becomes L^-1 one block row of ``_BLOCK`` rows at a time, top
    down: block row i of L^-1 is -D_i L[i, :i] L^-1[:i, :i] beside D_i,
    the inverse of the diagonal block, and the rows above it are already
    L^-1.  Then block row i of the lower triangle of L^-T L^-1 is
    L^-1[i:, i]^T L^-1[i:, :i+1], which reads only rows i and below, still
    L^-1; it is written with its mirror above the diagonal, and the
    diagonal block is symmetrised from its lower triangle, so the result
    is exactly symmetric.  Temporaries are ``_BLOCK`` rows of c.
    """
    n = c.shape[0]
    inverses = _block_inverses(c)
    b = inverses.shape[-1]
    blocks = _row_blocks(n, b)
    for k, start, stop in blocks:
        inverse = inverses[k, :stop - start, :stop - start]
        np.matmul(-inverse, c[start:stop, :start] @ c[:start, :start], out=c[start:stop, :start])
        c[start:stop, start:stop] = inverse
    for _, start, stop in blocks:
        rows = c[start:, start:stop].T @ c[start:, :stop]
        c[start:stop, :start] = rows[:, :start]
        c[:start, start:stop] = rows[:, :start].T
        diagonal = rows[:, start:]
        c[start:stop, start:stop] = np.tril(diagonal) + np.tril(diagonal, -1).T
    return c


class _DecoupledSystem:
    """A = kron(M, Gram) + ridge I, factored once per fit, and its refits.

    M = V diag(lam) V^T turns A into l independent p x p blocks
    lam_j Gram + ridge I, each factored by Cholesky.  Gram itself is not
    diagonalised: the rounding of its near-zero eigenvalues is about
    eps*||Gram||, as large as a typical ridge, and would move the support.
    ``x0`` is the full-support solution A^{-1} vec(R), from one batched
    triangular solve of the l factors.  ``factors`` holds the l lower
    factors of ``np.linalg.cholesky`` in one (l, p, p) array until the
    first refit with an eliminated entry turns them into ``inverses`` in
    the same buffers.  Forming them takes two p x p temporaries, the
    shifted Gram and a factor before it is copied in, and no other p x p
    array outlives a call, so the system peaks at (l + 2) p^2 doubles plus
    ``_BLOCK``-row temporaries and, in a refit, the |E| x |E| Schur matrix
    with its factor.
    """

    def __init__(self, M, gram, R, ridge):
        lam, self.V = np.linalg.eigh(M)
        p = gram.shape[0]
        self.factors = np.empty((lam.size, p, p))
        a = np.empty_like(gram)
        for factor, scale in zip(self.factors, lam):
            np.multiply(scale, gram, out=a)
            a.flat[:: p + 1] += ridge
            factor[...] = np.linalg.cholesky(a)
        del a
        Y = _factor_solve(self.factors, (R @ self.V).T.copy())
        self.x0 = (self.V @ Y).ravel()
        self.inverses = None

    def solve(self, support):
        """A_SS^{-1} b_S on the support S, zero on the eliminated set E.

        Solves the bordered (KKT) system of the equality-constrained
        quadratic: x = x0 - C (P_E^T C)^{-1} x0_E with C = A^{-1} P_E.
        The Schur matrix P_E^T C is SPD of size |E| and is factored by
        Cholesky.  The factors are turned into the inverses of the l blocks
        at the first refit with E non-empty, so every refit gathers the
        Schur matrix from them, ``_BLOCK`` rows at a time, and applies C as
        one product of each inverse with a vector; a refit's result depends
        on its support alone.  Raises LinAlgError when the Schur matrix is
        not numerically positive definite.
        """
        elim = np.flatnonzero(~support)
        if not elim.size:
            return self.x0.copy()
        if self.inverses is None:
            self.inverses = [_inverse_from_cholesky(c) for c in self.factors]
            self.factors = None
        p = self.inverses[0].shape[0]
        rows, W = elim % p, self.V[elim // p]
        schur = np.zeros((elim.size, elim.size))
        for w, inv in zip(W.T, self.inverses):
            for start in range(0, elim.size, _BLOCK):
                part = slice(start, start + _BLOCK)
                entries = inv.take(rows[part], axis=0).take(rows, axis=1)
                entries *= w[part, None]
                entries *= w
                schur[part] += entries
        mu = _cholesky_solve(schur, self.x0[elim])
        Z = np.stack([inv @ np.bincount(rows, w * mu, minlength=p)
                      for w, inv in zip(W.T, self.inverses)])
        x = self.x0 - (self.V @ Z).ravel()
        x[elim] = 0.0
        return x


def _stlsq(gram, R, n, M, threshold, ridge, max_iters, init_support=None):
    """STLSQ on the normal equations (M x Gram) vec(Xi) = vec(R).

    gram: (p, p) Theta^T Theta of an (n, p) design matrix Theta; R: (p, l)
    Theta^T target; M: (l, l) symmetric coupling of the coefficient
    columns.  Theta itself is not read, so the caller need not hold it.
    After each fit, the entries with |coef| < threshold leave the support
    (entries exactly at the threshold stay) and the support is refit.  It
    stops when a fit drops no entry, or after the first fit and max_iters
    refits; in that second case the result is the last refit, which can
    hold entries under the threshold, as in Brunton et al.'s
    ``sparsifyDynamics``.  Each fit solves the system restricted to its
    support S, with E the eliminated entries:

    - |S| > |E| (every full-support refit among them): the bordered solve
      of ``_DecoupledSystem``, on the decoupled Cholesky factors computed
      once per fit; the full support is their direct solution, and a
      smaller one needs only the |E| x |E| Schur matrix;
    - |S| <= |E|: the support block by Cholesky;
    - either of those not numerically positive definite (a rank-deficient
      Gram much larger than ridge/eps): the support block by LU, with one
      warning per fit.

    The largest dense matrix factored by Cholesky is therefore
    max(p, min(|S|, |E|)) <= max(p, p*l/2), and the solver holds at most
    l p^2 doubles of factors (or their inverses, in place) besides Gram,
    the one support block or Schur matrix of a refit with its factor, and
    ``_BLOCK``-row temporaries.

    Columns whose support empties out are returned as all-zero with a
    warning (constant-zero dynamics).
    """
    check_number("threshold", threshold, "float", ">= 0")
    check_number("ridge", ridge, "float", "> 0")
    p, l = R.shape
    if n < p:
        warnings.warn(
            f"underdetermined sparse regression: {n} samples for {p} candidate functions",
            stacklevel=3,
        )
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
    threshold=0 degenerates to the dense ridge solution.  When max_iters
    runs out, the result is the last refit, and may keep entries under the
    threshold (see ``_stlsq``).  Columns whose support empties out are
    returned as all-zero with a warning (constant-zero dynamics).
    """
    theta = np.asarray(theta, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    return _stlsq(theta.T @ theta, theta.T @ targets, len(theta), np.eye(targets.shape[1]),
                  threshold, ridge, max_iters, init_support)


@dataclass(frozen=True)
class LatentPhaseData:
    """One block of a phase's training samples in latent coordinates.

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
    blocks,
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

    blocks: an iterable of LatentPhaseData, the phase's samples in any
    partition into blocks.  Minimizes

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

    Each block is read once, ``_BLOCK`` rows at a time: the library of
    those rows adds its Gram and right-hand side to one Gram and one R, so
    Theta is never held and the fit peaks at l p^2 doubles of factors
    plus Gram, one block and bounded temporaries: ``_BLOCK``-row library
    rows and the support block or Schur matrix of one refit.
    """
    W_d = params.W_dec
    l = W_d.shape[1]
    p = spec.term_count(l)
    gram, R, n = np.zeros((p, p)), np.zeros((p, l)), 0
    for data in blocks:
        if decoded_weight != 0.0 and data.ddq is None:
            raise ValidationError("decoded-acceleration residual enabled but ddq targets missing")
        for start in range(0, data.n_samples, _BLOCK):
            rows = slice(start, start + _BLOCK)
            theta = build_library(spec, data.xi[rows], data.dxi[rows],
                                  data.nu[rows] if spec.include_inputs else None)
            target = latent_weight * data.ddxi[rows]
            if decoded_weight != 0.0:
                target += decoded_weight * data.ddq[rows] @ W_d
            gram += theta.T @ theta
            R += theta.T @ target
        n += data.n_samples
    if n == 0:
        raise ValidationError(f"no data for phase {phase}")
    M = latent_weight * np.eye(l) + decoded_weight * W_d.T @ W_d
    coeffs = _stlsq(gram, R, n, M, threshold, ridge, max_iters, init_support)
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
