"""Candidate libraries, STLSQ, phase fitting, and symbolic printing."""

import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import jumprom.sindy as sindy
from jumprom.autoencoder import AutoencoderParams
from jumprom.errors import ValidationError
from jumprom.sindy import (
    FunctionLibrarySpec,
    LatentPhaseData,
    PhaseModel,
    SparseCoefficients,
    _block_inverses,
    _cholesky_solve,
    _DecoupledSystem,
    _factor_solve,
    _inverse_from_cholesky,
    _library_plan,
    _stlsq,
    _support_block,
    build_library,
    build_library_row,
    count_active,
    fit_phase_model,
    print_symbolic,
    stlsq,
)
from jumprom.trajectory_data import Phase

MINIMAL = FunctionLibrarySpec(
    poly_degree=1, include_sin_states=False, include_sin_velocities=False, include_inputs=False
)
DEFAULT = FunctionLibrarySpec()


def _coeffs(Xi, library, threshold=0.1):
    Xi = np.asarray(Xi, dtype=float)
    return SparseCoefficients(Xi=Xi, threshold=threshold, library=library)


def _reference_2d_models():
    """Hand-constructed 2-D contact/flight coefficient fixtures."""
    l = 2
    names = DEFAULT.term_names(l)

    def fill(rows):
        Xi = np.zeros((DEFAULT.term_count(l), l))
        for (name, j), value in rows.items():
            Xi[names.index(name), j] = value
        return Xi

    contact = fill({
        ("1", 0): 0.36, ("dxi_1", 0): -0.16, ("dxi_2", 0): -0.91,
        ("sin(dxi_1)", 0): -0.75, ("nu_1", 0): 0.11, ("nu_2", 0): -0.05,
        ("1", 1): -0.16, ("dxi_1", 1): -0.23, ("dxi_2", 1): -0.75,
        ("sin(dxi_2)", 1): -0.96, ("nu_2", 1): 0.14,
    })
    flight = fill({
        ("1", 0): 0.29, ("dxi_1", 0): -1.22, ("sin(dxi_1)", 0): -1.00, ("nu_1", 0): 51.05,
        ("dxi_1", 1): 0.42, ("sin(dxi_1)", 1): 0.52,
    })
    return _coeffs(contact, DEFAULT), _coeffs(flight, DEFAULT)


@st.composite
def _library_specs(draw):
    """Any valid library spec with degree 0..3."""
    degree = draw(st.integers(0, 3))
    flags = draw(st.fixed_dictionaries({
        name: st.booleans() for name in (
            "include_constant", "include_sin_states", "include_sin_velocities",
            "include_inputs")
    }))
    assume(degree >= 1 or any(flags.values()))
    return FunctionLibrarySpec(poly_degree=degree, **flags)


@st.composite
def _library_samples(draw):
    """Any valid library spec, l in 1..6, and a few finite sample rows."""
    spec = draw(_library_specs())
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    xi, dxi, nu = (draw(arrays(np.float64, shape, elements=finite)) for _ in range(3))
    return spec, xi, dxi, nu


def _reference_library(spec, xi, dxi, nu):
    """The library term by term, its monomials enumerated here from
    itertools: each is np.prod over its gathered factors in index order."""
    l = xi.shape[-1]
    stacked = np.concatenate([xi, dxi], axis=-1)
    cols = []
    if spec.include_constant:
        cols.append(np.ones(xi.shape[:-1] + (1,)))
    if spec.poly_degree >= 1:
        cols.append(stacked)
    for degree in range(2, spec.poly_degree + 1):
        combos = list(itertools.combinations_with_replacement(range(2 * l), degree))
        cols.append(np.prod(stacked[..., np.array(combos)], axis=-1))
    sines = []
    if spec.include_sin_states:
        sines.extend(range(l))
    if spec.include_sin_velocities:
        sines.extend(range(l, 2 * l))
    if sines:
        cols.append(np.sin(stacked[..., sines]))
    if spec.include_inputs:
        cols.append(nu)
    return np.concatenate(cols, axis=-1)


def _reference_names(spec, l, unicode_symbols):
    """Term names straight from itertools over the named variables, and the
    term count from binomial coefficients."""
    xi, dxi, nu, sep = ("ξ", "ξ̇", "ν", "·") if unicode_symbols else ("xi", "dxi", "nu", "*")
    variables = [f"{s}_{i}" for s in (xi, dxi) for i in range(1, l + 1)]
    names = ["1"] if spec.include_constant else []
    for degree in range(1, spec.poly_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, degree):
            powers = collections.Counter(combo)
            names.append(sep.join(v if n == 1 else f"{v}^{n}" for v, n in powers.items()))
    for enabled, form in ((spec.include_sin_states, f"sin({xi}_{{}})"),
                          (spec.include_sin_velocities, f"sin({dxi}_{{}})"),
                          (spec.include_inputs, f"{nu}_{{}}")):
        if enabled:
            names.extend(form.format(i) for i in range(1, l + 1))
    count = (spec.include_constant + (spec.include_sin_states + spec.include_sin_velocities
                                      + spec.include_inputs) * l
             + sum(math.comb(2 * l + d - 1, d) for d in range(1, spec.poly_degree + 1)))
    return names, count


_MAGNITUDES = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.sampled_from([0.0, -0.0])


@st.composite
def _library_inputs(draw, elements):
    """Any valid library spec with degree 0..3, l in 1..6, and one (l,) row
    or an (N, l) batch with N in 1..50 of ``elements``."""
    spec = draw(_library_specs())
    l = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(l,), (draw(st.integers(1, 50)), l)]))
    xi, dxi, nu = (draw(arrays(np.float64, shape, elements=elements)) for _ in range(3))
    return spec, xi, dxi, nu


class TestLibrary:
    @given(_library_inputs(_MAGNITUDES))
    def test_matches_term_by_term_reference(self, sample):
        spec, xi, dxi, nu = sample
        theta = build_library(spec, xi, dxi, nu)
        ref = _reference_library(spec, xi, dxi, nu)
        assert theta.shape == ref.shape == xi.shape[:-1] + (spec.term_count(xi.shape[-1]),)
        assert theta.tobytes() == ref.tobytes()

    @given(_library_inputs(_MAGNITUDES | st.sampled_from([np.nan, np.inf, -np.inf])))
    def test_matches_reference_on_non_finite_inputs(self, sample):
        spec, xi, dxi, nu = sample
        with np.errstate(all="ignore"):
            theta = build_library(spec, xi, dxi, nu)
            ref = _reference_library(spec, xi, dxi, nu)
        assert np.array_equal(theta, ref, equal_nan=True)

    def test_minimal_spec_row(self):
        row = build_library_row(MINIMAL, [2.0], [3.0])
        assert np.array_equal(row, [1.0, 2.0, 3.0])

    def test_zero_inputs_row(self):
        row = build_library_row(DEFAULT, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        names = DEFAULT.term_names(2)
        assert row[names.index("1")] == 1.0
        assert np.all(row[[i for i, n in enumerate(names) if n != "1"]] == 0.0)

    @given(_library_specs(), st.integers(1, 6), st.booleans())
    def test_names_and_count_match_reference(self, spec, l, unicode_symbols):
        names, count = _reference_names(spec, l, unicode_symbols)
        assert spec.term_names(l, unicode_symbols=unicode_symbols) == names
        assert spec.term_count(l) == count == len(names)

    @pytest.mark.parametrize("flag", ["include_constant", "include_sin_states",
                                      "include_sin_velocities", "include_inputs"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_flags_must_be_bools(self, flag, value):
        with pytest.raises(ValidationError, match=f"{flag} must be true or false"):
            FunctionLibrarySpec(**{flag: value})

    def test_term_count_matches_combinatorics(self):
        # independently enumerate: 1 + 2l + sum_d C(2l+d-1, d) + l + l + l
        for l in (1, 2, 3):
            for degree in (1, 2, 3):
                spec = FunctionLibrarySpec(poly_degree=degree)
                expected = 1 + 2 * l + 3 * l
                for d in range(2, degree + 1):
                    expected += math.comb(2 * l + d - 1, d)
                assert spec.term_count(l) == expected
                assert len(spec.term_names(l)) == spec.term_count(l)

    @given(_library_samples())
    def test_row_determinism_and_batch_consistency(self, sample):
        spec, xi, dxi, nu = sample
        n, l = xi.shape
        with np.errstate(over="ignore", invalid="ignore"):  # products of huge draws
            theta = build_library(spec, xi, dxi, nu)
            rows = [build_library_row(spec, xi[k], dxi[k], nu[k]) for k in range(n)]
            again = [build_library_row(spec, xi[k], dxi[k], nu[k]) for k in range(n)]
        assert theta.shape == (n, spec.term_count(l))
        for k in range(n):
            assert rows[k].tobytes() == theta[k].tobytes()
            assert rows[k].tobytes() == again[k].tobytes()

    @pytest.mark.parametrize("xi, dxi, nu, message", [
        ([0.0, 0.0], [0.0, 0.0], None, "no inputs were given"),
        ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0], "inputs must have shape"),
        ([0.0, 0.0], [0.0], [0.0, 0.0], "shapes differ"),
    ])
    def test_row_rejects_bad_inputs(self, xi, dxi, nu, message):
        with pytest.raises(ValidationError, match=message):
            build_library_row(DEFAULT, xi, dxi, nu)

    def test_needs_one_term_class(self):
        with pytest.raises(ValidationError):
            FunctionLibrarySpec(
                poly_degree=0, include_constant=False, include_sin_states=False,
                include_sin_velocities=False, include_inputs=False,
            )


class TestPredict:
    def test_zero_coefficients(self):
        Xi = np.zeros((DEFAULT.term_count(2), 2))
        assert np.array_equal(build_library(DEFAULT, [1.0, 2.0], [3.0, 4.0], [0.0, 0.0]) @ Xi,
                              [0.0, 0.0])

    def test_constant_slot(self):
        Xi = np.zeros((MINIMAL.term_count(1), 1))
        Xi[0, 0] = -9.81
        for xi in (-5.0, 0.0, 12.0):
            assert build_library(MINIMAL, [xi], [2 * xi]) @ Xi == pytest.approx([-9.81])

    def test_contact_row_at_rest(self):
        contact, _ = _reference_2d_models()
        accel = build_library(DEFAULT, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]) @ contact.Xi
        assert accel[0] == pytest.approx(0.36)

    def test_linear_in_coefficients(self):
        contact, _ = _reference_2d_models()
        rng = np.random.default_rng(1)
        xi, dxi, nu = rng.normal(size=(3, 2))
        row = build_library(DEFAULT, xi, dxi, nu)
        assert np.allclose(row @ (3.0 * contact.Xi), 3.0 * (row @ contact.Xi))


class TestCountActive:
    def test_zero_matrix(self):
        assert count_active(_coeffs(np.zeros((5, 2)), DEFAULT)) == 0

    def test_contact_model_has_11_terms(self):
        contact, _ = _reference_2d_models()
        assert count_active(contact) == 11

    def test_flight_model_has_6_terms(self):
        _, flight = _reference_2d_models()
        assert count_active(flight) == 6


def _oscillator_samples(n=200):
    """Noiseless samples of accel = -4 x over the library (1, x, xdot)."""
    t = np.linspace(0.0, 4.0, n)
    x = np.cos(2 * t)
    xdot = -2 * np.sin(2 * t)
    theta = build_library(MINIMAL, x[:, None], xdot[:, None])
    target = -4.0 * x
    return theta, target[:, None]


class TestStlsq:
    def test_recovers_oscillator(self):
        theta, target = _oscillator_samples()
        coeffs = stlsq(theta, target, threshold=0.1, ridge=1e-12)
        assert np.allclose(coeffs.Xi[:, 0], [0.0, -4.0, 0.0], atol=1e-8)
        assert np.array_equal(coeffs.active_mask[:, 0], [False, True, False])

    def test_zero_threshold_matches_dense_ridge(self):
        theta, target = _oscillator_samples()
        ridge = 1e-6
        coeffs = stlsq(theta, target, threshold=0.0, ridge=ridge)
        gram = theta.T @ theta + ridge * np.eye(3)
        dense = np.linalg.solve(gram, theta.T @ target[:, 0])
        assert np.allclose(coeffs.Xi[:, 0], dense, atol=1e-12)
        assert np.array_equal(coeffs.active_mask[:, 0], dense != 0.0)

    def test_threshold_above_all_coefficients(self):
        theta, target = _oscillator_samples()
        with pytest.warns(UserWarning, match="constant-zero"):
            coeffs = stlsq(theta, target, threshold=100.0)
        assert np.all(coeffs.Xi == 0.0)

    def test_support_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(size=(300, 8))
        target = theta @ rng.normal(size=8) + 0.01 * rng.normal(size=300)
        low = stlsq(theta, target[:, None], threshold=0.05, max_iters=1)
        high = stlsq(theta, target[:, None], threshold=0.5, max_iters=1)
        assert np.all(high.active_mask <= low.active_mask)

    def test_fixed_point_on_own_support(self):
        theta, target = _oscillator_samples()
        first = stlsq(theta, target, threshold=0.1, ridge=1e-10)
        again = stlsq(theta, target, threshold=0.1, ridge=1e-10,
                      init_support=first.active_mask)
        assert np.array_equal(first.Xi, again.Xi)

    def test_underdetermined_warns(self):
        rng = np.random.default_rng(5)
        params = _orthonormal_autoencoder()
        xi, dxi, nu, ddxi = rng.normal(size=(4, 3, 2))
        data = LatentPhaseData(xi=xi, dxi=dxi, nu=nu, ddxi=ddxi, ddq=ddxi @ params.W_dec.T)

        def count_warnings(fit):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit()
            return sum("underdetermined" in str(w.message) for w in caught)

        assert count_warnings(lambda: stlsq(rng.normal(size=(4, 8)), rng.normal(size=(4, 1)),
                                            threshold=0.0)) == 1
        for weight in (0.0, 1.0):
            assert count_warnings(lambda: fit_phase_model(
                params, DEFAULT, [data], 0.0, decoded_weight=weight)) == 1


def _normal_equations(theta, target):
    """The (gram, R, n) that ``_stlsq`` reads in place of the design matrix."""
    return theta.T @ theta, theta.T @ target, len(theta)


def _kron_stlsq(theta, target, M, threshold, ridge, max_iters, init_support):
    """Reference STLSQ on the explicit Kronecker system: form kron(M, Gram)
    whole and slice the support out of it on every refit.  As in
    ``_stlsq``, a run that exhausts max_iters returns its last refit."""
    p, l = theta.shape[1], target.shape[1]
    H = np.kron(M, theta.T @ theta)
    rhs = (theta.T @ target).flatten(order="F")
    support = (np.ones(p * l, dtype=bool) if init_support is None
               else init_support.flatten(order="F"))
    w = np.zeros(p * l)

    def refit():
        idx = np.flatnonzero(support)
        G = H[np.ix_(idx, idx)]
        w[idx] = np.linalg.solve(G + ridge * np.eye(idx.size), rhs[idx])

    if support.any():
        refit()
        for _ in range(max_iters):
            small = support & (np.abs(w) < threshold)
            if not small.any():
                break
            support &= ~small
            w[:] = 0.0
            if not support.any():
                break
            refit()
    return w.reshape(p, l, order="F")


@st.composite
def _kron_systems(draw):
    """A design matrix with some all-zero columns, targets, a coupling M
    (decoded weight 0 or random), a threshold, a ridge and maybe a support."""
    n, p, l = draw(st.integers(1, 30)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    theta[:, draw(arrays(bool, p))] = 0.0
    target = rng.normal(size=(n, l))
    W = rng.normal(size=(draw(st.integers(1, 5)), l))
    dw = draw(st.just(0.0) | st.floats(0.01, 3.0))
    M = draw(st.floats(0.1, 3.0)) * np.eye(l) + dw * W.T @ W
    threshold = draw(st.just(0.0) | st.floats(0.01, 2.0))
    ridge = draw(st.just(1e-9) | st.floats(1e-12, 1.0))
    init_support = draw(st.none() | arrays(bool, (p, l)))
    return theta, target, M, threshold, ridge, draw(st.integers(0, 20)), init_support


def _kron_cond(theta, M, ridge):
    """Condition number of the whole system kron(M, Gram) + ridge*I."""
    n = theta.shape[1] * M.shape[0]
    return np.linalg.cond(np.kron(M, theta.T @ theta) + ridge * np.eye(n))


class TestStlsqCore:
    @given(_kron_systems())
    def test_matches_explicit_kronecker(self, system):
        theta, target, M, threshold, ridge, max_iters, init_support = system
        gram = theta.T @ theta
        idx = np.flatnonzero(np.ones(gram.shape[0] * M.shape[0], dtype=bool)
                             if init_support is None else init_support.flatten(order="F"))
        assert np.array_equal(_support_block(M, gram, idx, ridge),
                              np.kron(M, gram)[np.ix_(idx, idx)] + ridge * np.eye(idx.size))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = _kron_stlsq(theta, target, M, threshold, ridge, max_iters, init_support)
            coeffs = _stlsq(gram, theta.T @ target, len(theta), M, threshold, ridge, max_iters,
                            init_support)
        assert np.array_equal(coeffs.active_mask, expected != 0.0)
        # Cholesky and LU round differently, and two backward-stable solves
        # differ by up to about cond * eps (worst seen: 0.9 * cond * eps)
        cond = _kron_cond(theta, M, ridge)
        tol = 1e-9 if cond <= 1e7 else 1e-15 * cond
        assert np.max(np.abs(coeffs.Xi - expected)) <= tol * np.max(np.abs(expected))

    @given(_kron_systems())
    def test_full_support_solve_matches_dense(self, system):
        theta, target, M, _, ridge, _, _ = system
        H = np.kron(M, theta.T @ theta) + ridge * np.eye(theta.shape[1] * M.shape[0])
        dense = np.linalg.solve(H, (theta.T @ target).flatten(order="F"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coeffs = _stlsq(*_normal_equations(theta, target), M, 0.0, ridge, max_iters=0)
        Xi = coeffs.Xi.flatten(order="F")
        tol = max(1e-10, 1e-15 * _kron_cond(theta, M, ridge))
        assert np.max(np.abs(Xi - dense)) <= tol * np.max(np.abs(dense))

    def test_not_positive_definite_falls_back_to_lu(self):
        # a duplicated column scaled far above ridge/eps: Gram + ridge*I is
        # singular to working precision, so every Cholesky refit fails
        rng = np.random.default_rng(2)
        theta = rng.normal(size=(5, 12))
        theta[:, 11] = theta[:, 0]
        theta *= 1e4
        target = 1e4 * rng.normal(size=(5, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeffs = stlsq(theta, target, threshold=0.1, ridge=1e-9)
        messages = [str(w.message) for w in caught if "positive definite" in str(w.message)]
        assert messages == ["support system of size 12 with ridge 1e-09 is not "
                            "numerically positive definite; solved by LU"]
        assert coeffs.active_mask.sum() < 12  # more than one refit ran
        expected = _kron_stlsq(theta, target, np.eye(1), 0.1, 1e-9, 20, None)
        assert np.array_equal(coeffs.Xi, expected)


@st.composite
def _sparse_systems(draw):
    """A larger well-sampled system whose true coefficients span four
    decades, so a threshold inside that range eliminates over several
    refits, with a coupling M, a ridge and maybe a starting support."""
    p, l = draw(st.integers(10, 40)), draw(st.integers(1, 6))
    n = draw(st.integers(p, 3 * p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.normal(size=(n, p)) * rng.uniform(0.3, 3.0, size=p)
    Xi = rng.choice([-1.0, 1.0], size=(p, l)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(p, l))
    target = theta @ Xi + 0.01 * rng.normal(size=(n, l))
    W = rng.normal(size=(draw(st.integers(1, 8)), l))
    M = draw(st.floats(0.1, 3.0)) * np.eye(l) + draw(st.floats(0.0, 3.0)) * W.T @ W
    threshold = draw(st.floats(0.01, 1.0))
    ridge = draw(st.sampled_from([1e-9]) | st.floats(1e-12, 1e-3))
    init_support = draw(st.none() | arrays(bool, (p, l)))
    return theta, target, M, threshold, ridge, 20, init_support


def _recording(monkeypatch, name, sizes):
    """Record the size of the matrix each call of sindy.<name> receives."""
    import jumprom.sindy as sindy

    original = getattr(sindy, name)

    def recorded(*args):
        out = original(*args)
        sizes.append(args[0].shape[0] if name == "_cholesky_solve" else args[2].size)
        return out

    monkeypatch.setattr(sindy, name, recorded)


class TestBorderedRefits:
    @given(_sparse_systems())
    def test_matches_explicit_kronecker_at_scale(self, system):
        theta, target, M, threshold, ridge, max_iters, init_support = system
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = _kron_stlsq(theta, target, M, threshold, ridge, max_iters, init_support)
            coeffs = _stlsq(*_normal_equations(theta, target), M, threshold, ridge, max_iters,
                            init_support)
        assert np.array_equal(coeffs.active_mask, expected != 0.0)
        cond = _kron_cond(theta, M, ridge)
        tol = 1e-9 if cond <= 1e7 else 1e-15 * cond
        assert np.max(np.abs(coeffs.Xi - expected)) <= tol * np.max(np.abs(expected))

    def test_no_dense_matrix_above_half_the_unknowns(self, monkeypatch):
        # a mostly dense law: every refit keeps more than half the entries,
        # so each is a bordered solve whose Schur system is the eliminated set
        rng = np.random.default_rng(0)
        n, p, l = 300, 30, 4
        theta = rng.normal(size=(n, p))
        Xi = rng.choice([-1.0, 1.0], size=(p, l)) * 10.0 ** rng.uniform(-2.0, 1.0, size=(p, l))
        target = theta @ Xi + 0.01 * rng.normal(size=(n, l))
        W = rng.normal(size=(6, l))
        M = np.eye(l) + W.T @ W
        blocks, factored = [], []
        _recording(monkeypatch, "_support_block", blocks)
        _recording(monkeypatch, "_cholesky_solve", factored)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = _stlsq(*_normal_equations(theta, target), M, 0.1, 1e-9, 20)
        assert count_active(coeffs) > p * l / 2
        assert len(factored) >= 2  # eliminated over several refits
        assert blocks == []
        assert max(factored) <= p * l / 2
        expected = _kron_stlsq(theta, target, M, 0.1, 1e-9, 20, None)
        assert np.array_equal(coeffs.active_mask, expected != 0.0)

    def test_schur_failure_falls_back_to_lu(self, monkeypatch):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(60, 12))
        target = theta @ (10.0 ** rng.uniform(-2.0, 1.0, size=(12, 2))) + rng.normal(size=(60, 2))

        def not_positive_definite(a, b):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr("jumprom.sindy._cholesky_solve", not_positive_definite)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeffs = _stlsq(*_normal_equations(theta, target), np.eye(2), 0.1, 1e-9, 20)
        messages = [str(w.message) for w in caught if "positive definite" in str(w.message)]
        assert len(messages) == 1
        assert 12 < count_active(coeffs) < 24  # the last refit was bordered
        expected = _kron_stlsq(theta, target, np.eye(2), 0.1, 1e-9, 20, None)
        assert np.array_equal(coeffs.Xi, expected)


def _bits(a):
    """The raw bits of a float array, so equality is bit for bit."""
    return np.asarray(a).view(np.uint64)


def _unblocked_library(spec, xi, dxi, nu):
    """The library in one block: one concatenate of the base columns, one
    take of the first factors and one in-place multiply per later factor."""
    base = [np.ones(xi.shape[:-1] + (1,)), xi, dxi]
    if spec.include_sin_states:
        base.append(np.sin(xi))
    if spec.include_sin_velocities:
        base.append(np.sin(dxi))
    if spec.include_inputs:
        base.append(nu)
    base = np.concatenate(base, axis=-1)
    first, *later = _library_plan(spec, xi.shape[-1])
    out = base.take(first, axis=-1)
    for factor in later:
        out *= base.take(factor, axis=-1)
    return out


def _unblocked_solve(system, support):
    """``_DecoupledSystem.solve`` with the whole Schur matrix gathered at once,
    on the inverses ``system`` already holds."""
    elim = np.flatnonzero(~support)
    p = system.inverses[0].shape[0]
    rows, W = elim % p, system.V[elim // p]
    schur = np.zeros((elim.size, elim.size))
    for w, inv in zip(W.T, system.inverses):
        entries = inv[np.ix_(rows, rows)]
        entries *= w[:, None]
        entries *= w
        schur += entries
    mu = sindy._cholesky_solve(schur, system.x0[elim])
    Z = np.stack([inv @ np.bincount(rows, w * mu, minlength=p)
                  for w, inv in zip(W.T, system.inverses)])
    x = system.x0 - (system.V @ Z).ravel()
    x[elim] = 0.0
    return x


_SMALL_BLOCK = 8  # the block size the blocked-kernel tests patch in


@st.composite
def _spd_matrices(draw):
    """A symmetric positive definite matrix of up to six small blocks whose
    eigenvalues span up to ten decades, block diagonal (with the cut
    anywhere) or not, with the cut and its condition number."""
    n = draw(st.integers(1, 5 * _SMALL_BLOCK + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * 10.0 ** rng.uniform(-draw(st.floats(0.0, 10.0)), 0.0, size=n)) @ q.T
    a = (a + a.T) / 2
    cut = draw(st.none() | st.integers(0, n))
    if cut is not None:
        a[:cut, cut:] = 0.0
        a[cut:, :cut] = 0.0
    cond = np.linalg.cond(a)
    assume(cond < 1e11)  # numerically positive definite
    return a, cut, cond


def _close(x, ref, cond):
    """Within the forward error of a backward-stable solve of size n; the
    worst seen over 6000 random systems was 1.7 n cond eps."""
    tol = 4 * ref.shape[0] * cond * np.finfo(float).eps
    return np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))


class TestBlockedKernels:
    """Each kernel that works in blocks of ``sindy._BLOCK`` rows, with the
    block made small so that every case spans several."""

    @pytest.fixture(autouse=True)
    def _small_block(self, monkeypatch):
        monkeypatch.setattr(sindy, "_BLOCK", _SMALL_BLOCK)

    @pytest.mark.parametrize("n", [0, 1, _SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                                   5 * _SMALL_BLOCK + 3])
    @given(spec=_library_specs(), l=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_library_matches_one_block(self, n, spec, l, seed):
        rng = np.random.default_rng(seed)
        xi, dxi, nu = rng.normal(scale=10.0, size=(3, n, l))
        special = rng.random(xi.shape) < 0.05
        xi[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=special.sum())
        with np.errstate(all="ignore"):
            theta = build_library(spec, xi, dxi, nu)
            ref = _unblocked_library(spec, xi, dxi, nu)
            rows = [build_library_row(spec, xi[k], dxi[k], nu[k]) for k in range(n)]
        assert theta.shape == ref.shape == (n, spec.term_count(l))
        assert np.array_equal(_bits(theta), _bits(ref))
        for k, row in enumerate(rows):
            assert np.array_equal(_bits(row), _bits(ref[k]))

    @given(system=_spd_matrices())
    def test_block_inverses_invert_the_diagonal_blocks(self, system):
        a, _, _ = system
        L = np.linalg.cholesky(a)
        inverses = _block_inverses(L)
        b, n = inverses.shape[-1], len(a)
        assert b == min(_SMALL_BLOCK, 1 << (n - 1).bit_length())
        assert inverses.shape == (-(-n // b), b, b)
        for k, inverse in enumerate(inverses):
            block = np.eye(b)  # the last block is padded with the identity
            part = L[k * b:(k + 1) * b, k * b:(k + 1) * b]
            block[:len(part), :len(part)] = part
            assert not np.triu(inverse, 1).any()
            assert np.allclose(inverse @ block, np.eye(b), rtol=0.0,
                               atol=4 * b * np.linalg.cond(block) * np.finfo(float).eps)

    @given(system=_spd_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_solve_matches_dense_solve(self, system, seed):
        a, cut, cond = system
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=len(a))
        if cut is not None:  # no load on the second block: exact zeros there
            rhs[cut:] = 0.0
        original = a.copy()
        x = _cholesky_solve(a, rhs)
        assert np.array_equal(a, original)
        assert _close(x, np.linalg.solve(a, rhs), cond)
        if cut is not None:
            assert not x[cut:].any()

    @given(system=_spd_matrices(), l=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_stacked_solve_matches_dense_solves(self, system, l, seed):
        a, _, cond = system
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 2.0, size=l)
        rhs = rng.normal(size=(l, len(a)))
        factors = np.linalg.cholesky(scales[:, None, None] * a)
        x = _factor_solve(factors, rhs.copy())
        for j in range(l):
            assert _close(x[j], np.linalg.solve(scales[j] * a, rhs[j]), cond)

    @given(system=_spd_matrices())
    def test_inverse_matches_dense_inverse(self, system):
        a, cut, cond = system
        factor = np.linalg.cholesky(a)
        out = _inverse_from_cholesky(factor)
        assert np.shares_memory(out, factor)
        assert np.array_equal(_bits(out), _bits(out.T))
        assert _close(out, np.linalg.inv(a), cond)
        if cut is not None:
            assert not out[:cut, cut:].any()

    @given(n=st.integers(2, 5 * _SMALL_BLOCK + 3), seed=st.integers(0, 2**32 - 1))
    def test_not_positive_definite_raises(self, n, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = rng.uniform(1.0, 2.0, size=n)
        eigenvalues[rng.integers(n)] = -rng.uniform(1e-3, 1.0)
        a = (q * eigenvalues) @ q.T
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solve((a + a.T) / 2, np.ones(n))

    @pytest.mark.parametrize("n_elim", [1, _SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                                        5 * _SMALL_BLOCK + 3])
    def test_schur_gather_matches_one_block(self, n_elim):
        rng = np.random.default_rng(n_elim)
        p, l = 20, 3
        theta = rng.normal(size=(60, p))
        W = rng.normal(size=(5, l))
        M = np.eye(l) + W.T @ W
        gram = theta.T @ theta
        support = np.ones(p * l, dtype=bool)
        support[rng.choice(p * l, n_elim, replace=False)] = False
        system = _DecoupledSystem(M, gram, theta.T @ rng.normal(size=(60, l)), 1e-9)
        x = system.solve(support)
        assert np.array_equal(_bits(x), _bits(_unblocked_solve(system, support)))
        assert not x[~support].any()

    @given(l=st.integers(1, 2),
           sizes=st.lists(st.sampled_from([0, 1, _SMALL_BLOCK - 1, _SMALL_BLOCK + 1])
                          | st.integers(0, 4 * _SMALL_BLOCK), max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_is_the_same_in_any_blocks(self, l, sizes, seed):
        # a phase's rows cut into blocks (one per jump, say) accumulate the
        # normal equations of the rows in one block up to rounding
        rng = np.random.default_rng(seed)
        p = DEFAULT.term_count(l)
        n = max(sum(sizes), 4 * p)
        cuts = np.cumsum([0] + sizes)
        xi, dxi, nu = rng.normal(size=(3, n, l))
        Xi = rng.choice([-1.0, 1.0], size=(p, l)) * rng.uniform(0.5, 2.0, size=(p, l))
        Xi[1:][rng.random((p - 1, l)) < 0.6] = 0.0  # true zeros, far below the threshold
        ddxi = build_library(DEFAULT, xi, dxi, nu) @ Xi + 1e-3 * rng.normal(size=(n, l))
        W_dec = rng.normal(size=(l + 3, l))
        params = AutoencoderParams(W_enc=np.linalg.pinv(W_dec), b_enc=np.zeros(l), W_dec=W_dec,
                                   b_dec=np.zeros(l + 3))
        data = LatentPhaseData(xi=xi, dxi=dxi, nu=nu, ddxi=ddxi, ddq=ddxi @ W_dec.T)
        bounds = list(zip(cuts[:-1], cuts[1:])) + [(cuts[-1], n)]
        blocks = [LatentPhaseData(**{f: getattr(data, f)[start:stop] for f in
                                     ("xi", "dxi", "nu", "ddxi", "ddq")})
                  for start, stop in bounds]
        whole = fit_phase_model(params, DEFAULT, [data], threshold=0.1).coefficients
        parts = fit_phase_model(params, DEFAULT, blocks, threshold=0.1).coefficients
        assert np.array_equal(parts.active_mask, whole.active_mask)
        theta = build_library(DEFAULT, xi, dxi, nu)
        M = np.eye(l) + W_dec.T @ W_dec
        assert _close(parts.Xi, whole.Xi, np.linalg.cond(M) * np.linalg.cond(theta.T @ theta))


class TestBoundedMemory:
    def test_fit_peak_is_the_factors_plus_bounded_blocks(self, monkeypatch):
        # N p = 2 l p^2: a design matrix held whole would be twice the l
        # factors, and a tenth of the law is below the threshold, so the
        # second refit is bordered and turns the factors into inverses
        l, spec = 10, DEFAULT
        p = spec.term_count(l)
        n = 2 * l * p
        rng = np.random.default_rng(0)
        xi, dxi, nu = rng.normal(size=(3, n, l))
        Xi = rng.choice([-1.0, 1.0], size=(p, l)) * rng.uniform(1.0, 3.0, size=(p, l))
        Xi[rng.random((p, l)) < 0.1] = 1e-3
        ddxi = build_library(spec, xi, dxi, nu) @ Xi
        W_dec, _ = np.linalg.qr(rng.normal(size=(l + 4, l)))
        params = AutoencoderParams(W_enc=W_dec.T.copy(), b_enc=np.zeros(l), W_dec=W_dec,
                                   b_dec=np.zeros(l + 4))
        data = LatentPhaseData(xi=xi, dxi=dxi, nu=nu, ddxi=ddxi, ddq=ddxi @ W_dec.T)
        fit_phase_model(params, spec, [data], threshold=0.1)  # imports and caches
        converted = []
        original = sindy._inverse_from_cholesky
        monkeypatch.setattr(sindy, "_inverse_from_cholesky",
                            lambda c: converted.append(c.shape) or original(c))
        tracemalloc.start()
        try:
            model = fit_phase_model(params, spec, [data], threshold=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converted == [(p, p)] * l
        assert np.array_equal(model.coefficients.active_mask, np.abs(Xi) > 0.1)
        # besides the l factors: Gram, the shifted Gram and the arrays of
        # np.linalg.cholesky while the factors are formed, then one Schur
        # matrix of about p rows, its gather and _BLOCK-row temporaries;
        # no term grows with N
        assert peak < 8 * (l + 6) * p * p


def _orthonormal_autoencoder(d=10, l=2, seed=6):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, l)))
    return AutoencoderParams(
        W_enc=basis.T.copy(), b_enc=np.zeros(l), W_dec=basis.copy(), b_dec=np.zeros(d)
    )


def _phase_samples(params, n=400, seed=7):
    """Samples of 2-D dynamics accel = -3 xi - 0.5 dxi + nu, lifted for ddq."""
    rng = np.random.default_rng(seed)
    xi = 2.0 * rng.normal(size=(n, 2))
    dxi = 2.0 * rng.normal(size=(n, 2))
    nu = rng.normal(size=(n, 2))
    ddxi = -3.0 * xi - 0.5 * dxi + nu
    ddq = ddxi @ params.W_dec.T
    return LatentPhaseData(xi=xi, dxi=dxi, nu=nu, ddxi=ddxi, ddq=ddq)


class TestFitPhaseModel:
    def test_redundant_decoded_term_matches_plain_stlsq(self):
        # orthonormal decoder + consistent ddq targets: the decoded residual
        # duplicates the latent one, so the joint fit equals plain STLSQ.
        params = _orthonormal_autoencoder()
        data = _phase_samples(params)
        joint = fit_phase_model(params, DEFAULT, [data], threshold=0.1, ridge=1e-12)
        theta = build_library(DEFAULT, data.xi, data.dxi, data.nu)
        plain = stlsq(theta, data.ddxi, threshold=0.1, ridge=1e-12)
        assert np.allclose(joint.coefficients.Xi, plain.Xi, atol=1e-8)

    def test_exact_pattern_recovery(self):
        params = _orthonormal_autoencoder()
        data = _phase_samples(params)
        model = fit_phase_model(params, DEFAULT, [data], threshold=0.1, ridge=1e-10,
                                phase=Phase.CONTACT)
        names = DEFAULT.term_names(2)
        expected = np.zeros((DEFAULT.term_count(2), 2), dtype=bool)
        for j in range(2):
            expected[names.index(f"xi_{j + 1}"), j] = True
            expected[names.index(f"dxi_{j + 1}"), j] = True
            expected[names.index(f"nu_{j + 1}"), j] = True
        assert np.array_equal(model.coefficients.active_mask, expected)
        theta = build_library(DEFAULT, data.xi, data.dxi, data.nu)
        residual = data.ddxi - theta @ model.coefficients.Xi
        assert np.mean(residual**2) < 1e-10

    def test_full_support_block_never_built(self, monkeypatch):
        params = _orthonormal_autoencoder()
        data = _phase_samples(params)
        sizes = []

        def recording_block(M, gram, idx, ridge):
            sizes.append(idx.size)
            return _support_block(M, gram, idx, ridge)

        monkeypatch.setattr("jumprom.sindy._support_block", recording_block)
        fit_phase_model(params, DEFAULT, [data], threshold=0.1, ridge=1e-10)
        full = DEFAULT.term_count(2) * 2
        assert sizes and max(sizes) < full

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_negative_threshold_rejected(self, weight):
        params = _orthonormal_autoencoder()
        with pytest.raises(ValidationError, match="threshold must be >= 0"):
            fit_phase_model(params, DEFAULT, [_phase_samples(params, n=50)], threshold=-0.5,
                            decoded_weight=weight)

    @pytest.mark.parametrize("ridge", [0.0, -1e-9, float("nan")])
    def test_ridge_must_be_positive(self, ridge):
        params = _orthonormal_autoencoder()
        with pytest.raises(ValidationError, match="ridge must be > 0"):
            fit_phase_model(params, DEFAULT, [_phase_samples(params, n=50)], ridge=ridge)
        theta, target = _oscillator_samples()
        with pytest.raises(ValidationError, match="ridge must be > 0"):
            stlsq(theta, target, ridge=ridge)

    def test_empty_phase_errors(self):
        params = _orthonormal_autoencoder()
        empty = LatentPhaseData(
            xi=np.zeros((0, 2)), dxi=np.zeros((0, 2)), nu=np.zeros((0, 2)),
            ddxi=np.zeros((0, 2)), ddq=np.zeros((0, 10)),
        )
        for blocks in ([], [empty], [empty, empty]):
            with pytest.raises(ValidationError, match="no data for phase flight"):
                fit_phase_model(params, DEFAULT, blocks, phase=Phase.FLIGHT)


class TestPrintSymbolic:
    def test_single_constant(self):
        Xi = np.zeros((DEFAULT.term_count(1), 1))
        Xi[0, 0] = 0.36
        lines = print_symbolic(PhaseModel(Phase.CONTACT, _coeffs(Xi, DEFAULT)))
        assert lines == ["ξ̈_1 = 0.36"]

    def test_flight_golden_line(self):
        _, flight = _reference_2d_models()
        lines = print_symbolic(PhaseModel(Phase.FLIGHT, flight), precision=2)
        expected = (
            "ξ̈_2 = 0.42·ξ̇_1"
            " + 0.52·sin(ξ̇_1)"
        )
        assert lines[1] == expected

    def test_zero_column(self):
        Xi = np.zeros((DEFAULT.term_count(2), 2))
        Xi[0, 0] = 1.5
        lines = print_symbolic(PhaseModel(Phase.FLIGHT, _coeffs(Xi, DEFAULT)))
        assert lines[1] == "ξ̈_2 = 0"

    def test_negative_coefficients(self):
        contact, _ = _reference_2d_models()
        lines = print_symbolic(PhaseModel(Phase.CONTACT, contact), precision=2)
        assert lines[0] == (
            "ξ̈_1 = 0.36 - 0.16·ξ̇_1 - 0.91·ξ̇_2"
            " - 0.75·sin(ξ̇_1) + 0.11·ν_1 - 0.05·ν_2"
        )
