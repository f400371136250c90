"""Candidate libraries, STLSQ, phase fitting, and symbolic printing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jumprom.autoencoder import AutoencoderParams
from jumprom.errors import ValidationError
from jumprom.sindy import (
    FunctionLibrarySpec,
    LatentPhaseData,
    PhaseModel,
    SparseCoefficients,
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
def _library_samples(draw):
    """Any valid library spec, l in 1..6, and a few finite sample rows."""
    degree = draw(st.integers(0, 3))
    flags = draw(st.fixed_dictionaries({
        name: st.booleans() for name in (
            "include_constant", "include_sin_states", "include_sin_velocities",
            "include_inputs")
    }))
    assume(degree >= 1 or any(flags.values()))
    spec = FunctionLibrarySpec(poly_degree=degree, **flags)
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    xi, dxi, nu = (draw(arrays(np.float64, shape, elements=finite)) for _ in range(3))
    return spec, xi, dxi, nu


class TestLibrary:
    def test_minimal_spec_row(self):
        row = build_library_row(MINIMAL, [2.0], [3.0])
        assert np.array_equal(row, [1.0, 2.0, 3.0])

    def test_zero_inputs_row(self):
        row = build_library_row(DEFAULT, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        names = DEFAULT.term_names(2)
        assert row[names.index("1")] == 1.0
        assert np.all(row[[i for i, n in enumerate(names) if n != "1"]] == 0.0)

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
                params, DEFAULT, data, 0.0, decoded_weight=weight)) == 1


def _kron_stlsq(theta, target, M, threshold, ridge, max_iters, init_support):
    """Reference STLSQ on the explicit Kronecker system: form kron(M, Gram)
    whole and slice the support out of it on every refit."""
    p, l = theta.shape[1], target.shape[1]
    H = np.kron(M, theta.T @ theta)
    rhs = (theta.T @ target).flatten(order="F")
    support = (np.ones(p * l, dtype=bool) if init_support is None
               else init_support.flatten(order="F"))
    w = np.zeros(p * l)

    def refit():
        idx = np.flatnonzero(support)
        G = H[np.ix_(idx, idx)]
        if ridge > 0:
            w[idx] = np.linalg.solve(G + ridge * np.eye(idx.size), rhs[idx])
        else:
            w[idx] = np.linalg.lstsq(G, rhs[idx], rcond=None)[0]

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
    ridge = draw(st.sampled_from([0.0, 1e-9]) | st.floats(1e-12, 1.0))
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
            coeffs = _stlsq(theta, target, M, threshold, ridge, max_iters, init_support)
        assert np.array_equal(coeffs.active_mask, expected != 0.0)
        if ridge <= 0:  # least squares on the same block as the reference
            assert np.array_equal(coeffs.Xi, expected)
            return
        # Cholesky and LU round differently, and two backward-stable solves
        # differ by up to about cond * eps (worst seen: 0.9 * cond * eps)
        cond = _kron_cond(theta, M, ridge)
        tol = 1e-9 if cond <= 1e7 else 1e-15 * cond
        assert np.max(np.abs(coeffs.Xi - expected)) <= tol * np.max(np.abs(expected))

    @given(_kron_systems())
    def test_full_support_solve_matches_dense(self, system):
        theta, target, M, _, ridge, _, _ = system
        if ridge <= 0:
            return
        H = np.kron(M, theta.T @ theta) + ridge * np.eye(theta.shape[1] * M.shape[0])
        dense = np.linalg.solve(H, (theta.T @ target).flatten(order="F"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coeffs = _stlsq(theta, target, M, 0.0, ridge, max_iters=0)
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
            coeffs = _stlsq(theta, target, M, threshold, ridge, max_iters, init_support)
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
            coeffs = _stlsq(theta, target, M, 0.1, 1e-9, 20)
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
            coeffs = _stlsq(theta, target, np.eye(2), 0.1, 1e-9, 20)
        messages = [str(w.message) for w in caught if "positive definite" in str(w.message)]
        assert len(messages) == 1
        assert 12 < count_active(coeffs) < 24  # the last refit was bordered
        expected = _kron_stlsq(theta, target, np.eye(2), 0.1, 1e-9, 20, None)
        assert np.array_equal(coeffs.Xi, expected)


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
        joint = fit_phase_model(params, DEFAULT, data, threshold=0.1, ridge=1e-12)
        theta = build_library(DEFAULT, data.xi, data.dxi, data.nu)
        plain = stlsq(theta, data.ddxi, threshold=0.1, ridge=1e-12)
        assert np.allclose(joint.coefficients.Xi, plain.Xi, atol=1e-8)

    def test_exact_pattern_recovery(self):
        params = _orthonormal_autoencoder()
        data = _phase_samples(params)
        model = fit_phase_model(params, DEFAULT, data, threshold=0.1, ridge=1e-10,
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
        fit_phase_model(params, DEFAULT, data, threshold=0.1, ridge=1e-10)
        full = DEFAULT.term_count(2) * 2
        assert sizes and max(sizes) < full

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_negative_threshold_rejected(self, weight):
        params = _orthonormal_autoencoder()
        with pytest.raises(ValidationError, match="threshold must be >= 0"):
            fit_phase_model(params, DEFAULT, _phase_samples(params, n=50), threshold=-0.5,
                            decoded_weight=weight)

    def test_empty_phase_errors(self):
        params = _orthonormal_autoencoder()
        empty = LatentPhaseData(
            xi=np.zeros((0, 2)), dxi=np.zeros((0, 2)), nu=np.zeros((0, 2)),
            ddxi=np.zeros((0, 2)), ddq=np.zeros((0, 10)),
        )
        with pytest.raises(ValidationError, match="no data for phase"):
            fit_phase_model(params, DEFAULT, empty, phase=Phase.FLIGHT)


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
