"""The in-house RK45 interval stepper against scipy's solve_ivp, bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp

from jumprom import _integrators
from jumprom.errors import DivergenceError

from helpers import integrate_alone

# interval lengths: the 500 Hz sample spacing, a longer one, a backward
# one and an empty one
INTERVALS = st.sampled_from([0.002, 0.01, -0.002, 0.0])
STARTS = st.integers(0, 1000).map(lambda k: k * 0.002)


def _reference(f, t0, y0, h):
    return solve_ivp(f, (t0, t0 + h), y0, method="RK45",
                     rtol=_integrators.RTOL, atol=_integrators.ATOL)


def _stacked(fs):
    return lambda t, y: np.stack([f(ti, yi) for f, ti, yi in zip(fs, t, y)])


def _assert_rows_match_reference(fs, t0, y0, h, live=None):
    """Each stepped row of the stack y0, with its own right-hand side in
    fs, has solve_ivp's end state and evaluation count, or fails where and
    as solve_ivp stops; rows not live keep their state and count nothing.
    Returns solve_ivp's result for each row, None for rows not live.

    Overflow is silenced as ``integrate_intervals`` silences it: unstable
    systems may overflow before either side gives up.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y_end, nfev, row_nfev, failures = _integrators.adaptive_interval(
            _stacked(fs), t0, y0, h, live)
        assert type(nfev) is int and nfev == sum(row_nfev)
        refs = []
        for i, f in enumerate(fs):
            if live is not None and not live[i]:
                assert y_end[i].tobytes() == y0[i].tobytes()
                assert row_nfev[i] == 0 and failures[i] is None
                refs.append(None)
                continue
            ref = _reference(f, t0, y0[i], h)
            refs.append(ref)
            if ref.status != 0:
                assert isinstance(failures[i], DivergenceError)
                assert failures[i].time == float(ref.t[-1])
                assert str(failures[i]) == (
                    f"adaptive integrator stopped at t={ref.t[-1]:.4f}s: {ref.message}")
            else:
                assert failures[i] is None
                assert y_end[i].tobytes() == ref.y[:, -1].tobytes()
                assert row_nfev[i] == ref.nfev
    return refs


def _assert_same_as_reference(f, t0, y0, h):
    """One system, as a stack of one row, against solve_ivp; returns
    solve_ivp's result."""
    return _assert_rows_match_reference([f], t0, y0[None], h)[0]


def _linear_system(n, log_rate, seed):
    """y' = M y with eigenvalue magnitudes up to about 10**log_rate per second."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) * 10.0 ** log_rate / np.sqrt(n)
    return (lambda t, y: M @ y), rng.normal(size=n)


def test_tableau_is_scipys():
    for name in ("C", "A", "B", "E"):
        ours = getattr(_integrators, f"_{name}")
        assert ours.tobytes() == getattr(RK45, name).tobytes(), name


@given(n=st.integers(1, 8), log_rate=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1),
       t0=STARTS, h=INTERVALS)
def test_linear_systems_match_solve_ivp(n, log_rate, seed, t0, h):
    f, y0 = _linear_system(n, log_rate, seed)
    _assert_same_as_reference(f, t0, y0, h)


@given(a=st.floats(-50.0, 50.0), b=st.floats(0.0, 50.0), y0=st.lists(
    st.floats(-3.0, 3.0), min_size=1, max_size=4), t0=STARTS, h=INTERVALS)
def test_nonlinear_rhs_matches_solve_ivp(a, b, y0, t0, h):
    def f(t, y):
        return a * np.sin(y) - b * y**3 + np.cos(40.0 * t)

    _assert_same_as_reference(f, t0, np.array(y0), h)


@pytest.mark.parametrize("n,log_rate,seed", [(1, 3.0, 0), (3, 4.0, 1), (8, 5.0, 0)])
def test_stiff_intervals_take_rejected_steps(n, log_rate, seed):
    # the property above also covers these; here each must need several
    # steps and reject some: scipy spends 6 evaluations per attempted step
    # plus 2 to choose the first step
    f, y0 = _linear_system(n, log_rate, seed)
    ref = _assert_same_as_reference(f, 0.0, y0, 0.002)
    assert ref.status == 0
    accepted = ref.t.size - 1
    attempted = (ref.nfev - 2) // 6
    assert accepted > 1
    assert attempted > accepted


def test_blow_up_stops_where_solve_ivp_stops():
    # y' = y^2 from y(0) = 1 blows up at t = 1, inside the second interval
    def f(t, y):
        return y * y

    y1 = _assert_same_as_reference(f, 0.0, np.array([1.0]), 0.6).y[:, -1]
    assert _assert_same_as_reference(f, 0.6, y1, 0.6).status == -1


@pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
def test_nan_rhs_at_interval_start_diverges_at_interval_end(integrator):
    # the adaptive first step size is nan here, where solve_ivp never returns
    def f(k, t, y):
        return np.column_stack([y[:, 1], np.full(len(y), np.nan)])

    with pytest.raises(DivergenceError) as err:
        _integrators.integrate_intervals(f, np.array([[1.0, 1.0]]), 3, 0.002, integrator)
    assert err.value.time == 0.002


def test_nan_rhs_from_zero_state_stops_where_solve_ivp_stops():
    # from y = 0 the first step size is finite and solve_ivp gives up at t0
    def f(t, y):
        return np.array([y[1], np.nan])

    assert _assert_same_as_reference(f, 0.0, np.zeros(2), 0.002).status == -1


# A stack of independent systems: each row takes the steps, end state and
# evaluation count solve_ivp takes on it alone, or fails where it stops.

def _row(kind, n, seed):
    """One row's right-hand side and start: a linear system, easy or stiff
    (it rejects steps), or y' = y^2 from y >= 1000, which blows up within
    a millisecond."""
    if kind == "blowup":
        return (lambda t, y: y * y), np.full(n, 1e3 + seed % 1000)
    return _linear_system(n, {"easy": 1.0, "stiff": 4.0}[kind], seed)


@given(n=st.integers(1, 36), n_rows=st.integers(1, 13), seed=st.integers(0, 2**32 - 1))
def test_stacked_stage_sums_and_norms_match_one_row(n, n_rows, seed):
    # the bits the stacked stepper relies on: its stage sums and RMS norms
    # against the 1-D np.dot and np.linalg.norm of each row
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(n_rows, 7, n)) * 10.0 ** rng.uniform(-8, 8, size=(n_rows, 7, 1))
    KT = K.transpose(0, 2, 1)
    weights = [_integrators._A[s, :s] for s in range(1, 6)] + [_integrators._B, _integrators._E]
    for w in weights:
        s = len(w)
        stacked = KT[:, :, :s] @ w
        for i in range(n_rows):
            assert stacked[i].tobytes() == np.dot(K[i, :s].T, w).tobytes()
    X = K[:, 0]
    norms = _integrators._rms(X)
    for i in range(n_rows):
        assert norms[i] == np.linalg.norm(X[i]) / n ** 0.5


@settings(max_examples=30)
@given(n=st.integers(1, 36), kinds=st.lists(st.sampled_from(["easy", "stiff", "blowup"]),
                                             min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), t0=STARTS, h=INTERVALS)
def test_stacked_rows_match_one_row_runs(n, kinds, seed, t0, h):
    rows = [_row(kind, n, seed + i) for i, kind in enumerate(kinds)]
    _assert_rows_match_reference([f for f, _ in rows], t0, np.stack([y for _, y in rows]), h)


def test_stiff_and_diverging_rows_beside_easy_rows():
    kinds = ["easy", "stiff", "easy", "blowup", "easy"]
    rows = [_row(kind, 3, i) for i, kind in enumerate(kinds)]
    refs = _assert_rows_match_reference([f for f, _ in rows], 0.0,
                                        np.stack([y for _, y in rows]), 0.002)
    assert [ref.status != 0 for ref in refs] == [kind == "blowup" for kind in kinds]
    stiff = refs[1]
    assert (stiff.nfev - 2) // 6 > stiff.t.size - 1   # it rejected steps


def test_rows_not_live_keep_their_state_and_count_nothing():
    rows = [_row(kind, 2, i) for i, kind in enumerate(["easy", "stiff", "easy"])]
    _assert_rows_match_reference([f for f, _ in rows], 0.0, np.stack([y for _, y in rows]),
                                 0.002, live=np.array([True, False, True]))


def _driven_row(i):
    # y' = rate * (1 + k % 3) * y + t: exact arithmetic, a rate per interval
    rate = (-1.0, -30.0, 2.0)[i]
    return lambda k, t, y: rate * (1 + k % 3) * y + t


def _driven_stack(k, t, y):
    return np.array([-1.0, -30.0, 2.0])[:, None] * (1 + k % 3) * y + np.reshape(t, (-1, 1))


@pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
def test_stacked_intervals_match_one_row_runs(integrator):
    # each row with its own horizon and resets, against the row stepped
    # alone by rk4_interval or solve_ivp
    y0 = np.array([[1.0, -0.5], [0.3, 2.0], [-1.0, 0.25]])
    ends = [5, 9, 7]
    resets = {1: {3: np.array([0.5, 0.5])}, 2: {2: np.array([4.0, -4.0]), 6: np.zeros(2)}}

    def reset(k, y):
        due = [i for i in resets if k in resets[i]]
        if due:
            y = y.copy()
            y[due] = [resets[i][k] for i in due]
            return y

    out = _integrators.integrate_intervals(_driven_stack, y0, ends, 0.002, integrator,
                                           substeps=2, reset=reset)
    assert out.shape == (9, 3, 2)
    for i, n in enumerate(ends):
        alone = integrate_alone(_driven_row(i), y0[i], n, 0.002, integrator, substeps=2,
                                reset=lambda k, i=i: resets.get(i, {}).get(k))
        assert out[:n, i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("integrator", _integrators.INTEGRATORS)
def test_first_failed_row_is_raised_after_earlier_rows_finish(integrator):
    # row 1 turns nan at interval 5, row 2 already at interval 2: row 1's
    # error is raised, as when the rows run alone in turn
    fail_at = (None, 5, 2)

    def f(k, t, y):
        dy = -y.copy()
        for i, k_fail in enumerate(fail_at):
            if k == k_fail:
                dy[i] = np.nan
        return dy

    with pytest.raises(DivergenceError) as err:
        _integrators.integrate_intervals(f, np.ones((3, 2)), 8, 0.002, integrator)
    # row 1's nan derivative over interval 5 gives a non-finite end state
    # under fixed_rk4 and a nan first step under adaptive
    cause = "" if integrator == "fixed_rk4" else ": the right-hand side is nan at t=0.0100s"
    assert str(err.value) == "state became non-finite at t=0.0120s" + cause
    assert err.value.time == 5 * 0.002 + 0.002


def test_stacked_rows_warn_once_each_up_to_the_first_failure():
    # rows 0 and 2 are stiff; row 1 is not, and fails, so row 2 would never run
    def f(k, t, y):
        dy = -1e6 * y
        dy[1] = -y[1] if k != 2 else np.nan
        return dy

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError):
            _integrators.integrate_intervals(f, np.ones((3, 1)), 5, 0.002, "adaptive")
    assert len(caught) == 1
    assert str(caught[0].message).endswith("dynamics may be stiff")


@pytest.mark.parametrize("shape", [(), (2,), (1, 1, 2)], ids=["scalar", "one_state", "3d"])
def test_only_a_stack_is_stepped(shape):
    y0 = np.ones(shape)
    with pytest.raises(ValueError, match=r"must be a stack \(N, n\)"):
        _integrators.adaptive_interval(lambda t, y: -y, 0.0, y0, 0.002)
    for integrator in _integrators.INTEGRATORS:
        with pytest.raises(ValueError, match=r"must be a stack \(N, n\)"):
            _integrators.integrate_intervals(lambda k, t, y: -y, y0, 3, 0.002, integrator)
