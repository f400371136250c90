"""The in-house RK45 interval stepper against scipy's solve_ivp, bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp

from jumprom import _integrators
from jumprom.errors import DivergenceError

# interval lengths: the 500 Hz sample spacing, a longer one, a backward
# one and an empty one
INTERVALS = st.sampled_from([0.002, 0.01, -0.002, 0.0])
STARTS = st.integers(0, 1000).map(lambda k: k * 0.002)


def _reference(f, t0, y0, h):
    return solve_ivp(f, (t0, t0 + h), y0, method="RK45",
                     rtol=_integrators.RTOL, atol=_integrators.ATOL)


def _assert_same_as_reference(f, t0, y0, h):
    """The same end state and evaluation count, or the same failure.

    Overflow is silenced as ``integrate_intervals`` silences it: unstable
    systems may overflow before either side gives up.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _reference(f, t0, y0, h)
        if ref.status != 0:
            with pytest.raises(DivergenceError) as err:
                _integrators.adaptive_interval(f, t0, y0, h)
            assert err.value.time == float(ref.t[-1])
            assert str(err.value) == (
                f"adaptive integrator stopped at t={ref.t[-1]:.4f}s: {ref.message}")
            return ref
        y_end, nfev = _integrators.adaptive_interval(f, t0, y0, h)
    assert y_end.tobytes() == ref.y[:, -1].tobytes()
    assert nfev == ref.nfev
    return ref


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
        return np.array([y[1], np.nan])

    with pytest.raises(DivergenceError) as err:
        _integrators.integrate_intervals(f, np.array([1.0, 1.0]), 3, 0.002, integrator)
    assert err.value.time == 0.002


def test_nan_rhs_from_zero_state_stops_where_solve_ivp_stops():
    # from y = 0 the first step size is finite and solve_ivp gives up at t0
    def f(t, y):
        return np.array([y[1], np.nan])

    assert _assert_same_as_reference(f, 0.0, np.zeros(2), 0.002).status == -1
