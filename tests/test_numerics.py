import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridephase.numerics import check_time, digamma_im, log1p_square, loggamma_re_diff, lorentzian, ode_propagate

E_INV = 0.36787944117144233  # exp(-1)


# ---------------------------------------------------------- special functions

# 30 values of c log-spaced over [1e-2, 1e2] (both ends included) and y from
# the cancellation-prone y <= 1e-6 up to 1e6
HELPER_C = np.logspace(-2.0, 2.0, 30)
HELPER_Y = np.array([0.0, 1e-7, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])


def _assert_matches_mpmath(values, c, exact):
    assert values.shape == HELPER_Y.shape
    assert values[0] == 0.0
    # lnG(c + iy) - lnG(c) cancels about 20 digits at y = 1e-7 and c = 100, so
    # the oracle works at 60 digits to keep more than 30 in its result
    with mpmath.workdps(60):
        for y, value in zip(HELPER_Y[1:], values[1:]):
            expected = exact(mpmath.mpf(c), mpmath.mpf(y))
            assert abs(value - expected) <= 1e-13 * abs(expected), (c, y)


@pytest.mark.parametrize("c", HELPER_C)
def test_loggamma_re_diff_matches_mpmath(c):
    _assert_matches_mpmath(
        loggamma_re_diff(c, HELPER_Y), c,
        lambda c, y: mpmath.re(mpmath.loggamma(mpmath.mpc(c, y)) - mpmath.loggamma(c)))


@pytest.mark.parametrize("c", HELPER_C)
def test_digamma_im_matches_mpmath(c):
    _assert_matches_mpmath(digamma_im(c, HELPER_Y), c,
                           lambda c, y: mpmath.im(mpmath.digamma(mpmath.mpc(c, y))))


def test_special_functions_keep_the_shape_of_y():
    grid = np.linspace(0.0, 5.0, 6).reshape(2, 3)
    for func in (loggamma_re_diff, digamma_im):
        assert func(0.3, grid).shape == (2, 3)
        assert np.ndim(func(0.3, 2.0)) == 0
        assert func(0.3, grid)[1, 1] == func(0.3, grid[1, 1])


# ratios p / q of 0, of order 1, at both sides of the 1e150 switch, and past the float range
SQUARE_RATIOS = [(0.0, 1.0), (1e-100, 3.0), (2.0, 3.0), (1e150, 1.0), (1.0000001e150, 1.0), (1e300, 1e-300)]
# Lorentzian arguments (y, s) whose squares overflow or underflow
LORENTZ_ARGS = [(0.0, 0.0), (0.0, 1e-300), (2.0, 3.0), (1e-200, 1e-200), (1e-170, 0.0), (1e200, 1.0), (1.0, 1e150),
                (1e300, 1e300)]


def test_log1p_square_is_finite_past_the_square_and_the_ratio():
    p, q = np.array(SQUARE_RATIOS).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = log1p_square(p, q)
    with np.errstate(over="ignore"):
        small = p / q <= 1e150  # below the switch it is numpy's log1p of the square, bit for bit
    assert np.array_equal(values[small], np.log1p(np.square(p[small] / q[small])))
    with mpmath.workdps(40):
        for (a, b), value in zip(SQUARE_RATIOS, values):
            expected = mpmath.log1p((mpmath.mpf(a) / mpmath.mpf(b)) ** 2)
            assert abs(value - expected) <= 1e-15 * expected, (a, b)


def test_lorentzian_is_finite_where_its_squares_are_not():
    y, s = np.array(LORENTZ_ARGS).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = lorentzian(y, s)
    with mpmath.workdps(40):
        for (a, b), value in zip(LORENTZ_ARGS, values):
            expected = mpmath.mpf(a) / (mpmath.mpf(b) ** 2 + mpmath.mpf(a) ** 2) if a else 0
            assert abs(value - expected) <= 1e-15 * expected, (a, b)


# ------------------------------------------------------------ time validation

def test_check_time_returns_float_or_array():
    assert check_time(2) == 2.0 and isinstance(check_time(2), float)
    assert np.array_equal(check_time([0.0, 1.0]), [0.0, 1.0])
    assert np.array_equal(check_time([0.0, 0.5, 2.0], grid=True), [0.0, 0.5, 2.0])


@pytest.mark.parametrize("times, grid, named", [
    (-0.5, False, "-0.5"),
    (float("nan"), False, "nan"),
    ([0.0, 2.0, -3.0], False, "-3.0"),
    ([0.0, float("inf")], True, "inf"),
    ([0.25, 1.0], True, "0.25"),
    ([0.0, 2.0, 1.5], True, "1.5 after 2.0"),
    ([[0.0, 1.0]], True, "(1, 2)"),
    ("abc", False, "real number or an array of real numbers, got 'abc'"),
    (1j, False, "got 1j"),
    ([0.0, 1j], True, "got [0.0, 1j]"),
    (np.array([0.0, 1j]), True, "got array([0.+0.j, 0.+1.j])"),
    ([[0.0], [1.0, 2.0]], False, "got [[0.0], [1.0, 2.0]]"),
    ("1", False, "real number or an array of real numbers, got '1'"),
    (b"1", False, "got b'1'"),
    (True, False, "got True"),
    (["0", "1"], True, "got ['0', '1']"),
    (np.array([False, True]), True, "got array([False,  True])"),
])
def test_check_time_names_the_offending_value(times, grid, named):
    with pytest.raises(ValueError) as info:
        check_time(times, grid=grid)
    assert named in str(info.value)


# -------------------------------------------------------------- integrator

def ones(stages):
    """One coefficient row of 1 per stage, so that the rate is the weight itself."""
    return np.ones(np.shape(stages) + (1,))


def stage_times(stages):
    """One coefficient row per stage, the stage time itself."""
    return stages[..., None]


def solve(coefficients, weights, grid, max_step):
    """y = exp(int_0^t c ds @ weights) at every grid point, which solves dy/dt = (c(t) @ weights) * y from y = 1,
    in uniform substeps no longer than max_step within each interval (one per interval at inf)."""
    grid = check_time(grid, grid=True)
    substeps = np.maximum(1, np.ceil(np.diff(grid) / max_step)).astype(int)
    return np.exp(ode_propagate(coefficients, grid, substeps) @ weights)


def weight(rate):
    """The (1, 1) weights of the one equation dy/dt = rate * c(t) * y."""
    return np.array([[rate]])


def test_ode_linear_decay():
    ys = solve(ones, weight(-1.0), [0.0, 1.0], max_step=0.01)
    assert ys.shape == (2, 1)
    assert abs(ys[-1, 0] - E_INV) < 1e-7


def test_ode_time_dependent_coefficient():
    # dy/dt = -2 t y has solution exp(-t^2)
    ys = solve(stage_times, weight(-2.0), [0.0, 1.0], max_step=0.01)
    assert abs(ys[-1, 0] - E_INV) < 1e-7


def test_ode_slow_decay_long_window():
    ys = solve(ones, weight(-0.2), [0.0, 5.0], max_step=0.05)
    assert abs(ys[-1, 0] - E_INV) < 1e-7


def test_ode_fourth_order_convergence():
    # dy/dt = -cos(3t) y has solution exp(-sin(3t) / 3); a constant rate would be exact
    def cos3(stages):
        return np.cos(3.0 * stages)[..., None]

    exact = math.exp(-math.sin(3.0) / 3.0)
    errs = []
    for h in (0.2, 0.1):
        ys = solve(cos3, weight(-1.0), [0.0, 1.0], max_step=h)
        errs.append(abs(ys[-1, 0] - exact))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.8


def test_ode_cubic_rates_are_exact():
    # Simpson's rule integrates a cubic exactly: dy/dt = (1 - 2t + 3t^2 - 4t^3) y has
    # solution exp(t - t^2 + t^3 - t^4), reached to rounding in one substep per interval
    def cubic(stages):
        return np.stack([np.ones_like(stages), stages, stages ** 2, stages ** 3], axis=-1)

    grid = np.linspace(0.0, 1.0, 6)
    ys = solve(cubic, np.array([[1.0], [-2.0], [3.0], [-4.0]]), grid, max_step=np.inf)
    exact = np.exp(grid - grid ** 2 + grid ** 3 - grid ** 4)
    assert np.max(np.abs(ys[:, 0] - exact)) < 1e-15


def test_ode_step_refinement_is_converged():
    coarse = solve(ones, weight(-1.0), [0.0, 1.0], max_step=0.01)[-1, 0]
    fine = solve(ones, weight(-1.0), [0.0, 1.0], max_step=0.005)[-1, 0]
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_ode_samples_every_grid_point():
    grid = np.linspace(0.0, 2.0, 9)
    ys = solve(ones, weight(-1.0), grid, max_step=0.01)
    assert ys.shape == (9, 1)
    assert np.max(np.abs(ys[:, 0] - np.exp(-grid))) < 1e-8


def test_ode_without_a_step_bound_takes_one_substep_per_interval():
    stages = []

    def table(t):
        stages.append(t)
        return ones(t)

    ys = solve(table, weight(-1.0), [0.0, 0.5, 2.0], max_step=np.inf)
    assert len(stages) == 1 and np.array_equal(stages[0], [[0.0, 0.25, 0.5], [0.5, 1.25, 2.0]])
    assert ys.shape == (3, 1) and ys[0, 0] == 1.0


def test_ode_complex_rates_with_one_coefficient_call():
    # dy/dt = -2 t i y and its conjugate, coefficient -2 t tabulated once for every stage
    calls = []

    def table(stages):
        calls.append(stages.shape)
        return -2.0 * stage_times(stages)

    ys = solve(table, np.array([[1j, -1j]]), np.linspace(0.0, 1.0, 5), max_step=0.01)
    assert ys.shape == (5, 2) and ys.dtype == complex
    assert calls == [(100, 3)]
    assert np.max(np.abs(ys[-1] - np.exp([-1j, 1j]))) < 1e-8


def test_ode_integral_runs_on_across_interval_boundaries():
    # 600 substeps in the first interval and 25 in the second, in one coefficient
    # call: the running integral carries on across the interval boundary
    stages = []

    def table(t):
        stages.append(len(t))
        return ones(t)

    ys = solve(table, weight(-1.0), [0.0, 6.0, 6.25], max_step=0.01)
    assert stages == [625]
    assert abs(ys[1, 0] - np.exp(-6.0)) < 1e-9
    assert abs(ys[-1, 0] - np.exp(-6.25)) < 1e-9


def magnus_reference(rows, weights, y0, grid, max_step):
    """The fourth-order Magnus step on dy/dt = (rows(t) @ weights) * y, one substep at a time:
    each adds Simpson's integral of the rows to the exponent, exp follows at each grid point."""
    integral = np.zeros(len(weights))
    out = [np.array(y0, dtype=complex)]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        n = max(1, math.ceil((t1 - t0) / max_step))
        h = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * h
            integral = integral + h / 6.0 * (rows(t) + 4.0 * rows(t + h / 2.0) + rows(t + h))
        out.append(y0 * np.exp(integral @ weights))
    return np.array(out)


complex_coefficients = st.lists(
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=3, max_size=3)
magnus_cases = st.fixed_dictionaries({
    "offset": complex_coefficients,
    "slope": complex_coefficients,
    "wobble": complex_coefficients,
    "spans": st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4),
    "max_step": st.floats(2e-3, 0.01),
})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example({"offset": [-1.0, 0.5j, 2.0 - 1.0j], "slope": [0.0, 1.0, -0.5j], "wobble": [1.0j, 0.0, 1.0],
          "spans": [1.8, 0.01, 2.0], "max_step": 4e-3})
@given(magnus_cases)
def test_ode_matches_per_substep_magnus_reference(case):
    # three elements, each with its own complex rate a + b t + c sin(3 t): the
    # coefficient rows [1, t, sin 3t] against the weights (offset, slope, wobble)
    weights = np.array([case[key] for key in ("offset", "slope", "wobble")])

    def rows(stages):
        return np.stack([np.ones_like(stages), stages, np.sin(3.0 * stages)], axis=-1)

    grid = np.concatenate([[0.0], np.cumsum(case["spans"])])
    y0 = np.array([1.0, 0.5 - 0.5j, -2.0j])
    ys = y0 * solve(rows, weights, grid, max_step=case["max_step"])
    expected = magnus_reference(rows, weights, y0, grid, case["max_step"])
    assert np.max(np.abs(ys - expected) / np.abs(expected)) < 1e-13
