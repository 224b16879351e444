import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridephase.measures import rel_entropy_coherence
from tridephase.numerics import check_time, digamma_im, loggamma_re_diff, ode_propagate

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
])
def test_check_time_names_the_offending_value(times, grid, named):
    with pytest.raises(ValueError) as info:
        check_time(times, grid=grid)
    assert named in str(info.value)


# ------------------------------------------------------------ eigensolver
# numerics keeps no eigensolver: C_R's eigh of (rho + rho^dag)/2 is the
# package's spectrum, seen here through C_R = S(dephased rho) - S(rho)

def test_eigendecomposition_maximally_mixed():
    assert rel_entropy_coherence(np.eye(8) / 8.0) == 0.0


def test_eigendecomposition_descending_order():
    # the entropy sums the spectrum largest first, the order the reference CSVs
    # hold; with five nonzero terms numpy sums left to right, and at this seed
    # the ascending sum differs in the last bit
    def entropy(spectrum):
        positive = spectrum[spectrum > 0.0]
        return -np.sum(positive * np.log(positive))

    rng = np.random.default_rng(2)
    a = np.zeros((8, 8), complex)
    a[:5, :5] = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    populations, spectrum = np.sort(np.diag(rho).real), np.linalg.eigh((rho + rho.conj().T) / 2.0)[0]
    descending = entropy(populations[::-1]) - entropy(spectrum[::-1])
    assert descending != entropy(populations) - entropy(spectrum)
    assert rel_entropy_coherence(rho) == descending


def test_eigendecomposition_rank_one_projector():
    # S vanishes on a pure state, so C_R is the entropy of its populations
    vec = np.random.default_rng(13).normal(size=8) + 1j * np.random.default_rng(14).normal(size=8)
    vec /= np.linalg.norm(vec)
    populations = np.abs(vec) ** 2
    expected = -np.sum(populations * np.log(populations))
    assert abs(rel_entropy_coherence(np.outer(vec, vec.conj())) - expected) < 1e-12


def test_eigendecomposition_spectrum_is_basis_independent():
    # a permutation with phases keeps both the spectrum and the set of populations
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    u = np.eye(8)[rng.permutation(8)] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=8))
    assert abs(rel_entropy_coherence(u @ rho @ u.conj().T) - rel_entropy_coherence(rho)) < 1e-12


def test_eigendecomposition_rejects_non_hermitian():
    m = np.eye(8, dtype=complex) / 8.0
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="hermiticity 1.000e-03"):
        rel_entropy_coherence(m)


def test_eigendecomposition_rejects_non_square():
    with pytest.raises(ValueError, match=r"shape \(2, 8, 4\)"):
        rel_entropy_coherence(np.zeros((2, 8, 4)))


# -------------------------------------------------------------- integrator

def time_table(stages):
    """Coefficients that are the stage times themselves."""
    return stages


def constant(value):
    """A rate that is ``value`` at every stage of a scalar state."""
    return lambda c: np.full(np.shape(c), value)


def test_ode_linear_decay():
    ys = ode_propagate(constant(-1.0), 1.0, [0.0, 1.0], max_step=0.01, coefficients=time_table)
    assert abs(ys[-1] - E_INV) < 1e-7


def test_ode_time_dependent_coefficient():
    # dy/dt = -2 t y has solution exp(-t^2)
    ys = ode_propagate(lambda t: -2.0 * t, 1.0, [0.0, 1.0], max_step=0.01, coefficients=time_table)
    assert abs(ys[-1] - E_INV) < 1e-7


def test_ode_slow_decay_long_window():
    ys = ode_propagate(constant(-0.2), 1.0, [0.0, 5.0], max_step=0.05, coefficients=time_table)
    assert abs(ys[-1] - E_INV) < 1e-7


def test_ode_fourth_order_convergence():
    exact = E_INV
    errs = []
    for h in (0.2, 0.1):
        ys = ode_propagate(constant(-1.0), 1.0, [0.0, 1.0], max_step=h, coefficients=time_table)
        errs.append(abs(ys[-1] - exact))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.8


def test_ode_step_refinement_is_converged():
    coarse = ode_propagate(constant(-1.0), 1.0, [0.0, 1.0], max_step=0.01, coefficients=time_table)[-1]
    fine = ode_propagate(constant(-1.0), 1.0, [0.0, 1.0], max_step=0.005, coefficients=time_table)[-1]
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_ode_samples_every_grid_point():
    grid = np.linspace(0.0, 2.0, 9)
    ys = ode_propagate(constant(-1.0), 1.0, grid, max_step=0.01, coefficients=time_table)
    assert ys.shape == (9,)
    assert np.max(np.abs(ys - np.exp(-grid))) < 1e-8


@pytest.mark.parametrize("grid", [
    [],
    [0.5, 1.0],
    [0.0, 1.0, 1.0],
    [0.0, 2.0, 1.0],
])
def test_ode_grid_validation(grid):
    with pytest.raises(ValueError):
        ode_propagate(constant(-1.0), 1.0, grid, coefficients=time_table)


def test_ode_rejects_bad_max_step():
    with pytest.raises(ValueError):
        ode_propagate(constant(-1.0), 1.0, [0.0, 1.0], max_step=0.0, coefficients=time_table)


def test_ode_direct_call_holds_the_substep_budget():
    # 1e310 substeps overflow to inf; an int cast would make the count negative
    with pytest.raises(ValueError, match="inf RK4 substeps to reach t = 1e\\+300, over the budget of 200000"):
        ode_propagate(constant(-1.0), 1.0, [0.0, 1e300], 1e-10, coefficients=time_table)


def test_ode_blowup_reports_last_good_time():
    # dy/dt = 1000 y: each 0.5-long interval multiplies y by about 1e140, so
    # the state overflows in the third interval
    grid = np.linspace(0.0, 2.0, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"non-finite after t=1$"):
            ode_propagate(constant(1000.0), 1.0, grid, max_step=0.01, coefficients=time_table)

    # one substep per 0.005-long interval, each multiplying y by the RK4 factor
    # of z = 5; the first overflowing sample lies inside the first block
    grid = np.linspace(0.0, 2.0, 401)
    z = 1000.0 * 0.005
    factor = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    first_bad = math.floor(math.log(np.finfo(float).max) / math.log(factor)) + 1
    assert 1 < first_bad < 256
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=rf"non-finite after t={grid[first_bad - 1]:g}$"):
            ode_propagate(constant(1000.0), 1.0, grid, max_step=0.01, coefficients=time_table)


def test_ode_complex_matrix_state_with_one_coefficient_call():
    # d rho/dt = -2 t i rho, coefficient -2 t tabulated once for every stage
    calls = []

    def table(stages):
        calls.append(stages.shape)
        return -2.0 * stages

    rho0 = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    ys = ode_propagate(lambda c: 1j * c[..., None, None] * np.ones((2, 2)), rho0,
                       np.linspace(0.0, 1.0, 5), max_step=0.01, coefficients=table)
    assert ys.shape == (5, 2, 2) and ys.dtype == complex
    assert calls == [(100, 3)]
    assert np.max(np.abs(ys[-1] - rho0 * np.exp(-1j))) < 1e-8


def test_ode_rate_is_called_once_per_block_of_the_trace():
    # 600 substeps in the first interval, 25 in the second; blocks run on
    # across the interval boundary
    blocks = []

    def rate(c):
        blocks.append(len(c))
        return -np.ones_like(c)

    ys = ode_propagate(rate, 1.0, [0.0, 6.0, 6.25], max_step=0.01, coefficients=time_table)
    assert blocks == [256, 256, 113]
    assert abs(ys[-1] - np.exp(-6.25)) < 1e-9


def textbook_rk4(rate, y0, grid, max_step):
    """Classical RK4 on dy/dt = rate(t) * y, one substep at a time."""
    y = np.array(y0, dtype=complex)
    out = [y]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        n = max(1, math.ceil((t1 - t0) / max_step))
        h = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * h
            k1 = rate(t) * y
            k2 = rate(t + h / 2.0) * (y + h / 2.0 * k1)
            k3 = rate(t + h / 2.0) * (y + h / 2.0 * k2)
            k4 = rate(t + h) * (y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


complex_coefficients = st.lists(
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=3, max_size=3)
rk4_cases = st.fixed_dictionaries({
    "offset": complex_coefficients,
    "slope": complex_coefficients,
    "wobble": complex_coefficients,
    "spans": st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4),
    "max_step": st.floats(2e-3, 0.01),
})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example({"offset": [-1.0, 0.5j, 2.0 - 1.0j], "slope": [0.0, 1.0, -0.5j], "wobble": [1.0j, 0.0, 1.0],
          "spans": [1.8, 0.01, 2.0], "max_step": 4e-3})
@given(rk4_cases)
def test_ode_blocked_product_matches_textbook_rk4(case):
    # three elements, each with its own complex rate a + b t + c sin(3 t)
    offset, slope, wobble = (np.array(case[key]) for key in ("offset", "slope", "wobble"))

    def rate_at(t):
        return offset + slope * t + wobble * np.sin(3.0 * t)

    grid = np.concatenate([[0.0], np.cumsum(case["spans"])])
    y0 = np.array([1.0, 0.5 - 0.5j, -2.0j])
    ys = ode_propagate(lambda c: rate_at(c[..., None]), y0, grid, max_step=case["max_step"],
                       coefficients=time_table)
    expected = textbook_rk4(rate_at, y0, grid, case["max_step"])
    assert np.max(np.abs(ys - expected) / np.abs(expected)) < 1e-13
