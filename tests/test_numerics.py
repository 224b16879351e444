import mpmath
import numpy as np
import pytest

from tridephase.numerics import (HermitianEig, PropagationError, check_time,
                                 digamma_im, hermitian_eigendecomposition,
                                 loggamma_re_diff, ode_propagate)

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

def test_eigendecomposition_maximally_mixed():
    eig = hermitian_eigendecomposition(np.eye(8) / 8.0)
    assert np.allclose(eig.eigenvalues, 0.125, atol=1e-14)


def test_eigendecomposition_descending_order():
    eig = hermitian_eigendecomposition(np.diag(np.arange(1.0, 9.0)))
    assert np.allclose(eig.eigenvalues, np.arange(8.0, 0.0, -1.0), atol=1e-14)


def test_eigendecomposition_rank_one_projector():
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
    eig = hermitian_eigendecomposition(np.outer(vec, vec.conj()))
    assert abs(eig.eigenvalues[0] - 1.0) < 1e-12
    assert np.all(np.abs(eig.eigenvalues[1:]) < 1e-12)
    # the top eigenvector spans the same ray as vec
    overlap = abs(np.vdot(eig.eigenvectors[:, 0], vec))
    assert abs(overlap - 1.0) < 1e-12


def test_eigendecomposition_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2.0
    eig = hermitian_eigendecomposition(h)
    v, lam = eig.eigenvectors, eig.eigenvalues
    assert np.max(np.abs(v @ np.diag(lam) @ v.conj().T - h)) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-10
    assert abs(lam.sum() - np.trace(h).real) < 1e-10


def test_eigendecomposition_spectrum_is_basis_independent():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(6, 6))
    h = h + h.T
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    rotated = q @ h @ q.conj().T
    lam = hermitian_eigendecomposition(h).eigenvalues
    lam_rot = hermitian_eigendecomposition(rotated).eigenvalues
    assert np.max(np.abs(lam - lam_rot)) < 1e-9


def test_eigendecomposition_rejects_non_hermitian():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(m)


def test_eigendecomposition_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(np.zeros((3, 4)))


def test_eigendecomposition_result_is_frozen():
    eig = hermitian_eigendecomposition(np.eye(2))
    assert isinstance(eig, HermitianEig)
    with pytest.raises(AttributeError):
        eig.eigenvalues = None


# -------------------------------------------------------------- integrator

def test_ode_linear_decay():
    ys = ode_propagate(lambda t, y: -y, 1.0, [0.0, 1.0], max_step=0.01)
    assert abs(ys[-1] - E_INV) < 1e-7


def test_ode_time_dependent_coefficient():
    # dy/dt = -2 t y has solution exp(-t^2)
    ys = ode_propagate(lambda t, y: -2.0 * t * y, 1.0, [0.0, 1.0], max_step=0.01)
    assert abs(ys[-1] - E_INV) < 1e-7


def test_ode_slow_decay_long_window():
    ys = ode_propagate(lambda t, y: -0.2 * y, 1.0, [0.0, 5.0], max_step=0.05)
    assert abs(ys[-1] - E_INV) < 1e-7


def test_ode_vector_rotation():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    ys = ode_propagate(lambda t, y: gen @ y, np.array([1.0, 0.0]),
                       [0.0, np.pi / 2.0], max_step=0.01)
    assert np.max(np.abs(ys[-1] - np.array([0.0, 1.0]))) < 1e-8


def test_ode_fourth_order_convergence():
    exact = E_INV
    errs = []
    for h in (0.2, 0.1):
        ys = ode_propagate(lambda t, y: -y, 1.0, [0.0, 1.0], max_step=h)
        errs.append(abs(ys[-1] - exact))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.8


def test_ode_step_refinement_is_converged():
    coarse = ode_propagate(lambda t, y: -y, 1.0, [0.0, 1.0], max_step=0.01)[-1]
    fine = ode_propagate(lambda t, y: -y, 1.0, [0.0, 1.0], max_step=0.005)[-1]
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_ode_samples_every_grid_point():
    grid = np.linspace(0.0, 2.0, 9)
    ys = ode_propagate(lambda t, y: -y, 1.0, grid, max_step=0.01)
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
        ode_propagate(lambda t, y: -y, 1.0, grid)


def test_ode_rejects_bad_max_step():
    with pytest.raises(ValueError):
        ode_propagate(lambda t, y: -y, 1.0, [0.0, 1.0], max_step=0.0)


def test_ode_blowup_reports_last_good_time():
    # dy/dt = y^2 from y(0) = 1 diverges at t = 1
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PropagationError) as info:
            ode_propagate(lambda t, y: y * y, 1.0, [0.0, 2.0], max_step=0.01)
    t_good = info.value.last_good_time
    assert 0.0 <= t_good <= 2.0


def test_ode_complex_matrix_state_with_one_coefficient_call():
    # d rho/dt = -2 t i rho, coefficient -2 t tabulated once for every stage
    calls = []

    def table(stages):
        calls.append(stages.shape)
        return -2.0 * stages

    rho0 = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    ys = ode_propagate(lambda c, y: 1j * c * y, rho0, np.linspace(0.0, 1.0, 5), max_step=0.01,
                       coefficients=table)
    assert ys.shape == (5, 2, 2) and ys.dtype == complex
    assert calls == [(100, 3)]
    assert np.max(np.abs(ys[-1] - rho0 * np.exp(-1j))) < 1e-8
