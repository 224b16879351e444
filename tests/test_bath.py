import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from tridephase.bath import (DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF,
                             BathSpec, kernel_integrals, kernel_rates, markov_rate)

MARKOV = BathSpec(memory="markov")
NON_MARKOV = BathSpec(memory="non_markov")


def gamma_of(spec: BathSpec, t):
    """gamma(t), the first column of the rates."""
    return kernel_rates(spec, t)[..., 0]


def big_gamma_of(spec: BathSpec, t):
    """Gamma(t), the first column of the integrals."""
    return kernel_integrals(spec, t)[..., 0]


def lamb_of(spec: BathSpec, t):
    """(mu(t), M(t)), the second column of each table."""
    return kernel_rates(spec, t)[..., 1], kernel_integrals(spec, t)[..., 1]


def mp_kernels(spec: BathSpec, t: float):
    """(gamma(t), Gamma(t)) from the closed forms at 40 digits, taking the float parameters as exact."""
    with mpmath.workdps(40):
        eta, lam, kbt = (mpmath.mpf(v) for v in (spec.eta, spec.lambda_cutoff, spec.kbt))
        tt = mpmath.mpf(t)
        z = mpmath.mpc(kbt / lam, kbt * tt)
        gamma = 2 * eta * (2 * kbt * mpmath.im(mpmath.digamma(z)) - tt / (lam ** -2 + tt * tt))
        big_gamma = -eta * (4 * mpmath.re(mpmath.loggamma(z) - mpmath.loggamma(kbt / lam))
                            + mpmath.log1p((lam * tt) ** 2))
        return gamma, big_gamma


def checked_kernels(spec: BathSpec, times):
    """Both tables at the times, from an array: they emit no numpy warning, hold no nan, have the
    same bits as from each time as a Python float, and give gamma and Gamma within 1e-13
    relative of mpmath (so exactly 0 at t = 0)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates, integrals = kernel_rates(spec, np.array(times)), kernel_integrals(spec, np.array(times))
        for i, t in enumerate(times):
            assert kernel_rates(spec, t).tobytes() == rates[i].tobytes(), t
            assert kernel_integrals(spec, t).tobytes() == integrals[i].tobytes(), t
    assert rates.shape == integrals.shape == (len(times), 2)
    assert not (np.isnan(rates).any() or np.isnan(integrals).any())
    for t, gamma, big_gamma in zip(times, rates[:, 0], integrals[:, 0]):
        for value, expected in zip((gamma, big_gamma), mp_kernels(spec, t)):
            assert abs(value - expected) <= 1e-13 * abs(expected), (t, value, expected)
    return rates, integrals


def high_t_rate(spec: BathSpec, t: float) -> float:
    # flat-coth approximation, valid for kbt well above the cutoff
    return 4.0 * spec.eta * spec.kbt * math.atan(spec.lambda_cutoff * t)


def high_t_cumulative(spec: BathSpec, t: float) -> float:
    lt = spec.lambda_cutoff * t
    return 4.0 * spec.eta * spec.kbt * (
        t * math.atan(lt) - math.log1p(lt * lt) / (2.0 * spec.lambda_cutoff))


# ------------------------------------------------------------- markov rate

def test_markov_rate_default_parameters():
    # 4 pi eta kbt with kbt = 1/(4 pi) collapses to eta
    assert abs(markov_rate(MARKOV) - 0.1) < 1e-15


def test_markov_rate_linear_in_eta_and_temperature():
    assert abs(markov_rate(BathSpec(eta=0.3)) - 0.3) < 1e-15
    assert abs(markov_rate(BathSpec(kbt=2.0 * DEFAULT_KBT)) - 0.2) < 1e-15


def test_markov_cumulative_is_exactly_linear():
    g0 = markov_rate(MARKOV)
    for t in (0.0, 0.7, 5.0, 30.0):
        assert big_gamma_of(MARKOV, t) == g0 * t


# ----------------------------------------------------- finite-memory kernels

def test_rate_vanishes_at_zero_time():
    assert gamma_of(NON_MARKOV, 0.0) == 0.0
    assert big_gamma_of(NON_MARKOV, 0.0) == 0.0


def test_rate_at_cutoff_time():
    # at L t = 1 the flat-coth value is exactly g0/4 = 0.025; the full kernel
    # sits 0.08% above it (independent quadrature: 0.02502094)
    rate = gamma_of(NON_MARKOV, 100.0)
    assert abs(rate - 0.02502094) / 0.02502094 < 1e-6
    assert abs(rate - 0.025) / 0.025 < 3e-3


def test_rate_long_time_plateau():
    # as L t -> inf, arctan saturates at pi/2 and the rate plateaus at
    # 2 pi eta kbt, half the markov constant
    rate = gamma_of(NON_MARKOV, 3000.0)
    plateau = 2.0 * math.pi * DEFAULT_ETA * DEFAULT_KBT
    assert abs(rate - plateau) / plateau < 3e-2
    assert rate < plateau


def test_cumulative_at_early_time():
    # independent quadrature gives 6.382469557875702e-04 at t = 2
    value = big_gamma_of(NON_MARKOV, 2.0)
    assert abs(value - 6.382469557875702e-4) / 6.382469557875702e-4 < 1e-8
    # flat-coth closed form lands within a fraction of a percent
    assert abs(value - 6.37e-4) / 6.37e-4 < 3e-2


def test_rate_against_scipy_quadrature():
    spec = NON_MARKOV
    for t in (0.5, 3.0, 40.0):
        def integrand(w):
            return (2.0 * spec.eta * math.exp(-w / spec.lambda_cutoff)
                    * math.sin(w * t) / math.tanh(w / (2.0 * spec.kbt)))

        expected, _ = scipy.integrate.quad(integrand, 0.0, 60.0 * spec.lambda_cutoff,
                                           limit=400)
        assert abs(gamma_of(spec, t) - expected) / abs(expected) < 1e-6


def test_cumulative_against_scipy_quadrature():
    spec = NON_MARKOV
    for t in (2.0, 15.0):
        def integrand(w):
            s = math.sin(0.5 * w * t)
            return (2.0 * spec.eta * math.exp(-w / spec.lambda_cutoff)
                    * 2.0 * s * s / (w * math.tanh(w / (2.0 * spec.kbt))))

        expected, _ = scipy.integrate.quad(integrand, 0.0, 60.0 * spec.lambda_cutoff,
                                           limit=400)
        assert abs(big_gamma_of(spec, t) - expected) / abs(expected) < 1e-6


def test_rate_matches_flat_coth_envelope_at_high_temperature():
    # default kbt/L is about 8; the flat-coth forms should track the full
    # quadrature to a few tenths of a percent over the plotted window
    for t in np.linspace(1.5, 30.0, 12):
        rate = gamma_of(NON_MARKOV, float(t))
        cum = big_gamma_of(NON_MARKOV, float(t))
        assert abs(rate - high_t_rate(NON_MARKOV, t)) / high_t_rate(NON_MARKOV, t) < 5e-2
        assert abs(cum - high_t_cumulative(NON_MARKOV, t)) / high_t_cumulative(NON_MARKOV, t) < 5e-2


def test_rate_nonnegative_over_wide_scan():
    for t in np.logspace(-1.0, 3.0, 25):
        assert gamma_of(NON_MARKOV, float(t)) >= -1e-15


@pytest.mark.parametrize("t", [1e4, 1e5, 1e6])
def test_long_time_kernels_match_mpmath(t):
    # the closed forms evaluated at 40 digits; at these times an adaptive
    # quadrature of the frequency integrals loses accuracy or fails
    expected_rate, expected_cum = mp_kernels(NON_MARKOV, t)
    assert abs(gamma_of(NON_MARKOV, t) - expected_rate) / expected_rate < 1e-12
    assert abs(big_gamma_of(NON_MARKOV, t) - expected_cum) / expected_cum < 1e-12


# ------------------------------------------------------------ lamb kernels

def test_lamb_shift_closed_form_values():
    mu, big_m = lamb_of(NON_MARKOV, 100.0)
    # eta L (Lt)^2 / (1 + (Lt)^2) at Lt = 1 is eta L / 2
    assert abs(mu - 5e-4) < 1e-15
    mu_inf, _ = lamb_of(NON_MARKOV, 1e7)
    assert abs(mu_inf - DEFAULT_ETA * DEFAULT_LAMBDA_CUTOFF) / 1e-3 < 1e-3
    _, big_m2 = lamb_of(NON_MARKOV, 2.0)
    assert abs(big_m2 - 2.666026849465486e-7) / 2.666026849465486e-7 < 1e-12


def test_lamb_kernel_stays_finite_at_large_times():
    # the series for M is taken only below its cut, and mu, whose t * t
    # overflows near t = 1e154, levels off at eta * lambda; gamma and Gamma,
    # computed in the same calls, square neither t nor lambda t (Gamma was nan
    # from t ~ 1.6e156)
    times = [0.0, 1e-3, 1.0, 1e20, 1e160, 1e300]
    rates, integrals = checked_kernels(NON_MARKOV, times)
    mus, big_ms = rates[:, 1], integrals[:, 1]
    assert np.isfinite(big_ms).all() and np.all(np.diff(big_ms) > 0.0)
    assert mus[3:] == pytest.approx(DEFAULT_ETA * DEFAULT_LAMBDA_CUTOFF, rel=1e-15)
    assert big_ms[-1] == pytest.approx(DEFAULT_ETA * DEFAULT_LAMBDA_CUTOFF * 1e300, rel=1e-15)


@pytest.mark.parametrize("lam", [1e10, 1e300])
def test_lamb_rate_stays_finite_at_large_cutoffs(lam):
    # mu = eta lam x^2 / (1 + x^2) with x = lam t: lam^3 t^2 overflowed at lam = 1e10,
    # t = 1e140, and lam^3 at lam = 1e300; M itself is inf once lam t overflows, while
    # Gamma, from the same call, stays finite there (it was nan from lam = 1e159 at t = 1e-3)
    spec = BathSpec(lambda_cutoff=lam, memory="non_markov")
    times = [0.0, 1e-3, 1e140]
    rates, integrals = checked_kernels(spec, times)
    mus, big_ms = rates[:, 1], integrals[:, 1]
    assert np.isfinite(mus).all() and np.isfinite(rates).all() and np.isfinite(integrals[:, 0]).all()
    assert np.isfinite(big_ms).all() == (lam * times[-1] < np.inf)
    with mpmath.workdps(40):
        for t, mu in zip(times, mus):
            x = mpmath.mpf(lam) * mpmath.mpf(t)
            expected = mpmath.mpf(spec.eta) * mpmath.mpf(lam) * x * x / (1 + x * x)
            assert abs(mu - expected) <= 1e-15 * expected, t


MEMORY_KBT_1E_300 = BathSpec(kbt=1e-300, memory="non_markov")


@pytest.mark.parametrize("spec, times", [
    # Gamma was nan from t ~ 1.6e156, and a float t raised OverflowError; 1e301 = t_max 1e300 / gamma0
    pytest.param(NON_MARKOV, [1.6e156, 1e157, 1e301], id="large_t"),
    # Gamma was nan at t = 1e-3 from lambda ~ 1e159 (mpmath: 136.77 at 1e300), and gamma(0) from ~1e161;
    # t = 2 is t_max 0.2 / gamma0
    pytest.param(BathSpec(lambda_cutoff=1e159, memory="non_markov"), [0.0, 1e-3], id="lambda_1e159"),
    pytest.param(BathSpec(lambda_cutoff=1e161, memory="non_markov"), [0.0, 1e-3], id="lambda_1e161"),
    pytest.param(BathSpec(lambda_cutoff=1e300, memory="non_markov"), [0.0, 1e-3, 2.0], id="lambda_1e300"),
    # gamma's 1 / t term does not vanish beside kbt Im psi: 6.3e-301 at t = 1e300; the grid
    # end of t_max 0.2 is 0.2 / gamma0
    pytest.param(MEMORY_KBT_1E_300, [0.0, 1e300, 0.2 / markov_rate(MEMORY_KBT_1E_300)], id="kbt_1e-300"),
])
def test_kernels_match_mpmath_where_they_overflowed(spec, times):
    checked_kernels(spec, times)


# powers of ten across the float range, from a subnormal up
SPAN = [1e-320, 1e-300, 1e-160, 1e-10, 1e-2, 1.0, 1e10, 1e160, 1e300, 1.7e308]


def test_kernels_hold_no_nan_across_the_float_range():
    # every bath of the span whose kbt and kbt / lambda stay below 1e307, with kbt / lambda normal,
    # at t = 0 and every time of the span with kbt t below 1e307: no nan, and a numpy warning only
    # where a value overflows to inf (gamma = 4 pi eta kbt at eta = 1e300, kbt = 1e10, say).  A bath
    # with no coupling has exact zero kernels, with no warning, at every bath and time of the span
    # (M was 0 * inf = nan where lambda t overflows, and gamma where kbt Im psi does)
    checked = 0
    for eta, lam, kbt in itertools.product([0.0, 1e-300, 0.1, 1e300], SPAN, SPAN):
        if eta and not (kbt <= 1e307 and 2.3e-308 < kbt / lam <= 1e307):
            continue
        times = np.array([0.0] + [t for t in SPAN if not eta or kbt * t <= 1e307])
        spec = BathSpec(eta=eta, lambda_cutoff=lam, kbt=kbt, memory="non_markov")
        for kernel in (kernel_rates, kernel_integrals):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values = kernel(spec, times)
            assert not np.isnan(values).any(), (spec, kernel.__name__)
            assert all("overflow" in str(w.message) for w in caught) and (not caught or np.isinf(values).any())
            if not eta:
                assert not caught and not values.any(), (spec, kernel.__name__)
            checked += values.size
    assert checked > 5000


# x = lambda t from 1e-6 to 1e3, log-spaced, plus both sides of the series cut
LAMB_X = np.concatenate([np.logspace(-6.0, 3.0, 46), [0.0999999, 0.1, 0.1000001]])


def test_lamb_kernel_matches_mpmath_without_cancellation():
    # M = eta (x - arctan x) cancels for small x; the oracle takes the float
    # x = lambda * t that the kernel itself forms
    spec = BathSpec(eta=0.3, lambda_cutoff=0.02, memory="non_markov")
    times = LAMB_X / spec.lambda_cutoff
    _, big_m = lamb_of(spec, times)
    with mpmath.workdps(40):
        for t, value in zip(times, big_m):
            x = mpmath.mpf(spec.lambda_cutoff * float(t))
            expected = mpmath.mpf(spec.eta) * (x - mpmath.atan(x))
            assert abs(value - expected) <= 1e-13 * expected, float(x)
            assert lamb_of(spec, float(t))[1] == value


def test_lamb_shift_matches_quadrature():
    # mu(t) = integral of J(w) (1 - cos w t) / w; its antiderivative big_m
    # follows by integrating t - sin(w t)/w instead
    spec = NON_MARKOV
    upper = 60.0 * spec.lambda_cutoff
    for t in np.linspace(5.0, 300.0, 20):
        def mu_integrand(w, t=float(t)):
            s = math.sin(0.5 * w * t)
            return spec.eta * math.exp(-w / spec.lambda_cutoff) * 2.0 * s * s

        mu, _ = lamb_of(spec, float(t))
        mu_quad, _ = scipy.integrate.quad(mu_integrand, 0.0, upper, epsabs=0.0,
                                          epsrel=1e-12, limit=400)
        assert abs(mu - mu_quad) / abs(mu_quad) < 1e-8

    def big_m_integrand(w, t=2.0):
        # the w -> 0 limit of t - sin(w t)/w is 0
        if w == 0.0:
            return 0.0
        return spec.eta * math.exp(-w / spec.lambda_cutoff) * (t - math.sin(w * t) / w)

    _, big_m = lamb_of(spec, 2.0)
    big_m_quad, _ = scipy.integrate.quad(big_m_integrand, 0.0, upper, epsabs=0.0,
                                         epsrel=1e-12, limit=400)
    assert abs(big_m - big_m_quad) / abs(big_m_quad) < 1e-6


# ------------------------------------------------------------ kernel bundle
# the four kernels gamma, Gamma, mu and M, for scalar and array times

def test_kernel_bundle_markov():
    g0 = markov_rate(MARKOV)
    for t in (0.7, 5.0):
        assert gamma_of(MARKOV, t) == g0
        assert big_gamma_of(MARKOV, t) == g0 * t
        assert lamb_of(MARKOV, t) == (0.0, 0.0)
    times = np.array([0.0, 0.7, 5.0])
    assert np.array_equal(gamma_of(MARKOV, times), np.full(3, g0))
    assert np.array_equal(big_gamma_of(MARKOV, times), g0 * times)
    mu, big_m = lamb_of(MARKOV, times)
    assert np.array_equal(mu, np.zeros(3)) and np.array_equal(big_m, np.zeros(3))


def test_kernel_bundle_non_markov_starts_from_zero():
    assert gamma_of(NON_MARKOV, 0.0) == 0.0
    assert big_gamma_of(NON_MARKOV, 0.0) == 0.0
    assert lamb_of(NON_MARKOV, 0.0) == (0.0, 0.0)


def test_kernel_bundle_non_markov_matches_module_functions():
    # an array of times gives, element by element, the scalar results, shaped t.shape + (2,)
    times = np.array([0.0, 0.01, 7.0, 250.0, 1e5])
    for func in (kernel_rates, kernel_integrals):
        values = func(NON_MARKOV, times)
        assert values.shape == (5, 2) and values.dtype == float
        assert all(func(NON_MARKOV, float(t)).shape == (2,) for t in times)
        assert np.array_equal(values, [func(NON_MARKOV, float(t)) for t in times])
        assert func(NON_MARKOV, times.reshape(5, 1)).shape == (5, 1, 2)


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs", [
    {"eta": -0.1},
    {"lambda_cutoff": 0.0},
    {"lambda_cutoff": -1.0},
    {"kbt": 0.0},
    {"topology": "global"},
    {"memory": "nonmarkov"},
    {"eta": np.float32(-0.1)},
    {"lambda_cutoff": np.float64("nan")},
    {"kbt": np.float32("inf")},
    {"kbt": np.int64(0)},
])
def test_bath_spec_validation(kwargs):
    with pytest.raises(ValueError):
        BathSpec(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("topology", np.array(["local"])),
    ("topology", np.array(["local", "common"])),
    ("memory", np.array(["markov"])),
    ("memory", np.array(["markov", "non_markov"])),
])
def test_bath_spec_names_a_choice_that_is_not_a_string(field, value):
    # an array was stored, to fail as unhashable later, or was numpy's ambiguous truth value
    with pytest.raises(ValueError, match=f"^field '{field}': must be one of .*; got array"):
        BathSpec(**{field: value})


@pytest.mark.parametrize("field", ["eta", "lambda_cutoff", "kbt"])
def test_bath_spec_rejects_booleans(field):
    for value in (True, np.bool_(True)):
        with pytest.raises(ValueError, match=field):
            BathSpec(**{field: value})


def test_bath_spec_stores_floats():
    # an int within float range must not reach numpy as a Python int
    for bath in (BathSpec(eta=1, lambda_cutoff=10 ** 300, kbt=2),
                 BathSpec(eta=np.int64(1), lambda_cutoff=np.float64(1e300), kbt=np.float32(2.0))):
        assert (bath.eta, bath.lambda_cutoff, bath.kbt) == (1.0, 1e300, 2.0)
        assert all(type(v) is float for v in (bath.eta, bath.lambda_cutoff, bath.kbt))
    assert BathSpec(eta=np.float32(0.1)).eta == float(np.float32(0.1))


@pytest.mark.parametrize("func", [kernel_rates, kernel_integrals])
def test_negative_time_rejected(func):
    with pytest.raises(ValueError):
        func(NON_MARKOV, -0.5)


def test_zero_coupling_rates_vanish():
    off = BathSpec(eta=0.0, memory="non_markov")
    assert gamma_of(off, 5.0) == 0.0
    assert big_gamma_of(off, 5.0) == 0.0
