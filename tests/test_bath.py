import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from tridephase.bath import (DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF,
                             BathSpec, cumulative_decoherence, dephasing_rate,
                             lamb_kernel, markov_rate)

MARKOV = BathSpec(memory="markov")
NON_MARKOV = BathSpec(memory="non_markov")


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
        assert cumulative_decoherence(MARKOV, t) == g0 * t


# ----------------------------------------------------- finite-memory kernels

def test_rate_vanishes_at_zero_time():
    assert dephasing_rate(NON_MARKOV, 0.0) == 0.0
    assert cumulative_decoherence(NON_MARKOV, 0.0) == 0.0


def test_rate_at_cutoff_time():
    # at L t = 1 the flat-coth value is exactly g0/4 = 0.025; the full kernel
    # sits 0.08% above it (independent quadrature: 0.02502094)
    rate = dephasing_rate(NON_MARKOV, 100.0)
    assert abs(rate - 0.02502094) / 0.02502094 < 1e-6
    assert abs(rate - 0.025) / 0.025 < 3e-3


def test_rate_long_time_plateau():
    # as L t -> inf, arctan saturates at pi/2 and the rate plateaus at
    # 2 pi eta kbt, half the markov constant
    rate = dephasing_rate(NON_MARKOV, 3000.0)
    plateau = 2.0 * math.pi * DEFAULT_ETA * DEFAULT_KBT
    assert abs(rate - plateau) / plateau < 3e-2
    assert rate < plateau


def test_cumulative_at_early_time():
    # independent quadrature gives 6.382469557875702e-04 at t = 2
    value = cumulative_decoherence(NON_MARKOV, 2.0)
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
        assert abs(dephasing_rate(spec, t) - expected) / abs(expected) < 1e-6


def test_cumulative_against_scipy_quadrature():
    spec = NON_MARKOV
    for t in (2.0, 15.0):
        def integrand(w):
            s = math.sin(0.5 * w * t)
            return (2.0 * spec.eta * math.exp(-w / spec.lambda_cutoff)
                    * 2.0 * s * s / (w * math.tanh(w / (2.0 * spec.kbt))))

        expected, _ = scipy.integrate.quad(integrand, 0.0, 60.0 * spec.lambda_cutoff,
                                           limit=400)
        assert abs(cumulative_decoherence(spec, t) - expected) / abs(expected) < 1e-6


def test_rate_matches_flat_coth_envelope_at_high_temperature():
    # default kbt/L is about 8; the flat-coth forms should track the full
    # quadrature to a few tenths of a percent over the plotted window
    for t in np.linspace(1.5, 30.0, 12):
        rate = dephasing_rate(NON_MARKOV, float(t))
        cum = cumulative_decoherence(NON_MARKOV, float(t))
        assert abs(rate - high_t_rate(NON_MARKOV, t)) / high_t_rate(NON_MARKOV, t) < 5e-2
        assert abs(cum - high_t_cumulative(NON_MARKOV, t)) / high_t_cumulative(NON_MARKOV, t) < 5e-2


def test_rate_nonnegative_over_wide_scan():
    for t in np.logspace(-1.0, 3.0, 25):
        assert dephasing_rate(NON_MARKOV, float(t)) >= -1e-15


@pytest.mark.parametrize("t", [1e4, 1e5, 1e6])
def test_long_time_kernels_match_mpmath(t):
    # the closed forms evaluated at 30 digits; at these times an adaptive
    # quadrature of the frequency integrals loses accuracy or fails
    spec = NON_MARKOV
    with mpmath.workdps(30):
        eta, lam, kbt = (mpmath.mpf(v) for v in (spec.eta, spec.lambda_cutoff, spec.kbt))
        tt = mpmath.mpf(t)
        z = mpmath.mpc(kbt / lam, kbt * tt)
        rate = 2 * eta * (2 * kbt * mpmath.im(mpmath.digamma(z)) - tt / (lam ** -2 + tt * tt))
        cum = -eta * (4 * mpmath.re(mpmath.loggamma(z) - mpmath.loggamma(kbt / lam))
                      + mpmath.log1p((lam * tt) ** 2))
        rate, cum = float(rate), float(cum)
    assert abs(dephasing_rate(spec, t) - rate) / rate < 1e-12
    assert abs(cumulative_decoherence(spec, t) - cum) / cum < 1e-12


# ------------------------------------------------------------ lamb kernels

def test_lamb_shift_closed_form_values():
    mu, big_m = lamb_kernel(NON_MARKOV, 100.0)
    # eta L (Lt)^2 / (1 + (Lt)^2) at Lt = 1 is eta L / 2
    assert abs(mu - 5e-4) < 1e-15
    mu_inf, _ = lamb_kernel(NON_MARKOV, 1e7)
    assert abs(mu_inf - DEFAULT_ETA * DEFAULT_LAMBDA_CUTOFF) / 1e-3 < 1e-3
    _, big_m2 = lamb_kernel(NON_MARKOV, 2.0)
    assert abs(big_m2 - 2.666026849465486e-7) / 2.666026849465486e-7 < 1e-12


def test_lamb_kernel_stays_finite_at_large_times():
    # the series for M is taken only below its cut, and mu, whose t * t
    # overflows near t = 1e154, levels off at eta * lambda
    times = [0.0, 1e-3, 1.0, 1e20, 1e160, 1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mus, big_ms = lamb_kernel(NON_MARKOV, np.array(times))
        for t, mu, big_m in zip(times, mus, big_ms):
            assert lamb_kernel(NON_MARKOV, t) == (mu, big_m)
    assert np.isfinite(big_ms).all() and np.all(np.diff(big_ms) > 0.0)
    assert mus[3:] == pytest.approx(DEFAULT_ETA * DEFAULT_LAMBDA_CUTOFF, rel=1e-15)
    assert big_ms[-1] == pytest.approx(DEFAULT_ETA * DEFAULT_LAMBDA_CUTOFF * 1e300, rel=1e-15)


@pytest.mark.parametrize("lam", [1e10, 1e300])
def test_lamb_rate_stays_finite_at_large_cutoffs(lam):
    # mu = eta lam x^2 / (1 + x^2) with x = lam t: lam^3 t^2 overflowed at lam = 1e10,
    # t = 1e140, and lam^3 at lam = 1e300; M itself is inf once lam t overflows
    spec = BathSpec(lambda_cutoff=lam, memory="non_markov")
    times = [0.0, 1e-3, 1e140]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mus, big_ms = lamb_kernel(spec, np.array(times))
        for t, mu, big_m in zip(times, mus, big_ms):
            assert lamb_kernel(spec, t) == (mu, big_m)
    assert np.isfinite(mus).all()
    assert np.isfinite(big_ms).all() == (lam * times[-1] < np.inf)
    with mpmath.workdps(40):
        for t, mu in zip(times, mus):
            x = mpmath.mpf(lam) * mpmath.mpf(t)
            expected = mpmath.mpf(spec.eta) * mpmath.mpf(lam) * x * x / (1 + x * x)
            assert abs(mu - expected) <= 1e-15 * expected, t


# x = lambda t from 1e-6 to 1e3, log-spaced, plus both sides of the series cut
LAMB_X = np.concatenate([np.logspace(-6.0, 3.0, 46), [0.0999999, 0.1, 0.1000001]])


def test_lamb_kernel_matches_mpmath_without_cancellation():
    # M = eta (x - arctan x) cancels for small x; the oracle takes the float
    # x = lambda * t that the kernel itself forms
    spec = BathSpec(eta=0.3, lambda_cutoff=0.02, memory="non_markov")
    times = LAMB_X / spec.lambda_cutoff
    _, big_m = lamb_kernel(spec, times)
    with mpmath.workdps(40):
        for t, value in zip(times, big_m):
            x = mpmath.mpf(spec.lambda_cutoff * float(t))
            expected = mpmath.mpf(spec.eta) * (x - mpmath.atan(x))
            assert abs(value - expected) <= 1e-13 * expected, float(x)
            assert lamb_kernel(spec, float(t))[1] == value


def test_lamb_shift_matches_quadrature():
    # mu(t) = integral of J(w) (1 - cos w t) / w; its antiderivative big_m
    # follows by integrating t - sin(w t)/w instead
    spec = NON_MARKOV
    upper = 60.0 * spec.lambda_cutoff
    for t in np.linspace(5.0, 300.0, 20):
        def mu_integrand(w, t=float(t)):
            s = math.sin(0.5 * w * t)
            return spec.eta * math.exp(-w / spec.lambda_cutoff) * 2.0 * s * s

        mu, _ = lamb_kernel(spec, float(t))
        mu_quad, _ = scipy.integrate.quad(mu_integrand, 0.0, upper, epsabs=0.0,
                                          epsrel=1e-12, limit=400)
        assert abs(mu - mu_quad) / abs(mu_quad) < 1e-8

    def big_m_integrand(w, t=2.0):
        # the w -> 0 limit of t - sin(w t)/w is 0
        if w == 0.0:
            return 0.0
        return spec.eta * math.exp(-w / spec.lambda_cutoff) * (t - math.sin(w * t) / w)

    _, big_m = lamb_kernel(spec, 2.0)
    big_m_quad, _ = scipy.integrate.quad(big_m_integrand, 0.0, upper, epsabs=0.0,
                                         epsrel=1e-12, limit=400)
    assert abs(big_m - big_m_quad) / abs(big_m_quad) < 1e-6


# ------------------------------------------------------------ kernel bundle
# the four kernels gamma, Gamma, mu and M, for scalar and array times

def test_kernel_bundle_markov():
    g0 = markov_rate(MARKOV)
    for t in (0.7, 5.0):
        assert dephasing_rate(MARKOV, t) == g0
        assert cumulative_decoherence(MARKOV, t) == g0 * t
        assert lamb_kernel(MARKOV, t) == (0.0, 0.0)
    times = np.array([0.0, 0.7, 5.0])
    assert np.array_equal(dephasing_rate(MARKOV, times), np.full(3, g0))
    assert np.array_equal(cumulative_decoherence(MARKOV, times), g0 * times)
    mu, big_m = lamb_kernel(MARKOV, times)
    assert np.array_equal(mu, np.zeros(3)) and np.array_equal(big_m, np.zeros(3))


def test_kernel_bundle_non_markov_starts_from_zero():
    assert dephasing_rate(NON_MARKOV, 0.0) == 0.0
    assert cumulative_decoherence(NON_MARKOV, 0.0) == 0.0
    assert lamb_kernel(NON_MARKOV, 0.0) == (0.0, 0.0)


def test_kernel_bundle_non_markov_matches_module_functions():
    # an array of times gives, element by element, the scalar results
    times = np.array([0.0, 0.01, 7.0, 250.0, 1e5])
    for func in (dephasing_rate, cumulative_decoherence):
        values = func(NON_MARKOV, times)
        assert values.shape == times.shape
        assert all(isinstance(func(NON_MARKOV, float(t)), float) for t in times)
        assert np.array_equal(values, [func(NON_MARKOV, float(t)) for t in times])
    mu, big_m = lamb_kernel(NON_MARKOV, times)
    assert np.array_equal(mu, [lamb_kernel(NON_MARKOV, float(t))[0] for t in times])
    assert np.array_equal(big_m, [lamb_kernel(NON_MARKOV, float(t))[1] for t in times])


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


@pytest.mark.parametrize("func", [dephasing_rate, cumulative_decoherence, lamb_kernel])
def test_negative_time_rejected(func):
    with pytest.raises(ValueError):
        func(NON_MARKOV, -0.5)


def test_zero_coupling_rates_vanish():
    off = BathSpec(eta=0.0, memory="non_markov")
    assert dephasing_rate(off, 5.0) == 0.0
    assert cumulative_decoherence(off, 5.0) == 0.0
