import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tridephase import dynamics
from tridephase.bath import (DEFAULT_LAMBDA_CUTOFF, MEMORIES, TOPOLOGIES, BathSpec, kernel_integrals, kernel_rates,
                             markov_rate)
from tridephase.dynamics import ENGINES, OMEGA0, coherence_trace, propagate_grid
from tridephase.measures import rel_entropy_coherence
from tridephase.numerics import ode_propagate
from tridephase.states import StateSpec, make_state

COMMON_M = BathSpec(topology="common", memory="markov")
LOCAL_M = BathSpec(topology="local", memory="markov")
COMMON_NM = BathSpec(topology="common", memory="non_markov")
LOCAL_NM = BathSpec(topology="local", memory="non_markov")

G0 = markov_rate(COMMON_M)  # 0.1 at default parameters


def decoherence_exponent(spec, m, n, t):
    """log of the factor multiplying rho_mn(0) at time t: the free phase, as the propagation
    adds it, plus the closed form's integrals times its weights, read off the grid path."""
    free = -0.5j * OMEGA0 * t * (dynamics._Z[m] - dynamics._Z[n])
    expo = kernel_integrals(spec, np.array([t])) @ dynamics._CLOSED[spec.topology]
    return free + complex(expo.reshape(-1, 8, 8)[0, m, n])


# ------------------------------------------------------------- index algebra

def test_z_weight_table():
    # net sigma_z weight per basis string, msb = qubit 1
    assert dynamics._Z.tolist() == [3, 1, 1, -1, 1, -1, -1, -3]


# ----------------------------------------------------------------- exponents

def test_exponent_vanishes_on_diagonal():
    for spec in (COMMON_M, LOCAL_M, COMMON_NM, LOCAL_NM):
        for m in range(8):
            assert decoherence_exponent(spec, m, m, 2.0) == 0.0


def test_exponent_vanishes_at_zero_time():
    assert decoherence_exponent(COMMON_NM, 0, 7, 0.0) == 0.0


def test_extreme_pair_damping_common():
    # weight difference 6 between |000> and |111>: damping (6^2/2) Gamma
    t = 1.0
    expo = decoherence_exponent(COMMON_M, 0, 7, t)
    assert abs(expo.real - (-18.0 * G0 * t)) < 1e-14
    # free phase at (w0/2) * 6 = 3 w0; same weight magnitude kills the
    # lamb term for this pair
    assert abs(expo.imag - (-3.0 * OMEGA0 * t)) < 1e-14


def test_extreme_pair_damping_local():
    # three flipped qubits, 2 Gamma each
    t = 1.0
    expo = decoherence_exponent(LOCAL_M, 0, 7, t)
    assert abs(expo.real - (-6.0 * G0 * t)) < 1e-14


def test_lamb_phase_term_isolated():
    # weights 3 and 1 for (0, 1): on top of the free phase and the damping
    # (2^2 / 2) Gamma, the phase picks up (9 - 1) big_m
    t = 2.0
    with_phase = decoherence_exponent(COMMON_NM, 0, 1, t)
    big_gamma, big_m = kernel_integrals(COMMON_NM, t)
    without = -0.5j * OMEGA0 * t * 2.0 - 2.0 * big_gamma
    assert abs((with_phase - without) - 1j * 8.0 * big_m) < 1e-15
    assert abs(with_phase.real - without.real) == 0.0


def test_decoherence_free_pairs_common_bath():
    # under the shared bath a pair is frozen exactly when the weights match
    t = 2.0
    for m in range(8):
        for n in range(8):
            expo = decoherence_exponent(COMMON_NM, m, n, t)
            if dynamics._Z[m] == dynamics._Z[n]:
                assert expo == 0.0
            else:
                assert expo.real < 0.0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("spec", [LOCAL_M, LOCAL_NM, COMMON_M, COMMON_NM],
                         ids=["local_markov", "local_non_markov", "common_markov", "common_non_markov"])
def test_engines_return_real_kernel_integrals(spec, engine):
    # two real integrals per time, and no free phase, which is the propagation's
    integrals, weights = dynamics._ENGINES[engine]
    values = integrals(spec, np.linspace(0.0, 2.0, 5) / G0)
    assert values.shape == (5, 2) and values.dtype == np.float64
    # a local bath has no Lamb phase, so its weights, and so its exponent table, are real
    assert np.isrealobj(weights[spec.topology]) == (spec.topology == "local")


def test_local_bath_has_no_frozen_off_diagonal():
    t = 2.0
    for m in range(8):
        for n in range(8):
            if m != n:
                assert decoherence_exponent(LOCAL_NM, m, n, t).real < 0.0


# ---------------------------------------------------------------- propagate

def test_grid_matches_single_times():
    # the closed form evaluates the kernels once per grid; every sample must
    # equal the one-time evaluation bit for bit
    rho0 = make_state(StateSpec("star"))
    times = np.linspace(0.0, 2.0, 9) / G0
    for spec in (COMMON_M, LOCAL_M, COMMON_NM, LOCAL_NM):
        rhos = propagate_grid(spec, rho0, times)
        for t, rho in zip(times, rhos):
            factors = np.array([[decoherence_exponent(spec, m, n, t) for n in range(8)]
                                for m in range(8)])
            assert np.array_equal(rho, rho0 * np.exp(factors))


def test_propagate_identity_at_zero_time():
    rho0 = make_state(StateSpec("star"))
    for spec, engine in ((COMMON_M, "closed_form"), (LOCAL_NM, "closed_form"), (COMMON_M, "ode"),
                         (LOCAL_NM, "ode")):
        assert np.max(np.abs(propagate_grid(spec, rho0, [0.0], engine)[-1] - rho0)) < 1e-15


def test_w_state_frozen_under_common_bath():
    # all three components carry weight +1, so every pair is frozen
    rho0 = make_state(StateSpec("w"))
    for spec in (COMMON_M, COMMON_NM):
        rho = propagate_grid(spec, rho0, [0.0, 5.0])[-1]
        assert np.max(np.abs(rho - rho0)) < 1e-12


def test_w_state_frozen_under_common_bath_ode():
    rho0 = make_state(StateSpec("w"))
    rho = propagate_grid(COMMON_M, rho0, [0.0, 5.0], "ode")[-1]
    assert np.max(np.abs(rho - rho0)) < 1e-8


def test_ghz_extreme_coherence_decay():
    # |rho_07| = 0.5 exp(-18 g0 t); at g0 t = 0.1 that is 0.5 exp(-1.8)
    rho = propagate_grid(COMMON_M, make_state(StateSpec("ghz")), [0.0, 0.1 / G0])[-1]
    assert abs(abs(rho[0, 7]) - 0.08264944411079325) < 1e-14
    assert abs(rel_entropy_coherence(rho) - 0.013724766816962441) < 1e-12


def test_diagonal_states_are_stationary():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, size=8)
    rho0 = np.diag(w / w.sum()).astype(complex)
    assert np.max(np.abs(propagate_grid(COMMON_M, rho0, [0.0, 7.0])[-1] - rho0)) == 0.0
    assert np.max(np.abs(propagate_grid(LOCAL_M, rho0, [0.0, 7.0], "ode")[-1] - rho0)) < 1e-8


def test_coherence_envelope_decreases_markov():
    rho0 = make_state(StateSpec("ghz"))
    times = np.linspace(0.0, 30.0, 16)
    rhos = propagate_grid(COMMON_M, rho0, times)
    mags = np.abs(rhos[:, 0, 7])
    assert np.all(np.diff(mags) < 0.0)


def test_lamb_phase_changes_elements_not_magnitudes():
    rho0 = make_state(StateSpec("star"))
    t = 2.0
    rho_with = propagate_grid(COMMON_NM, rho0, [0.0, t])[-1]
    # take the Lamb phase exp(i M(t) (Z_m^2 - Z_n^2)) off each element
    big_m = kernel_integrals(COMMON_NM, t)[1]
    z = dynamics._Z
    rho_without = rho_with * np.exp(-1j * big_m * (z[:, None] ** 2 - z[None, :] ** 2))
    assert np.max(np.abs(rho_with - rho_without)) > 1e-9
    assert np.max(np.abs(np.abs(rho_with) - np.abs(rho_without))) < 1e-15
    diff = abs(rel_entropy_coherence(rho_with) - rel_entropy_coherence(rho_without))
    assert diff < 1e-12


# ------------------------------------------------------------ engine parity

@pytest.mark.parametrize("spec", [COMMON_M, LOCAL_M, COMMON_NM, LOCAL_NM],
                         ids=["common_markov", "local_markov",
                              "common_non_markov", "local_non_markov"])
def test_engines_agree_on_ghz(spec):
    rho0 = make_state(StateSpec("ghz"))
    times = np.array([0.0, 1.5, 3.0])
    closed = propagate_grid(spec, rho0, times)
    ode = propagate_grid(spec, rho0, times, "ode")
    assert np.max(np.abs(closed - ode)) < 1e-6


def test_engines_agree_on_mixture():
    rho0 = make_state(StateSpec("ghz-w", p=0.5))
    times = np.array([0.0, 3.0])
    closed = propagate_grid(LOCAL_M, rho0, times)
    ode = propagate_grid(LOCAL_M, rho0, times, "ode")
    assert np.max(np.abs(closed - ode)) < 1e-6


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("memory", MEMORIES)
def test_engines_agree_without_coupling(topology, memory):
    # eta = 0 leaves only the free phase; no decay rate bounds the ODE step, so even a
    # memory time 1/lambda of 1e-10 takes one substep per interval, out to t = 1e300
    rho0 = make_state(StateSpec("ghz"))
    for lambda_cutoff, times in ((DEFAULT_LAMBDA_CUTOFF, [0.0, 5.0]), (1e10, [0.0, 5.0, 1e300])):
        bath = BathSpec(eta=0.0, lambda_cutoff=lambda_cutoff, topology=topology, memory=memory)
        ode = propagate_grid(bath, rho0, times, "ode")
        assert np.array_equal(ode, propagate_grid(bath, rho0, times))
        assert abs(ode[-1, 0, 7]) == pytest.approx(0.5)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("state", ["ghz", "star"])
def test_engines_agree_when_memory_outpaces_gamma0(topology, state):
    # lambda / kbt = 1e3: the early peak of gamma(t) and the Lamb rate
    # 8 mu(t) reach eta * lambda = 0.5, some 80 times gamma0
    bath = BathSpec(eta=0.5, lambda_cutoff=1.0, kbt=1e-3, topology=topology, memory="non_markov")
    rho0 = make_state(StateSpec(state))
    times = np.linspace(0.0, 3.0, 4)
    closed = propagate_grid(bath, rho0, times)
    ode = propagate_grid(bath, rho0, times, "ode")
    assert np.max(np.abs(closed - ode)) < 1e-6


def test_ode_work_budget_is_checked_before_any_kernel_call(monkeypatch):
    def kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(dynamics, "kernel_rates", kernel)
    bath = BathSpec(eta=1e-8, memory="non_markov")
    times = np.linspace(0.0, 0.2, 201) / markov_rate(bath)
    with pytest.raises(ValueError, match="eta = 1e-08") as info:
        propagate_grid(bath, make_state(StateSpec("ghz")), times, "ode")
    assert "t_max" in str(info.value) and "closed_form" in str(info.value)


@pytest.mark.parametrize("bath, t_max", [(BathSpec(eta=1e-300, memory="non_markov"), 0.2),
                                         (BathSpec(memory="non_markov"), 1e300)], ids=["eta", "t_max"])
def test_ode_work_budget_holds_past_2_63_substeps(bath, t_max):
    # 1e298 substeps or more: an int cast of the counts would wrap under the budget.
    # A Markov trace takes one substep per grid interval, so only memory gets here.
    with pytest.raises(ValueError, match="over the budget") as info:
        coherence_trace(bath, StateSpec("ghz"), np.linspace(0.0, t_max, 201) / markov_rate(bath), "ode")
    message = str(info.value)
    for field in (f"eta = {bath.eta:g}", f"lambda = {bath.lambda_cutoff:g}", f"kbt = {bath.kbt:g}"):
        assert field in message
    assert message.endswith("; lower lambda, shorten t_max or use engine closed_form")
    assert "raise eta" not in message


@pytest.mark.parametrize("bath", [BathSpec(), BathSpec(lambda_cutoff=1e-9, memory="non_markov")],
                         ids=["markov", "memory"])
def test_ode_work_budget_over_the_grid_points_advises_fewer(bath):
    # 200001 intervals, none split: the count prints whole, and only fewer points help
    with pytest.raises(ValueError, match="200001 Magnus substeps to reach t = 1, over the budget of 200000") as info:
        propagate_grid(bath, make_state(StateSpec("ghz")), np.linspace(0.0, 1.0, 200002), "ode")
    assert str(info.value).endswith("; use fewer grid points or engine closed_form")


@pytest.mark.parametrize("eta, lam, kbt, engine, error", [
    (1e-300, 1e-300, 1e-3, "ode", None),  # lambda ** -2 raised OverflowError; a numpy power gives inf
    (1e-300, 1e-300, 1e30, "closed_form", "bath kernels overflow"),  # the Stirling shift took ceil(-inf)
    (1e30, 1e300, 1e-300, "ode", "over the budget"),  # steps of 0.05 / lambda = 5e-302 to t = 8e-32
])
def test_kernel_and_step_overflows_name_the_bath(eta, lam, kbt, engine, error):
    bath = BathSpec(eta=eta, lambda_cutoff=lam, kbt=kbt, memory="non_markov")
    grid = np.linspace(0.0, 1e-300, 5) / markov_rate(bath)
    if error is None:
        values = coherence_trace(bath, StateSpec("ghz"), grid, engine)
        assert np.allclose(values, math.log(2.0), rtol=0.0, atol=1e-12)
        return
    with pytest.raises(ValueError, match=error) as info:
        coherence_trace(bath, StateSpec("ghz"), grid, engine)
    assert "eta = " in str(info.value) and "lambda = " in str(info.value)



@pytest.mark.parametrize("engine", ENGINES)
def test_states_lost_to_rounding_fail_naming_the_bath(engine):
    # gamma0 t = 1e-6 at eta = 1e-30 is t = 1e24: star's phases, rounded
    # one by one, no longer make a state
    bath = BathSpec(eta=1e-30)
    with pytest.raises(ValueError, match="violates density-matrix invariants") as info:
        coherence_trace(bath, StateSpec("star"), np.linspace(0.0, 1e-6, 5) / markov_rate(bath), engine)
    for field in ("on the grid to t = 1e+24 at eta = 1e-30", "lambda = ", "kbt = ", "; shorten t_max or change them"):
        assert field in str(info.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_propagated_states_pass_the_bounds_of_the_measures(engine):
    # star's rounded phases at t up to 7.8e8 leave eigenvalues near -2e-8: inside
    # a 1e-6 output bound, but "not a state" to C_R, which allows -1e-8
    bath = BathSpec(eta=1.0, kbt=5.7e-19, topology="local")
    times = np.linspace(0.0, 5.6e-9, 201) / markov_rate(bath)
    with pytest.raises(ValueError, match="min eigenvalue -1.852e-08"):
        propagate_grid(bath, make_state(StateSpec("star")), times, engine)

def test_ode_kernel_rows_must_be_finite(monkeypatch):
    # inf rows make non-finite factors, which both entry points report as the bath's overflow
    monkeypatch.setattr(dynamics, "kernel_rates",
                        lambda bspec, t: np.stack([np.where(t > 1.0, np.inf, 0.1), 0.0 * t], axis=-1))
    with pytest.raises(ValueError, match="eta = 0.1, lambda = 0.01, kbt = 0.0795775; shorten t_max"):
        propagate_grid(BathSpec(), make_state(StateSpec("ghz")), [0.0, 2.0], "ode")
    with pytest.raises(ValueError, match="bath kernels overflow on the grid to t = 2 at eta = 0.1, "
                                         "lambda = 0.01, kbt = 0.0795775; shorten t_max"):
        coherence_trace(BathSpec(), StateSpec("ghz"), np.array([0.0, 0.2]) / G0, "ode")


def spoil_kernel(monkeypatch, engine, column):
    """Set one column of the engine's bath kernel to inf: 0 is gamma or Gamma, 1 is mu or M.
    The closed form holds kernel_integrals in _ENGINES, and ode looks up kernel_rates in dynamics."""
    kernel = kernel_integrals if engine == "closed_form" else kernel_rates

    def spoiled(bspec, t):
        values = kernel(bspec, t)
        values[..., column] = np.inf
        return values
    if engine == "closed_form":
        monkeypatch.setitem(dynamics._ENGINES, engine, (spoiled, dynamics._CLOSED))
    else:
        monkeypatch.setattr(dynamics, "kernel_rates", spoiled)


@pytest.mark.parametrize("entry", ["propagate_grid", "coherence_trace"])
@pytest.mark.parametrize("engine, kernel", [("closed_form", "kernel_integrals"), ("ode", "kernel_rates")])
def test_both_engines_report_an_inf_kernel_as_the_bath_overflow(monkeypatch, engine, kernel, entry):
    # each engine's inf kernel (Gamma, or gamma) makes non-finite factors, which the one
    # check reports by the same text, raised afresh rather than translated from another error
    spoil_kernel(monkeypatch, engine, 0)
    bath = BathSpec(memory="non_markov")
    times = np.linspace(0.0, 0.2, 5) / G0
    expected = dynamics._OVERFLOW.format(what="bath kernels overflow", t=times[-1], b=bath)
    with pytest.raises(ValueError) as info:
        if entry == "propagate_grid":
            propagate_grid(bath, make_state(StateSpec("ghz")), times, engine)
        else:
            coherence_trace(bath, StateSpec("ghz"), times, engine)
    assert str(info.value) == expected and info.value.__context__ is None


@pytest.mark.parametrize("engine, kernel", [("closed_form", "kernel_integrals"), ("ode", "kernel_rates")])
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("memory", MEMORIES)
def test_a_trace_calls_its_bath_kernel_once(monkeypatch, engine, kernel, topology, memory):
    # the closed form reads (Gamma, M) off one kernel_integrals call, and ode takes (gamma, mu)
    # at all its stage times from one kernel_rates call; neither calls the other's kernel
    calls = []

    def counted(name, kernel):
        def counting(*args):
            calls.append(name)
            return kernel(*args)
        return counting
    monkeypatch.setitem(dynamics._ENGINES, "closed_form",
                        (counted("kernel_integrals", kernel_integrals), dynamics._CLOSED))
    monkeypatch.setattr(dynamics, "kernel_rates", counted("kernel_rates", kernel_rates))
    bath = BathSpec(topology=topology, memory=memory)
    coherence_trace(bath, StateSpec("ghz"), np.linspace(0.0, 0.2, 201) / markov_rate(bath), engine)
    assert calls == [kernel]


def test_the_closed_form_engine_is_the_bath_integrals():
    assert dynamics._ENGINES["closed_form"][0] is kernel_integrals


@pytest.mark.parametrize("engine", ENGINES)
def test_an_integral_of_weight_zero_may_overflow(monkeypatch, engine):
    # a local bath's Lamb shift multiplies sigma_z^2 = 1 and drops out, so an inf Lamb kernel moves no element
    bath = BathSpec(topology="local", memory="non_markov")
    times = np.linspace(0.0, 0.2, 5) / markov_rate(bath)
    expected = coherence_trace(bath, StateSpec("ghz"), times, engine)
    spoil_kernel(monkeypatch, engine, 1)
    assert np.array_equal(coherence_trace(bath, StateSpec("ghz"), times, engine), expected)


def test_a_bath_with_no_coupling_moves_nothing_to_the_end_of_the_float_range():
    # at eta = 0 both kernels are exactly 0: M was 0 * inf = nan where lambda t overflows,
    # and the closed form raised its overflow error
    bath = BathSpec(eta=0.0, lambda_cutoff=1e10, kbt=1e-160, memory="non_markov")
    rho0 = make_state(StateSpec("ghz"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rhos = propagate_grid(bath, rho0, np.linspace(0.0, 1e300, 5))
    assert np.allclose(np.diagonal(rhos, axis1=1, axis2=2), np.diagonal(rho0), rtol=0.0, atol=1e-12)
    assert np.allclose(np.abs(rhos[:, 0, 7]), 0.5, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("engine", ENGINES)
def test_subnormal_gamma0_propagates_without_numpy_warnings(engine):
    # gamma0 = 4 pi eta kbt is subnormal; the ODE step of a Markov bath is inf and divides by no rate
    bath = BathSpec(eta=1e-300, kbt=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rhos = propagate_grid(bath, make_state(StateSpec("ghz")), [0.0, 1.0], engine)
    assert abs(rhos[-1, 0, 7]) == pytest.approx(0.5)


def test_ode_long_markov_interval_is_one_substep_in_small_memory():
    # one 80-long interval of a constant Markov rate is one Magnus substep, whose
    # Simpson integral is exact, so its tables stay small
    rho0 = make_state(StateSpec("ghz"))
    tracemalloc.start()
    try:
        propagate_grid(BathSpec(), rho0, [0.0, 80.0], "ode")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dissipator_weights_are_read_off_the_operator_form(topology):
    # the ode's table, read off the dissipator, is the closed form's, built from the bits, bit for bit
    ode, closed = dynamics._WEIGHTS[topology], dynamics._CLOSED[topology]
    assert ode.shape == closed.shape == (2, 64) and ode.dtype == closed.dtype
    assert ode.tobytes() == closed.tobytes()


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dissipators_are_schur_multipliers(topology):
    # each shipped map sends every basis matrix E_mn to a multiple of itself,
    # the weight _WEIGHTS holds for rho_mn; the image of the all-ones matrix
    # gives the weights only for such a map
    basis = np.eye(64).reshape(64, 8, 8)
    for apply, weights in zip(dynamics._DISSIPATORS[topology], dynamics._WEIGHTS[topology], strict=True):
        images = apply(basis).reshape(64, 64)
        assert not np.any(images[~np.eye(64, dtype=bool)]), "the map moves weight off its element"
        assert np.array_equal(images.diagonal(), weights)


def test_traces_read_the_topology_tables_built_at_import(monkeypatch):
    # no trace applies a dissipator map
    def refuse(*args, **kwargs):
        raise AssertionError("a trace rebuilt a topology table")

    for topology in TOPOLOGIES:
        monkeypatch.setitem(dynamics._DISSIPATORS, topology, (refuse, refuse))
    for engine in ENGINES:
        for topology in TOPOLOGIES:
            values = coherence_trace(BathSpec(topology=topology), StateSpec("ghz"), np.linspace(0.0, 1.0, 5) / G0,
                                     engine)
            assert values[0] == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_emit_exactly_hermitian_stacks(engine):
    # 24 cases: both topologies and memories, the default bath and a cold,
    # strongly coupled one, and ghz, star and w; no output is re-symmetrized
    baths = [{}, {"eta": 0.5, "lambda_cutoff": 1.0, "kbt": 1e-3}]
    for topology, memory, kwargs, name in itertools.product(TOPOLOGIES, MEMORIES, baths, ("ghz", "star", "w")):
        bath = BathSpec(topology=topology, memory=memory, **kwargs)
        times = np.linspace(0.0, 3.0 if memory == "markov" else 0.2, 41) / markov_rate(bath)
        rhos = propagate_grid(bath, make_state(StateSpec(name)), times, engine)
        assert np.array_equal(rhos, rhos.conj().swapaxes(1, 2)), (topology, memory, kwargs, name)


@pytest.mark.parametrize("topology, memory, substeps", [
    ("common", "markov", 200),
    ("local", "markov", 200),
    ("common", "non_markov", 200),
    ("local", "non_markov", 200),
])
def test_default_ode_panels_keep_their_step_rule(monkeypatch, topology, memory, substeps):
    # the stage-time table has one row per Magnus substep: one per grid interval,
    # as a Markov rate is constant and the memory step 0.05 / lambda = 5 exceeds
    # the spacing 0.01 of the 200 intervals to t = 2
    taken, counts = [], []

    def counting(coefficients, grid, per_interval):
        def table(stages):
            taken.append(len(stages))
            return coefficients(stages)
        counts.append(per_interval)
        return ode_propagate(table, grid, per_interval)

    monkeypatch.setattr(dynamics, "ode_propagate", counting)
    bath = BathSpec(topology=topology, memory=memory)
    times = np.linspace(0.0, 3.0 if memory == "markov" else 0.2, 201) / markov_rate(bath)
    coherence_trace(bath, StateSpec("ghz"), times, "ode")
    assert taken == [substeps]
    assert len(counts) == 1 and np.array_equal(counts[0], np.ones(200))


# ------------------------------------------------------------------- traces

def test_trace_w_state_is_flat():
    values = coherence_trace(COMMON_M, StateSpec("w"), np.linspace(0.0, 3.0, 7) / G0)
    assert np.max(np.abs(values - math.log(3.0))) < 1e-10


def test_trace_initial_points():
    values = coherence_trace(COMMON_M, StateSpec("ghz"), np.array([0.0]) / G0)
    assert abs(values[0] - math.log(2.0)) < 1e-12
    values = coherence_trace(LOCAL_M, StateSpec("werner-w", p=0.1), np.array([0.0]) / G0)
    assert abs(values[0] - 0.0216114649) < 1e-3


def test_trace_is_one_c_r_per_grid_point_closed_form_by_default():
    times = np.linspace(0.0, 1.0, 3) / G0
    values = coherence_trace(COMMON_M, StateSpec("ghz"), times)
    assert values.shape == times.shape
    rhos = propagate_grid(COMMON_M, make_state(StateSpec("ghz")), times, "closed_form")
    # C_R of the stack is the per-matrix C_R, bit for bit
    assert np.array_equal(values, rel_entropy_coherence(rhos))
    assert np.array_equal(values, [rel_entropy_coherence(rho) for rho in rhos])


def test_trace_takes_one_eigensolve_per_sample(monkeypatch):
    # the dephased state's spectrum is its diagonal; only S(rho) needs eigh.
    # The one stack check is C_R's, of the output; the catalog's rho0 is sample 0
    shapes = {"eigh": [], "eigvalsh": []}

    def counting(name):
        solve = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return solve(a, *args, **kwargs)
        return counted

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))
    coherence_trace(COMMON_NM, StateSpec("ghz"), np.linspace(0.0, 0.2, 201) / G0)
    assert shapes == {"eigh": [(8, 8)] * 201, "eigvalsh": [(201, 8, 8)]}


def test_trace_names_a_state_that_is_not_a_spec():
    with pytest.raises(ValueError, match="^state: expected a StateSpec, such as StateSpec\\('ghz'\\), got 'ghz'"):
        coherence_trace(BathSpec(), "ghz", np.linspace(0.0, 1.0, 3) / G0)


@pytest.mark.parametrize("engine", ENGINES)
def test_trace_takes_the_times_of_propagate_grid(engine):
    # one time convention: the trace is C_R of propagate_grid on the same times, bit for bit
    bath, state, times = COMMON_NM, StateSpec("star"), np.linspace(0.0, 0.2, 21) / G0
    expected = rel_entropy_coherence(propagate_grid(bath, make_state(state), times, engine))
    assert np.array_equal(coherence_trace(bath, state, times, engine), expected)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_trace_at_zero_coupling_keeps_the_c_r_of_rho0(engine, topology):
    # eta = 0: gamma0 = 0, so there is no gamma0*t axis, but absolute times run; only the free phase moves
    bath = BathSpec(eta=0.0, topology=topology, memory="non_markov")
    values = coherence_trace(bath, StateSpec("ghz"), np.linspace(0.0, 100.0, 11), engine)
    assert np.allclose(values, rel_entropy_coherence(make_state(StateSpec("ghz"))), rtol=0.0, atol=1e-12)


# --------------------------------------------------------------- validation

def test_propagate_grid_rejects_unknown_engine():
    with pytest.raises(ValueError):
        propagate_grid(BathSpec(), make_state(StateSpec("ghz")), [0.0, 1.0], "euler")
    assert set(ENGINES) == {"closed_form", "ode"}


def test_propagate_rejects_invalid_state():
    with pytest.raises(ValueError):
        propagate_grid(COMMON_M, 2.0 * make_state(StateSpec("ghz")), [0.0, 1.0])
    with pytest.raises(ValueError):
        propagate_grid(COMMON_M, np.diag([1.1, -0.1, 0, 0, 0, 0, 0, 0]), [0.0, 1.0])


@pytest.mark.parametrize("rho0", ["x", {}, [["1", "x"]]], ids=["string", "dict", "strings"])
def test_propagate_names_rho0_that_is_not_numbers(rho0):
    with pytest.raises(ValueError, match=r"^rho0: expected an 8x8 matrix or an \(n, 8, 8\) stack of numbers"):
        propagate_grid(COMMON_M, rho0, [0.0, 1.0])


@pytest.mark.parametrize("count, spoiled", [(1, None), (3, None), (3, 1), (3, 2)],
                         ids=["one", "three", "three-second-bad", "three-third-bad"])
def test_propagate_takes_one_rho0_not_a_stack(count, spoiled):
    # rho0 is one matrix at t = 0, so no index of a stack may read the grid's times
    stack = np.stack([make_state(StateSpec("ghz"))] * count)
    if spoiled is not None:
        stack[spoiled] *= 2.0
    told = rf"^rho0 {spoiled} violates" if spoiled else rf"^rho0: expected an 8x8 matrix, got shape \({count}, 8, 8\)$"
    with pytest.raises(ValueError, match=told):
        propagate_grid(COMMON_M, stack, [0.0, 1.0])


@pytest.mark.parametrize("engine", [["ode"], np.array(["ode"])], ids=["list", "array"])
def test_propagate_grid_names_an_unhashable_engine(engine):
    told = "^field 'engine': must be one of closed_form, ode; got " + re.escape(repr(engine)) + "$"
    with pytest.raises(ValueError, match=told):
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), [0.0, 1.0], engine)


@pytest.mark.parametrize("engine", [{}, np.array(["ode"])], ids=["dict", "array"])
def test_trace_names_an_unhashable_engine(engine):
    told = "^field 'engine': must be one of closed_form, ode; got " + re.escape(repr(engine)) + "$"
    with pytest.raises(ValueError, match=told):
        coherence_trace(COMMON_M, StateSpec("ghz"), [0.0, 1.0], engine)


def test_propagate_rejects_negative_time():
    with pytest.raises(ValueError, match="-1.0"):
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), [0.0, -1.0])


@pytest.mark.parametrize("grid", [[], [0.5, 1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0], "abc", 1j, [0.0, 1j],
                                  np.array([0.0, 1j]), [[0.0], [1.0, 2.0]], ["0", "1"], np.array([False, True])])
def test_propagate_grid_validation(grid):
    with pytest.raises(ValueError, match="^time"):
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), grid)


def spoil_engine(monkeypatch, engine, k, value, where=np.ones((8, 8))):
    """Make an engine's exponent table add ``value`` at the elements ``where`` marks, from sample k on:
    an extra integral column holds ``value`` from k on, and an extra weight row holds ``where``."""
    integrals, weights = dynamics._ENGINES[engine]

    def spoiled(bspec, times):
        return np.column_stack([integrals(bspec, times), np.where(np.arange(len(times)) >= k, value, 0.0)])
    tables = {topology: np.vstack([table, where.reshape(1, 64)]) for topology, table in weights.items()}
    monkeypatch.setitem(dynamics._ENGINES, engine, (spoiled, tables))


def test_output_invariant_check_trips_on_corruption(monkeypatch):
    rho0 = make_state(StateSpec("ghz"))
    times = np.array([0.0, 1.0])
    corner = np.zeros((8, 8))
    corner[0, 7] = 1.0  # grows rho_07 but not rho_70
    for engine in ENGINES:
        spoil_engine(monkeypatch, engine, 1, np.log(1.01))
        with pytest.raises(ValueError, match="trace residual 1.0"):
            propagate_grid(COMMON_M, rho0, times, engine)
        monkeypatch.undo()
        spoil_engine(monkeypatch, engine, 1, 1e-3, corner)
        with pytest.raises(ValueError, match="hermiticity"):
            propagate_grid(COMMON_M, rho0, times, engine)
        monkeypatch.undo()


@pytest.mark.parametrize("k", [1, 117, 200])
@pytest.mark.parametrize("add", [np.nan, np.log(1.01)], ids=["nan", "1.01"])
def test_output_check_names_the_first_bad_sample(monkeypatch, add, k):
    # each engine's exponents go bad from sample k on: nan factors are the bath's
    # overflow, and states grown by 1.01 fail the one stack check, which names
    # that sample's t as :g
    times = np.linspace(0.0, 3.0, 201) / G0
    for engine in ENGINES:
        spoil_engine(monkeypatch, engine, k, add)
        if np.isnan(add):
            with pytest.raises(ValueError, match=f"^bath kernels overflow on the grid to t = {times[-1]:g} at eta = 0.1"):
                propagate_grid(COMMON_M, make_state(StateSpec("ghz")), times, engine)
        else:
            with pytest.raises(ValueError) as info:
                propagate_grid(COMMON_M, make_state(StateSpec("ghz")), times, engine)
            assert f"propagated state at t={times[k]:g} violates" in str(info.value)
        monkeypatch.undo()
