import math
import tracemalloc

import numpy as np
import pytest

from tridephase import dynamics
from tridephase.bath import (MEMORIES, TOPOLOGIES, BathSpec, cumulative_decoherence,
                             lamb_kernel, markov_rate)
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
    """log of the factor multiplying rho_mn(0) at time t, read off the grid path."""
    return complex(dynamics._exponents(spec, np.array([t]))[0, m, n])


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
    without = -0.5j * OMEGA0 * t * 2.0 - 2.0 * cumulative_decoherence(COMMON_NM, t)
    _, big_m = lamb_kernel(COMMON_NM, t)
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
    _, big_m = lamb_kernel(COMMON_NM, t)
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
    # eta = 0 leaves only the free phase; no decay rate bounds the ODE step
    bath = BathSpec(eta=0.0, topology=topology, memory=memory)
    rho0 = make_state(StateSpec("ghz"))
    closed = propagate_grid(bath, rho0, [0.0, 5.0])[-1]
    ode = propagate_grid(bath, rho0, [0.0, 5.0], "ode")[-1]
    assert np.max(np.abs(closed - ode)) < 1e-12
    assert abs(ode[0, 7]) == pytest.approx(0.5)


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

    monkeypatch.setattr(dynamics, "dephasing_rate", kernel)
    monkeypatch.setattr(dynamics, "lamb_kernel", kernel)
    bath = BathSpec(eta=1e-8, memory="non_markov")
    times = np.linspace(0.0, 0.2, 201) / markov_rate(bath)
    with pytest.raises(ValueError, match="eta = 1e-08") as info:
        propagate_grid(bath, make_state(StateSpec("ghz")), times, "ode")
    assert "t_max" in str(info.value) and "closed_form" in str(info.value)


@pytest.mark.parametrize("bath, t_max", [(BathSpec(eta=1e-300, memory="non_markov"), 0.2),
                                         (BathSpec(), 1e300)], ids=["eta", "t_max"])
def test_ode_work_budget_holds_past_2_63_substeps(bath, t_max):
    # 1e298 substeps or more: an int cast of the counts would wrap under the budget
    with pytest.raises(ValueError, match="over the budget") as info:
        coherence_trace(bath, StateSpec("ghz"), np.linspace(0.0, t_max, 201), "ode")
    message = str(info.value)
    assert f"eta = {bath.eta:g}" in message and "t_max" in message
    assert ("lambda = " in message) == (bath.memory == "non_markov")


@pytest.mark.parametrize("eta, lam, kbt, engine, error", [
    (1e-300, 1e-300, 1e-3, "ode", None),  # lambda ** -2 raised OverflowError; a numpy power gives inf
    (1e-300, 1e-300, 1e30, "closed_form", "bath kernels overflow"),  # the Stirling shift took ceil(-inf)
    (1e30, 1e300, 1e-300, "ode", "over the budget"),  # eta * lambda = inf made a step of 0, read as no step
])
def test_kernel_and_step_overflows_name_the_bath(eta, lam, kbt, engine, error):
    bath = BathSpec(eta=eta, lambda_cutoff=lam, kbt=kbt, memory="non_markov")
    grid = np.linspace(0.0, 1e-300, 5)
    if error is None:
        values = coherence_trace(bath, StateSpec("ghz"), grid, engine)
        assert np.allclose(values, math.log(2.0), rtol=0.0, atol=1e-12)
        return
    with pytest.raises(ValueError, match=error) as info:
        coherence_trace(bath, StateSpec("ghz"), grid, engine)
    assert "eta = " in str(info.value) and "lambda = " in str(info.value)



@pytest.mark.parametrize("engine", ENGINES)
def test_states_lost_to_rounding_fail_naming_the_bath(engine):
    # gamma0 t = 1e-6 at eta = 1e-30 is t = 2.5e23: star's phases, rounded
    # one by one, no longer make a state
    with pytest.raises(ValueError, match="violates density-matrix invariants") as info:
        coherence_trace(BathSpec(eta=1e-30), StateSpec("star"), np.linspace(0.0, 1e-6, 5), engine)
    for field in ("eta = 1e-30", "lambda = ", "kbt = ", "t_max = 1e-06"):
        assert field in str(info.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_propagated_states_pass_the_bounds_of_the_measures(engine):
    # star's rounded phases at t up to 7.8e8 leave eigenvalues near -2e-8: inside
    # a 1e-6 output bound, but "not a state" to C_R, which allows -1e-8
    bath = BathSpec(eta=1.0, kbt=5.7e-19, topology="local")
    times = np.linspace(0.0, 5.6e-9, 201) / markov_rate(bath)
    with pytest.raises(RuntimeError, match="min eigenvalue -1.852e-08"):
        propagate_grid(bath, make_state(StateSpec("star")), times, engine)

def test_ode_kernel_rows_must_be_finite(monkeypatch):
    monkeypatch.setattr(dynamics, "dephasing_rate", lambda bspec, t: np.where(t > 1.0, np.inf, 0.1))
    with pytest.raises(ValueError, match="eta = 0.1, lambda = 0.01, kbt = 0.0795775; shorten t_max"):
        propagate_grid(BathSpec(), make_state(StateSpec("ghz")), [0.0, 2.0], "ode")


def test_ode_peak_memory_is_bounded_by_blocks():
    # one interval of 14400 RK4 substeps; the factors are formed 256 at a time
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
    weights = dynamics._schur_weights(dynamics._DISSIPATORS[topology])
    assert weights.shape == (2, 8, 8)
    z = dynamics._Z
    if topology == "common":
        expected_g = -((z[:, None] - z[None, :]) ** 2) / 2.0
        expected_mu = 1j * (z[:, None] ** 2 - z[None, :] ** 2)
    else:
        flipped = [bin(m ^ n).count("1") for m in range(8) for n in range(8)]
        expected_g = -2.0 * np.reshape(flipped, (8, 8))
        expected_mu = np.zeros((8, 8))
    assert np.array_equal(weights[0], expected_g)
    assert np.array_equal(weights[1], expected_mu)


def test_schur_weights_reject_a_map_that_mixes_elements():
    sx = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(4))
    with pytest.raises(RuntimeError, match="Schur"):
        dynamics._schur_weights([lambda rho: sx @ rho @ sx])


@pytest.mark.parametrize("topology, classes", [("common", 7), ("local", 4)])
def test_ode_integrates_one_equation_per_rate_class(monkeypatch, topology, classes):
    # elements with the same (W_g, W_mu) weights share one equation; the result
    # must match integrating all 64 elements at their own rates
    calls = []

    def recording(rate, y0, grid, max_step=None, *, coefficients):
        calls.append((rate, grid, max_step, coefficients))
        return ode_propagate(rate, y0, grid, max_step, coefficients=coefficients)

    monkeypatch.setattr(dynamics, "ode_propagate", recording)
    v = np.random.default_rng(3).normal(size=(8, 2)) @ [1.0, 1j]
    rho0 = np.outer(v, v.conj()) / np.vdot(v, v).real
    times = np.linspace(0.0, 0.2, 41) / G0
    bath = BathSpec(topology=topology, memory="non_markov")
    rhos = propagate_grid(bath, rho0, times, "ode")

    ((rate, grid, max_step, coefficients),) = calls
    assert rate(np.ones((5, 3, 2))).shape == (5, 3, classes)
    weights = dynamics._schur_weights(dynamics._DISSIPATORS[topology])
    ref = ode_propagate(lambda c: np.tensordot(c, weights, 1), rho0, grid, max_step,
                        coefficients=coefficients)
    z = dynamics._Z
    ref = ref * np.exp(-0.5j * OMEGA0 * grid[:, None, None] * (z[:, None] - z[None, :]))
    ref = (ref + np.conj(np.swapaxes(ref, 1, 2))) / 2.0
    assert np.max(np.abs(rhos - ref)) < 1e-15


@pytest.mark.parametrize("topology, memory, substeps", [
    ("common", "markov", 5509),
    ("local", "markov", 1911),
    ("common", "non_markov", 400),
    ("local", "non_markov", 399),
])
def test_default_ode_panels_keep_their_step_rule(monkeypatch, topology, memory, substeps):
    # the stage-time table has one row per RK4 substep
    taken = []

    def counting(rate, y0, grid, max_step=None, *, coefficients):
        def table(stages):
            taken.append(len(stages))
            return coefficients(stages)
        return ode_propagate(rate, y0, grid, max_step, coefficients=table)

    monkeypatch.setattr(dynamics, "ode_propagate", counting)
    coherence_trace(BathSpec(topology=topology, memory=memory), StateSpec("ghz"),
                    np.linspace(0.0, 3.0 if memory == "markov" else 0.2, 201), "ode")
    assert taken == [substeps]


# ------------------------------------------------------------------- traces

def test_trace_w_state_is_flat():
    values = coherence_trace(COMMON_M, StateSpec("w"), np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(values - math.log(3.0))) < 1e-10


def test_trace_initial_points():
    values = coherence_trace(COMMON_M, StateSpec("ghz"), np.array([0.0]))
    assert abs(values[0] - math.log(2.0)) < 1e-12
    values = coherence_trace(LOCAL_M, StateSpec("werner-w", p=0.1), np.array([0.0]))
    assert abs(values[0] - 0.0216114649) < 1e-3


def test_trace_is_one_c_r_per_grid_point_closed_form_by_default():
    grid = np.linspace(0.0, 1.0, 3)
    values = coherence_trace(COMMON_M, StateSpec("ghz"), grid)
    assert values.shape == grid.shape
    rhos = propagate_grid(COMMON_M, make_state(StateSpec("ghz")), grid / markov_rate(COMMON_M), "closed_form")
    # C_R of the stack is the per-matrix C_R, bit for bit
    assert np.array_equal(values, rel_entropy_coherence(rhos))
    assert np.array_equal(values, [rel_entropy_coherence(rho) for rho in rhos])


def test_trace_takes_one_eigensolve_per_sample(monkeypatch):
    # the dephased state's spectrum is its diagonal; only S(rho) needs eigh.
    # The stacks are checked once each: rho0, then the output as C_R's input
    shapes = {"eigh": [], "eigvalsh": []}

    def counting(name):
        solve = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return solve(a, *args, **kwargs)
        return counted

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))
    coherence_trace(COMMON_NM, StateSpec("ghz"), np.linspace(0.0, 0.2, 201))
    assert shapes == {"eigh": [(8, 8)] * 201, "eigvalsh": [(1, 8, 8), (201, 8, 8)]}


def test_trace_rejects_zero_coupling():
    with pytest.raises(ValueError):
        coherence_trace(BathSpec(eta=0.0), StateSpec("ghz"), np.array([0.0, 1.0]))


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


def test_propagate_rejects_negative_time():
    with pytest.raises(ValueError, match="-1.0"):
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), [0.0, -1.0])


@pytest.mark.parametrize("grid", [[], [0.5, 1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
def test_propagate_grid_validation(grid):
    with pytest.raises(ValueError):
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), grid)


def spoil_exponents(monkeypatch, k, add):
    """Make the closed form add ``add`` (8x8) to the exponents of sample k."""
    exponents = dynamics._exponents

    def spoiled(*args):
        expo = exponents(*args)
        expo[k] += add
        return expo
    monkeypatch.setattr(dynamics, "_exponents", spoiled)


def test_output_invariant_check_trips_on_corruption(monkeypatch):
    rho0 = make_state(StateSpec("ghz"))
    times = np.array([0.0, 1.0])
    spoil_exponents(monkeypatch, 1, np.full((8, 8), np.log(1.01)))
    with pytest.raises(RuntimeError, match="trace residual 1.0"):
        propagate_grid(COMMON_M, rho0, times)
    monkeypatch.undo()
    add = np.zeros((8, 8))
    add[0, 7] = 1e-3  # grows rho_07 but not rho_70
    spoil_exponents(monkeypatch, 1, add)
    with pytest.raises(RuntimeError, match="hermiticity"):
        propagate_grid(COMMON_M, rho0, times)


@pytest.mark.parametrize("k", [1, 117, 200])
@pytest.mark.parametrize("factor", [np.nan, 1.01])
def test_output_check_names_the_first_bad_sample(monkeypatch, factor, k):
    # the ODE's factors go bad from sample k on; the one stack check names
    # that sample's t as :g
    def spoiled(*args, **kwargs):
        factors = ode_propagate(*args, **kwargs)
        factors[k:] *= factor
        return factors

    monkeypatch.setattr(dynamics, "ode_propagate", spoiled)
    times = np.linspace(0.0, 3.0, 201) / G0
    with pytest.raises(RuntimeError) as info:
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), times, "ode")
    assert f"propagated state at t={times[k]:g} violates" in str(info.value)
