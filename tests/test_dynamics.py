import math
import tracemalloc

import numpy as np
import pytest

from tridephase import dynamics
from tridephase.bath import MEMORIES, TOPOLOGIES, BathSpec, lamb_kernel, markov_rate
from tridephase.dynamics import (ENGINES, OMEGA0, PropagatorSpec,
                                 _check_output, coherence_trace,
                                 decoherence_exponent, propagate,
                                 propagate_grid, z_weight)
from tridephase.measures import rel_entropy_coherence
from tridephase.numerics import ode_propagate
from tridephase.states import StateSpec, make_state

COMMON_M = PropagatorSpec(bath=BathSpec(topology="common", memory="markov"))
LOCAL_M = PropagatorSpec(bath=BathSpec(topology="local", memory="markov"))
COMMON_NM = PropagatorSpec(bath=BathSpec(topology="common", memory="non_markov"))
LOCAL_NM = PropagatorSpec(bath=BathSpec(topology="local", memory="non_markov"))

G0 = markov_rate(COMMON_M.bath)  # 0.1 at default parameters


# ------------------------------------------------------------- index algebra

def test_z_weight_table():
    # net sigma_z weight per basis string, msb = qubit 1
    assert [z_weight(m) for m in range(8)] == [3, 1, 1, -1, 1, -1, -1, -3]


@pytest.mark.parametrize("bad", [-1, 8, 100])
def test_index_bounds(bad):
    with pytest.raises(ValueError):
        z_weight(bad)
    with pytest.raises(ValueError):
        decoherence_exponent(COMMON_M, bad, 0, 1.0)


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
    # weights 3 and 1 for (0, 1): the phase picks up (9 - 1) big_m
    t = 2.0
    with_phase = decoherence_exponent(COMMON_NM, 0, 1, t)
    without = decoherence_exponent(COMMON_NM, 0, 1, t, include_lamb_phase=False)
    _, big_m = lamb_kernel(COMMON_NM.bath, t)
    assert abs((with_phase - without) - 1j * 8.0 * big_m) < 1e-15
    assert abs(with_phase.real - without.real) == 0.0


def test_decoherence_free_pairs_common_bath():
    # under the shared bath a pair is frozen exactly when the weights match
    t = 2.0
    for m in range(8):
        for n in range(8):
            expo = decoherence_exponent(COMMON_NM, m, n, t)
            if z_weight(m) == z_weight(n):
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
    for spec in (COMMON_M, LOCAL_NM, PropagatorSpec(COMMON_M.bath, "ode"),
                 PropagatorSpec(LOCAL_NM.bath, "ode")):
        assert np.max(np.abs(propagate(spec, rho0, 0.0) - rho0)) < 1e-15


def test_w_state_frozen_under_common_bath():
    # all three components carry weight +1, so every pair is frozen
    rho0 = make_state(StateSpec("w"))
    for spec in (COMMON_M, COMMON_NM):
        rho = propagate(spec, rho0, 5.0)
        assert np.max(np.abs(rho - rho0)) < 1e-12


def test_w_state_frozen_under_common_bath_ode():
    rho0 = make_state(StateSpec("w"))
    spec = PropagatorSpec(bath=COMMON_M.bath, engine="ode")
    rho = propagate(spec, rho0, 5.0)
    assert np.max(np.abs(rho - rho0)) < 1e-8


def test_ghz_extreme_coherence_decay():
    # |rho_07| = 0.5 exp(-18 g0 t); at g0 t = 0.1 that is 0.5 exp(-1.8)
    rho = propagate(COMMON_M, make_state(StateSpec("ghz")), 0.1 / G0)
    assert abs(abs(rho[0, 7]) - 0.08264944411079325) < 1e-14
    assert abs(rel_entropy_coherence(rho) - 0.013724766816962441) < 1e-12


def test_diagonal_states_are_stationary():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, size=8)
    rho0 = np.diag(w / w.sum()).astype(complex)
    assert np.max(np.abs(propagate(COMMON_M, rho0, 7.0) - rho0)) == 0.0
    spec_ode = PropagatorSpec(bath=LOCAL_M.bath, engine="ode")
    assert np.max(np.abs(propagate(spec_ode, rho0, 7.0) - rho0)) < 1e-8


def test_coherence_envelope_decreases_markov():
    rho0 = make_state(StateSpec("ghz"))
    times = np.linspace(0.0, 30.0, 16)
    rhos = propagate_grid(COMMON_M, rho0, times)
    mags = np.abs(rhos[:, 0, 7])
    assert np.all(np.diff(mags) < 0.0)


def test_lamb_phase_changes_elements_not_magnitudes():
    rho0 = make_state(StateSpec("star"))
    t = 2.0
    rho_with = propagate(COMMON_NM, rho0, t)
    rho_without = propagate(COMMON_NM, rho0, t, include_lamb_phase=False)
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
    ode = propagate_grid(PropagatorSpec(bath=spec.bath, engine="ode"), rho0, times)
    assert np.max(np.abs(closed - ode)) < 1e-6


def test_engines_agree_on_mixture():
    rho0 = make_state(StateSpec("ghz-w", p=0.5))
    times = np.array([0.0, 3.0])
    closed = propagate_grid(LOCAL_M, rho0, times)
    ode = propagate_grid(PropagatorSpec(bath=LOCAL_M.bath, engine="ode"), rho0, times)
    assert np.max(np.abs(closed - ode)) < 1e-6


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("memory", MEMORIES)
def test_engines_agree_without_coupling(topology, memory):
    # eta = 0 leaves only the free phase; no decay rate bounds the ODE step
    bath = BathSpec(eta=0.0, topology=topology, memory=memory)
    rho0 = make_state(StateSpec("ghz"))
    closed = propagate(PropagatorSpec(bath=bath), rho0, 5.0)
    ode = propagate(PropagatorSpec(bath=bath, engine="ode"), rho0, 5.0)
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
    closed = propagate_grid(PropagatorSpec(bath=bath), rho0, times)
    ode = propagate_grid(PropagatorSpec(bath=bath, engine="ode"), rho0, times)
    assert np.max(np.abs(closed - ode)) < 1e-6


def test_ode_work_budget_is_checked_before_any_kernel_call(monkeypatch):
    def kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(dynamics, "dephasing_rate", kernel)
    monkeypatch.setattr(dynamics, "lamb_kernel", kernel)
    bath = BathSpec(eta=1e-8, memory="non_markov")
    spec = PropagatorSpec(bath=bath, engine="ode")
    times = np.linspace(0.0, 0.2, 201) / markov_rate(bath)
    with pytest.raises(ValueError, match="eta = 1e-08") as info:
        propagate_grid(spec, make_state(StateSpec("ghz")), times)
    assert "t_max" in str(info.value) and "closed_form" in str(info.value)


def test_ode_peak_memory_is_bounded_by_blocks():
    # one interval of 14400 RK4 substeps; the factors are formed 256 at a time
    rho0 = make_state(StateSpec("ghz"))
    spec = PropagatorSpec(bath=BathSpec(), engine="ode")
    tracemalloc.start()
    try:
        propagate(spec, rho0, 80.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dissipator_weights_are_read_off_the_operator_form(topology):
    weights = dynamics._schur_weights(dynamics._DISSIPATORS[topology])
    assert weights.shape == (2, 8, 8)
    z = np.array([z_weight(m) for m in range(8)])
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
    rhos = propagate_grid(PropagatorSpec(bath, "ode"), rho0, times)

    ((rate, grid, max_step, coefficients),) = calls
    assert rate(np.ones((5, 3, 2))).shape == (5, 3, classes)
    weights = dynamics._schur_weights(dynamics._DISSIPATORS[topology])
    ref = ode_propagate(lambda c: np.tensordot(c, weights, 1), rho0, grid, max_step,
                        coefficients=coefficients)
    z = np.array([z_weight(m) for m in range(8)])
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
    spec = PropagatorSpec(bath=BathSpec(topology=topology, memory=memory), engine="ode")
    coherence_trace(spec, StateSpec("ghz"), np.linspace(0.0, 3.0 if memory == "markov" else 0.2, 201))
    assert taken == [substeps]


# ------------------------------------------------------------------- traces

def test_trace_w_state_is_flat():
    trace = coherence_trace(COMMON_M, StateSpec("w"), np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(trace.values - math.log(3.0))) < 1e-10


def test_trace_initial_points():
    trace = coherence_trace(COMMON_M, StateSpec("ghz"), np.array([0.0]))
    assert abs(trace.values[0] - math.log(2.0)) < 1e-12
    trace = coherence_trace(LOCAL_M, StateSpec("werner-w", p=0.1), np.array([0.0]))
    assert abs(trace.values[0] - 0.0216114649) < 1e-3


def test_trace_carries_run_context():
    grid = np.linspace(0.0, 1.0, 3)
    trace = coherence_trace(COMMON_M, StateSpec("ghz"), grid)
    assert trace.engine == "closed_form"
    assert trace.bath is COMMON_M.bath
    assert trace.state.name == "ghz"
    assert np.array_equal(trace.gamma0_t, grid)


def test_trace_rejects_zero_coupling():
    spec = PropagatorSpec(bath=BathSpec(eta=0.0))
    with pytest.raises(ValueError):
        coherence_trace(spec, StateSpec("ghz"), np.array([0.0, 1.0]))


# --------------------------------------------------------------- validation

def test_propagator_spec_rejects_unknown_engine():
    with pytest.raises(ValueError):
        PropagatorSpec(bath=BathSpec(), engine="euler")
    assert set(ENGINES) == {"closed_form", "ode"}


def test_propagate_rejects_invalid_state():
    with pytest.raises(ValueError):
        propagate(COMMON_M, 2.0 * make_state(StateSpec("ghz")), 1.0)
    with pytest.raises(ValueError):
        propagate(COMMON_M, np.diag([1.1, -0.1, 0, 0, 0, 0, 0, 0]), 1.0)


def test_propagate_rejects_negative_time():
    with pytest.raises(ValueError):
        propagate(COMMON_M, make_state(StateSpec("ghz")), -1.0)


@pytest.mark.parametrize("grid", [[], [0.5, 1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
def test_propagate_grid_validation(grid):
    with pytest.raises(ValueError):
        propagate_grid(COMMON_M, make_state(StateSpec("ghz")), grid)


def test_output_invariant_check_trips_on_corruption():
    good = make_state(StateSpec("ghz"))
    with pytest.raises(RuntimeError):
        _check_output(good * 1.01, 1.0)
    bad = good.astype(complex).copy()
    bad[0, 1] += 1e-3
    with pytest.raises(RuntimeError):
        _check_output(bad, 1.0)
