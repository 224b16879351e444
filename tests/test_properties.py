"""Property tests on drawn scenarios.

C_R along a trace, and of single matrices, is checked against a per-sample
reference, which takes C_R one matrix at a time with two eigensolves, so any
faster path must reproduce it bit for bit.  The two engines are checked
against each other on drawn baths, and both keep the diagonal of rho0 bit
for bit.
Every config over the whole numeric domain either runs or fails naming a
field and reads as PyYAML's pure-Python safe loader reads it, and a failing
property prints its falsifying example.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridephase.bath import MEMORIES, TOPOLOGIES, BathSpec, kernel_integrals, markov_rate
from tridephase.dynamics import ENGINES, coherence_trace, propagate_grid
from tridephase.measures import rel_entropy_coherence
from tridephase.runner import ConfigError, _Loader, parse_config, run_scenarios
from tridephase.states import MIXED_STATE_NAMES, STATE_NAMES, StateSpec, make_state

pytest_plugins = ["pytester"]

TOL = 1e-6
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def reference_coherence(rho):
    """C_R of one matrix: one eigh per matrix, clipping to [0, 1], and
    np.sum over the terms of the positive eigenvalues."""
    def entropy(h):
        lam = np.clip(np.linalg.eigh((h + h.conj().T) / 2.0)[0][::-1], 0.0, 1.0)
        positive = lam[lam > 0.0]
        return -np.sum(positive * np.log(positive))

    value = entropy(np.diag(np.diag(rho))) - entropy(rho)
    return 0.0 if value < 0.0 else value


def density_with_populations(rng, populations, rank):
    """A density matrix whose diagonal is exactly ``populations``, of rank at
    most ``rank``: their square roots times a random correlation matrix."""
    b = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    gram = b @ b.conj().T
    norms = np.sqrt(np.diag(gram).real)
    root = np.sqrt(populations)
    rho = root[:, None] * (gram / np.outer(norms, norms)) * root[None, :]
    np.fill_diagonal(rho, populations)
    return rho


def test_coherence_matches_the_two_eigensolve_reference_bit_for_bit():
    rng = np.random.default_rng(0)
    matrices = []
    for _ in range(200):  # full rank
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        matrices.append(rho / np.trace(rho).real)
    for _ in range(200):  # rank 1-7, with zero populations and tied ones (weights 1-3)
        support = rng.integers(1, 9)
        weights = np.zeros(8)
        weights[rng.choice(8, support, replace=False)] = rng.integers(1, 4, size=support)
        matrices.append(density_with_populations(rng, weights / weights.sum(), rng.integers(1, 8)))
    for name in STATE_NAMES:
        matrices += [make_state(StateSpec(name, k / 10)) for k in range(11)]
    for rho in matrices:
        assert np.array_equal(rel_entropy_coherence(rho), reference_coherence(rho))


scenarios = st.fixed_dictionaries({
    "state": st.builds(StateSpec, st.sampled_from(STATE_NAMES), st.floats(0.0, 1.0)),
    "bath": st.builds(BathSpec, eta=st.floats(0.01, 0.5), lambda_cutoff=st.floats(1e-3, 1.0),
                      kbt=st.floats(0.01, 1.0), topology=st.sampled_from(TOPOLOGIES),
                      memory=st.sampled_from(MEMORIES)),
    "t_max": st.floats(0.01, 3.0),
    "n_points": st.integers(2, 60),
})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(scenarios)
def test_trace_matches_per_sample_reference(sc):
    grid = np.linspace(0.0, sc["t_max"], sc["n_points"])
    values = coherence_trace(sc["bath"], sc["state"], grid)
    rhos = propagate_grid(sc["bath"], make_state(sc["state"]), grid / markov_rate(sc["bath"]))
    assert np.array_equal(values, [reference_coherence(rho) for rho in rhos])

    herm = np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))), axis=(1, 2))
    trace_residual = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    min_eig = [np.linalg.eigvalsh(rho)[0] for rho in rhos]
    assert np.all(herm <= TOL) and np.all(trace_residual <= TOL) and np.all(np.greater_equal(min_eig, -TOL))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(scenarios)
def test_diagonal_is_frozen_and_coherence_never_grows_while_decaying(sc):
    # pure dephasing multiplies rho elementwise by a positive Schur factor of
    # unit diagonal while Gamma(t) grows, an incoherent operation
    grid = np.linspace(0.0, sc["t_max"], sc["n_points"])
    times = grid / markov_rate(sc["bath"])
    rho0 = make_state(sc["state"])
    rhos = propagate_grid(sc["bath"], rho0, times)
    assert np.array_equal(rhos.diagonal(axis1=1, axis2=2), np.tile(np.diag(rho0), (len(times), 1)))

    values = coherence_trace(sc["bath"], sc["state"], grid)
    decaying = np.diff(kernel_integrals(sc["bath"], times)[:, 0]) >= 0.0
    assert np.all(np.diff(values)[decaying] <= 1e-12)


def memory_bath(eta, kbt, u, topology, memory):
    """A bath whose lambda / kbt is log-uniform from its top down to 0.025
    (u = 0 at the top).  The top is 1e3, capped at lambda = 1 and at 1e5 eta:
    at gamma0 t = 0.2 that keeps the Magnus steps of 0.05 / lambda under 32000."""
    top = min(1e3, 1.0 / kbt, 1e5 * eta)
    ratio = top * (0.025 / top) ** u
    return BathSpec(eta=eta, lambda_cutoff=ratio * kbt, kbt=kbt, topology=topology, memory=memory)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# eta log-uniform from 1e-4 to 0.5, kbt from 1e-3 to 0.2, and lambda / kbt up
# to 1e3, where gamma(t) and the Lamb rate reach eta * lambda >> gamma0
engine_scenarios = st.fixed_dictionaries({
    "state": st.builds(StateSpec, st.sampled_from(STATE_NAMES), st.floats(0.0, 1.0)),
    "bath": st.builds(memory_bath, log_uniform(1e-4, 0.5), log_uniform(1e-3, 0.2), st.floats(0.0, 1.0),
                      st.sampled_from(TOPOLOGIES), st.sampled_from(MEMORIES)),
    "t_max": st.floats(0.01, 0.2),
    "n_points": st.integers(2, 6),
})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example({"state": StateSpec("star"), "t_max": 0.2, "n_points": 5,
          "bath": BathSpec(eta=0.5, lambda_cutoff=1.0, kbt=1e-3, memory="non_markov")})
@example({"state": StateSpec("ghz"), "t_max": 0.2, "n_points": 3,
          "bath": BathSpec(eta=0.5, lambda_cutoff=1.0, kbt=1e-3, topology="local", memory="non_markov")})
@given(engine_scenarios)
def test_engines_agree_on_drawn_baths(sc):
    times = np.linspace(0.0, sc["t_max"], sc["n_points"]) / markov_rate(sc["bath"])
    rho0 = make_state(sc["state"])
    closed = propagate_grid(sc["bath"], rho0, times)
    ode = propagate_grid(sc["bath"], rho0, times, "ode")
    assert np.max(np.abs(closed - ode)) < TOL
    # the diagonal's weights and phase are 0, so its factor is exactly 1 and populations never move
    assert np.array_equal(ode.diagonal(axis1=1, axis2=2), np.tile(np.diag(rho0), (len(times), 1)))


markov_scenarios = st.fixed_dictionaries({
    "state": st.builds(StateSpec, st.sampled_from(STATE_NAMES), st.floats(0.0, 1.0)),
    "bath": st.builds(BathSpec, eta=log_uniform(1e-8, 10.0), kbt=log_uniform(1e-6, 10.0),
                      topology=st.sampled_from(TOPOLOGIES)),
    "t_max": st.floats(0.01, 5.0),
    "n_points": st.integers(2, 201),
})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(markov_scenarios)
def test_markov_ode_equals_the_closed_form_on_drawn_baths(sc):
    # a constant rate makes the Magnus step exact over any span, one per interval
    times = np.linspace(0.0, sc["t_max"], sc["n_points"]) / markov_rate(sc["bath"])
    rho0 = make_state(sc["state"])
    closed = propagate_grid(sc["bath"], rho0, times)
    assert np.max(np.abs(propagate_grid(sc["bath"], rho0, times, "ode") - closed)) < 1e-12


# eta, lambda, kbt and t_max log-uniform over [1e-300, 1e300], any state,
# bath and engine, and up to 9 points
config_domain = st.fixed_dictionaries({
    "state": st.sampled_from(STATE_NAMES),
    "p": st.floats(0.0, 1.0),
    "topology": st.sampled_from(TOPOLOGIES),
    "memory": st.sampled_from(MEMORIES),
    "eta": log_uniform(1e-300, 1e300),
    "lambda": log_uniform(1e-300, 1e300),
    "kbt": log_uniform(1e-300, 1e300),
    "t_max": log_uniform(1e-300, 1e300),
    "n_points": st.integers(2, 9),
    "engine": st.sampled_from(ENGINES),
})


def config_text(cfg):
    """One scenario's config document, output x.csv."""
    # YAML 1.1 reads a float only with a dot and a signed exponent, as .17e writes it
    numbers = ("eta", "lambda", "kbt", "t_max") + (("p",) if cfg["state"] in MIXED_STATE_NAMES else ())
    fields = [f"{key}: {cfg[key]:.17e}" for key in numbers]
    fields += [f"{key}: {cfg[key]}" for key in ("state", "topology", "memory", "n_points", "engine")]
    return "scenarios:\n  - {%s, output: x.csv}\n" % ", ".join(fields)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(config_domain)
def test_every_config_reads_as_the_python_safe_loader_reads_it(cfg):
    text = config_text(cfg)
    assert yaml.load(text, Loader=_Loader) == yaml.load(text, Loader=yaml.SafeLoader)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
# rounded phases leave star's min eigenvalue near -2e-8, past what C_R allows
@example({"state": "star", "p": 1.0, "topology": "local", "memory": "markov", "eta": 1.0,
          "lambda": 0.01, "kbt": 5.7e-19, "t_max": 5.6e-9, "n_points": 201, "engine": "closed_form"})
@given(config_domain)
def test_every_config_writes_bounded_coherence_or_names_a_field(cfg):
    with tempfile.TemporaryDirectory() as out:
        try:
            (result,) = run_scenarios(parse_config(config_text(cfg)), out)
            error = result.error
        except ConfigError as exc:
            error = exc
        if error is None:
            rows = (Path(out) / "x.csv").read_text().splitlines()[9:]
            values = np.array([float(row.split(",")[1]) for row in rows])
            assert len(values) == cfg["n_points"]
            assert np.all((values >= 0.0) & (values <= math.log(8.0)))
        else:
            assert isinstance(error, ValueError), repr(error)
            assert any(name in str(error) for name in ("eta", "lambda", "kbt", "t_max", "n_points")), repr(error)


def test_a_failing_property_shows_its_example(pytester, capsys, monkeypatch):
    # under this project's warning filters, a failing @given test must print its
    # falsifying example, not crash the report.  The inner run loads hypothesis's
    # plugin (module _hypothesis_pytestplugin) and no other installed one
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    pytester.makepyfile(test_fails="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "_hypothesis_pytestplugin",
                                           "-c", str(PYPROJECT), "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", "test_fails.py")
    output = result.stdout.str() + result.stderr.str()
    capsys.readouterr()  # pytester echoes the inner run; the assertion shows it on failure
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
    result.assert_outcomes(failed=1)
