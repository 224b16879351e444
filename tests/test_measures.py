import math

import numpy as np
import pytest

from tridephase.measures import rel_entropy_coherence
from tridephase.states import CATALOG, PURE_STATE_NAMES, STATE_NAMES, StateSpec, make_state

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def random_density(rng, dim=8):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ------------------------------------------------------------------ entropy
# S(rho), seen through C_R = S(dephased rho) - S(rho)

def test_entropy_of_pure_state_is_zero():
    # each pure catalog state spreads its population evenly over its support,
    # so with S = 0 its C_R is the log of the support size
    stack = np.stack([make_state(StateSpec(name)) for name in PURE_STATE_NAMES])
    support = [len(CATALOG[name]) for name in PURE_STATE_NAMES]
    assert np.max(np.abs(rel_entropy_coherence(stack) - np.log(support))) < 1e-12


def test_entropy_of_maximally_mixed():
    # |+><+| on qubit 1 times I/4: S = 2 ln 2 from four eigenvalues 1/4, while
    # the populations are all 1/8
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(rel_entropy_coherence(np.kron(plus, np.eye(4) / 4.0)) - LN2) < 1e-12


def test_entropy_of_werner_w_mixture():
    # spectrum {0.5625, 0.0625 x7} gives S = 1.5366498974881577; the
    # populations are 11/48 three times and 1/16 five times
    dephased = -3.0 * (11.0 / 48.0) * math.log(11.0 / 48.0) - (5.0 / 16.0) * math.log(1.0 / 16.0)
    value = rel_entropy_coherence(make_state(StateSpec("werner-w", p=0.5)))
    assert abs(value - (dephased - 1.5366498974881577)) < 1e-12


def test_entropy_rejects_negative_spectrum():
    with pytest.raises(ValueError, match="min eigenvalue -1.000e-01"):
        rel_entropy_coherence(np.diag([1.1, -0.1, 0, 0, 0, 0, 0, 0]).astype(complex))


def test_entropy_tolerates_roundoff_negatives():
    rho = make_state(StateSpec("ghz"))
    rho[1, 1], rho[2, 2] = -1e-12, 1e-12
    assert abs(rel_entropy_coherence(rho) - LN2) < 1e-10


# ---------------------------------------------------------------- coherence

def test_coherence_of_catalog_states():
    # diagonal parts are uniform over the support, so the initial coherence
    # is the log of the support size
    table = {
        "ghz": LN2,
        "w": LN3,
        "wwbar": math.log(6.0),
        "star": math.log(4.0),
    }
    for name, expected in table.items():
        value = rel_entropy_coherence(make_state(StateSpec(name)))
        assert abs(value - expected) < 1e-12, name


def test_coherence_ordering_of_pure_states():
    values = [rel_entropy_coherence(make_state(StateSpec(n)))
              for n in ("wwbar", "star", "w", "ghz")]
    assert values[0] > values[1] > values[2] > values[3]


def test_coherence_of_diagonal_state_is_zero():
    assert rel_entropy_coherence(np.diag([0.5, 0.2, 0.3, 0, 0, 0, 0, 0]).astype(complex)) == 0.0


def test_coherence_of_ghz_w_mixture():
    # orthogonal-projector mixture: p ln 2 + (1-p) ln 3 minus nothing extra
    value = rel_entropy_coherence(make_state(StateSpec("ghz-w", p=0.1)))
    assert abs(value - 1.0580657778572875) < 1e-12
    value = rel_entropy_coherence(make_state(StateSpec("ghz-w", p=0.5)))
    assert abs(value - 0.8958797346140246) < 1e-12


def test_coherence_of_werner_w_mixture():
    value = rel_entropy_coherence(make_state(StateSpec("werner-w", p=0.1)))
    assert abs(value - 0.02161146490327459) < 1e-9


def test_werner_mixing_never_raises_coherence():
    for base in ("ghz", "w"):
        bare = rel_entropy_coherence(make_state(StateSpec(base)))
        for p in np.linspace(0.0, 1.0, 11):
            mixed = rel_entropy_coherence(make_state(StateSpec(f"werner-{base}", p=float(p))))
            assert mixed <= bare + 1e-12


def test_coherence_is_nonnegative_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        assert rel_entropy_coherence(random_density(rng)) >= 0.0


def test_coherence_invariant_under_diagonal_phases():
    rng = np.random.default_rng(23)
    rho = random_density(rng)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=8))
    u = np.diag(phases)
    rotated = u @ rho @ u.conj().T
    assert abs(rel_entropy_coherence(rotated) - rel_entropy_coherence(rho)) < 1e-10


def _not_states():
    negative = np.diag([1.1, -0.1, 0, 0, 0, 0, 0, 0]).astype(complex)
    imaginary = np.eye(8, dtype=complex) / 8.0
    imaginary[0, 0] += 1e-6j
    nan = np.eye(8, dtype=complex) / 8.0
    nan[0, 1] = np.nan
    ghz, w = make_state(StateSpec("ghz")), make_state(StateSpec("w"))
    return [negative, imaginary, nan, np.eye(8)[:4] / 4.0, 2.0 * ghz, 3.0 * w, 0.5 * w]


@pytest.mark.parametrize("rho", _not_states(), ids=["negative-population", "imaginary-diagonal",
                                                   "nan-entry", "non-square", "trace-2-ghz",
                                                   "trace-3-w", "trace-half-w"])
def test_coherence_rejects_what_is_not_a_state(rho):
    with pytest.raises(ValueError):
        rel_entropy_coherence(rho)


def test_coherence_names_the_first_bad_sample_of_a_stack():
    stack = np.stack([make_state(StateSpec(name)) for name in STATE_NAMES])
    stack[3] *= 2.0
    stack[5, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="sample 3 violates density-matrix invariants: .* trace residual 1.000e"):
        rel_entropy_coherence(stack)
