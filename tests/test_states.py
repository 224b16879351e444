import re

import numpy as np
import pytest

from tridephase import states
from tridephase.states import (MIXED_STATE_NAMES, PURE_STATE_NAMES, STATE_BOUNDS,
                               STATE_NAMES, StateSpec, check_states, make_state)

SQ2 = 1.0 / np.sqrt(2.0)
SQ3 = 1.0 / np.sqrt(3.0)
SQ6 = 1.0 / np.sqrt(6.0)


def permute_qubits(rho: np.ndarray, order) -> np.ndarray:
    """Relabel the three qubits; order maps new position -> old position."""
    idx = []
    for m in range(8):
        bits = ((m >> 2) & 1, (m >> 1) & 1, m & 1)
        new = (bits[order[0]] << 2) | (bits[order[1]] << 1) | bits[order[2]]
        idx.append(new)
    inv = np.argsort(idx)
    return rho[np.ix_(inv, inv)]


# ------------------------------------------------------------------ vectors

def state_vector(name):
    """Amplitudes of a pure catalog state, read back from its projector.

    Every catalog amplitude is real and non-negative, so it is the square
    root of the projector's diagonal; the projector must then be its outer
    product.
    """
    rho = make_state(StateSpec(name))
    vec = np.sqrt(np.diag(rho).real)
    assert np.max(np.abs(rho - np.outer(vec, vec))) < 1e-15
    return vec


def test_vector_components():
    # basis index is the bitstring q1 q2 q3 read as binary, msb = qubit 1
    ghz = state_vector("ghz")
    assert np.allclose(ghz[[0, 7]], SQ2)
    assert np.allclose(np.delete(ghz, [0, 7]), 0.0)

    w = state_vector("w")
    assert np.allclose(w[[4, 2, 1]], SQ3)
    assert np.allclose(w[[0, 3, 5, 6, 7]], 0.0)

    wbar = state_vector("wbar")
    assert np.allclose(wbar[[3, 5, 6]], SQ3)

    wwbar = state_vector("wwbar")
    assert np.allclose(wwbar[1:7], SQ6)
    assert wwbar[0] == wwbar[7] == 0.0

    star = state_vector("star")
    assert np.allclose(star[[0, 4, 5, 7]], 0.5)
    assert np.allclose(star[[1, 2, 3, 6]], 0.0)


@pytest.mark.parametrize("name", PURE_STATE_NAMES)
def test_vectors_are_normalized(name):
    vec = state_vector(name)
    assert abs(np.vdot(vec, vec).real - 1.0) < 1e-14


def test_vector_orthogonality():
    # tr(rho_a rho_b) = |<a|b>|^2 for two pure states
    def overlap(a, b):
        return abs(np.trace(make_state(StateSpec(a)) @ make_state(StateSpec(b))))

    assert overlap("ghz", "w") < 1e-30
    assert overlap("w", "wbar") < 1e-30
    assert overlap("ghz", "wwbar") < 1e-30


# ----------------------------------------------------------------- matrices

@pytest.mark.parametrize("name", PURE_STATE_NAMES)
def test_pure_states_are_projectors(name):
    rho = make_state(StateSpec(name))
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.max(np.abs(rho @ rho - rho)) < 1e-14


def test_ghz_w_mixture_spectrum():
    # the two projectors are orthogonal, so the mixture has eigenvalues
    # {p, 1-p} and six zeros
    rho = make_state(StateSpec("ghz-w", p=0.3))
    lam = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(lam[:6], 0.0, atol=1e-14)
    assert np.allclose(lam[6:], [0.3, 0.7], atol=1e-14)


def test_werner_w_spectrum_at_half():
    rho = make_state(StateSpec("werner-w", p=0.5))
    lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert abs(lam[0] - 0.5625) < 1e-14
    assert np.allclose(lam[1:], 0.0625, atol=1e-14)


def test_werner_endpoints():
    assert np.allclose(make_state(StateSpec("werner-ghz", p=1.0)),
                       make_state(StateSpec("ghz")), atol=1e-15)
    assert np.allclose(make_state(StateSpec("werner-ghz", p=0.0)),
                       np.eye(8) / 8.0, atol=1e-15)


def test_mixture_endpoints():
    assert np.allclose(make_state(StateSpec("ghz-w", p=1.0)),
                       make_state(StateSpec("ghz")), atol=1e-15)
    assert np.allclose(make_state(StateSpec("ghz-w", p=0.0)),
                       make_state(StateSpec("w")), atol=1e-15)


@pytest.mark.parametrize("name", ["ghz", "w", "wbar", "wwbar"])
def test_exchange_symmetric_states(name):
    rho = make_state(StateSpec(name))
    for order in [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0)]:
        assert np.max(np.abs(permute_qubits(rho, order) - rho)) < 1e-12


def test_star_breaks_exchange_symmetry():
    # the star state singles out qubit 2 as the hub; swapping the outer
    # qubits 1 and 3 changes the matrix
    rho = make_state(StateSpec("star"))
    swapped = permute_qubits(rho, (2, 1, 0))
    assert np.max(np.abs(swapped - rho)) > 1e-2


# --------------------------------------------------------------- validation

# the input bounds of propagate_grid: hermiticity, trace, -min eigenvalue
INPUT_BOUNDS = (1e-12, 1e-12, 1e-10)


def valid(rho) -> bool:
    return bool(np.all(states._residuals(rho[None])[0] <= INPUT_BOUNDS))


@pytest.mark.parametrize("name", STATE_NAMES)
def test_catalog_states_validate(name):
    # coherence_trace takes the catalog's rho0 without checking it again
    for tenths in range(11):
        rho = make_state(StateSpec(name, p=tenths / 10))
        assert valid(rho), tenths
        herm, trace, negative = states._residuals(rho[None])[0]
        assert herm < 1e-14
        assert trace < 1e-13
        assert negative < 1e-14


def test_validate_flags_broken_trace():
    rho = make_state(StateSpec("ghz")) * 1.01
    assert not valid(rho)
    assert states._residuals(rho[None])[0, 1] > 1e-3


def test_validate_flags_non_hermitian():
    rho = make_state(StateSpec("ghz")).astype(complex)
    rho[0, 1] += 1e-3
    assert not valid(rho)
    assert states._residuals(rho[None])[0, 0] > 1e-4


def test_validate_flags_negative_eigenvalue():
    rho = np.diag([1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    assert not valid(rho)
    assert states._residuals(rho[None])[0, 2] > 0.09


def test_validate_rejects_wrong_shape():
    # check_states reads an 8x8 matrix or an (n, 8, 8) stack, and names what it reads and any other shape
    for shape in [(1, 4, 4), (8,), (2, 2, 8, 8)]:
        with pytest.raises(ValueError, match=r"^rho: expected .* stack, got shape " + re.escape(str(shape)) + "$"):
            check_states(np.zeros(shape), STATE_BOUNDS, "rho")
    # and returns the stack, a lone matrix as a stack of one; a complex input is viewed, not copied
    ghz = make_state(StateSpec("ghz"))
    stack = check_states(ghz, STATE_BOUNDS, "rho")
    assert stack.shape == (1, 8, 8) and np.shares_memory(stack, ghz) and np.array_equal(stack[0], ghz)


def test_residuals_measure_each_matrix_of_a_stack():
    # one stack call must equal the per-matrix calls, and a non-finite matrix
    # reads inf in every column without disturbing its neighbours
    stack = np.stack([make_state(StateSpec(name, p=0.4)) for name in STATE_NAMES])
    stack[1] *= 1.01
    stack[2, 0, 7] += 1e-3
    stack[3, 0, 0] = np.nan
    stack[4, 1, 1] = np.inf
    res = states._residuals(stack)
    assert res.shape == (len(STATE_NAMES), 3)
    for rho, row in zip(stack, res):
        assert np.array_equal(states._residuals(rho[None])[0], row)
    assert np.all(res[3:5] == np.inf)
    assert np.all(np.isfinite(res[[0, 1, 2, 5, 6, 7]]))


# --------------------------------------------------------------- spec errors

def test_state_spec_rejects_unknown_name():
    with pytest.raises(ValueError):
        StateSpec("ghzz")


@pytest.mark.parametrize("name", [np.array(["ghz"]), np.array(["ghz", "w"])], ids=["one", "two"])
def test_state_spec_names_a_name_that_is_not_a_string(name):
    # an array was stored, to fail as unhashable later, or was numpy's ambiguous truth value
    with pytest.raises(ValueError, match="^field 'state': unknown state array"):
        StateSpec(name)


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), True, "0.5", np.bool_(True), np.float32("nan"), np.int64(2)])
def test_state_spec_rejects_bad_weight(p):
    with pytest.raises(ValueError, match="field 'p'"):
        StateSpec("werner-w", p=p)


@pytest.mark.parametrize("spec", ["ghz", None, ("ghz", 1.0)], ids=["name", "none", "tuple"])
def test_make_state_names_a_state_that_is_not_a_spec(spec):
    with pytest.raises(ValueError, match="^state: expected a StateSpec"):
        make_state(spec)


def test_state_spec_stores_a_float_weight():
    for p in (np.float32(0.5), np.int64(1), 0.5):
        spec = StateSpec("werner-w", p=p)
        assert spec.p == float(p) and type(spec.p) is float


def test_state_spec_stores_weight_one_for_a_pure_state():
    # p only mixes the two parts of a mixture, so a pure state's is 1 once it passes the range check
    assert StateSpec("ghz", 0.3) == StateSpec("ghz")
    assert StateSpec("w", np.float32(0.0)).p == 1.0
    with pytest.raises(ValueError, match="field 'p'"):
        StateSpec("ghz", 1.5)


def test_name_catalogs_are_disjoint():
    assert set(PURE_STATE_NAMES) | set(MIXED_STATE_NAMES) == set(STATE_NAMES)
    assert not set(PURE_STATE_NAMES) & set(MIXED_STATE_NAMES)
