"""Entropy and coherence measures.  All entropies are in nats."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec
from .numerics import hermitian_eigenvalues
from .states import StateSpec

__all__ = [
    "CoherenceTrace",
    "von_neumann_entropy",
    "dephase",
    "rel_entropy_coherence",
]

# eigenvalues below this are a broken state, not roundoff
_EIGENVALUE_FLOOR = -1e-8
# coherence values in [-1e-10, 0) are roundoff and report as 0
_ROUNDOFF_FLOOR = -1e-10


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum lambda ln lambda over the spectrum, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] before the log; anything below
    -1e-8 means the input is not a state and raises.
    """
    eigenvalues = hermitian_eigenvalues(rho)
    smallest = float(eigenvalues[-1])
    if smallest < _EIGENVALUE_FLOOR:
        raise ValueError(f"not a state: eigenvalue {smallest:.3e} below {_EIGENVALUE_FLOOR}")
    lam = np.clip(eigenvalues, 0.0, 1.0)
    nonzero = lam[lam > 0.0]
    return float(-np.sum(nonzero * np.log(nonzero)))


def dephase(rho) -> np.ndarray:
    """Project onto the computational-basis diagonal (kills every coherence)."""
    rho = np.asarray(rho, dtype=complex)
    return np.diag(np.diag(rho))


def rel_entropy_coherence(rho) -> float:
    """Relative entropy of coherence, S(dephase(rho)) - S(rho)."""
    value = von_neumann_entropy(dephase(rho)) - von_neumann_entropy(rho)
    if value < 0.0:
        if value < _ROUNDOFF_FLOOR:
            raise RuntimeError(f"coherence {value:.3e} is negative beyond roundoff; inputs are inconsistent")
        return 0.0
    return value


@dataclass(frozen=True)
class CoherenceTrace:
    """C_R sampled along a gamma0*t grid for one scenario."""

    gamma0_t: np.ndarray
    values: np.ndarray
    state: StateSpec
    bath: BathSpec
    engine: str
