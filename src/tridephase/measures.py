"""Entropy and coherence measures.  All entropies are in nats."""

from __future__ import annotations

import numpy as np

from .numerics import hermitian_eigenvalues

__all__ = [
    "von_neumann_entropy",
    "rel_entropy_coherence",
]

# eigenvalues below this are a broken state, not roundoff
_EIGENVALUE_FLOOR = -1e-8
# coherence values in [-1e-10, 0) are roundoff and report as 0
_ROUNDOFF_FLOOR = -1e-10


def _entropy(descending: np.ndarray) -> float:
    """-sum x ln x over a descending spectrum clamped to [0, 1], with 0 ln 0 = 0."""
    lam = np.clip(descending, 0.0, 1.0)
    nonzero = lam[lam > 0.0]
    return float(-np.sum(nonzero * np.log(nonzero)))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum lambda ln lambda over the spectrum, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] before the log; anything below
    -1e-8 means the input is not a state and raises.
    """
    eigenvalues = hermitian_eigenvalues(rho)
    smallest = float(eigenvalues[-1])
    if smallest < _EIGENVALUE_FLOOR:
        raise ValueError(f"not a state: eigenvalue {smallest:.3e} below {_EIGENVALUE_FLOOR}")
    return _entropy(eigenvalues)


def rel_entropy_coherence(rho) -> float:
    """Relative entropy of coherence, S(dephased rho) - S(rho).  The dephased
    spectrum is rho's real diagonal: S(rho) validates rho first, and no
    population of a state lies below the state's smallest eigenvalue."""
    s = von_neumann_entropy(rho)
    value = _entropy(np.sort(np.asarray(rho, dtype=complex).diagonal().real)[::-1]) - s
    if value < 0.0:
        if value < _ROUNDOFF_FLOOR:
            raise RuntimeError(f"coherence {value:.3e} is negative beyond roundoff; inputs are inconsistent")
        return 0.0
    return value
