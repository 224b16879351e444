"""Entropy and coherence measures.  All entropies are in nats."""

from __future__ import annotations

import numpy as np

from .states import STATE_BOUNDS, check_states

__all__ = [
    "rel_entropy_coherence",
]

# coherence values in [-1e-10, 0) are roundoff and report as 0
_ROUNDOFF_FLOOR = -1e-10


def _entropy(descending: np.ndarray) -> float:
    """-sum x ln x over a descending spectrum clamped to [0, 1], with 0 ln 0 = 0."""
    lam = np.clip(descending, 0.0, 1.0)
    nonzero = lam[lam > 0.0]
    return float(-np.sum(nonzero * np.log(nonzero)))


def rel_entropy_coherence(rho):
    """Relative entropy of coherence, S(dephased rho) - S(rho), of one 8x8
    density matrix (a float) or of each matrix of an (n, 8, 8) stack (an array).

    check_states reads rho and checks it once against STATE_BOUNDS, and a ValueError names rho
    or its first bad matrix; a C_R below the roundoff floor is a ValueError too.  The dephased
    spectrum is rho's real diagonal, and no population of a state lies below its smallest eigenvalue.
    S(rho) takes one eigh per matrix, whose eigenvalues the reference CSVs hold.
    """
    stack = check_states(rho, STATE_BOUNDS, "rho")
    values = np.array([_entropy(np.sort(h.diagonal().real)[::-1])
                       - _entropy(np.linalg.eigh((h + h.conj().T) / 2.0)[0][::-1]) for h in stack])
    if np.any(values < _ROUNDOFF_FLOOR):
        raise ValueError(f"coherence {values.min():.3e} is negative beyond roundoff; inputs are inconsistent")
    values = np.where(values < 0.0, 0.0, values)
    return float(values[0]) if np.ndim(rho) == 2 else values
