"""The named initial states of the three-qubit register, and the invariant check.

Basis convention used everywhere in this package: basis index m is the
bitstring q1 q2 q3 with qubit 1 as the most significant bit, so
|000> = index 0 and |111> = index 7, and sigma_z |0> = +|0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PURE_STATE_NAMES",
    "MIXED_STATE_NAMES",
    "STATE_NAMES",
    "StateSpec",
    "make_state",
    "residuals",
]

PURE_STATE_NAMES = ("ghz", "w", "wbar", "wwbar", "star")
MIXED_STATE_NAMES = ("ghz-w", "werner-ghz", "werner-w")
STATE_NAMES = PURE_STATE_NAMES + MIXED_STATE_NAMES


def _ket(*bitstrings: str) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    for bits in bitstrings:
        v[int(bits, 2)] = 1.0
    return v / math.sqrt(len(bitstrings))


_VECTORS = {
    "ghz": _ket("000", "111"),
    "w": _ket("100", "010", "001"),
    "wbar": _ket("011", "101", "110"),
    "wwbar": _ket("100", "010", "001", "011", "101", "110"),
    "star": _ket("000", "100", "101", "111"),
}


@dataclass(frozen=True)
class StateSpec:
    """A named state plus its mixing weight p (ignored for the pure ones)."""

    name: str
    p: float = 1.0

    def __post_init__(self):
        if self.name not in STATE_NAMES:
            raise ValueError(f"unknown state {self.name!r}; valid names: {', '.join(STATE_NAMES)}")
        if isinstance(self.p, bool) or not (isinstance(self.p, (int, float)) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be a number in [0, 1], got {self.p!r}")


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def make_state(spec: StateSpec) -> np.ndarray:
    """Density matrix (8x8 complex) for the given spec.

    ghz-w mixes the two pure states with weights p and 1-p; the werner states
    mix with (1-p)/8 of the identity.
    """
    if spec.name in PURE_STATE_NAMES:
        return _projector(_VECTORS[spec.name])
    p = float(spec.p)
    if spec.name == "ghz-w":
        return p * _projector(_VECTORS["ghz"]) + (1.0 - p) * _projector(_VECTORS["w"])
    base = "ghz" if spec.name == "werner-ghz" else "w"
    return p * _projector(_VECTORS[base]) + (1.0 - p) / 8.0 * np.eye(8, dtype=complex)


def residuals(rhos) -> np.ndarray:
    """How far each matrix of an (n, 8, 8) stack is from a density matrix.

    Row i holds max|rho - rho^dag|, |tr rho - 1| and minus the smallest
    eigenvalue of (rho + rho^dag)/2; a matrix with a non-finite entry reads
    inf in all three.  Raises only on a shape other than (n, 8, 8).
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (8, 8):
        raise ValueError(f"expected an (n, 8, 8) stack, got shape {rhos.shape}")
    finite = np.isfinite(rhos).all(axis=(1, 2))
    if not finite.all():  # a copy only when needed; eigvalsh takes no inf or nan
        rhos = np.where(finite[:, None, None], rhos, 0.0)
    adjoint = rhos.conj().swapaxes(1, 2)
    herm = np.abs(rhos - adjoint).max(axis=(1, 2))
    adjoint += rhos  # rho + rho^dag, in the copy that conj() made
    out = np.stack([herm, np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0),
                    -np.linalg.eigvalsh(adjoint)[:, 0] / 2.0], axis=1)
    out[~finite] = np.inf
    return out
