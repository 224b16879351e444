"""The named initial states of the three-qubit register.

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
    "StateReport",
    "make_state",
    "validate",
]

PURE_STATE_NAMES = ("ghz", "w", "wbar", "wwbar", "star")
MIXED_STATE_NAMES = ("ghz-w", "werner-ghz", "werner-w")
STATE_NAMES = PURE_STATE_NAMES + MIXED_STATE_NAMES

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


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


@dataclass(frozen=True)
class StateReport:
    """Residuals of the density-matrix invariants for one matrix."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float

    @property
    def valid(self) -> bool:
        return (self.hermiticity_residual <= HERMITICITY_TOL
                and self.trace_residual <= TRACE_TOL
                and self.min_eigenvalue >= EIGENVALUE_FLOOR)


def validate(rho) -> StateReport:
    """Measure how far a matrix is from being a density matrix.

    Pure check: reports residuals, never raises on a bad state.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0]) if math.isfinite(herm) else -math.inf
    return StateReport(hermiticity_residual=herm, trace_residual=trace, min_eigenvalue=min_eig)
