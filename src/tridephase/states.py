"""The named initial states of the three-qubit register, and the one density-matrix check.

Basis convention used everywhere in this package: basis index m is the
bitstring q1 q2 q3 with qubit 1 as the most significant bit, so
|000> = index 0 and |111> = index 7, and sigma_z |0> = +|0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_number

__all__ = [
    "CATALOG",
    "PURE_STATE_NAMES",
    "MIXED_STATE_NAMES",
    "StateSpec",
    "make_state",
    "STATE_BOUNDS",
    "check_states",
]

# Each pure state is the equal superposition of its basis strings.  Each
# mixture is p times the projector on its first part plus 1 - p times its
# second part, a projector on a pure state or I/8, the maximally mixed state.
CATALOG = {
    "ghz": ("000", "111"),
    "w": ("100", "010", "001"),
    "wbar": ("011", "101", "110"),
    "wwbar": ("100", "010", "001", "011", "101", "110"),
    "star": ("000", "100", "101", "111"),
    "ghz-w": ("ghz", "w"),
    "werner-ghz": ("ghz", "I/8"),
    "werner-w": ("w", "I/8"),
}
MIXED_STATE_NAMES = tuple(name for name, parts in CATALOG.items() if parts[0] in CATALOG)
PURE_STATE_NAMES = tuple(name for name in CATALOG if name not in MIXED_STATE_NAMES)
STATE_NAMES = PURE_STATE_NAMES + MIXED_STATE_NAMES

# the measures' bounds on the residuals (hermiticity, trace, -min eigenvalue):
# C_R holds its input to them, and propagate_grid its output
STATE_BOUNDS = (1e-8, 1e-6, 1e-8)


def _density(part: str) -> np.ndarray:
    """I/8, or the projector on the equal superposition of a pure state's basis strings."""
    if part == "I/8":
        return np.eye(8, dtype=complex) / 8.0
    v = np.zeros(8, dtype=complex)
    for bits in CATALOG[part]:
        v[int(bits, 2)] = 1.0
    v /= math.sqrt(len(CATALOG[part]))
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class StateSpec:
    """A named state plus its mixing weight p in [0, 1], stored as 1 for the pure ones."""

    name: str
    p: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in STATE_NAMES:
            raise ValueError(f"field 'state': unknown state {self.name!r}; valid names: {', '.join(STATE_NAMES)}")
        object.__setattr__(self, "p", check_number("'p'", self.p))
        if self.p > 1.0:
            raise ValueError(f"field 'p': must lie in [0, 1], got {self.p!r}")
        if self.name in PURE_STATE_NAMES:
            object.__setattr__(self, "p", 1.0)


def make_state(spec: StateSpec) -> np.ndarray:
    """Density matrix (8x8 complex) for the given spec, built from CATALOG; ValueError if it is no StateSpec."""
    if not isinstance(spec, StateSpec):
        raise ValueError(f"state: expected a StateSpec, such as StateSpec('ghz'), got {spec!r}")
    if spec.name in PURE_STATE_NAMES:
        return _density(spec.name)
    first, second = (_density(part) for part in CATALOG[spec.name])
    return spec.p * first + (1.0 - spec.p) * second


def _residuals(rhos: np.ndarray) -> np.ndarray:
    """How far each matrix of a complex (n, 8, 8) stack is from a density matrix.

    Row i holds max|rho - rho^dag|, |tr rho - 1| and minus the smallest
    eigenvalue of (rho + rho^dag)/2; a matrix with a non-finite entry reads
    inf in all three.
    """
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


def check_states(rhos, bounds, what: str, times=None) -> np.ndarray:
    """Read an 8x8 matrix or an (n, 8, 8) stack of numbers and return it as a complex (n, 8, 8) stack.
    Raise ValueError naming ``what`` for anything else, and for the first matrix whose residuals
    exceed ``bounds``: "<what> at t=<time>" with ``times``, else "<what> <index>"."""
    try:
        stack = np.asarray(rhos, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: expected an 8x8 matrix or an (n, 8, 8) stack of numbers ({exc})") from exc
    if stack.ndim not in (2, 3) or stack.shape[-2:] != (8, 8):
        raise ValueError(f"{what}: expected an 8x8 matrix or an (n, 8, 8) stack, got shape {stack.shape}")
    stack = stack.reshape(-1, 8, 8)
    res = _residuals(stack)
    bad = np.flatnonzero(~np.all(res <= bounds, axis=1))
    if len(bad):
        herm, trace, negative = res[bad[0]]
        name = f"{what} at t={float(times[bad[0]]):g}" if times is not None else f"{what} {bad[0]}"
        raise ValueError(f"{name} violates density-matrix invariants: hermiticity "
                         f"{herm:.3e}, trace residual {trace:.3e}, min eigenvalue {-negative:.3e}")
    return stack
