"""Propagation of the three-qubit register under pure dephasing.

Two engines solve the same master equations.  "closed_form" exponentiates
the elementwise solution

    local:  rho_mn(t) = rho_mn(0) * exp(-i w0/2 (Z_m - Z_n) t
                                        - sum_i 2 [bit_i differs] Gamma_i(t))
    common: rho_mn(t) = rho_mn(0) * exp(-i w0/2 (Z_m - Z_n) t
                                        + i (Z_m^2 - Z_n^2) M(t)
                                        - (Z_m - Z_n)^2 / 2 * Gamma(t))

while "ode" integrates the right-hand side of the master equation directly
with fixed-step RK4.  The two routes are kept independent so each one checks
the other.  Z_m is the collective sigma_z eigenvalue of basis index m and
the free phases are kept (Schroedinger picture); they drop out of every
coherence measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, cumulative_decoherence, dephasing_rate, lamb_kernel, markov_rate
from .measures import CoherenceTrace, rel_entropy_coherence
from .numerics import check_time, ode_propagate
from .states import StateSpec, make_state, validate

__all__ = [
    "OMEGA0",
    "ENGINES",
    "PropagatorSpec",
    "z_weight",
    "decoherence_exponent",
    "propagate",
    "propagate_grid",
    "coherence_trace",
]

OMEGA0 = 1.0  # qubit splitting; fixes the unit of time

ENGINES = ("closed_form", "ode")

# one row of bits per basis index, qubit 1 first (most significant)
_BITS = np.array([[(m >> (2 - i)) & 1 for i in range(3)] for m in range(8)])
_Z = np.sum(1 - 2 * _BITS, axis=1)

# tolerances on the propagated state: normal operation stays within the
# strict value; past the loose one something is structurally wrong
_OUTPUT_TOL = 1e-6


@dataclass(frozen=True)
class PropagatorSpec:
    """Bath plus the engine used to evolve states under it."""

    bath: BathSpec
    engine: str = "closed_form"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


def _check_index(m: int) -> int:
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= 7):
        raise ValueError(f"basis index must be an integer in 0..7, got {m!r}")
    return int(m)


def z_weight(m: int) -> int:
    """Collective sigma_z eigenvalue sum_i (1 - 2 bit_i) of basis index m."""
    return int(_Z[_check_index(m)])


def _check_state(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    report = validate(rho)
    if not report.valid:
        raise ValueError(
            "rho is not a valid density matrix: "
            f"hermiticity {report.hermiticity_residual:.3e}, "
            f"trace residual {report.trace_residual:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}")
    return rho


def _check_output(rho: np.ndarray, t: float) -> None:
    report = validate(rho)
    ok = (report.hermiticity_residual <= _OUTPUT_TOL
          and report.trace_residual <= _OUTPUT_TOL
          and report.min_eigenvalue >= -_OUTPUT_TOL)
    if not ok:
        raise RuntimeError(
            f"propagated state at t={t!r} violates density-matrix invariants: "
            f"hermiticity {report.hermiticity_residual:.3e}, "
            f"trace residual {report.trace_residual:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}")


def _exponents(bspec: BathSpec, times: np.ndarray, include_lamb_phase: bool = True) -> np.ndarray:
    """log of the factor multiplying rho_mn(0), shape (len(times), 8, 8).

    One kernel call covers the whole grid; the broadcast expression applies
    the same operations in the same order to each sample.
    """
    t = times[:, None, None]
    big_gamma = cumulative_decoherence(bspec, times)[:, None, None]
    dz = _Z[:, None] - _Z[None, :]
    expo = (-0.5j * OMEGA0 * t) * dz
    if bspec.topology == "common":
        expo = expo - (dz.astype(float) ** 2 / 2.0) * big_gamma
        if include_lamb_phase:
            big_m = lamb_kernel(bspec, times)[1][:, None, None]
            zsq = _Z[:, None] ** 2 - _Z[None, :] ** 2
            expo = expo + (1j * big_m) * zsq
    else:
        # per-qubit sum; the three baths are identical here, but the structure
        # admits qubit-dependent kernels
        big_gammas = [big_gamma] * 3
        damp = sum(2.0 * (_BITS[:, None, i] != _BITS[None, :, i]) * big_gammas[i] for i in range(3))
        expo = expo - damp
    return expo


def decoherence_exponent(spec: PropagatorSpec, m: int, n: int, t, include_lamb_phase: bool = True) -> complex:
    """log of the factor multiplying rho_mn(0) at time t (0 on the diagonal)."""
    m = _check_index(m)
    n = _check_index(n)
    t = check_time(t)
    return complex(_exponents(spec.bath, np.array([t]), include_lamb_phase)[0, m, n])


def _internal_step(bspec: BathSpec, times: np.ndarray) -> float:
    # the fastest elementwise rates: free phase at (w0/2)|Z_m - Z_n| <= 3 w0,
    # decay at up to 18 * gamma0 (common) or 6 * gamma0 (local)
    rate = max(3.0 * OMEGA0, 18.0 * markov_rate(bspec))
    step = 1e-2 / rate
    if len(times) > 1:
        step = min(step, float(np.min(np.diff(times))))
    return step


def _ode_grid(spec: PropagatorSpec, rho0: np.ndarray, times: np.ndarray,
              include_lamb_phase: bool = True) -> np.ndarray:
    bspec = spec.bath
    h_mat = np.diag((0.5 * OMEGA0) * _Z).astype(complex)

    if bspec.topology == "common":
        sz = np.diag(_Z.astype(complex))
        sz2 = sz @ sz

        def rhs(t: float, rho: np.ndarray) -> np.ndarray:
            g = dephasing_rate(bspec, t)
            mu = lamb_kernel(bspec, t)[0] if include_lamb_phase else 0.0
            alpha = 0.5 * g - 1j * mu
            return (-1j * (h_mat @ rho - rho @ h_mat)
                    + g * (sz @ rho @ sz)
                    - alpha * (sz2 @ rho)
                    - np.conj(alpha) * (rho @ sz2))
    else:
        sz_locals = [np.diag((1.0 - 2.0 * _BITS[:, i]).astype(complex)) for i in range(3)]

        def rhs(t: float, rho: np.ndarray) -> np.ndarray:
            g = dephasing_rate(bspec, t)
            out = -1j * (h_mat @ rho - rho @ h_mat)
            for s in sz_locals:
                out = out + g * (s @ rho @ s - rho)
            return out

    def derivative(t: float, y: np.ndarray) -> np.ndarray:
        rho = (y[:64] + 1j * y[64:]).reshape(8, 8)
        drho = rhs(t, rho)
        return np.concatenate([drho.real.ravel(), drho.imag.ravel()])

    y0 = np.concatenate([rho0.real.ravel(), rho0.imag.ravel()])
    ys = ode_propagate(derivative, y0, times, max_step=_internal_step(bspec, times))
    rhos = ys[:, :64].reshape(-1, 8, 8) + 1j * ys[:, 64:].reshape(-1, 8, 8)
    # re-symmetrize each emitted sample; RK4 drift is below 1e-10 but not zero
    return (rhos + np.conj(np.swapaxes(rhos, 1, 2))) / 2.0


def propagate_grid(spec: PropagatorSpec, rho0, times, include_lamb_phase: bool = True) -> np.ndarray:
    """Evolve rho0 across a strictly increasing time grid starting at 0.

    Returns an (n, 8, 8) array of density matrices, one per grid point, each
    checked against the state invariants.
    """
    times = check_time(times, grid=True)
    rho0 = _check_state(rho0)
    if spec.engine == "closed_form":
        out = rho0 * np.exp(_exponents(spec.bath, times, include_lamb_phase))
    else:
        out = _ode_grid(spec, rho0, times, include_lamb_phase)
    for t, rho in zip(times, out):
        _check_output(rho, t)
    return out


def propagate(spec: PropagatorSpec, rho0, t, include_lamb_phase: bool = True) -> np.ndarray:
    """Evolve rho0 to a single time t (absolute units of 1/omega0)."""
    t = check_time(t)
    grid = np.array([0.0]) if t == 0.0 else np.array([0.0, t])
    return propagate_grid(spec, rho0, grid, include_lamb_phase)[-1]


def coherence_trace(spec: PropagatorSpec, state: StateSpec, gamma0_t) -> CoherenceTrace:
    """Sample the relative entropy of coherence along a gamma0*t grid.

    The grid is dimensionless (gamma0 * t, the x axis of all the plots);
    actual times are gamma0_t / gamma0, so eta = 0 is rejected.
    """
    grid = np.asarray(gamma0_t, dtype=float)
    g0 = markov_rate(spec.bath)
    if g0 <= 0.0:
        raise ValueError("gamma0 = 0 (eta = 0): the gamma0*t axis is undefined")
    rho0 = make_state(state)
    rhos = propagate_grid(spec, rho0, grid / g0)
    values = np.array([rel_entropy_coherence(rho) for rho in rhos])
    return CoherenceTrace(gamma0_t=grid.copy(), values=values,
                          state=state, bath=spec.bath, engine=spec.engine)
