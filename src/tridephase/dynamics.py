"""Propagation of the three-qubit register under pure dephasing.

Two engines solve the same master equations.  "closed_form" exponentiates
the elementwise solution

    local:  rho_mn(t) = rho_mn(0) * exp(-i w0/2 (Z_m - Z_n) t
                                        - sum_i 2 [bit_i differs] Gamma_i(t))
    common: rho_mn(t) = rho_mn(0) * exp(-i w0/2 (Z_m - Z_n) t
                                        + i (Z_m^2 - Z_n^2) M(t)
                                        - (Z_m - Z_n)^2 / 2 * Gamma(t))

while "ode" integrates the dissipator of the master equation with
fixed-step RK4, one scalar equation per distinct elementwise rate read off
its operator form, in the frame that rotates with the free phase
exp(-i w0/2 (Z_m - Z_n) t); that phase is multiplied back in exactly on
output and drops out of every coherence measure.  The two routes are kept
independent so each one checks the other.  Z_m is the collective sigma_z
eigenvalue of basis index m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, cumulative_decoherence, dephasing_rate, lamb_kernel, markov_rate
from .measures import CoherenceTrace, rel_entropy_coherence
from .numerics import check_time, ode_propagate, substep_counts
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
_DZ = _Z[:, None] - _Z[None, :]

# the dissipator in operator form, the maps on matrix stacks that multiply gamma(t)
# and mu(t); a local bath's Lamb shift multiplies sigma_z^2 = 1 and drops out
_SZ = np.diag(_Z.astype(float))
_SZ_LOCAL = [np.diag(1.0 - 2.0 * _BITS[:, i]) for i in range(3)]
_DISSIPATORS = {
    "common": (lambda rho: _SZ @ rho @ _SZ - (_SZ @ _SZ @ rho + rho @ _SZ @ _SZ) / 2.0,
               lambda rho: 1j * (_SZ @ _SZ @ rho - rho @ _SZ @ _SZ)),
    "local": (lambda rho: sum(s @ rho @ s - rho for s in _SZ_LOCAL), lambda rho: 0.0 * rho),
}

# tolerance on the density-matrix invariants of every propagated state
_OUTPUT_TOL = 1e-6

# RK4 substeps the ode engine may take for one trace; it bounds the stage-time
# and coefficient tables, and such a trace takes about 0.3 s
_MAX_SUBSTEPS = 200_000


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
    expo = (-0.5j * OMEGA0 * t) * _DZ
    if bspec.topology == "common":
        expo = expo - (_DZ.astype(float) ** 2 / 2.0) * big_gamma
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


def _internal_step(bspec: BathSpec, times: np.ndarray) -> float | None:
    """RK4 step: at most the grid spacing, with memory 0.1/lambda (the
    kernels' nearest complex-time pole lies 1/lambda off the real axis), and
    1e-2 over the fastest elementwise rate, 18 gamma in the shared bath (its
    Lamb rate is 8 mu) or 6 gamma with local baths.  With memory gamma(t)
    peaks and mu(t) levels off near eta * lambda, above gamma0 if kbt << lambda."""
    steps = [float(np.min(np.diff(times)))] if len(times) > 1 else []
    rate = markov_rate(bspec)
    if bspec.memory == "non_markov":
        rate = max(rate, bspec.eta * bspec.lambda_cutoff)
        steps.append(0.1 / bspec.lambda_cutoff)
    if rate > 0.0:
        steps.append(1e-2 / ((18.0 if bspec.topology == "common" else 6.0) * rate))
    return min(steps, default=None)


def _schur_weights(maps) -> np.ndarray:
    """Each map applied to the 64 basis matrices E_mn: the factor it puts on
    rho_mn, shape (len(maps), 8, 8).  RuntimeError if a map mixes elements."""
    superops = np.stack([apply(np.eye(64).reshape(64, 8, 8)) for apply in maps]).reshape(-1, 64, 64)
    if np.any(superops * (1.0 - np.eye(64))):
        raise RuntimeError("dissipator mixes matrix elements: it is not a Schur multiplier")
    return superops[:, range(64), range(64)].reshape(-1, 8, 8)


def _ode_grid(spec: PropagatorSpec, rho0: np.ndarray, times: np.ndarray,
              include_lamb_phase: bool = True) -> np.ndarray:
    """Integrate the dissipator in the frame rotating with the free phase,
    then multiply that phase back in exactly.  Elements with the same rate
    gamma(t) W_g + mu(t) W_mu (weights off _DISSIPATORS) share one equation."""
    bspec = spec.bath
    step = _internal_step(bspec, times)
    substeps = int(np.sum(substep_counts(np.diff(times), step)))
    if substeps > _MAX_SUBSTEPS:
        raise ValueError(
            f"engine ode: {substeps} RK4 substeps to reach t = {times[-1]:g} at eta = {bspec.eta:g}, "
            f"over the budget of {_MAX_SUBSTEPS}; raise eta, shorten t_max or use engine closed_form")

    def coefficients(t: np.ndarray) -> np.ndarray:
        g = dephasing_rate(bspec, t)
        return np.stack([g, lamb_kernel(bspec, t)[0] if include_lamb_phase else 0.0 * g], axis=-1)

    weights = _schur_weights(_DISSIPATORS[bspec.topology]).reshape(2, 64)
    classes, inverse = np.unique(weights, axis=1, return_inverse=True)
    factors = ode_propagate(lambda c: c @ classes, np.ones(len(classes[0]), complex), times, step,
                            coefficients=coefficients)
    rhos = rho0 * factors[:, inverse.reshape(8, 8)] * np.exp(-0.5j * OMEGA0 * times[:, None, None] * _DZ)
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
