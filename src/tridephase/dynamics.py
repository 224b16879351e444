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

import numpy as np

from .bath import BathSpec, cumulative_decoherence, dephasing_rate, lamb_kernel, markov_rate
from .measures import rel_entropy_coherence
from .numerics import check_time, ode_propagate
from .states import STATE_BOUNDS, StateSpec, check_states, make_state

__all__ = [
    "OMEGA0",
    "ENGINES",
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


def _finite(compute, bspec: BathSpec, times: np.ndarray) -> np.ndarray:
    """The table ``compute()`` of a grid (kernel rows, exponents or phases), or ValueError
    naming the bath if it overflowed; numpy's warnings are left to this check."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        table = compute()
    if np.isfinite(table).all():
        return table
    raise ValueError(f"bath kernels overflow on the grid to t = {times[-1]:g} at eta = {bspec.eta:g}, "
                     f"lambda = {bspec.lambda_cutoff:g}, kbt = {bspec.kbt:g}; shorten t_max or change them")


def _exponents(bspec: BathSpec, times: np.ndarray) -> np.ndarray:
    """log of the factor multiplying rho_mn(0), shape (len(times), 8, 8).

    One kernel call covers the whole grid; the broadcast expression applies
    the same operations in the same order to each sample.
    """
    t = times[:, None, None]
    big_gamma = cumulative_decoherence(bspec, times)[:, None, None]
    expo = (-0.5j * OMEGA0 * t) * _DZ
    if bspec.topology == "common":
        expo = expo - (_DZ.astype(float) ** 2 / 2.0) * big_gamma
        big_m = lamb_kernel(bspec, times)[1][:, None, None]
        zsq = _Z[:, None] ** 2 - _Z[None, :] ** 2
        expo = expo + (1j * big_m) * zsq
    else:
        # 2 Gamma per qubit whose bit differs
        expo = expo - (2.0 * (_BITS[:, None, :] != _BITS[None, :, :]).sum(axis=-1)) * big_gamma
    return expo


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


def _ode_grid(bspec: BathSpec, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Integrate the dissipator in the frame rotating with the free phase,
    then multiply that phase back in exactly.  Elements with the same rate
    gamma(t) W_g + mu(t) W_mu (weights off _DISSIPATORS) share one equation."""
    kernels_called = []

    def coefficients(t: np.ndarray) -> np.ndarray:
        kernels_called.append(True)
        return _finite(lambda: np.stack([dephasing_rate(bspec, t), lamb_kernel(bspec, t)[0]], axis=-1),
                       bspec, times)

    weights = _schur_weights(_DISSIPATORS[bspec.topology]).reshape(2, 64)
    classes, inverse = np.unique(weights, axis=1, return_inverse=True)
    try:  # one 2-d matmul per block, about 4x faster than a stacked (m, 3, 2) @ (2, k)
        factors = ode_propagate(lambda c: (c.reshape(-1, 2) @ classes).reshape(c.shape[:-1] + (-1,)),
                                np.ones(len(classes[0]), complex), times,
                                _internal_step(bspec, times), coefficients=coefficients)
    except ValueError as exc:
        if kernels_called:  # the kernel rows overflowed, and _finite named the bath
            raise
        # the substep budget, checked before any kernel call
        lam = f", lambda = {bspec.lambda_cutoff:g}" if bspec.memory == "non_markov" else ""
        raise ValueError(f"engine ode: {exc}, at eta = {bspec.eta:g}{lam}; "
                         f"raise eta, shorten t_max or use engine closed_form") from exc
    phases = _finite(lambda: -0.5j * OMEGA0 * times[:, None, None] * _DZ, bspec, times)
    rhos = rho0 * factors[:, inverse.reshape(8, 8)] * np.exp(phases)
    # re-symmetrize each emitted sample; RK4 drift is below 1e-10 but not zero
    return (rhos + np.conj(np.swapaxes(rhos, 1, 2))) / 2.0


def _propagate(bath: BathSpec, rho0, times: np.ndarray, engine: str) -> np.ndarray:
    """The states on a checked time grid, by the named engine, after checking
    the engine and rho0 but not the output."""
    if engine not in ENGINES:
        raise ValueError(f"field 'engine': must be one of {', '.join(ENGINES)}; got {engine!r}")
    rho0 = np.asarray(rho0, dtype=complex)
    check_states(rho0[None], (1e-12, 1e-12, 1e-10), ValueError, "rho0", times)
    if engine == "closed_form":
        return rho0 * _finite(lambda: np.exp(_exponents(bath, times)), bath, times)
    return _ode_grid(bath, rho0, times)


def propagate_grid(bath: BathSpec, rho0, times, engine: str = "closed_form") -> np.ndarray:
    """Evolve rho0 across a strictly increasing time grid starting at 0.

    Returns an (n, 8, 8) array of density matrices, one per grid point.  An
    unknown engine, or a rho0 that fails the state invariants, raises ValueError;
    an output outside STATE_BOUNDS, those of C_R, raises RuntimeError naming
    the first such t.
    """
    times = check_time(times, grid=True)
    out = _propagate(bath, rho0, times, engine)
    check_states(out, STATE_BOUNDS, RuntimeError, "propagated state", times)
    return out


def coherence_trace(bath: BathSpec, state: StateSpec, gamma0_t, engine: str = "closed_form") -> np.ndarray:
    """The relative entropy of coherence at each point of a gamma0*t grid.

    The grid is dimensionless (gamma0 * t, the x axis of all the plots);
    actual times are gamma0_t / gamma0.  ValueError, naming the bath and
    t_max, if those times are not finite and strictly increasing (gamma0 is
    0 at eta = 0, and the division can underflow or overflow), or if the
    states or C_R fail their checks, as at large phases, where rounding can
    leave no state.
    """
    grid = check_time(gamma0_t, grid=True)
    g0 = markov_rate(bath)
    where = (f"on the gamma0*t grid to t_max = {grid[-1]:g} at eta = {bath.eta:g}, "
             f"lambda = {bath.lambda_cutoff:g}, kbt = {bath.kbt:g}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        times = grid / g0
    if not (np.isfinite(times).all() and (np.diff(times) > 0.0).all()):
        raise ValueError(f"no finite, strictly increasing times {where} (gamma0 = 4 pi eta kbt = {g0:g})")
    rhos = _propagate(bath, make_state(state), times, engine)  # its ValueErrors name the bath
    try:  # C_R's check is the output check
        return rel_entropy_coherence(rhos)
    except (RuntimeError, ValueError) as exc:
        raise ValueError(f"{exc}, {where}; shorten t_max or change them") from exc
