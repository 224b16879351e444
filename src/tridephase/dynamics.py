"""Propagation of the three-qubit register under pure dephasing.

Each matrix element obeys its own scalar equation, so the states are
rho_mn(t) = rho_mn(0) * exp(-i w0/2 (Z_m - Z_n) t + E_mn(t)): the free
phase and the bath's exponent E = I(t) @ W.  Each engine returns its two
real kernel integrals I(t), and the propagation applies the engine's
(2, 64) weight table W of the topology.  "closed_form" takes I = (Gamma(t),
M(t)) and the weights of the elementwise solution

    local:  E_mn(t) = - sum_i 2 [bit_i differs] Gamma_i(t)
    common: E_mn(t) = i (Z_m^2 - Z_n^2) M(t) - (Z_m - Z_n)^2 / 2 * Gamma(t)

while "ode" integrates the dissipator of the master equation with
fixed-step fourth-order Magnus in the frame that rotates with the free
phase: I is the Simpson-rule integrals of the kernel rows gamma(t), mu(t),
and W is read off the dissipator's operator form.  Each element's equation
is scalar, so its rates commute and the Magnus series stops at its first
term (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), which the
step takes as h/6 (c0 + 4 cm + c1), exact for rates cubic in t.  Each table
is built once, at import, and neither reads the other, so each engine
checks the other.  Z_m is the collective sigma_z eigenvalue of basis index m.
"""

from __future__ import annotations

import numpy as np

from .bath import BathSpec, kernel_integrals, kernel_rates
from .measures import rel_entropy_coherence
from .numerics import check_time
from .states import STATE_BOUNDS, StateSpec, check_states, make_state

__all__ = [
    "ENGINES",
    "propagate_grid",
    "coherence_trace",
]

OMEGA0 = 1.0  # qubit splitting; fixes the unit of time

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
# the ode engine's table of weights (W_g, W_mu) on each rho_mn: a Schur multiplier's weights are its image of ones
_WEIGHTS = {topology: np.stack([apply(np.ones((8, 8))) for apply in maps]).reshape(2, 64)
            for topology, maps in _DISSIPATORS.items()}
# the closed form's table: the weights of Gamma(t) (-2 per flipped bit with local baths) and of M(t)
_CLOSED = {"common": np.array([-_DZ ** 2 / 2.0, 1j * (_Z[:, None] ** 2 - _Z[None, :] ** 2)]).reshape(2, 64),
           "local": np.array([-2 * (_BITS[:, None, :] != _BITS[None, :, :]).sum(axis=-1),
                              np.zeros((8, 8))]).reshape(2, 64)}
# Magnus substeps the ode engine may take for one trace; it bounds the stage-time and kernel-row
# tables, and such a trace takes 0.35-0.6 s on a 2-core host, nearly all of it in the kernels
_MAX_SUBSTEPS = 200_000
_OVERFLOW = ("{what} on the grid to t = {t:g} at eta = {b.eta:g}, lambda = {b.lambda_cutoff:g}, "
             "kbt = {b.kbt:g}; shorten t_max or change them")


def _ode_integrals(bspec: BathSpec, times: np.ndarray) -> np.ndarray:
    """The ode engine's kernel integrals on the grid, shape (len(times), 2), 0 at t = 0: the Magnus integrals
    of the rows gamma(t), mu(t) that weigh the dissipator's rates, by Simpson's rule over uniform substeps."""
    # the Magnus step: with memory and coupling 0.05/lambda, as the kernels' nearest complex-time pole lies
    # 1/lambda off the real axis; else the rows are constant, so Simpson's rule is exact at one substep per interval
    step = 0.05 / bspec.lambda_cutoff if bspec.memory == "non_markov" and bspec.eta > 0 else np.inf
    # substeps per interval and in all as floats, inf where they overflow, so a count past 2^63 cannot wrap
    with np.errstate(over="ignore"):
        substeps = np.maximum(1.0, np.ceil(np.diff(times) / step))
        total = np.sum(substeps)
    if total > _MAX_SUBSTEPS:  # before any table is built or any kernel called
        # with no interval split, the grid's points alone are over the budget
        advice = ("use fewer grid points or engine closed_form" if total == len(times) - 1
                  else "lower lambda, shorten t_max or use engine closed_form")
        raise ValueError(f"engine ode: {total:.7g} Magnus substeps to reach t = {times[-1]:g}, over the budget of "
                         f"{_MAX_SUBSTEPS}, at eta = {bspec.eta:g}, lambda = {bspec.lambda_cutoff:g}, "
                         f"kbt = {bspec.kbt:g}; {advice}")
    substeps = substeps.astype(int)
    stop = np.cumsum(substeps)
    h = np.repeat(np.diff(times) / substeps, substeps)
    # t = t0 + j h with j = 0 .. substeps - 1 within each interval; one kernel call takes every stage time
    t = np.repeat(times[:-1], substeps) + (np.arange(len(h)) - np.repeat(stop - substeps, substeps)) * h
    c0, cm, c1 = kernel_rates(bspec, np.stack([t, t + h / 2.0, t + h], axis=-1)).swapaxes(0, 1)
    running = np.cumsum((h / 6.0)[:, None] * (c0 + 4.0 * cm + c1), axis=0)
    return np.concatenate([np.zeros((1, running.shape[1])), running[stop - 1]])


# each engine's integrals of (bath, times) and its weight tables by topology
_ENGINES = {"closed_form": (kernel_integrals, _CLOSED), "ode": (_ode_integrals, _WEIGHTS)}
ENGINES = tuple(_ENGINES)


def _propagate(bath: BathSpec, rho0, times: np.ndarray, engine: str) -> np.ndarray:
    """rho0 (complex 8x8) times exp(the free phase + the named engine's integrals @ weights) on a checked time grid,
    after checking the engine but neither rho0 nor the output; numpy's warnings give way to the one overflow check,
    which blames the free phase where the bath's exponents are finite."""
    if not isinstance(engine, str) or engine not in ENGINES:  # so an unhashable engine is named too
        raise ValueError(f"field 'engine': must be one of {', '.join(ENGINES)}; got {engine!r}")
    integrals, weights = _ENGINES[engine]
    table = weights[bath.topology]
    used = table.any(axis=1)  # an integral of weight 0 (a local bath's Lamb shift) moves nothing, even at inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        expo = (integrals(bath, times)[:, used] @ table[used]).reshape(-1, 8, 8)
        factors = np.exp((-0.5j * OMEGA0 * times[:, None, None]) * _DZ + expo)
        if not np.isfinite(factors).all():
            what = ("the free phase 0.5 |Z_m - Z_n| t overflows" if np.isfinite(expo).all()
                    else "bath kernels overflow")
            raise ValueError(_OVERFLOW.format(what=what, t=times[-1], b=bath))
        return rho0 * factors


def propagate_grid(bath: BathSpec, rho0, times, engine: str = "closed_form") -> np.ndarray:
    """Evolve rho0 across a strictly increasing time grid starting at 0.

    Returns an (n, 8, 8) array of density matrices, one per grid point.  An
    unknown engine, a rho0 that is not an 8x8 matrix of numbers or fails the
    state invariants, and an output outside STATE_BOUNDS, those of C_R, raise
    ValueError; the output's names the first such t.
    """
    times = check_time(times, grid=True)
    stack = check_states(rho0, (1e-12, 1e-12, 1e-10), "rho0")  # one matrix at t = 0: no times to name
    if np.ndim(rho0) != 2:
        raise ValueError(f"rho0: expected an 8x8 matrix, got shape {np.shape(rho0)}")
    out = _propagate(bath, stack[0], times, engine)
    check_states(out, STATE_BOUNDS, "propagated state", times)
    return out


def coherence_trace(bath: BathSpec, state: StateSpec, times, engine: str = "closed_form") -> np.ndarray:
    """The relative entropy of coherence on propagate_grid's time grid (the plots' gamma0*t axis
    over markov_rate(bath)).  ValueError if the grid is not one, or if the states or C_R fail
    their checks, as at large phases, where rounding can leave no state; these name the bath."""
    times = check_time(times, grid=True)
    rhos = _propagate(bath, make_state(state), times, engine)  # its ValueErrors name the bath
    try:  # C_R's check is the output check, and the check of the catalog's rho0 (matrix 0)
        return rel_entropy_coherence(rhos)
    except ValueError as exc:
        raise ValueError(_OVERFLOW.format(what=exc, t=times[-1], b=bath)) from exc
