"""Self-contained numerical primitives.

Closed-form special functions for complex arguments (the real part of a
log-gamma ratio and the imaginary part of the digamma function), the
eigenvalues of a Hermitian matrix, a fixed-step classical Runge-Kutta
integrator for elementwise-linear equations that takes its time-dependent
coefficients as one table and the substeps of a trace as one running
product, and the one validator for times and time grids.  Nothing here
knows about baths or qubits.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PropagationError",
    "check_time",
    "loggamma_re_diff",
    "digamma_im",
    "hermitian_eigenvalues",
    "substep_counts",
    "ode_propagate",
]

_HERMITICITY_TOL = 1e-8

# RK4 substeps whose amplification factors ode_propagate forms in one array
_BLOCK = 256

# Stirling series: Bernoulli numbers B_2k for k = 1..7, the exponents 2k and
# 2k - 1, and the smallest real part at which the series is applied.  At
# |z| >= 16 the first dropped term (B_16) is below 1e-19 relative.
_B2K = np.array([1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
                 -691.0 / 2730.0, 7.0 / 6.0])
_2K = 2.0 * np.arange(1, 8)
_2K1 = _2K - 1.0
_STIRLING_MIN = 16.0


class PropagationError(RuntimeError):
    """ODE state stopped being finite; carries the last good time."""

    def __init__(self, last_good_time: float, message: str):
        super().__init__(message)
        self.last_good_time = last_good_time


def check_time(t, grid: bool = False):
    """Validate a time, or an array of times, and return it as float(s).

    Every time must be finite and >= 0.  With ``grid`` the times must also
    form a nonempty 1-d sequence that starts at 0 and strictly increases.
    A 0-d input comes back as a float, anything else as a float ndarray.

    Raises:
        ValueError: naming the offending value.
    """
    times = np.asarray(t, dtype=float)
    if grid and (times.ndim != 1 or len(times) == 0):
        raise ValueError(f"time grid must be a nonempty 1-d sequence, got shape {times.shape}")
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        raise ValueError(f"time must be finite and >= 0, got {float(times[bad][0])!r}")
    if grid:
        if times[0] != 0.0:
            raise ValueError(f"time grid must start at 0, got {float(times[0])!r}")
        stalled = np.flatnonzero(np.diff(times) <= 0.0)
        if len(stalled):
            i = stalled[0]
            raise ValueError(f"time grid must be strictly increasing, got {float(times[i + 1])!r} "
                             f"after {float(times[i])!r}")
    return float(times) if times.ndim == 0 else times


def _stirling_shift(c: float) -> np.ndarray:
    """c, c + 1, ..., c + N - 1 for the smallest N with c + N >= 16."""
    return c + np.arange(max(0, math.ceil(_STIRLING_MIN - c)))


def loggamma_re_diff(c: float, y):
    """Re[ln Gamma(c + i y) - ln Gamma(c)] for real c > 0 and real y.

    The argument is shifted up by the recurrence to w = c + N >= 16, where
    the Stirling series through B_14 applies.  Every term is written so that
    nothing cancels at small y: the shifts contribute -log1p((y/(c+k))^2)/2
    and each Stirling term uses, with u = y/w and theta = arctan(u),

        Re z^-m - w^-m = w^-m [expm1(-m/2 log1p(u^2)) cos(m theta) - 2 sin^2(m theta/2)].

    Series and shift terms run along a trailing axis, so each element is
    computed the same way whatever the shape of y.
    """
    shifts = _stirling_shift(c)
    w = c + len(shifts)
    y = np.asarray(y, dtype=float)
    u = y / w
    log_r = np.log1p(u * u)
    theta = np.arctan(u)
    m_theta = _2K1 * theta[..., None]
    series = (_B2K / (_2K * _2K1) * w ** -_2K1) * (
        np.expm1(-0.5 * _2K1 * log_r[..., None]) * np.cos(m_theta) - 2.0 * np.sin(0.5 * m_theta) ** 2)
    shifted = np.log1p((y[..., None] / shifts) ** 2)
    return (w - 0.5) * 0.5 * log_r - y * theta + series.sum(axis=-1) - 0.5 * shifted.sum(axis=-1)


def digamma_im(c: float, y):
    """Im psi(c + i y) for real c > 0 and real y.

    Shifted up by the recurrence to w = c + N >= 16, then the Stirling
    series through B_14: Im psi(z) = arg z + y / (2|z|^2)
    + sum_k B_2k / (2k) |z|^-2k sin(2k arg z), plus y / ((c+k)^2 + y^2)
    for each shift.  Shaped like :func:`loggamma_re_diff`.
    """
    shifts = _stirling_shift(c)
    w = c + len(shifts)
    y = np.asarray(y, dtype=float)
    r2 = w * w + y * y
    theta = np.arctan2(y, w)
    series = _B2K / _2K * r2[..., None] ** (-0.5 * _2K) * np.sin(_2K * theta[..., None])
    shifted = y[..., None] / (shifts ** 2 + (y * y)[..., None])
    return theta + y / (2.0 * r2) + series.sum(axis=-1) + shifted.sum(axis=-1)


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    The input is symmetrized to (H + H^dagger)/2 before factorization; inputs
    further than 1e-8 from Hermitian are rejected.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {h.shape}")
    residual = float(np.max(np.abs(h - h.conj().T)))
    if not math.isfinite(residual):
        raise ValueError("matrix contains non-finite entries")
    if residual > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {residual:.3e}")
    # eigh, not eigvalsh: the reference CSVs hold C_R from eigh's eigenvalues
    return np.linalg.eigh((h + h.conj().T) / 2.0)[0][::-1]


def substep_counts(spans, max_step: float | None) -> np.ndarray:
    """RK4 substeps per grid interval, each at most ``max_step`` (one without it), as floats."""
    return np.maximum(1.0, np.ceil(np.asarray(spans) / (max_step or math.inf)))


def ode_propagate(rate: Callable, y0, grid: Sequence[float], max_step: float | None = None, *,
                  coefficients: Callable) -> np.ndarray:
    """Integrate the elementwise-linear dy/dt = rate(c) * y with classical
    RK4 over a grid from 0, strictly increasing; y is reported, as complex,
    at every grid point (y0 included).

    Substeps are uniform within an interval and no longer than ``max_step``.
    Their stage times t, t + h/2, t + h, shape (substeps, 3), go through
    ``coefficients`` in one call; ``rate`` maps m such rows to the stage
    rates, shape (m, 3) + np.shape(y0).  An RK4 substep of such an equation
    multiplies y by a factor of its stage rates alone, so the trace forms its
    factors in blocks of _BLOCK, across intervals, and takes a running product.

    Raises ValueError for a malformed grid or max_step, and PropagationError,
    carrying the grid time before the first non-finite sample.
    """
    times = check_time(grid, grid=True)
    if max_step is not None and not (max_step > 0.0 and math.isfinite(max_step)):
        raise ValueError(f"max_step must be positive and finite, got {max_step!r}")

    spans = np.diff(times)
    n_sub = substep_counts(spans, max_step).astype(int)
    stop = np.cumsum(n_sub)
    h = np.repeat(spans / n_sub, n_sub)
    # t = t0 + j h with j = 0 .. n_sub - 1 within each interval
    t = np.repeat(times[:-1], n_sub) + (np.arange(len(h)) - np.repeat(stop - n_sub, n_sub)) * h
    rows = coefficients(np.stack([t, t + h / 2.0, t + h], axis=-1))

    y = np.asarray(y0)
    h = h.reshape((-1,) + (1,) * y.ndim)
    out = np.full((len(times),) + y.shape, y, dtype=complex)
    for s in range(0, len(h), _BLOCK):
        (a0, am, a1), hb = np.moveaxis(rate(rows[s:s + _BLOCK]), 1, 0), h[s:s + _BLOCK]
        k2 = am * (1.0 + (hb / 2.0) * a0)
        k3 = am * (1.0 + (hb / 2.0) * k2)
        k4 = a1 * (1.0 + hb * k3)
        ys = y * np.cumprod(1.0 + (hb / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4), axis=0)
        # intervals first .. done - 1 end in this block; sample i + 1 follows substep stop[i] - 1
        (first, done), y = np.searchsorted(stop, [s, s + len(hb)], side="right"), ys[-1]
        out[first + 1:done + 1] = ys[stop[first:done] - 1 - s]
    bad = np.flatnonzero(~np.isfinite(out.reshape(len(times), -1)).all(axis=1))
    if len(bad):
        raise PropagationError(float(times[bad[0] - 1]), f"state became non-finite after t={times[bad[0] - 1]:g}")
    return out
