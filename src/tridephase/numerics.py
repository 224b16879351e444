"""Self-contained numerical primitives.

Closed-form special functions for complex arguments (the real part of a
log-gamma ratio and the imaginary part of the digamma function), a
fixed-step classical Runge-Kutta integrator for elementwise-linear
equations that takes its time-dependent coefficients as one table and the
substeps of a trace as one running product, and the validators for config
numbers, times and time grids.
Nothing here knows about baths or qubits.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "check_number",
    "check_time",
    "loggamma_re_diff",
    "digamma_im",
    "ode_propagate",
]

# RK4 substeps whose amplification factors ode_propagate forms in one array
_BLOCK = 256
# RK4 substeps ode_propagate may take for one trace; it bounds the stage-time
# and coefficient tables, and such a trace of the ode engine takes about 0.3 s
_MAX_SUBSTEPS = 200_000

# Stirling series: Bernoulli numbers B_2k for k = 1..7, the exponents 2k and
# 2k - 1, and the smallest real part at which the series is applied.  At
# |z| >= 16 the first dropped term (B_16) is below 1e-19 relative.
_B2K = np.array([1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
                 -691.0 / 2730.0, 7.0 / 6.0])
_2K = 2.0 * np.arange(1, 8)
_2K1 = _2K - 1.0
_STIRLING_MIN = 16.0


def check_number(field: str, value, low: float, strict: bool = False) -> float:
    """A config number as a float: an int or a float, not a bool, finite (an int too
    large for a float reads as inf), and >= low, or > low with ``strict``.  Else
    ValueError("field <field>: ..."), with ``field`` printed as given (say "'eta'")."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (number > low if strict else number >= low)):
        raise ValueError(f"field {field}: must be a finite number {'>' if strict else '>='} {low:g}, got {number!r}")
    return number


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
    return c + np.arange(math.ceil(max(0.0, _STIRLING_MIN - c)))  # none at c = inf


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

    A ``max_step`` of 0 asks for infinitely many substeps.  The count is summed
    in floating point and checked against the budget of _MAX_SUBSTEPS before
    the int cast and the tables, so a count past 2^63 cannot wrap under it.

    Raises ValueError for a malformed grid or max_step, or a trace over the
    substep budget, and RuntimeError naming the grid time before the first
    non-finite sample.
    """
    times = check_time(grid, grid=True)
    if max_step is not None and not (max_step >= 0.0 and math.isfinite(max_step)):
        raise ValueError(f"max_step must be finite and >= 0, got {max_step!r}")

    spans = np.diff(times)
    # substeps per interval as floats: inf where a span over the step overflows, or at a step of 0
    with np.errstate(over="ignore", divide="ignore"):
        n_sub = np.maximum(1.0, np.ceil(spans / (math.inf if max_step is None else max_step)))
    total = np.sum(n_sub)
    if total > _MAX_SUBSTEPS:
        raise ValueError(f"{total:.3g} RK4 substeps to reach t = {times[-1]:g}, over the budget of {_MAX_SUBSTEPS}")
    n_sub = n_sub.astype(int)
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
        raise RuntimeError(f"state became non-finite after t={times[bad[0] - 1]:g}")
    return out
