"""Self-contained numerical primitives.

Closed-form special functions for complex arguments (the real part of a
log-gamma ratio and the imaginary part of the digamma function) with the
overflow-free log1p(x^2) and Lorentzian that they share with the bath, the
running Simpson-rule integral of a table of time-dependent coefficients,
which is the fourth-order Magnus exponent of decoupled linear equations
whose rates are those coefficients times a weight matrix, and the
validators for config numbers, times and time grids.
Nothing here knows about baths or qubits.
"""

from __future__ import annotations

import math
import reprlib
from typing import Callable

import numpy as np

__all__ = [
    "check_number",
    "check_time",
    "log1p_square",
    "lorentzian",
    "loggamma_re_diff",
    "digamma_im",
    "ode_propagate",
]

# Stirling series: Bernoulli numbers B_2k for k = 1..7, the exponents 2k and
# 2k - 1, and the smallest real part at which the series is applied.  At
# |z| >= 16 the first dropped term (B_16) is below 1e-19 relative.
_B2K = np.array([1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
                 -691.0 / 2730.0, 7.0 / 6.0])
_2K = 2.0 * np.arange(1, 8)
_2K1 = _2K - 1.0
_STIRLING_MIN = 16.0


def check_number(field: str, value, strict: bool = False) -> float:
    """A config number as a Python float: an int or a float, Python's or a numpy scalar, not a
    bool, finite (an int too large for a float reads as inf), and >= 0, or > 0 with ``strict``.
    Else ValueError("field <field>: ..."), with ``field`` printed as given (say "'eta'")."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"field {field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (number > 0.0 if strict else number >= 0.0)):
        raise ValueError(f"field {field}: must be a finite number {'>' if strict else '>='} 0, got {number!r}")
    return number


def check_time(t, grid: bool = False):
    """Validate a time, or an array of times, and return it as float(s).

    Every time must be a real number, not a bool, a string or bytes,
    finite and >= 0.  With ``grid`` the times must also form a nonempty
    1-d sequence that starts at 0 and strictly increases.
    A 0-d input comes back as a float, anything else as a float ndarray.

    Raises:
        ValueError: naming the offending value.
    """
    try:
        times = np.asarray(t)
        if times.dtype.kind in "bcSU":  # bool, complex, bytes, str: numpy would read each as a real number
            raise TypeError(f"{times.dtype} times")
        times = np.asarray(times, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"time must be a real number or an array of real numbers, got {reprlib.repr(t)}") from exc
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


def log1p_square(p, q):
    """log1p((p / q)^2) for p >= 0 and q > 0, finite wherever its value is, also where p / q overflows:
    past p / q = 1e150 it is 2 (ln p - ln q), as log1p(r^2) = 2 ln r + log1p(r^-2) and r^-2 < 1e-300."""
    with np.errstate(over="ignore"):  # a ratio past the float range is read off the logarithms
        r = np.divide(p, q)
    big = r > 1e150
    return np.where(big, 2.0 * (np.log(np.where(big, p, 1.0)) - np.log(q)), np.log1p(np.square(np.where(big, 0.0, r))))


def lorentzian(y, s):
    """y / (s^2 + y^2) for y, s >= 0, finite wherever its value is, and 0 at y = 0: with m = max(y, s)
    and z = min(y, s) / m it is (y / m) / m / (1 + z^2), where no square overflows or underflows."""
    m = np.maximum(np.maximum(y, s), np.finfo(float).tiny)  # tiny at y = s = 0, where the value is 0
    z = np.minimum(y, s) / m
    return y / m / m / (1.0 + z * z)


def loggamma_re_diff(c: float, y):
    """Re[ln Gamma(c + i y) - ln Gamma(c)] for real c > 0 and real y >= 0.

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
    log_r = log1p_square(y, w)
    theta = np.arctan(y / w)
    m_theta = _2K1 * theta[..., None]
    series = (_B2K / (_2K * _2K1) * w ** -_2K1) * (
        np.expm1(-0.5 * _2K1 * log_r[..., None]) * np.cos(m_theta) - 2.0 * np.sin(0.5 * m_theta) ** 2)
    shifted = log1p_square(y[..., None], shifts)
    return (w - 0.5) * 0.5 * log_r - y * theta + series.sum(axis=-1) - 0.5 * shifted.sum(axis=-1)


def digamma_im(c: float, y):
    """Im psi(c + i y) for real c > 0 and real y >= 0.

    Shifted up by the recurrence to w = c + N >= 16, then the Stirling
    series through B_14: Im psi(z) = arg z + y / (2|z|^2)
    + sum_k B_2k / (2k) |z|^-2k sin(2k arg z), plus y / ((c+k)^2 + y^2)
    for each shift.  The y / (a^2 + y^2) are Lorentzians, 0 at y = 0 however
    small c is, and |z| is a hypot.  Shaped like :func:`loggamma_re_diff`.
    """
    shifts = _stirling_shift(c)
    w = c + len(shifts)
    y = np.asarray(y, dtype=float)
    theta = np.arctan2(y, w)
    series = _B2K / _2K * np.hypot(w, y)[..., None] ** -_2K * np.sin(_2K * theta[..., None])
    shifted = lorentzian(y[..., None], shifts)
    return theta + lorentzian(y, w) / 2.0 + series.sum(axis=-1) + shifted.sum(axis=-1)


def ode_propagate(coefficients: Callable, grid: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    """The integrals int_0^t c(s) ds of the P coefficient rows c at every point t of a grid
    from 0, strictly increasing (0 at t = 0), shape (len(grid), P).

    With weights of shape (P, K), exp(integrals @ weights) solves the K decoupled equations
    dy/dt = (c(t) @ weights) * y from y = 1: each equation is scalar, so its rates commute
    and the Magnus series stops at its first term (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009)).  The fourth-order Magnus step takes that integral by Simpson's rule,
    h/6 (c0 + 4 cm + c1) per substep, exact for coefficients cubic in t.  Interval i takes
    ``substeps[i]`` uniform substeps.  Their stage times t, t + h/2, t + h, shape (substeps, 3),
    go through ``coefficients`` in one call, which returns the rows c, shape (substeps, 3, P);
    the substeps' integrals are summed across intervals and read off at every grid point.

    The caller checks both inputs: the grid as check_time(grid=True) does, the counts as integers
    >= 1 within its work budget.  Non-finite rows give non-finite integrals, left to the caller.
    """
    stop = np.cumsum(substeps)
    h = np.repeat(np.diff(grid) / substeps, substeps)
    # t = t0 + j h with j = 0 .. substeps - 1 within each interval
    t = np.repeat(grid[:-1], substeps) + (np.arange(len(h)) - np.repeat(stop - substeps, substeps)) * h
    c0, cm, c1 = coefficients(np.stack([t, t + h / 2.0, t + h], axis=-1)).swapaxes(0, 1)
    running = np.cumsum((h / 6.0)[:, None] * (c0 + 4.0 * cm + c1), axis=0)
    return np.concatenate([np.zeros((1, running.shape[1])), running[stop - 1]])
