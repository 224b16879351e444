"""The dephasing kernels of an ohmic bath.

Conventions: hbar = 1, frequencies in units of the qubit splitting, and
temperature enters only through kbt.  The spectral density is

    J(w) = eta * w * exp(-w / lambda_cutoff)

and the kernels are

    gamma(t) = 2 * int_0^inf J(w) coth(w / 2 kbt) sin(w t) / w dw
    Gamma(t) = int_0^t gamma(s) ds            (big_gamma below)
    mu(t)    = int_0^inf J(w) (1 - cos(w t)) / w dw
    M(t)     = int_0^t mu(s) ds               (big_m below)

Expanding coth(w / 2 kbt) = 1 + 2 sum_n exp(-n w / kbt) turns the first two
into sums of elementary integrals, which add up to the standard spin-boson
decoherence function (Breuer & Petruccione, Theory of Open Quantum Systems
4.2; Reina, Quiroga & Johnson, PRA 65, 032326 (2002)).  With
c = kbt / lambda_cutoff and y = kbt t:

    gamma(t) = 2 eta (2 kbt Im psi(c + i y) - t / (lambda^-2 + t^2))
    Gamma(t) = -eta (4 Re[ln Gamma(c + i y) - ln Gamma(c)] + log1p(lambda^2 t^2))

Every kernel takes a time or an array of times and returns the same shape.
In the Markov limit the flat rate gamma0 = 4 pi eta kbt replaces gamma(t),
Gamma(t) becomes exactly gamma0 * t, and the Lamb-shift kernels vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_time, digamma_im, loggamma_re_diff

__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_LAMBDA_CUTOFF",
    "DEFAULT_KBT",
    "TOPOLOGIES",
    "MEMORIES",
    "BathSpec",
    "markov_rate",
    "dephasing_rate",
    "cumulative_decoherence",
    "lamb_kernel",
]

DEFAULT_ETA = 0.1
DEFAULT_LAMBDA_CUTOFF = 0.01
DEFAULT_KBT = 1.0 / (4.0 * math.pi)

TOPOLOGIES = ("local", "common")
MEMORIES = ("markov", "non_markov")

# below x = 0.1, x - arctan(x) = x^3/3 - x^5/5 + ... (through x^19; the next
# term is below 1e-18 relative), where the direct difference cancels
_SERIES_X = 0.1
_ARCTAN_SERIES = tuple((-1.0) ** k / (2 * k + 3) for k in range(9))


@dataclass(frozen=True)
class BathSpec:
    """Bath parameters plus how the three-qubit register couples to it.

    topology "local" gives each qubit its own independent bath; "common"
    couples all three to a single shared one.  memory "markov" selects the
    flat-rate limit, "non_markov" the full time-dependent kernels.
    """

    eta: float = DEFAULT_ETA
    lambda_cutoff: float = DEFAULT_LAMBDA_CUTOFF
    kbt: float = DEFAULT_KBT
    topology: str = "common"
    memory: str = "markov"

    def __post_init__(self):
        # bool is an int subclass; True is not a coupling strength
        if isinstance(self.eta, bool) or not (isinstance(self.eta, (int, float))
                                              and math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be a finite number >= 0, got {self.eta!r}")
        if isinstance(self.lambda_cutoff, bool) or not (isinstance(self.lambda_cutoff, (int, float))
                                                        and math.isfinite(self.lambda_cutoff)
                                                        and self.lambda_cutoff > 0):
            raise ValueError(f"lambda_cutoff must be positive, got {self.lambda_cutoff!r}")
        if isinstance(self.kbt, bool) or not (isinstance(self.kbt, (int, float))
                                              and math.isfinite(self.kbt) and self.kbt > 0):
            raise ValueError(f"kbt must be positive, got {self.kbt!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.memory not in MEMORIES:
            raise ValueError(f"memory must be one of {MEMORIES}, got {self.memory!r}")


def markov_rate(spec: BathSpec) -> float:
    """Flat Markov dephasing rate gamma0 = 4 pi eta kbt."""
    return 4.0 * math.pi * spec.eta * spec.kbt


def dephasing_rate(spec: BathSpec, t):
    """Time-dependent dephasing rate gamma(t): gamma0 for a Markov bath."""
    t = check_time(t)
    if spec.memory == "markov":
        return markov_rate(spec) + 0.0 * t  # shaped like t
    lam, kbt = spec.lambda_cutoff, spec.kbt
    return 2.0 * spec.eta * (2.0 * kbt * digamma_im(kbt / lam, kbt * t) - t / (lam ** -2 + t * t))


def cumulative_decoherence(spec: BathSpec, t):
    """Gamma(t), the integral of the dephasing rate from 0 to t.

    Markov memory returns exactly gamma0 * t.  Non-Markov memory uses the
    log-gamma form, an independent series from the digamma one behind
    :func:`dephasing_rate`, so each can be checked against the other.
    """
    t = check_time(t)
    if spec.memory == "markov":
        return markov_rate(spec) * t
    lam, kbt = spec.lambda_cutoff, spec.kbt
    return -spec.eta * (4.0 * loggamma_re_diff(kbt / lam, kbt * t) + np.log1p((lam * t) ** 2))


def lamb_kernel(spec: BathSpec, t):
    """Lamb-shift kernels (mu(t), M(t)) in closed form; zero for a Markov bath.

    For the exponentially cut off Ohmic density the frequency integrals are
    elementary:

        mu(t) = eta * lam^3 t^2 / (1 + lam^2 t^2)
        M(t)  = eta * (x - arctan(x)),  x = lam t
              = eta * (x^3/3 - x^5/5 + ...)  for x < 0.1
    """
    t = check_time(t)
    if spec.memory == "markov":
        zero = 0.0 * t
        return zero, zero
    lam = spec.lambda_cutoff
    mu = spec.eta * np.float64(lam) ** 3 * t * t / (1.0 + lam * lam * t * t)  # inf, not OverflowError
    x = lam * t
    x2 = x * x
    series = 0.0
    for coefficient in reversed(_ARCTAN_SERIES):  # Horner in x^2
        series = series * x2 + coefficient
    big_m = spec.eta * np.where(x < _SERIES_X, x * x2 * series, x - np.arctan(x))[()]
    return mu, big_m
