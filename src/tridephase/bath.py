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

kernel_rates gives (gamma, mu) and kernel_integrals (Gamma, M), one pair
per propagation engine, as a t.shape + (2,) table for a time or an array of
times t.  In the Markov limit the flat rate gamma0 = 4 pi eta kbt replaces
gamma(t), Gamma(t) becomes exactly gamma0 * t, and the Lamb-shift kernels vanish.
A bath with eta = 0 takes the same flat forms, exactly 0, as every term carries eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_number, check_time, digamma_im, log1p_square, loggamma_re_diff, lorentzian

__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_LAMBDA_CUTOFF",
    "DEFAULT_KBT",
    "TOPOLOGIES",
    "MEMORIES",
    "BathSpec",
    "markov_rate",
    "kernel_rates",
    "kernel_integrals",
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
        # stored as floats: a huge int would overflow inside numpy's kernels
        object.__setattr__(self, "eta", check_number("'eta'", self.eta))
        object.__setattr__(self, "lambda_cutoff",
                           check_number("'lambda' (lambda_cutoff)", self.lambda_cutoff, strict=True))
        object.__setattr__(self, "kbt", check_number("'kbt'", self.kbt, strict=True))
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"field 'topology': must be one of {', '.join(TOPOLOGIES)}; got {self.topology!r}")
        if self.memory not in MEMORIES:
            raise ValueError(f"field 'memory': must be one of {', '.join(MEMORIES)}; got {self.memory!r}")


def markov_rate(spec: BathSpec) -> float:
    """Flat Markov dephasing rate gamma0 = 4 pi eta kbt."""
    return 4.0 * math.pi * spec.eta * spec.kbt


def kernel_rates(spec: BathSpec, t):
    """The dephasing and Lamb rates (gamma(t), mu(t)), shape t.shape + (2,), with
    mu = eta lam x^2 / (1 + x^2), x = lam t; (gamma0, 0) for a Markov bath or one with eta = 0.
    Both are finite wherever their values are, with no numpy warning, over the range the README states."""
    t = check_time(t)
    if spec.memory == "markov" or spec.eta == 0.0:
        return np.stack([markov_rate(spec) + 0.0 * t, 0.0 * t], axis=-1)
    eta, lam, kbt = spec.eta, spec.lambda_cutoff, spec.kbt
    # L = t / (lam^-2 + t^2) as a Lorentzian squares neither t nor 1 / lam (inf, not an error, at lam = 1e-320), and
    # 4 eta (kbt Im psi - L / 2) has the bits of 2 eta (2 kbt Im psi - L) but no 2 kbt or 2 eta to overflow
    gamma = eta * (kbt * digamma_im(kbt / lam, kbt * t) - lorentzian(t, 1.0 / lam) / 2.0) * 4.0
    x = lam * np.minimum(t, 1e150 / lam)  # past lam t = 1e150, mu is eta * lam to rounding, and x^2 can overflow
    return np.stack([gamma, eta * (lam * (x * x / (1.0 + x * x)))], axis=-1)


def kernel_integrals(spec: BathSpec, t):
    """The integrals (Gamma(t), M(t)) of the rates from 0 to t, shape t.shape + (2,); exactly
    (gamma0 t, 0) for a Markov bath or one with eta = 0.  Gamma is the log-gamma series, independent
    of the digamma one behind :func:`kernel_rates`, and finite wherever its value is, over the range
    the README states.  M = eta (x - arctan x), x = lam t, is its series x^3/3 - x^5/5 + ... below
    x = 0.1, and inf, with no numpy warning, where x overflows."""
    t = check_time(t)
    if spec.memory == "markov" or spec.eta == 0.0:
        return np.stack([markov_rate(spec) * t, 0.0 * t], axis=-1)
    eta, lam, kbt = spec.eta, spec.lambda_cutoff, spec.kbt
    # log1p((lam t)^2) is finite where lam t overflows, so Gamma is too
    big_gamma = -eta * (4.0 * loggamma_re_diff(kbt / lam, kbt * t) + log1p_square(t, 1.0 / lam))
    with np.errstate(over="ignore"):  # M is inf past lam t ~ 1.8e308, with no warning, as for a scalar t
        x = lam * t
    x2 = np.square(np.minimum(x, _SERIES_X))  # the series applies below _SERIES_X and must not overflow above
    series = 0.0
    for coefficient in reversed(_ARCTAN_SERIES):  # Horner in x^2
        series = series * x2 + coefficient
    big_m = eta * np.where(x < _SERIES_X, x * x2 * series, x - np.arctan(x))
    return np.stack([big_gamma, big_m], axis=-1)
