"""C_R as the seven figure bundles print it, against a 40-digit oracle.

The oracle forms rho_mn(t) = rho0_mn exp(W_mn Gamma(t)) in mpmath at 40
digits, at the float times the program forms (grid / gamma0).  W is the
closed form's decay weight, read off the basis bits here: -(Z_m - Z_n)^2 / 2
on a common bath and -2 per flipped qubit on local baths.  The free phase
and the Lamb phase are dropped: each multiplies rho_mn by u_m conj(u_n), a
diagonal unitary, which moves neither the spectrum nor the diagonal, so C_R
cannot see them.  Gamma(t) is gamma0 t on a Markov bath and the log-gamma
closed form (Breuer & Petruccione 4.2) with memory, and C_R = S(diag rho)
- S(rho) takes its spectrum from mpmath.eigsy.

The traces are computed fresh, and nothing here reads the golden copy, so
the check holds on any BLAS kernel.  Every 20th row of each trace is checked
(11 of 201, 572 in all).  On those rows the worst errors measured on the
OpenBLAS SkylakeX, Haswell and Prescott kernels were 2.1 units in the 9th
significant digit above 1e-7 and 2.4e-15 at or below it.  Over all 10452
rows they were 4.1 units and 6.1e-15, and a printed 0 stood for at most
8.4e-16.  The bounds below add a margin to those.
"""

import math

import mpmath
import numpy as np
import pytest

from tridephase.bath import markov_rate
from tridephase.runner import FIGURE_IDS, figure_scenarios, run_scenarios
from tridephase.states import make_state

STRIDE = 20
# above 1e-7 a printed value is within 5 units of its 9th significant digit; at or below
# 1e-7, within 1e-14; and a printed 0 is within 1e-15 of the true value
DIGIT_UNITS = 5
ABSOLUTE = 1e-14
ZERO = 1e-15

_BITS = [[(m >> (2 - i)) & 1 for i in range(3)] for m in range(8)]
_Z = [sum(1 - 2 * bit for bit in bits) for bits in _BITS]
WEIGHTS = {"common": [[-(_Z[m] - _Z[n]) ** 2 / 2 for n in range(8)] for m in range(8)],
           "local": [[-2 * sum(a != b for a, b in zip(_BITS[m], _BITS[n])) for n in range(8)] for m in range(8)]}


def mp_big_gamma(bath, t: float):
    """Gamma(t) at the working precision, taking the float parameters and time as exact."""
    eta, lam, kbt = (mpmath.mpf(v) for v in (bath.eta, bath.lambda_cutoff, bath.kbt))
    t = mpmath.mpf(t)
    if bath.memory == "markov":
        return 4 * mpmath.pi * eta * kbt * t
    z = mpmath.mpc(kbt / lam, kbt * t)
    return -eta * (4 * mpmath.re(mpmath.loggamma(z) - mpmath.loggamma(kbt / lam)) + mpmath.log1p((lam * t) ** 2))


def mp_entropy(values):
    # eigenvalues of a rank-deficient state come out as +-1e-40 or so: 0 ln 0 = 0
    return -mpmath.fsum(v * mpmath.log(v) for v in values if v > 0)


def blocks(rho0: np.ndarray) -> list:
    """The basis indices of each connected block of rho0's nonzero pattern, which the decay keeps."""
    out, seen = [], set()
    for start in range(8):
        block, frontier = [], [start]
        while frontier:
            m = frontier.pop()
            if m not in seen:
                seen.add(m)
                block.append(m)
                frontier += [n for n in range(8) if rho0[m, n] != 0.0]
        if block:
            out.append(block)
    return out


def mp_coherence(rho0: np.ndarray, weights, big_gamma) -> float:
    """S(diag rho) - S(rho) of the real state rho_mn = rho0_mn exp(W_mn Gamma); the spectrum
    of rho is that of its blocks."""
    spectrum, diagonal = [], []
    for block in blocks(rho0):
        rho = mpmath.matrix([[mpmath.mpf(float(rho0[m, n])) * mpmath.exp(weights[m][n] * big_gamma)
                              for n in block] for m in block])
        spectrum += list(mpmath.eigsy(rho, eigvals_only=True))
        diagonal += [rho[i, i] for i in range(len(block))]
    return mp_entropy(diagonal) - mp_entropy(spectrum)


def printed_errors(scenario, path):
    """(printed, oracle) C_R at every STRIDE-th row of a trace's CSV."""
    rows = path.read_text().splitlines()[9::STRIDE]
    # the times as coherence_trace forms them
    times = np.linspace(0.0, scenario.t_max, scenario.n_points)[::STRIDE] / markov_rate(scenario.bath)
    rho0 = make_state(scenario.state)
    assert not rho0.imag.any()
    weights = WEIGHTS[scenario.bath.topology]
    with mpmath.workdps(40):
        return [(float(row.split(",")[1]), float(mp_coherence(rho0.real, weights, mp_big_gamma(scenario.bath, t))))
                for row, t in zip(rows, times)]


def within_bounds(printed: float, oracle: float) -> bool:
    if printed == 0.0 and abs(oracle) > ZERO:
        return False
    if abs(oracle) > 1e-7:
        unit = 10.0 ** (math.floor(math.log10(abs(oracle))) - 8)
        return abs(printed - oracle) <= DIGIT_UNITS * unit
    return abs(printed - oracle) <= ABSOLUTE


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_printed_coherence_matches_the_oracle(tmp_path, figure_id):
    scenarios = figure_scenarios(figure_id)
    results = run_scenarios(scenarios, tmp_path)
    assert all(r.ok for r in results), [r.error for r in results]
    checked, bad = 0, []
    for scenario, result in zip(scenarios, results):
        for i, (printed, oracle) in enumerate(printed_errors(scenario, result.path)):
            checked += 1
            if not within_bounds(printed, oracle):
                bad.append((scenario.output, i * STRIDE, printed, oracle))
    assert checked == 11 * len(scenarios)
    assert bad == []
