"""Acceptance checks, one per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see every line; without -s
pytest still shows the lines of any failing criterion in its report.  Each
criterion also records its measured value and bound as the test-suite
properties "criterion_NN_value" and "criterion_NN_bound", which `--junitxml`
writes into the report under any junit_family.  A criterion with several
conditions records the one nearest its bound.
"""

import math

import numpy as np
import pytest

from tridephase.bath import BathSpec, kernel_integrals, kernel_rates, markov_rate
from tridephase import dynamics, states
from tridephase.dynamics import coherence_trace, propagate_grid
from tridephase.measures import rel_entropy_coherence
from tridephase.states import StateSpec, make_state

G0 = markov_rate(BathSpec())  # 0.1 at default bath parameters

CONFIGS = (("common", "markov"), ("local", "markov"),
           ("common", "non_markov"), ("local", "non_markov"))

# the seven trace states: five pure families collapse to four here because
# wbar only appears inside wwbar's sweep set, plus the three mixtures
SWEEP_STATES = (
    ("ghz", StateSpec("ghz")),
    ("w", StateSpec("w")),
    ("wwbar", StateSpec("wwbar")),
    ("star", StateSpec("star")),
    ("ghz-w p=0.5", StateSpec("ghz-w", p=0.5)),
    ("werner-ghz p=0.5", StateSpec("werner-ghz", p=0.5)),
    ("werner-w p=0.5", StateSpec("werner-w", p=0.5)),
)


@pytest.fixture
def verdict(record_testsuite_property):
    """Print a criterion's verdict line, record its value and bound, and return ok."""
    def _verdict(num: int, ok: bool, text: str, value: float, bound: float) -> bool:
        record_testsuite_property(f"criterion_{num:02d}_value", value)
        record_testsuite_property(f"criterion_{num:02d}_bound", bound)
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {text}")
        return ok
    return _verdict


def _bath(topology: str, memory: str) -> BathSpec:
    return BathSpec(topology=topology, memory=memory)


@pytest.fixture(scope="module")
def engine_sweep():
    """Closed-form and integrator trajectories for every state and config."""
    times = np.linspace(0.0, 1.0, 21) / G0
    out = {}
    for label, sspec in SWEEP_STATES:
        rho0 = make_state(sspec)
        for topology, memory in CONFIGS:
            closed = propagate_grid(_bath(topology, memory), rho0, times)
            ode = propagate_grid(_bath(topology, memory), rho0, times, "ode")
            out[(label, topology, memory)] = (rho0, closed, ode)
    return times, out


def test_criterion_01_initial_coherences(verdict):
    table = (("ghz", math.log(2.0)), ("w", math.log(3.0)),
             ("wwbar", math.log(6.0)), ("star", math.log(4.0)))
    values = {name: rel_entropy_coherence(make_state(StateSpec(name)))
              for name, _ in table}
    worst = max(abs(values[name] - expected) for name, expected in table)
    ordered = (values["wwbar"] > values["star"] > values["w"] > values["ghz"])
    ok = worst < 1e-6 and ordered
    assert verdict(1, ok, f"initial coherences (nats), worst dev {worst:.2e}, "
                          f"ordering wwbar > star > w > ghz: {ordered}", worst, 1e-6)


def test_criterion_02_w_state_flat_in_common_markov_bath(verdict):
    values = coherence_trace(_bath("common", "markov"), StateSpec("w"), np.linspace(0.0, 3.0, 21) / G0)
    dev = float(np.max(np.abs(values - math.log(3.0))))
    assert verdict(2, dev < 1e-9, f"w coherence constant at ln 3, max dev {dev:.2e}", dev, 1e-9)


def test_criterion_03_wwbar_saturates_at_ln3(verdict):
    rho = propagate_grid(_bath("common", "markov"), make_state(StateSpec("wwbar")), [0.0, 5.0 / G0])[-1]
    value = rel_entropy_coherence(rho)
    dev = abs(value - math.log(3.0))
    assert verdict(3, dev < 1e-3,
                   f"wwbar saturation C_R(g0 t = 5) = {value:.6f}, dev from ln 3 {dev:.2e}", dev, 1e-3)


def test_criterion_04_ghz_common_markov_decay(verdict):
    spec = _bath("common", "markov")
    rho0 = make_state(StateSpec("ghz"))
    early = rel_entropy_coherence(propagate_grid(spec, rho0, [0.0, 0.1 / G0])[-1])
    late = rel_entropy_coherence(propagate_grid(spec, rho0, [0.0, 0.3 / G0])[-1])
    ok = abs(early - 0.0137) < 1e-3 and late < 1e-4
    assert verdict(4, ok, f"ghz common decay C_R(0.1) = {early:.6f}, C_R(0.3) = {late:.2e}",
                   late, 1e-4)


def test_criterion_05_ghz_local_markov_decay(verdict):
    rho = propagate_grid(_bath("local", "markov"), make_state(StateSpec("ghz")), [0.0, 0.5 / G0])[-1]
    value = rel_entropy_coherence(rho)
    ok = abs(value - 1.24e-3) <= 0.1 * 1.24e-3
    assert verdict(5, ok, f"ghz local decay C_R(0.5) = {value:.4e}, target 1.24e-03 +- 10%",
                   abs(value - 1.24e-3), 0.1 * 1.24e-3)


def test_criterion_06_ghz_w_mixture_initial_coherences(verdict):
    targets = {0.1: 1.0580, 0.5: 0.8959, 0.9: 0.7337}
    devs = {p: abs(rel_entropy_coherence(make_state(StateSpec("ghz-w", p=p))) - c)
            for p, c in targets.items()}
    worst = max(devs.values())
    assert verdict(6, worst < 1e-4, f"ghz-w initial coherences, worst dev {worst:.2e}", worst, 1e-4)


def test_criterion_07_werner_w_initial_coherences(verdict):
    targets = {0.1: 0.0216, 0.5: 0.3426, 0.9: 0.8973}
    devs = {p: abs(rel_entropy_coherence(make_state(StateSpec("werner-w", p=p))) - c)
            for p, c in targets.items()}
    worst = max(devs.values())
    assert verdict(7, worst < 1e-4, f"werner-w initial coherences, worst dev {worst:.2e}",
                   worst, 1e-4)


def test_criterion_08_werner_w_flat_in_common_markov_bath(verdict):
    times = np.linspace(0.0, 3.0, 21) / G0
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        values = coherence_trace(_bath("common", "markov"), StateSpec("werner-w", p=p), times)
        worst = max(worst, float(np.max(np.abs(values - values[0]))))
    assert verdict(8, worst < 1e-9, f"werner-w constant under common markov bath, "
                                    f"max drift {worst:.2e} over p in {{0.1, 0.5, 0.9}}",
                   worst, 1e-9)


def test_criterion_09_werner_w_local_markov_decay(verdict):
    rho0 = make_state(StateSpec("werner-w", p=0.5))
    rho = propagate_grid(_bath("local", "markov"), rho0, [0.0, 0.5 / G0])[-1]
    value = rel_entropy_coherence(rho)
    assert verdict(9, value < 0.02, f"werner-w local decay C_R(0.5) = {value:.4e} < 0.02",
                   value, 0.02)


def test_criterion_10_non_markov_preservation(verdict):
    # The 2% bound is held on the state's coherences, the off-diagonal
    # magnitudes |rho_mn|, not on C_R.  C_R is an entropy difference, and the
    # entropy of a fading off-diagonal pair grows like -x ln x, whose slope is
    # unbounded at x = 0: a small magnitude loss becomes a far larger relative
    # drop in C_R.  At g0 t = 0.2 the memory bath has Gamma = 6.38e-4, so the
    # GHZ pair in the shared bath (weight (dZ)^2/2 = 18) loses 1.14% of its
    # magnitude while C_R drops 5.08%; no dynamics meeting criteria 1, 4, 11
    # and 13 keeps C_R within 2% there.  The C_R drop is therefore printed
    # but not bounded.  The contrast with the Markov bath is checked instead:
    # over the same window every decaying coherence breaks the same bound and
    # ends with less C_R than under memory.
    instances = [("ghz", StateSpec("ghz")), ("w", StateSpec("w")),
                 ("wbar", StateSpec("wbar")), ("wwbar", StateSpec("wwbar")),
                 ("star", StateSpec("star"))]
    for name in ("ghz-w", "werner-ghz", "werner-w"):
        for p in (0.1, 0.5, 0.9):
            instances.append((f"{name} p={p}", StateSpec(name, p=p)))

    times = np.array([0.0, 0.2]) / G0
    zw = dynamics._Z
    rows = []
    for label, sspec in instances:
        rho0 = make_state(sspec)
        off = (np.abs(rho0) > 1e-12) & ~np.eye(8, dtype=bool)
        for topology in ("common", "local"):
            # in the shared bath pairs with equal collective Z never decay
            decaying = topology == "local" or bool(np.any(off & (zw[:, None] != zw[None, :])))
            row = {"label": label, "topology": topology, "decaying": decaying}
            for memory in ("non_markov", "markov"):
                start, end = propagate_grid(_bath(topology, memory), rho0, times)
                cr0, cr1 = rel_entropy_coherence(start), rel_entropy_coherence(end)
                loss = float(np.max(1.0 - np.abs(end[off]) / np.abs(rho0[off]), initial=0.0))
                # (final C_R, relative C_R drop, worst element loss)
                row[memory] = (cr1, (cr0 - cr1) / cr0, loss)
            rows.append(row)
            (_, nm_drop, nm_loss), (_, mk_drop, mk_loss) = row["non_markov"], row["markov"]
            flag = "" if nm_loss <= 0.02 else "  memory loss exceeds 2%"
            print(f"    {label:<18} {topology:<6} memory: C_R drop {100.0 * nm_drop:7.4f}% "
                  f"element loss {100.0 * nm_loss:7.4f}% | markov: C_R drop "
                  f"{100.0 * mk_drop:8.4f}% element loss {100.0 * mk_loss:8.4f}%{flag}")

    kept = [r for r in rows if r["non_markov"][2] <= 0.02]
    decays = [r for r in rows if r["decaying"]]
    broken = [r for r in decays if r["markov"][2] > 0.02]
    lower = [r for r in decays if r["markov"][0] < r["non_markov"][0]]
    worst = max(rows, key=lambda r: r["non_markov"][2])
    ok = len(kept) == len(rows) and len(broken) == len(lower) == len(decays) > 0
    assert verdict(10, ok, f"short-window coherence preservation, memory keeps every "
                           f"coherence within 2% in {len(kept)} of {len(rows)} combinations "
                           f"(worst {worst['label']} {worst['topology']}: element loss "
                           f"{100.0 * worst['non_markov'][2]:.3f}%, C_R drop "
                           f"{100.0 * worst['non_markov'][1]:.2f}%); markov breaks 2% in "
                           f"{len(broken)} and ends with lower C_R in {len(lower)} of "
                           f"{len(decays)} decaying combinations",
                   worst["non_markov"][2], 0.02)


def test_criterion_11_engine_equivalence(verdict, engine_sweep):
    _, sweep = engine_sweep
    worst = 0.0
    for (label, topology, memory), (_, closed, ode) in sweep.items():
        worst = max(worst, float(np.max(np.abs(closed - ode))))
    assert verdict(11, worst < 1e-6,
                   f"engine equivalence over {len(sweep)} sweeps x 21 samples, "
                   f"max elementwise gap {worst:.2e}", worst, 1e-6)


def test_criterion_12_structural_invariants(verdict, engine_sweep):
    times, sweep = engine_sweep
    worst_herm = worst_trace = worst_eig = worst_diag = 0.0
    for (_, topology, memory), (rho0, closed, ode) in sweep.items():
        for rhos in (closed, ode):
            herm, trace, negative = states._residuals(rhos).max(axis=0)
            worst_herm = max(worst_herm, herm)
            worst_trace = max(worst_trace, trace)
            worst_eig = min(worst_eig, -negative)
            diag_drift = np.max(np.abs(rhos.diagonal(axis1=1, axis2=2).real
                                       - np.diag(rho0).real))
            worst_diag = max(worst_diag, float(diag_drift))

    # the lamb phase is the diagonal unitary exp(i M(t) Z^2), so taking it
    # off, element by element, cannot move C_R
    worst_lamb = 0.0
    spec = _bath("common", "non_markov")
    zsq = dynamics._Z[:, None] ** 2 - dynamics._Z[None, :] ** 2
    unphase = np.exp(-1j * kernel_integrals(spec, times)[:, 1, None, None] * zsq)
    for label, sspec in SWEEP_STATES:
        with_phase = propagate_grid(spec, make_state(sspec), times)
        without = with_phase * unphase
        for a, b in zip(with_phase, without):
            worst_lamb = max(worst_lamb, abs(rel_entropy_coherence(a)
                                             - rel_entropy_coherence(b)))

    ok = (worst_herm < 1e-6 and worst_trace < 1e-6 and worst_eig > -1e-6
          and worst_diag < 1e-6 and worst_lamb < 1e-12)
    assert verdict(12, ok, "structural invariants at every sample: "
                           f"hermiticity {worst_herm:.1e}, trace {worst_trace:.1e}, "
                           f"min eigenvalue {worst_eig:.1e}, diagonal drift {worst_diag:.1e}, "
                           f"lamb-phase C_R residual {worst_lamb:.1e}", worst_lamb, 1e-12)


def test_criterion_13_kernel_correctness(verdict):
    nm = BathSpec(memory="non_markov")
    mk = BathSpec(memory="markov")
    worst = 0.0
    for g0t in np.linspace(0.015, 3.0, 15):
        t = float(g0t) / G0
        rate_ht = 4.0 * nm.eta * nm.kbt * math.atan(nm.lambda_cutoff * t)
        cum_ht = 4.0 * nm.eta * nm.kbt * (t * math.atan(nm.lambda_cutoff * t)
                                          - math.log1p((nm.lambda_cutoff * t) ** 2)
                                          / (2.0 * nm.lambda_cutoff))
        worst = max(worst,
                    abs(kernel_rates(nm, t)[0] - rate_ht) / rate_ht,
                    abs(kernel_integrals(nm, t)[0] - cum_ht) / cum_ht)
    exact = all(kernel_integrals(mk, t)[0] == markov_rate(mk) * t
                for t in (0.0, 0.7, 2.9, 30.0))
    ok = worst < 0.05 and exact
    assert verdict(13, ok, f"closed-form kernels vs flat-coth forms, worst rel dev "
                           f"{worst:.2e}; markov cumulative exactly linear: {exact}", worst, 0.05)
