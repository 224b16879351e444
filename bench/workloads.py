"""Seeded scenario lists for the benchmark's three workloads.

Each generator takes a ``random.Random`` and returns config entries in the
schema of ``tridephase run`` (state, p, topology, memory, eta, lambda, kbt,
t_max, engine, output).  The program receives only these entries, written as
a JSON document, which is also valid YAML.  Standard library only, so the
harness never imports the program it measures.
"""

from __future__ import annotations

import json
import random

CATALOG = ("ghz", "w", "wbar", "wwbar", "star", "ghz-w", "werner-ghz", "werner-w")
MIXTURES = ("ghz-w", "werner-ghz", "werner-w")
PANELS = (("a", "common", "markov"),
          ("b", "local", "markov"),
          ("c", "common", "non_markov"),
          ("d", "local", "non_markov"))

# The seven `tridephase reproduce` bundles, with their file names.
_FIG2_STATES = ("ghz", "w", "wwbar", "star")
_FIG_MIXTURES = (("fig3", "ghz-w"), ("fig4", "werner-ghz"), ("fig5", "werner-w"))
_MIXTURE_PS = (0.1, 0.5, 0.9)

# kernels: paper defaults are eta 0.1, lambda 0.01, kbt 1/(4 pi) ~ 0.08.
# With these ranges t = gamma0_t / (4 pi eta kbt) stays below ~120, far from
# the t >= 1e4 regime where the quadrature is known to lose accuracy.
KERNEL_SCENARIOS = 12
ETA_RANGE = (0.05, 0.2)
LAMBDA_RANGE = (0.005, 0.05)
KBT_RANGE = (0.04, 0.2)
KERNEL_T_MAX = (0.2, 3.0)


def figures(rng: random.Random) -> list[dict]:
    """All 52 traces of fig2a-fig2d and fig3-fig5, in seeded order."""
    entries = []
    for panel, topology, memory in PANELS:
        for name in _FIG2_STATES:
            entries.append({"state": name, "topology": topology, "memory": memory,
                            "output": f"fig2{panel}_{name}.csv"})
    for fig, name in _FIG_MIXTURES:
        for panel, topology, memory in PANELS:
            for p in _MIXTURE_PS:
                entries.append({"state": name, "p": p, "topology": topology, "memory": memory,
                                "output": f"{fig}{panel}_{name}_p{p:g}.csv"})
    rng.shuffle(entries)
    return entries


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi), in random order.

    Stratifying each parameter (a Latin hypercube) keeps the total quadrature
    cost of a workload nearly the same from seed to seed.
    """
    cells = list(range(n))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + rng.random()) / n for c in cells]


def _state(rng: random.Random) -> dict:
    name = rng.choice(CATALOG)
    return {"state": name, "p": rng.uniform(0.1, 0.9)} if name in MIXTURES else {"state": name}


def kernels(rng: random.Random) -> list[dict]:
    """Closed-form non-Markov traces, each with its own bath parameters."""
    n = KERNEL_SCENARIOS
    etas = _stratified(rng, *ETA_RANGE, n)
    lambdas = _stratified(rng, *LAMBDA_RANGE, n)
    kbts = _stratified(rng, *KBT_RANGE, n)
    t_maxes = list(KERNEL_T_MAX) * (n // len(KERNEL_T_MAX))
    rng.shuffle(t_maxes)
    return [{**_state(rng), "topology": ("common", "local")[i % 2], "memory": "non_markov",
             "eta": etas[i], "lambda": lambdas[i], "kbt": kbts[i], "t_max": t_maxes[i],
             "output": f"k{i:02d}.csv"}
            for i in range(n)]


def ode(rng: random.Random) -> list[dict]:
    """One catalog state through all four panels with the ODE engine."""
    state = _state(rng)
    return [{**state, "topology": topology, "memory": memory, "engine": "ode",
             "output": f"ode_{panel}.csv"}
            for panel, topology, memory in PANELS]


GENERATORS = {"figures": figures, "kernels": kernels, "ode": ode}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(seed))


def config_text(entries: list[dict]) -> str:
    """The config document for a list of entries.

    YAML 1.1 reads a float written with an exponent and no dot (1e-05) as a
    string, so such values are refused here rather than sent.
    """
    for entry in entries:
        for key, value in entry.items():
            if isinstance(value, float) and "e" in repr(value):
                raise ValueError(f"{entry['output']}: {key}={value!r} would not read back as a number")
    return json.dumps({"scenarios": entries}, indent=1) + "\n"
