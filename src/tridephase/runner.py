"""Scenario configs, deterministic CSV output, and figure-reproduction bundles.

Config documents are YAML with an optional ``defaults`` mapping and a
``scenarios`` list; each scenario names a state, a topology, and a memory
mode, plus optional overrides.  ``p``, ``topology`` and ``memory`` may be
nonempty lists, in which case the cross product (p outermost, memory
innermost) becomes the scenario list.

CSV files are byte-stable: same config, same bytes, regardless of
scenario order.  Layout:

    # state=w
    # p=1
    # topology=common
    # memory=markov
    # eta=0.1
    # lambda=0.01
    # kbt=0.0795774715
    # engine=closed_form
    gamma0_t,C_R
    0,1.09861229
    ...

with both columns printed to 9 significant digits and LF line endings.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .bath import MEMORIES, TOPOLOGIES, BathSpec
from .dynamics import ENGINES, PropagatorSpec, coherence_trace
from .measures import CoherenceTrace
from .states import MIXED_STATE_NAMES, STATE_NAMES, StateSpec

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunResult",
    "ENGINE_ALIASES",
    "FIGURE_IDS",
    "DEFAULT_N_POINTS",
    "parse_config",
    "trace_csv_bytes",
    "run_scenarios",
    "figure_scenarios",
    "reproduce",
]

DEFAULT_N_POINTS = 201
# default plot windows in gamma0*t, by memory mode
DEFAULT_T_MAX = {"markov": 3.0, "non_markov": 0.2}

ENGINE_ALIASES = {"closed_form": "closed_form", "closed-form": "closed_form", "ode": "ode"}

_SCENARIO_FIELDS = ("state", "p", "topology", "memory", "eta", "lambda", "kbt",
                    "t_max", "n_points", "engine", "output")
# fields that may carry a list to be swept
_SWEEP_FIELDS = ("p", "topology", "memory")

FIGURE_IDS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "fig5")

_PANELS = (("a", "common", "markov"),
           ("b", "local", "markov"),
           ("c", "common", "non_markov"),
           ("d", "local", "non_markov"))
_FIG2_STATES = ("ghz", "w", "wwbar", "star")
_FIGURE_MIXTURES = {"fig3": "ghz-w", "fig4": "werner-ghz", "fig5": "werner-w"}
_MIXTURE_PS = (0.1, 0.5, 0.9)


class ConfigError(ValueError):
    """Config document rejected; the message carries scenario and field context."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved run: state, bath, grid, engine, output file name."""

    state: StateSpec
    bath: BathSpec
    t_max: float
    n_points: int
    engine: str
    output: str

    def __post_init__(self):
        if isinstance(self.t_max, bool) or not (isinstance(self.t_max, (int, float))
                                                and math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if not (isinstance(self.n_points, int) and self.n_points >= 2):
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        # a plain file name, so that every CSV lands inside the output directory
        if (not isinstance(self.output, str) or self.output in ("", ".", "..")
                or "/" in self.output or "\\" in self.output):
            raise ValueError(f"field 'output': must be a plain file name, got {self.output!r}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario: the written path, or the error that stopped it."""

    scenario: ScenarioConfig
    path: Path | None
    error: Exception | None

    @property
    def ok(self) -> bool:
        return self.error is None


def _context(label: str, field: str, message: str) -> ConfigError:
    return ConfigError(f"{label}: field '{field}': {message}")


def _number(label: str, field: str, value, minimum=None, strict_min=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _context(label, field, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _context(label, field, f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise _context(label, field, f"must be >= {minimum}, got {value!r}")
    if strict_min is not None and value <= strict_min:
        raise _context(label, field, f"must be > {strict_min}, got {value!r}")
    return value


def _choice(label: str, field: str, value, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise _context(label, field, f"must be one of {', '.join(choices)}; got {value!r}")
    return value


def _sweep(label: str, entry: dict, field: str) -> list:
    value = entry[field]
    if value == []:
        raise _context(label, field, "empty sweep list; give at least one value")
    return value if isinstance(value, list) else [value]


def _format_p(p: float) -> str:
    return format(float(p), "g")


def _auto_output(state: StateSpec, topology: str, memory: str) -> str:
    if state.name in MIXED_STATE_NAMES:
        return f"{state.name}_p{_format_p(state.p)}_{topology}_{memory}.csv"
    return f"{state.name}_{topology}_{memory}.csv"


def _expand_scenario(entry: dict, label: str) -> list[ScenarioConfig]:
    for key in entry:
        if key not in _SCENARIO_FIELDS:
            raise _context(label, str(key), f"unknown field; valid fields: {', '.join(_SCENARIO_FIELDS)}")

    if "state" not in entry:
        raise _context(label, "state", "required")
    state_name = _choice(label, "state", entry["state"], STATE_NAMES)

    if "topology" not in entry:
        raise _context(label, "topology", "required")
    topologies = [_choice(label, "topology", v, TOPOLOGIES) for v in _sweep(label, entry, "topology")]
    if "memory" not in entry:
        raise _context(label, "memory", "required")
    memories = [_choice(label, "memory", v, MEMORIES) for v in _sweep(label, entry, "memory")]

    ps = [_number(label, "p", v) for v in _sweep(label, entry, "p")] if "p" in entry else [None]
    for p in ps:
        if p is not None and not (0.0 <= p <= 1.0):
            raise _context(label, "p", f"must lie in [0, 1], got {p!r}")
    if state_name in MIXED_STATE_NAMES and ps == [None]:
        raise _context(label, "p", f"required for mixed state {state_name!r}")
    if state_name not in MIXED_STATE_NAMES and ps != [None]:
        raise _context(label, "p", f"not used by pure state {state_name!r}; drop it")

    eta = _number(label, "eta", entry.get("eta", BathSpec().eta), minimum=0.0)
    lam = _number(label, "lambda", entry.get("lambda", BathSpec().lambda_cutoff), strict_min=0.0)
    kbt = _number(label, "kbt", entry.get("kbt", BathSpec().kbt), strict_min=0.0)

    n_points = entry.get("n_points", DEFAULT_N_POINTS)
    if isinstance(n_points, bool) or not isinstance(n_points, int) or n_points < 2:
        raise _context(label, "n_points", f"must be an integer >= 2, got {n_points!r}")

    engine_raw = entry.get("engine", "closed_form")
    if not isinstance(engine_raw, str) or engine_raw not in ENGINE_ALIASES:
        raise _context(label, "engine", f"must be one of {', '.join(sorted(set(ENGINE_ALIASES)))}; got {engine_raw!r}")
    engine = ENGINE_ALIASES[engine_raw]

    output = entry.get("output")
    if output is not None and not isinstance(output, str):
        raise _context(label, "output", f"expected a string, got {output!r}")

    combos = [(p, topology, memory) for p in ps for topology in topologies for memory in memories]
    if output is not None and len(combos) > 1:
        raise _context(label, "output", f"fixed name with a sweep of {len(combos)} scenarios; "
                                        "drop 'output' to use automatic names")

    scenarios = []
    for p, topology, memory in combos:
        state = StateSpec(state_name, 1.0 if p is None else p)
        bath = BathSpec(eta=eta, lambda_cutoff=lam, kbt=kbt, topology=topology, memory=memory)
        t_max = entry.get("t_max")
        t_max = DEFAULT_T_MAX[memory] if t_max is None else _number(label, "t_max", t_max, strict_min=0.0)
        name = output if output is not None else _auto_output(state, topology, memory)
        try:
            scenarios.append(ScenarioConfig(state=state, bath=bath, t_max=t_max,
                                            n_points=n_points, engine=engine, output=name))
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
    return scenarios


def parse_config(text: str) -> list[ScenarioConfig]:
    """Parse a YAML config document into fully resolved scenarios.

    Defaults: eta 0.1, lambda 0.01, kbt 1/(4 pi), engine closed_form,
    n_points 201, t_max 3.0 (markov) or 0.2 (non_markov).  Errors carry the
    scenario index and field name; an empty document parses to no scenarios.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"invalid YAML{where}: {exc}") from exc
    if doc is None:
        return []
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping with a 'scenarios' list")
    for key in doc:
        if key not in ("defaults", "scenarios"):
            raise ConfigError(f"unknown top-level key {key!r}; expected 'defaults' and 'scenarios'")

    defaults = {} if doc.get("defaults") is None else doc["defaults"]
    if not isinstance(defaults, dict):
        raise ConfigError("'defaults' must be a mapping")
    for key in defaults:
        if key not in _SCENARIO_FIELDS or key == "output":
            raise _context("defaults", str(key), "not allowed here")

    raw = doc.get("scenarios")
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ConfigError("'scenarios' must be a list")

    scenarios: list[ScenarioConfig] = []
    seen: dict[str, str] = {}
    for i, entry in enumerate(raw):
        label = f"scenario {i + 1}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: must be a mapping")
        for sc in _expand_scenario({**defaults, **entry}, label):
            if sc.output in seen:
                raise ConfigError(f"{label}: output {sc.output!r} already produced by {seen[sc.output]}")
            seen[sc.output] = label
            scenarios.append(sc)
    return scenarios


def _sig9(x: float) -> str:
    return format(float(x), ".9g")


def trace_csv_bytes(trace: CoherenceTrace) -> bytes:
    """Render one trace in the byte-stable CSV layout."""
    lines = [
        f"# state={trace.state.name}",
        f"# p={_sig9(trace.state.p)}",
        f"# topology={trace.bath.topology}",
        f"# memory={trace.bath.memory}",
        f"# eta={_sig9(trace.bath.eta)}",
        f"# lambda={_sig9(trace.bath.lambda_cutoff)}",
        f"# kbt={_sig9(trace.bath.kbt)}",
        f"# engine={trace.engine}",
        "gamma0_t,C_R",
    ]
    lines.extend(f"{_sig9(t)},{_sig9(c)}" for t, c in zip(trace.gamma0_t, trace.values))
    return ("\n".join(lines) + "\n").encode("ascii")


def _run_one(scenario: ScenarioConfig, out_dir: Path) -> Path:
    spec = PropagatorSpec(bath=scenario.bath, engine=scenario.engine)
    grid = np.linspace(0.0, scenario.t_max, scenario.n_points)
    trace = coherence_trace(spec, scenario.state, grid)
    path = out_dir / scenario.output
    # render into a temp file beside the target and rename it into place, so
    # a failure never leaves a partial CSV
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(trace_csv_bytes(trace))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def run_scenarios(scenarios, out_dir) -> list[RunResult]:
    """Run every scenario and write one CSV each.

    A failing scenario is reported in its RunResult and does not stop the
    rest.  Results come back in scenario order.  An empty list is a
    successful no-op.
    """
    scenarios = list(scenarios)
    out = Path(out_dir)
    if scenarios:
        out.mkdir(parents=True, exist_ok=True)

    def attempt(sc: ScenarioConfig) -> RunResult:
        try:
            return RunResult(sc, _run_one(sc, out), None)
        except Exception as exc:
            return RunResult(sc, None, exc)

    return [attempt(sc) for sc in scenarios]


def figure_scenarios(figure_id: str) -> list[ScenarioConfig]:
    """Scenario bundle behind one figure id.

    fig2a..fig2d sweep the four pure states through one panel each
    (a common/markov, b local/markov, c common/non_markov, d local/non_markov);
    fig3, fig4 and fig5 sweep ghz-w, werner-ghz and werner-w mixtures at
    p in {0.1, 0.5, 0.9} through all four panels (12 files each), with the
    closed-form engine on DEFAULT_N_POINTS samples.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}")

    if figure_id.startswith("fig2"):
        topology, memory = next((topo, mem) for pid, topo, mem in _PANELS if pid == figure_id[-1])
        runs = [(StateSpec(name), topology, memory, f"{figure_id}_{name}.csv") for name in _FIG2_STATES]
    else:
        name = _FIGURE_MIXTURES[figure_id]
        runs = [(StateSpec(name, p), topology, memory, f"{figure_id}{panel}_{name}_p{_format_p(p)}.csv")
                for panel, topology, memory in _PANELS for p in _MIXTURE_PS]
    return [ScenarioConfig(state=state, bath=BathSpec(topology=topology, memory=memory),
                           t_max=DEFAULT_T_MAX[memory], n_points=DEFAULT_N_POINTS,
                           engine="closed_form", output=output)
            for state, topology, memory, output in runs]


def reproduce(figure_id: str, out_dir) -> list[RunResult]:
    """Write the CSV bundle for one figure id into out_dir."""
    return run_scenarios(figure_scenarios(figure_id), out_dir)
