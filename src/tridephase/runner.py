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

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from yaml.composer import Composer
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.cyaml import CParser
from yaml.resolver import Resolver

from .bath import DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF, BathSpec, markov_rate
from .dynamics import ENGINES, coherence_trace
from .numerics import check_number
from .states import MIXED_STATE_NAMES, PURE_STATE_NAMES, StateSpec

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunResult",
    "FIGURE_IDS",
    "DEFAULT_N_POINTS",
    "MAX_N_POINTS",
    "parse_config",
    "trace_csv_bytes",
    "run_scenarios",
    "figure_scenarios",
]

DEFAULT_N_POINTS = 201
# grid points per trace, for configs and --points alike.  At the bound a ghz
# trace takes 6.5-7.5 s with either engine, and the process peaks at 380-400 MB
# resident (2-core host, one BLAS thread): the 102 MB state stack plus the
# temporaries while the exponents, their exp or the residuals of that stack
# are formed
MAX_N_POINTS = 100_001
# default plot windows in gamma0*t, by memory mode
DEFAULT_T_MAX = {"markov": 3.0, "non_markov": 0.2}

_SCENARIO_FIELDS = ("state", "p", "topology", "memory", "eta", "lambda", "kbt",
                    "t_max", "n_points", "engine", "output")

_PANELS = (("a", "common", "markov"),
           ("b", "local", "markov"),
           ("c", "common", "non_markov"),
           ("d", "local", "non_markov"))
_FIG2_STATES = ("ghz", "w", "wwbar", "star")
_FIGURE_MIXTURES = {"fig3": "ghz-w", "fig4": "werner-ghz", "fig5": "werner-w"}
_MIXTURE_PS = (0.1, 0.5, 0.9)
# each figure id's config entries, in the order reproduce writes them
_BUNDLES = ({f"fig2{panel}": [{"state": name, "topology": topology, "memory": memory,
                               "output": f"fig2{panel}_{name}.csv"} for name in _FIG2_STATES]
             for panel, topology, memory in _PANELS}
            | {figure_id: [{"state": name, "p": p, "topology": topology, "memory": memory,
                            "output": f"{figure_id}{panel}_{name}_p{p:g}.csv"}
                           for panel, topology, memory in _PANELS for p in _MIXTURE_PS]
               for figure_id, name in _FIGURE_MIXTURES.items()})
FIGURE_IDS = tuple(_BUNDLES)


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
        object.__setattr__(self, "t_max", check_number("'t_max'", self.t_max, strict=True))
        if (isinstance(self.n_points, bool) or not isinstance(self.n_points, (int, np.integer))
                or not 2 <= self.n_points <= MAX_N_POINTS):
            raise ValueError(f"field 'n_points': must be an integer in [2, {MAX_N_POINTS}], got {self.n_points!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        # the times grid / gamma0: gamma0 is 0 at eta = 0 and can underflow; the end is divided first, as a float
        if not ((g0 := markov_rate(self.bath)) > 0.0 and self.t_max / g0 < np.inf
                and (np.diff(np.linspace(0.0, self.t_max, self.n_points) / g0) > 0.0).all()):
            raise ValueError(f"fields 'eta', 'kbt', 't_max', 'n_points': {self.n_points} points to gamma0*t = "
                             f"{self.t_max!r} at gamma0 = 4 pi eta kbt = {g0!r} give times that overflow or are "
                             "not strictly increasing")
        if self.engine == "closed-form":  # its second spelling; == lets a YAML list or mapping reach the check
            object.__setattr__(self, "engine", "closed_form")
        if self.engine not in ENGINES:
            raise ValueError(f"field 'engine': must be one of {', '.join(ENGINES)}; got {self.engine!r}")
        # a plain file name, so that every CSV lands inside the output directory
        if (not isinstance(self.output, str) or self.output in ("", ".", "..")
                or any(c in self.output for c in "/\\\0")):
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


def _sweep(label: str, entry: dict, field: str) -> list:
    value = entry[field]
    if value == []:
        raise _context(label, field, "empty sweep list; give at least one value")
    return value if isinstance(value, list) else [value]


def _auto_output(state: StateSpec, bath: BathSpec) -> str:
    if state.name in MIXED_STATE_NAMES:
        return f"{state.name}_p{state.p:g}_{bath.topology}_{bath.memory}.csv"
    return f"{state.name}_{bath.topology}_{bath.memory}.csv"


def _expand_scenario(entry: dict, label: str) -> list[ScenarioConfig]:
    for key in entry:
        if key not in _SCENARIO_FIELDS:
            raise _context(label, str(key), f"unknown field; valid fields: {', '.join(_SCENARIO_FIELDS)}")
    for key in ("state", "topology", "memory"):
        if key not in entry:
            raise _context(label, key, "required")

    name = entry["state"]
    ps = _sweep(label, entry, "p") if "p" in entry else []
    if name in MIXED_STATE_NAMES and not ps:
        raise _context(label, "p", f"required for mixed state {name!r}")
    if name in PURE_STATE_NAMES and ps:
        raise _context(label, "p", f"not used by pure state {name!r}; drop it")
    topologies, memories = _sweep(label, entry, "topology"), _sweep(label, entry, "memory")

    # each spec checks its own fields, nulls too (get fills only a missing key); p varies slowest, memory fastest
    try:
        states = [StateSpec(name, p) for p in ps] or [StateSpec(name)]
        baths = [BathSpec(eta=entry.get("eta", DEFAULT_ETA),
                          lambda_cutoff=entry.get("lambda", DEFAULT_LAMBDA_CUTOFF),
                          kbt=entry.get("kbt", DEFAULT_KBT), topology=topology, memory=memory)
                 for topology in topologies for memory in memories]
        scenarios = [ScenarioConfig(state=state, bath=bath,
                                    t_max=entry.get("t_max", DEFAULT_T_MAX[bath.memory]),
                                    n_points=entry.get("n_points", DEFAULT_N_POINTS),
                                    engine=entry.get("engine", "closed_form"),
                                    output=entry.get("output", _auto_output(state, bath)))
                     for state in states for bath in baths]
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    if "output" in entry and len(scenarios) > 1:
        raise _context(label, "output", f"fixed name with a sweep of {len(scenarios)} scenarios; "
                                        "drop 'output' to use automatic names")
    return scenarios


class _Loader(Composer, CParser, SafeConstructor, Resolver):
    """safe_load's documents from libyaml's C scanner and parser.  The composer is
    PyYAML's Python one: CSafeLoader's composes in Cython, which exhausts the C
    stack (a crash, not an exception) on a deeply nested document."""

    def __init__(self, stream):
        CParser.__init__(self, stream)
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)

    def construct_mapping(self, node, deep=False):  # a scalar key given twice is an error, a '<<' merge's is not
        seen = set()
        for key in (k for k, _ in node.value if isinstance(k.value, str) and k.tag != "tag:yaml.org,2002:merge"):
            if (key.tag, key.value) in seen:
                raise ConstructorError(None, None, f"found the key {key.value!r} twice", key.start_mark)
            seen.add((key.tag, key.value))
        return super().construct_mapping(node, deep)


def parse_config(text: str) -> list[ScenarioConfig]:
    """Parse a YAML config document into fully resolved scenarios.

    Defaults: eta 0.1, lambda 0.01, kbt 1/(4 pi), engine closed_form,
    n_points 201, t_max 3.0 (markov) or 0.2 (non_markov).  Errors carry the
    scenario index and field name; an empty document parses to no scenarios.
    """
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"invalid YAML{where}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("invalid YAML: nested too deeply to read") from exc
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


def trace_csv_bytes(scenario: ScenarioConfig, gamma0_t, values) -> bytes:
    """Render the C_R ``values`` of one scenario on its gamma0*t grid in the byte-stable CSV layout."""
    if len(gamma0_t) != len(values):
        raise ValueError(f"{len(gamma0_t)} grid points but {len(values)} C_R values")
    state, bath = scenario.state, scenario.bath
    # one % over the interleaved (gamma0_t, C_R) rows; % and format(x, ".9g")
    # print a float alike
    rows = np.array((gamma0_t, values), dtype=float).T.ravel().tolist()
    return (f"# state={state.name}\n# p={state.p:.9g}\n# topology={bath.topology}\n"
            f"# memory={bath.memory}\n# eta={bath.eta:.9g}\n# lambda={bath.lambda_cutoff:.9g}\n"
            f"# kbt={bath.kbt:.9g}\n# engine={scenario.engine}\ngamma0_t,C_R\n"
            + "%.9g,%.9g\n" * len(values) % tuple(rows)).encode("ascii")


def _run_one(scenario: ScenarioConfig, out_dir: Path) -> Path:
    grid = np.linspace(0.0, scenario.t_max, scenario.n_points)
    values = coherence_trace(scenario.bath, scenario.state, grid / markov_rate(scenario.bath), scenario.engine)
    path = out_dir / scenario.output
    # render into a temp file beside the target and rename it into place, so
    # a failure never leaves a partial CSV; the temp name is short and random,
    # so any name the directory takes is writable
    tmp = out_dir / f".{os.urandom(8).hex()}.tmp"
    try:
        tmp.write_bytes(trace_csv_bytes(scenario, grid, values))
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
    """Scenario bundle behind one figure id: fig2a..fig2d take the four pure states through
    one panel each (a common/markov, b local/markov, c common/non_markov, d local/non_markov),
    fig3, fig4 and fig5 the ghz-w, werner-ghz and werner-w mixtures at p in {0.1, 0.5, 0.9}
    through all four panels, p innermost (12 files each), all with the closed-form engine on
    DEFAULT_N_POINTS samples."""
    if not isinstance(figure_id, str) or figure_id not in FIGURE_IDS:  # so an unhashable id is named too
        raise ValueError(f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}")
    return [sc for entry in _BUNDLES[figure_id] for sc in _expand_scenario(entry, figure_id)]
