import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from tridephase import runner
from tridephase.bath import BathSpec, markov_rate
from tridephase.cli import main
from tridephase.dynamics import coherence_trace
from tridephase.runner import (DEFAULT_N_POINTS, FIGURE_IDS, MAX_N_POINTS, ConfigError,
                               ScenarioConfig, figure_scenarios, parse_config,
                               run_scenarios, trace_csv_bytes)
from tridephase.states import StateSpec

MINIMAL = """
scenarios:
  - state: ghz
    topology: common
    memory: markov
"""


# ------------------------------------------------------------------ parsing

def test_parse_minimal_document():
    (sc,) = parse_config(MINIMAL)
    assert sc.state == StateSpec("ghz")
    assert sc.bath.topology == "common"
    assert sc.bath.memory == "markov"
    assert sc.bath.eta == 0.1
    assert sc.bath == BathSpec(topology="common", memory="markov")  # lambda and kbt take BathSpec's defaults
    assert sc.t_max == 3.0
    assert sc.n_points == DEFAULT_N_POINTS
    assert sc.engine == "closed_form"
    assert sc.output == "ghz_common_markov.csv"


def test_parse_non_markov_window_default():
    (sc,) = parse_config("scenarios:\n  - {state: ghz, topology: local, memory: non_markov}\n")
    assert sc.t_max == 0.2
    assert sc.output == "ghz_local_non_markov.csv"


def test_parse_defaults_merge_and_override():
    text = """
defaults:
  topology: common
  memory: markov
  eta: 0.2
scenarios:
  - state: ghz
  - state: w
    eta: 0.05
"""
    first, second = parse_config(text)
    assert first.bath.eta == 0.2
    assert second.bath.eta == 0.05


def test_parse_empty_document():
    assert parse_config("") == []
    assert parse_config("scenarios: []\n") == []


def test_parse_engine_alias():
    (sc,) = parse_config("scenarios:\n  - {state: ghz, topology: common, memory: markov, engine: closed-form}\n")
    assert sc.engine == "closed_form"


@pytest.mark.parametrize("field, engine", [
    (", engine: ode", "ode"),
    (", engine: closed-form", "closed_form"),
    ("", "closed_form"),
])
def test_parse_engine_reaches_the_scenario(field, engine):
    (sc,) = parse_config(f"scenarios:\n  - {{state: ghz, topology: local, memory: non_markov{field}}}\n")
    assert sc.engine == engine


def test_scenario_config_reads_the_second_engine_spelling():
    # ScenarioConfig reads closed-form, so a config, --engine and replace all take it
    (scenario,) = parse_config(MINIMAL.replace("markov", "markov\n    engine: ode"))
    built = ScenarioConfig(state=scenario.state, bath=scenario.bath, t_max=3.0, n_points=3,
                           engine="closed-form", output="a.csv")
    for sc in (built, replace(scenario, engine="closed-form")):
        assert sc.engine == "closed_form"
        assert trace_csv_bytes(sc, [0.0], [0.0]).decode("ascii").split("\n")[7] == "# engine=closed_form"


def test_parse_mixture_sweep_expands_in_order():
    text = """
scenarios:
  - state: ghz-w
    p: [0.1, 0.5, 0.9]
    topology: common
    memory: markov
"""
    scs = parse_config(text)
    assert [sc.state.p for sc in scs] == [0.1, 0.5, 0.9]
    assert [sc.output for sc in scs] == [
        "ghz-w_p0.1_common_markov.csv",
        "ghz-w_p0.5_common_markov.csv",
        "ghz-w_p0.9_common_markov.csv",
    ]


def test_parse_cross_product_order():
    # p varies slowest, memory fastest
    text = """
scenarios:
  - state: werner-w
    p: [0.2, 0.8]
    topology: [common, local]
    memory: [markov, non_markov]
"""
    scs = parse_config(text)
    assert len(scs) == 8
    assert scs[0].output == "werner-w_p0.2_common_markov.csv"
    assert scs[1].output == "werner-w_p0.2_common_non_markov.csv"
    assert scs[2].output == "werner-w_p0.2_local_markov.csv"
    assert scs[4].output == "werner-w_p0.8_common_markov.csv"


@pytest.mark.parametrize("text,needle", [
    ("scenarios:\n  - {topology: common, memory: markov}\n", "state"),
    ("scenarios:\n  - {state: ghz, memory: markov}\n", "topology"),
    ("scenarios:\n  - {state: ghz, topology: common}\n", "memory"),
    ("scenarios:\n  - {state: nope, topology: common, memory: markov}\n", "state"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, flavor: mint}\n", "flavor"),
    ("scenarios:\n  - {state: werner-w, p: 1.5, topology: common, memory: markov}\n", "p"),
    ("scenarios:\n  - {state: werner-w, topology: common, memory: markov}\n", "p"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, eta: -1}\n", "eta"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, n_points: 1}\n", "n_points"),
    (f"scenarios:\n  - {{state: ghz, topology: common, memory: markov, n_points: {MAX_N_POINTS + 1}}}\n", "n_points"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, engine: verlet}\n", "engine"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, engine: [ode]}\n", "field 'engine'"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, engine: {a: 1}}\n", "field 'engine'"),
    ("scenarios:\n  - {state: werner-w, p: [], topology: common, memory: markov}\n", "field 'p'"),
    ("scenarios:\n  - {state: ghz, topology: [], memory: markov}\n", "field 'topology'"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: []}\n", "field 'memory'"),
    ("defaults: {topology: []}\nscenarios:\n  - {state: ghz, memory: markov}\n", "field 'topology'"),
    # a null is the field's value, checked as in eta or n_points, not a request for the default
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, t_max: null}\n",
     "field 't_max': expected a number, got None"),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, output: null}\n",
     "field 'output': must be a plain file name, got None"),
    ("defaults: {t_max: null}\nscenarios:\n  - {state: ghz, topology: common, memory: markov}\n",
     "field 't_max': expected a number, got None"),
])
def test_parse_errors_name_the_field(text, needle):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert needle in str(info.value)
    assert "scenario 1" in str(info.value)


@pytest.mark.parametrize("text", [
    "scenarios:\n  - {state: ghz, p: 0.3, topology: common, memory: markov}\n",
    "scenarios:\n  - {state: ghz, p: [0.3, 0.5], topology: common, memory: markov}\n",
    "defaults: {p: 0.3}\nscenarios:\n  - {state: ghz, topology: common, memory: markov}\n",
], ids=["scalar", "list", "defaults"])
def test_parse_rejects_p_on_a_pure_state(text):
    with pytest.raises(ConfigError, match="scenario 1: field 'p': .*'ghz'"):
        parse_config(text)


def test_parse_rejects_output_on_sweep():
    text = """
scenarios:
  - state: ghz
    topology: [common, local]
    memory: markov
    output: fixed.csv
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert "output" in str(info.value)


def test_parse_rejects_duplicate_outputs():
    text = """
scenarios:
  - {state: ghz, topology: common, memory: markov}
  - {state: ghz, topology: common, memory: markov}
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert "already produced" in str(info.value)


def test_parse_rejects_bad_yaml_with_line():
    with pytest.raises(ConfigError) as info:
        parse_config("scenarios:\n  - {state: ghz,\n")
    assert "line" in str(info.value)


def test_parse_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError) as info:
        parse_config("runs: []\n")
    assert "runs" in str(info.value)


@pytest.mark.parametrize("value", ["[]", "0", "''", "false"])
def test_parse_rejects_defaults_that_are_not_a_mapping(value):
    with pytest.raises(ConfigError, match="'defaults' must be a mapping"):
        parse_config(f"defaults: {value}\n{MINIMAL}")


def test_parse_allows_a_bare_defaults_key():
    assert len(parse_config(f"defaults:\n{MINIMAL}")) == 1


@pytest.mark.parametrize("text, key, line", [
    ("scenarios:\n  - state: ghz\n    topology: common\n    memory: markov\n    eta: 0.1\n    eta: 0.5\n", "eta", 6),
    ("scenarios:\n  - {state: ghz, topology: common, memory: markov, eta: 0.1, 'eta': 0.5}\n", "eta", 2),
    ("defaults: {eta: 0.2}\ndefaults: {eta: 0.3}\nscenarios:\n  - {state: ghz, topology: common, memory: markov}\n",
     "defaults", 2),
    ("scenarios: []\nscenarios:\n  - {state: ghz, topology: common, memory: markov}\n", "scenarios", 2),
], ids=["scenario", "quoted", "defaults", "top-level"])
def test_parse_rejects_a_key_given_twice(text, key, line):
    # PyYAML alone keeps the last value without a word
    with pytest.raises(ConfigError, match=f"^invalid YAML at line {line}: found the key '{key}' twice"):
        parse_config(text)


def test_parse_lets_a_key_override_a_merged_one():
    text = """
scenarios:
  - &base {state: ghz, topology: common, memory: markov, eta: 0.1, output: a.csv}
  - {<<: *base, eta: 0.5, output: b.csv}
"""
    first, second = parse_config(text)
    assert (first.bath.eta, second.bath.eta, second.output) == (0.1, 0.5, "b.csv")


def readme_block(language):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(rf"```{language}\n(.*?)```", readme, re.S)
    return block


def readme_config():
    return readme_block("yaml")


def test_readme_config_parses():
    assert len(parse_config(readme_config())) == 14


def test_readme_library_example_runs():
    # in a child process with every warning an error, as CI runs it against the installed package
    src = str(Path(runner.__file__).parents[1])
    done = subprocess.run([sys.executable, "-W", "error", "-c", readme_block("python")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def benchmark_configs():
    """The config of each benchmark workload at seeds 0 and 1, by id."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {f"{name}-{seed}": workloads.config_text(workloads.generate(name, seed))
            for name in workloads.GENERATORS for seed in (0, 1)}


@pytest.mark.parametrize("text", [pytest.param(text, id=name) for name, text in
                                  {**benchmark_configs(), "readme": readme_config()}.items()])
def test_loader_reads_as_the_python_safe_loader(text):
    doc = yaml.load(text, Loader=runner._Loader)
    assert doc["scenarios"] and doc == yaml.load(text, Loader=yaml.SafeLoader)


def test_parse_never_runs_the_python_scanner(monkeypatch):
    def scanner(*args):
        raise AssertionError("pure-Python YAML scanner")

    monkeypatch.setattr(yaml.scanner.Scanner, "__init__", scanner)
    assert len(parse_config(readme_config())) == 14


def test_parse_accepts_a_tab_after_a_key():
    # libyaml takes a tab as separation here; PyYAML's Python scanner refused it
    (scenario,) = parse_config("scenarios:\n  - state:\tghz\n    topology: common\n    memory: markov\n")
    assert scenario.state == StateSpec("ghz")


@pytest.mark.parametrize("depth", [2000, 50000])
def test_cli_deeply_nested_config_exits_two(tmp_path, depth):
    # in a child process, as a crash on the C stack would end the process
    cfg = tmp_path / "deep.yaml"
    cfg.write_text("scenarios: " + "[" * depth + "]" * depth + "\n")
    src = str(Path(runner.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "tridephase.cli", "run", str(cfg), "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (2, "error: invalid YAML: nested too deeply to read\n")


def test_parse_rejects_output_in_defaults():
    with pytest.raises(ConfigError):
        parse_config("defaults: {output: a.csv}\nscenarios: []\n")


ESCAPING_OUTPUTS = ["../escaped.csv", "/tmp/escaped.csv", "sub/escaped.csv",
                    "..\\escaped.csv", ".", "..", "a\0b.csv"]


@pytest.mark.parametrize("output", ESCAPING_OUTPUTS)
def test_parse_rejects_output_that_is_not_a_plain_file_name(output):
    # a JSON string is a YAML double-quoted scalar, which can spell a NUL byte
    text = f"scenarios:\n  - {{state: ghz, topology: common, memory: markov, output: {json.dumps(output)}}}\n"
    with pytest.raises(ConfigError, match="scenario 1: field 'output': must be a plain file name"):
        parse_config(text)


@pytest.mark.parametrize("field", ["p", "eta", "lambda", "kbt", "t_max"])
def test_parse_rejects_booleans(field):
    p = "" if field == "p" else "p: 0.5, "  # a key given twice is its own error
    text = f"scenarios:\n  - {{state: werner-w, {p}topology: common, memory: markov, {field}: true}}\n"
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        parse_config(text)


HUGE_INT = "1" + "0" * 400  # too large for a float


@pytest.mark.parametrize("value", [HUGE_INT, ".nan", ".inf", "-.inf"], ids=["huge", "nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["p", "eta", "lambda", "kbt", "t_max"])
def test_parse_rejects_bad_numbers(field, value):
    # booleans are test_parse_rejects_booleans
    p = "" if field == "p" else "p: 0.5, "  # a key given twice is its own error
    text = f"scenarios:\n  - {{state: werner-w, {p}topology: common, memory: markov, {field}: {value}}}\n"
    with pytest.raises(ConfigError, match=f"scenario 1: field '{field}'"):
        parse_config(text)


@pytest.mark.parametrize("field", ["t_max", "output"])
def test_scenario_config_names_the_bad_field(field):
    good = dict(state=StateSpec("ghz"), bath=BathSpec(), t_max=3.0, n_points=4,
                engine="closed_form", output="a.csv")
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{**good, field: True if field == "t_max" else "../a.csv"})


@pytest.mark.parametrize("n_points", [True, np.bool_(True), 4.0, np.float64(4.0), np.int64(1)])
def test_scenario_config_rejects_non_integer_points(n_points):
    (scenario,) = parse_config(MINIMAL)
    with pytest.raises(ValueError, match="field 'n_points': must be an integer"):
        replace(scenario, n_points=n_points)


@pytest.mark.parametrize("field, value, named", [
    ("state", "ghz", "field 'state': expected a StateSpec, got 'ghz'"),
    ("state", BathSpec(), "field 'state': expected a StateSpec, got BathSpec("),
    ("bath", "x", "field 'bath': expected a BathSpec, got 'x'"),
    ("bath", StateSpec("ghz"), "field 'bath': expected a BathSpec, got StateSpec("),
    ("engine", np.array(["ode"]), "field 'engine': must be one of closed_form, ode; got array(['ode']"),
    ("engine", np.array(["ode", "x"]), "field 'engine': must be one of closed_form, ode; got array(['ode', 'x']"),
    ("engine", np.array(["closed-form"]), "field 'engine': must be one of closed_form, ode; got array(["),
], ids=["state-name", "state-bath", "bath-name", "bath-state", "engine-one", "engine-two", "engine-alias"])
def test_scenario_config_reads_each_field_by_type_first(field, value, named):
    # each was stored, to fail at run time, or escaped as an AttributeError or numpy's ambiguous truth value
    (scenario,) = parse_config(MINIMAL)
    with pytest.raises(ValueError) as info:
        replace(scenario, **{field: value})
    assert str(info.value).startswith(named)


def test_scenario_config_takes_numpy_scalars():
    # replace is how a bundle's grid changes, and a numpy grid size must pass as a Python number
    (scenario,) = parse_config(MINIMAL)
    changed = replace(scenario, n_points=np.int64(401), t_max=np.float32(2.5))
    assert (changed.n_points, changed.t_max) == (401, 2.5)
    assert type(changed.n_points) is int and type(changed.t_max) is float


# ---------------------------------------------------------------- csv bytes

def w_trace(n_points=5):
    """The arguments of trace_csv_bytes for a w state in the shared Markov bath."""
    scenario = ScenarioConfig(state=StateSpec("w"), bath=BathSpec(topology="common", memory="markov"),
                              t_max=3.0, n_points=n_points, engine="closed_form", output="w.csv")
    grid = np.linspace(0.0, 3.0, n_points)
    return scenario, grid, coherence_trace(scenario.bath, scenario.state, grid / markov_rate(scenario.bath))


def test_csv_layout():
    lines = trace_csv_bytes(*w_trace()).decode("ascii").split("\n")
    assert lines[0] == "# state=w"
    assert lines[1] == "# p=1"
    assert lines[2] == "# topology=common"
    assert lines[3] == "# memory=markov"
    assert lines[4] == "# eta=0.1"
    assert lines[5] == "# lambda=0.01"
    assert lines[6].startswith("# kbt=0.0795774715")
    assert lines[7] == "# engine=closed_form"
    assert lines[8] == "gamma0_t,C_R"
    assert lines[9] == "0,1.09861229"
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 9 + 5 + 1


def test_csv_header_gives_a_pure_state_weight_one():
    scenario, grid, values = w_trace()
    header = trace_csv_bytes(replace(scenario, state=StateSpec("w", 0.3)), grid, values).decode("ascii")
    assert header.split("\n")[1] == "# p=1"


def test_csv_uses_nine_significant_digits():
    raw = trace_csv_bytes(*w_trace())
    assert b"1.09861229" in raw
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    # ln 3 to 9 significant digits, not more
    assert b"1.098612289" not in raw


def test_csv_bytes_are_deterministic():
    assert trace_csv_bytes(*w_trace()) == trace_csv_bytes(*w_trace())


def test_csv_rejects_values_that_do_not_match_the_grid():
    scenario, _, _ = w_trace()
    for grid, values in [(np.linspace(0.0, 3.0, 5), np.ones(3)), (np.linspace(0.0, 3.0, 2), np.ones(4))]:
        with pytest.raises(ValueError, match=f"^{len(grid)} grid points but {len(values)} C_R values$"):
            trace_csv_bytes(scenario, grid, values)


def per_value_csv_bytes(scenario, gamma0_t, values):
    """Reference rendering of trace_csv_bytes: one format(x, ".9g") per number."""
    def sig9(x):
        return format(float(x), ".9g")

    state, bath = scenario.state, scenario.bath
    lines = [f"# state={state.name}", f"# p={sig9(state.p)}", f"# topology={bath.topology}",
             f"# memory={bath.memory}", f"# eta={sig9(bath.eta)}", f"# lambda={sig9(bath.lambda_cutoff)}",
             f"# kbt={sig9(bath.kbt)}", f"# engine={scenario.engine}", "gamma0_t,C_R"]
    lines += [f"{sig9(t)},{sig9(c)}" for t, c in zip(gamma0_t, values)]
    return ("\n".join(lines) + "\n").encode("ascii")


# zero, the smallest subnormal and normal, a rounding carry, the largest float
EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 9.9999999995, 1e300, 1.7976931348623157e308]


def test_csv_renders_edge_values_as_format_does():
    # every edge value in both columns and in each header number; t_max, which no line prints, keeps
    # t_max / gamma0 finite at the subnormal gamma0 = 6.4e-322
    scenario = ScenarioConfig(state=StateSpec("werner-w", 2.2250738585072014e-308),
                              bath=BathSpec(eta=5e-324, lambda_cutoff=1.7976931348623157e308,
                                            kbt=9.9999999995, topology="local", memory="non_markov"),
                              t_max=1e-14, n_points=2, engine="ode", output="edge.csv")
    grid, values = np.repeat(EDGE_VALUES, len(EDGE_VALUES)), np.tile(EDGE_VALUES, len(EDGE_VALUES))
    assert trace_csv_bytes(scenario, grid, values) == per_value_csv_bytes(scenario, grid, values)


def test_csv_renders_the_largest_grid_as_format_does():
    scenario, _, _ = w_trace()
    grid = np.linspace(0.0, 3.0, MAX_N_POINTS)
    values = 10.0 ** np.random.default_rng(0).uniform(-300.0, 300.0, MAX_N_POINTS)
    assert trace_csv_bytes(scenario, grid, values) == per_value_csv_bytes(scenario, grid, values)


# ------------------------------------------------------------------ running

def test_run_scenarios_writes_files(tmp_path):
    scs = parse_config("""
scenarios:
  - {state: w, topology: common, memory: markov, n_points: 4}
  - {state: ghz, topology: local, memory: markov, n_points: 4}
""")
    results = run_scenarios(scs, tmp_path)
    assert [r.ok for r in results] == [True, True]
    assert (tmp_path / "w_common_markov.csv").exists()
    assert (tmp_path / "ghz_local_markov.csv").exists()


def test_run_scenarios_empty_is_noop(tmp_path):
    out = tmp_path / "never"
    assert run_scenarios([], out) == []
    assert not out.exists()


def test_run_scenarios_isolates_failures(tmp_path):
    # the bath overflows to t = 1e308 in the first scenario only
    bad = ScenarioConfig(state=StateSpec("ghz"), bath=BathSpec(),
                         t_max=1.0e307, n_points=4, engine="closed_form",
                         output="bad.csv")
    good = parse_config(MINIMAL)[0]
    results = run_scenarios([bad, good], tmp_path)
    assert not results[0].ok
    assert isinstance(results[0].error, ValueError)
    assert results[1].ok
    assert not (tmp_path / "bad.csv").exists()
    assert (tmp_path / "ghz_common_markov.csv").exists()


def _half_written(self, data):
    # a crash mid-write: half the bytes reach the file, then the write fails
    with open(self, "wb") as fh:
        fh.write(data[:len(data) // 2])
    raise OSError("disk full")


def _failing_rename(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("stage", ["render", "write", "rename"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, stage):
    # a scenario that fails while rendering, writing or renaming its CSV
    # leaves neither a new target nor a temp file, and an older target keeps
    # its bytes
    fresh, kept = parse_config("""
scenarios:
  - {state: ghz, topology: common, memory: markov, n_points: 4}
  - {state: w, topology: common, memory: markov, n_points: 4}
""")
    (tmp_path / kept.output).write_bytes(b"old\n")
    if stage == "render":
        monkeypatch.setattr(runner, "trace_csv_bytes", lambda scenario, grid, values: 1 / 0)
    elif stage == "write":
        monkeypatch.setattr(Path, "write_bytes", _half_written)
    else:
        monkeypatch.setattr(runner.os, "replace", _failing_rename)
    results = run_scenarios([fresh, kept], tmp_path)
    assert not any(r.ok for r in results)
    assert sorted(p.name for p in tmp_path.iterdir()) == [kept.output]
    assert (tmp_path / kept.output).read_bytes() == b"old\n"


def test_longest_file_name_is_written_without_a_temp_file(tmp_path):
    # 255 bytes is the longest name ext4 and tmpfs take; the temp file beside
    # it must not be longer
    output = "a" * 251 + ".csv"
    scenario, = parse_config(f"scenarios:\n  - {{state: w, topology: common, memory: markov, "
                             f"n_points: 4, output: {output}}}\n")
    result, = run_scenarios([scenario], tmp_path)
    assert result.ok, result.error
    assert [p.name for p in tmp_path.iterdir()] == [output]


# ------------------------------------------------------------------ figures

def test_figure_catalog_pure_states():
    scs = figure_scenarios("fig2a")
    assert [sc.output for sc in scs] == [
        "fig2a_ghz.csv", "fig2a_w.csv", "fig2a_wwbar.csv", "fig2a_star.csv"]
    assert all(sc.bath.topology == "common" and sc.bath.memory == "markov"
               for sc in scs)
    scs_d = figure_scenarios("fig2d")
    assert all(sc.bath.topology == "local" and sc.bath.memory == "non_markov"
               for sc in scs_d)
    assert all(sc.t_max == 0.2 for sc in scs_d)


def test_figure_catalog_mixtures():
    scs = figure_scenarios("fig4")
    assert len(scs) == 12
    assert scs[0].output == "fig4a_werner-ghz_p0.1.csv"
    assert scs[1].output == "fig4a_werner-ghz_p0.5.csv"
    assert scs[3].output == "fig4b_werner-ghz_p0.1.csv"
    assert {sc.state.name for sc in scs} == {"werner-ghz"}


def test_figure_catalog_rejects_unknown_id():
    with pytest.raises(ValueError):
        figure_scenarios("fig9")
    assert "fig3" in FIGURE_IDS


@pytest.mark.parametrize("figure_id", [["fig2a"], np.array(["fig2a"])], ids=["list", "array"])
def test_figure_catalog_names_an_unhashable_id(figure_id):
    with pytest.raises(ValueError, match=f"^unknown figure id {re.escape(repr(figure_id))}; valid ids: fig2a, "):
        figure_scenarios(figure_id)


def test_figure_bundles_keep_their_order():
    # reproduce writes and prints each bundle's files in this order; fig2x sweeps the
    # pure states, fig3-fig5 the panels a-d with p innermost
    expected = {f"fig2{panel}": [f"fig2{panel}_{name}.csv" for name in ("ghz", "w", "wwbar", "star")]
                for panel in "abcd"}
    for figure_id, name in (("fig3", "ghz-w"), ("fig4", "werner-ghz"), ("fig5", "werner-w")):
        expected[figure_id] = [f"{figure_id}{panel}_{name}_p{p}.csv" for panel in "abcd" for p in ("0.1", "0.5", "0.9")]
    assert FIGURE_IDS == tuple(runner._BUNDLES) == tuple(expected)
    outputs = {figure_id: [sc.output for sc in figure_scenarios(figure_id)] for figure_id in FIGURE_IDS}
    assert outputs == expected
    names = [name for names in outputs.values() for name in names]
    assert len(names) == len(set(names)) == 52


def test_reproduce_writes_bundle(tmp_path):
    results = run_scenarios(figure_scenarios("fig2b"), tmp_path)
    assert all(r.ok for r in results)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig2b_ghz.csv", "fig2b_star.csv", "fig2b_w.csv", "fig2b_wwbar.csv"]


# ---------------------------------------------------------------------- cli

def test_cli_run(tmp_path, capsys):
    cfg = tmp_path / "traces.yaml"
    cfg.write_text(MINIMAL.replace("memory: markov", "memory: markov\n    n_points: 4"))
    code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ghz_common_markov.csv" in out
    assert (tmp_path / "out" / "ghz_common_markov.csv").exists()


def test_cli_run_engine_and_points_override(tmp_path):
    cfg = tmp_path / "traces.yaml"
    cfg.write_text(MINIMAL)
    code = main(["run", str(cfg), "--out-dir", str(tmp_path),
                 "--points", "3", "--engine", "closed-form"])
    assert code == 0
    data = (tmp_path / "ghz_common_markov.csv").read_bytes()
    assert data.count(b"\n") == 9 + 3
    # the second spelling writes what the default engine writes
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "default"), "--points", "3"]) == 0
    assert (tmp_path / "default" / "ghz_common_markov.csv").read_bytes() == data


def test_cli_run_engine_ode_reaches_the_csv(tmp_path):
    cfg = tmp_path / "traces.yaml"
    cfg.write_text("scenarios:\n  - {state: ghz, topology: common, memory: non_markov, n_points: 3}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--engine", "ode"]) == 0
    lines = (tmp_path / "ghz_common_non_markov.csv").read_text().splitlines()
    assert lines[7] == "# engine=ode"


@pytest.mark.parametrize("command", ["run", "reproduce"])
def test_cli_rejects_fewer_than_two_points(tmp_path, capsys, command):
    cfg = tmp_path / "traces.yaml"
    cfg.write_text(MINIMAL)
    target = str(cfg) if command == "run" else "fig2a"
    assert main([command, target, "--out-dir", str(tmp_path / "out"), "--points", "1"]) == 2
    assert "--points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "reproduce"])
def test_cli_rejects_points_past_the_bound(tmp_path, capsys, command):
    cfg = tmp_path / "traces.yaml"
    cfg.write_text(MINIMAL)
    target = str(cfg) if command == "run" else "fig2a"
    assert main([command, target, "--out-dir", str(tmp_path / "out"), "--points", str(MAX_N_POINTS + 1)]) == 2
    assert f"--points: field 'n_points': must be an integer in [2, {MAX_N_POINTS}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "reproduce"])
def test_cli_rejects_an_unknown_engine(tmp_path, capsys, command):
    cfg = tmp_path / "traces.yaml"
    cfg.write_text(MINIMAL)
    target = str(cfg) if command == "run" else "fig2a"
    assert main([command, target, "--out-dir", str(tmp_path / "out"), "--engine", "bogus"]) == 2
    assert capsys.readouterr().err == ("error: --engine: field 'engine': must be one of closed_form, ode; "
                                       "got 'bogus'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_points, override, status", [(201, [], 2), (2, ["--points", "201"], 2), (2, [], 0)],
                         ids=["config", "--points", "two-points"])
def test_cli_rejects_a_grid_that_collapses(tmp_path, capsys, n_points, override, status):
    # linspace rounds 201 points to the subnormal t_max = 5e-324 to repeats, which the config check names;
    # 2 points, 0 and t_max, stay strictly increasing
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(f"scenarios:\n  - {{state: ghz, topology: common, memory: markov, t_max: 5.0e-324, "
                   f"n_points: {n_points}}}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), *override]) == status
    if status == 2:
        err = capsys.readouterr().err
        assert "'t_max'" in err and "'n_points'" in err and "not strictly increasing" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields", ["eta: 0", "eta: 1.0e-10, kbt: 1.0e-300", "eta: 1.0e-10, t_max: 1.0e+300",
                                    "t_max: 5.0e-324"],
                         ids=["no-coupling", "gamma0-underflows", "end-overflows", "grid-collapses"])
def test_cli_rejects_a_config_with_no_times_at_parse(tmp_path, capsys, fields):
    # the times of the gamma0*t grid, grid / gamma0, are checked before any scenario runs
    cfg = tmp_path / "axis.yaml"
    cfg.write_text(f"scenarios:\n  - {{state: ghz, topology: common, memory: markov, {fields}}}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario 1: fields 'eta', 'kbt', 't_max', 'n_points': ")
    assert "not strictly increasing" in err
    assert not (tmp_path / "out").exists()


def test_cli_reproduce(tmp_path, capsys):
    code = main(["reproduce", "fig2a", "--out-dir", str(tmp_path), "--points", "3"])
    assert code == 0
    assert len(list(tmp_path.glob("fig2a_*.csv"))) == 4


def test_cli_list_states(capsys):
    assert main(["list-states"]) == 0
    assert capsys.readouterr().out == (
        "ghz         (|000> + |111>)/sqrt(2)\n"
        "w           (|100> + |010> + |001>)/sqrt(3)\n"
        "wbar        (|011> + |101> + |110>)/sqrt(3)\n"
        "wwbar       (|100> + |010> + |001> + |011> + |101> + |110>)/sqrt(6)\n"
        "star        (|000> + |100> + |101> + |111>)/sqrt(4)\n"
        "ghz-w       p |ghz><ghz| + (1-p) |w><w|\n"
        "werner-ghz  p |ghz><ghz| + (1-p) I/8\n"
        "werner-w    p |w><w| + (1-p) I/8\n")


def test_cli_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("scenarios:\n  - {state: nope, topology: common, memory: markov}\n")
    assert main(["run", str(cfg)]) == 2
    assert "state" in capsys.readouterr().err


@pytest.mark.parametrize("output", ESCAPING_OUTPUTS)
def test_cli_rejects_escaping_output(tmp_path, capsys, output):
    root = tmp_path / "root"
    out_dir = root / "a" / "out"
    out_dir.mkdir(parents=True)
    cfg = root / "cfg.yaml"
    if output.startswith("/"):
        output = str(root / "escaped.csv")
    cfg.write_text(f"scenarios:\n  - {{state: ghz, topology: common, memory: markov, "
                   f"n_points: 3, output: {json.dumps(output)}}}\n")
    assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert "output" in capsys.readouterr().err
    assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*")) == ["a", "a/out", "cfg.yaml"]


@pytest.mark.parametrize("field", ["p", "eta", "lambda", "kbt", "t_max"])
def test_cli_huge_integer_exits_two(tmp_path, capsys, field):
    cfg = tmp_path / "huge.yaml"
    p = "" if field == "p" else "p: 0.5, "  # a key given twice is its own error
    cfg.write_text(f"scenarios:\n  - {{state: werner-w, {p}topology: common, memory: markov, "
                   f"n_points: 3, {field}: {HUGE_INT}}}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"scenario 1: field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_p_on_a_pure_state(tmp_path, capsys):
    cfg = tmp_path / "pure.yaml"
    cfg.write_text("scenarios:\n  - {state: ghz, p: 0.3, topology: common, memory: markov, n_points: 3}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "field 'p'" in err and "'ghz'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pure.yaml"]


def test_cli_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2


def test_cli_non_utf8_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "latin1.yaml"
    text = b'scenarios:\n  - {state: ghz, topology: common, memory: markov, output: "a\xffb.csv"}\n'
    cfg.write_bytes(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text: byte 0xff at offset {text.index(0xff)}\n"
    assert not (tmp_path / "out").exists()


def test_cli_failing_scenario_exits_one(tmp_path, capsys):
    # parses, but the bath overflows to t = 1e308
    cfg = tmp_path / "overflow.yaml"
    cfg.write_text("scenarios:\n  - {state: ghz, topology: common, memory: markov, t_max: 1.0e+307, n_points: 3}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["closed-form", "ode"])
def test_cli_weak_coupling_long_window_exits_zero(tmp_path, capsys, engine):
    # gamma0 = 1e-4 stretches g0 t = 3 to t = 3e4, where the bath kernels
    # must stay accurate at long times and the ODE step must not shrink
    # with eta
    cfg = tmp_path / "weak.yaml"
    cfg.write_text("scenarios:\n  - {state: ghz, topology: common, memory: non_markov, "
                   f"eta: 0.0001, t_max: 3.0, engine: {engine}}}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "ghz_common_non_markov.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in lines[9:]]
    assert len(values) == DEFAULT_N_POINTS
    assert values[0] == pytest.approx(math.log(2.0)) and 0.0 <= values[-1] < values[0]


def test_cli_ode_over_the_work_budget_fails_fast(tmp_path, capsys):
    # gamma0 t = 0.2 at eta = 1e-8 is t = 2e7, some 4e6 steps of 0.05/lambda
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text("scenarios:\n  - {state: ghz, topology: common, memory: non_markov, "
                   "eta: 1.0e-8, engine: ode}\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "eta" in err and "t_max" in err and "closed_form" in err
    assert not (tmp_path / "ghz_common_non_markov.csv").exists()


# memory baths whose ode trace is over its substep budget, of steps 0.05 / lambda, before any kernel call
OVER_BUDGET = {"lambda": (BathSpec(lambda_cutoff=1e300, memory="non_markov"), 0.2),
               "t_max": (BathSpec(memory="non_markov"), 1e300),
               "kbt": (BathSpec(kbt=1e-300, memory="non_markov"), 0.2)}
# common memory baths whose closed-form factors overflow: M = eta (lambda t - arctan(lambda t)) at
# lambda t = 1e310, and the free phase 3 t at t = 1e308
# lambda t = 1e310, where the kernels are inf, and the free phase 3 t at t = 1e308, where they are finite
OVERFLOWING = {"lambda": (BathSpec(lambda_cutoff=1e300, memory="non_markov"), 1e9, "bath kernels overflow"),
               "t_max": (BathSpec(memory="non_markov"), 1e307, "the free phase 0.5 |Z_m - Z_n| t overflows")}


@pytest.mark.parametrize("bath, t_max, engine, error", [
    *(pytest.param(bath, t_max, "closed_form", error, id=name) for name, (bath, t_max, error) in OVERFLOWING.items()),
    *(pytest.param(bath, t_max, "ode", "over the budget", id=f"{name}-ode")
      for name, (bath, t_max) in OVER_BUDGET.items())])
def test_overflowing_kernels_fail_naming_the_bath(tmp_path, bath, t_max, engine, error):
    # the factors overflow to inf or nan on these grids; the ode engine's substep
    # count is over its budget before any kernel call
    scenario = ScenarioConfig(state=StateSpec("ghz"), bath=bath, t_max=t_max, n_points=201,
                              engine=engine, output="x.csv")
    (result,) = run_scenarios([scenario], tmp_path)
    assert isinstance(result.error, ValueError)
    message = str(result.error)
    assert error in message
    for field in ("eta", "lambda", "kbt", "t_max"):
        assert f"{field} " in message
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("state", ["ghz", "w"])
@pytest.mark.parametrize("name", OVER_BUDGET)
def test_closed_form_traces_where_the_kernels_used_to_overflow(tmp_path, name, state):
    # Gamma is finite on these grids (about 137 at their ends for lambda = 1e300 and for
    # kbt = 1e-300, 5e299 for t_max), so the closed form writes a trace in [0, ln 8]:
    # ghz decays to 0, and w, in a decoherence-free subspace of the common bath, stays at ln 3
    bath, t_max = OVER_BUDGET[name]
    scenario = ScenarioConfig(state=StateSpec(state), bath=bath, t_max=t_max, n_points=201,
                              engine="closed_form", output="x.csv")
    (result,) = run_scenarios([scenario], tmp_path)
    assert result.ok, result.error
    values = [float(line.split(",")[1]) for line in (tmp_path / "x.csv").read_text().splitlines()[9:]]
    assert len(values) == 201 and values[0] == pytest.approx(math.log(2.0 if state == "ghz" else 3.0), rel=1e-8)
    assert all(0.0 <= value <= math.log(8.0) for value in values)
    assert values[-1] == (0.0 if state == "ghz" else pytest.approx(math.log(3.0), rel=1e-8))


@pytest.mark.parametrize("state", ["ghz", "w"])
def test_small_eta_runs_the_default_markov_window(tmp_path, state):
    # gamma0 t = 3 at eta = 1e-8 is t = 3e8, a free phase of 9e8: ghz's two
    # phases are conjugates, and w occupies only elements with Z_m = Z_n
    (sc,) = parse_config(f"scenarios:\n  - {{state: {state}, topology: common, memory: markov, eta: 1.0e-8}}\n")
    (result,) = run_scenarios([sc], tmp_path)
    assert result.ok, result.error
    rows = (tmp_path / sc.output).read_text().splitlines()[9:]
    assert len(rows) == DEFAULT_N_POINTS

# ------------------------------------------------------------------- golden

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "figures"


def test_reproduce_matches_reference_bytes(tmp_path):
    # bench/reference/figures is the one golden copy of the 52 CSVs
    for figure_id in FIGURE_IDS:
        assert all(r.ok for r in run_scenarios(figure_scenarios(figure_id), tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in REFERENCE.iterdir())
    assert len(written) == 52
    changed = [name for name in written
               if (tmp_path / name).read_bytes() != (REFERENCE / name).read_bytes()]
    assert changed == []
