import ast
import importlib
from pathlib import Path

import pytest

import tridephase

MODULES = ["tridephase"] + [f"tridephase.{m}" for m in
                            ("bath", "cli", "dynamics", "measures", "numerics", "runner", "states")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# the layer order of the package docstring, bottom first
LAYERS = ("numerics", "bath", "states", "measures", "dynamics", "runner", "cli")
SRC = Path(tridephase.__file__).resolve().parent


@pytest.mark.parametrize("layer", LAYERS)
def test_each_module_imports_only_modules_below_it(layer):
    tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert imported <= set(LAYERS[:LAYERS.index(layer)])


def test_layer_order_covers_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_each_spectral_job_has_one_call_site():
    # C_R's entropy owns eigh, and the density-matrix check owns eigvalsh
    callers = {"eigh": [], "eigvalsh": []}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
            if name in callers:
                callers[name].append(path.stem)
    assert callers == {"eigh": ["measures"], "eigvalsh": ["states"]}


def test_one_reader_for_density_matrices():
    # states.check_states alone reads a caller's matrices as complex, shapes and checks them, and returns
    # the stack; C_R and propagate_grid take that stack, with no reader or try of their own
    def reads(call):
        return (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "asarray"
                and any(k.arg == "dtype" and getattr(k.value, "id", None) == "complex" for k in call.keywords))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    functions = {f"{stem}.{node.name}": node for stem, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    readers = [name for name, node in functions.items() if any(map(reads, ast.walk(node)))]
    assert readers == ["states.check_states"]
    assert sum(reads(node) for tree in trees.values() for node in ast.walk(tree)) == 1
    for name in ("dynamics.propagate_grid", "measures.rel_entropy_coherence"):
        assert not any(isinstance(node, ast.Try) for node in ast.walk(functions[name])), name
    assert "residuals" not in tridephase.states.__all__


def test_free_phase_is_formed_once():
    # both engines return the bath's exponent table, and dynamics._propagate adds the free phase,
    # the one place that reads OMEGA0
    def reads(tree):
        return sum(isinstance(node, ast.Name) and node.id == "OMEGA0" and isinstance(node.ctx, ast.Load)
                   for node in ast.walk(tree))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    readers = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and reads(node)]
    assert readers == ["dynamics._propagate"] and sum(map(reads, trees.values())) == 1


def test_one_site_applies_a_weight_table():
    # each engine returns its (n, 2) kernel integrals, and dynamics._propagate alone multiplies
    # them by the weights: the only matrix product in a function of src/
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    sites = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(op, ast.MatMult) for op in ast.walk(node))]
    assert sites == ["dynamics._propagate"]


def test_both_engines_share_one_exp():
    # each engine returns an exponent table, and dynamics._propagate takes the one exp
    callers = [path.stem for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "exp"]
    assert callers == ["dynamics"]
