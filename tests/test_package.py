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
