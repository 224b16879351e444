import importlib

import pytest

MODULES = ["tridephase"] + [f"tridephase.{m}" for m in
                            ("bath", "cli", "dynamics", "measures", "numerics", "runner", "states")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
