"""Every name a package exports in __all__ must resolve."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["healflow", "healflow.sim", "healflow.nodes"])
def test_every_exported_name_resolves(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if name not in namespace] == []
