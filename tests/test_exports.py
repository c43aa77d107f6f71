"""Export consistency of the package.

Every name a module lists in ``__all__`` exists, and the package's public
names are exactly the union of those lists, so a name cannot be exported
without being listed or linger in a list after it is deleted.
"""

import importlib
import types

import pytest

import teleport_sr

MODULES = ["analysis", "channel", "noise", "qstate"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"teleport_sr.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    public = {
        n for n, v in vars(teleport_sr).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"teleport_sr.{name}").__all__)
    assert public == listed
