"""Export consistency of the package.

Every name a module lists in ``__all__`` exists, and every name the package
``__init__`` imports from a module is in that module's ``__all__``, so a
deleted name cannot linger in either list.
"""

import ast
import importlib
import inspect

import pytest

import teleport_sr

MODULES = ["analysis", "channel", "noise", "qstate"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"teleport_sr.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(inspect.getsource(teleport_sr))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert sorted(node.module for node in imports) == MODULES
    for node in imports:
        listed = importlib.import_module(f"teleport_sr.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in listed] == [], node.module
