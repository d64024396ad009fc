"""Every name a tsrk module exports in ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import tsrk

MODULES = sorted(info.name for info in pkgutil.iter_modules(tsrk.__path__))


def test_every_module_is_covered():
    assert {"chebyshev", "cli", "design", "integrator", "problems", "reference",
            "stability"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"tsrk.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
