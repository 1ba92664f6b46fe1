"""Package-level invariants of the public API."""

import importlib
import pkgutil

import fhnspde


def test_every_public_name_resolves():
    # each module's __all__ is edited by hand; a stale entry breaks
    # `from fhnspde.<module> import *` without failing any other test
    names = sorted(m.name for m in pkgutil.iter_modules(fhnspde.__path__))
    assert names == ["cli", "hopf", "kernels", "noise", "renorm", "solver",
                     "symbols"]
    for name in names:
        module = importlib.import_module(f"fhnspde.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"fhnspde.{name}.__all__ names {missing}"
        assert len(set(module.__all__)) == len(module.__all__)
