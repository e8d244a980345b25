"""Every name that the package and its modules export resolves.

A stale `__all__` entry breaks `from fracsurf import *` (or the module's) with
an AttributeError, and nothing else imports the names that way.
"""

import importlib
import pkgutil

import fracsurf


def test_every_all_entry_resolves():
    modules = [fracsurf] + [importlib.import_module(f"fracsurf.{info.name}")
                            for info in pkgutil.iter_modules(fracsurf.__path__)]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", [])
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
        checked += len(names)
    assert "__all__" in vars(fracsurf) and checked > len(fracsurf.__all__)
