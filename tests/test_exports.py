"""Every module's export list names attributes the module has."""

import importlib
import pkgutil

import carmodel


def test_all_names_resolve():
    # a stale __all__ entry would otherwise fail only on `import *`
    missing = {}
    for info in pkgutil.iter_modules(carmodel.__path__, "carmodel."):
        module = importlib.import_module(info.name)
        names = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if names:
            missing[info.name] = names
    assert missing == {}
