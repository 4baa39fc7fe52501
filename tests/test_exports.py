"""The package's export lists name only what exists, each name once."""

import importlib
import pkgutil

import asianvol


def test_every_exported_name_resolves_once():
    modules = [asianvol] + [
        importlib.import_module(f"asianvol.{info.name}")
        for info in pkgutil.iter_modules(asianvol.__path__)
    ]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        assert len(names) == len(set(names)), f"{module.__name__}.__all__ repeats a name"
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
        checked += 1
    assert checked >= 8  # the package and its seven public submodules
