"""The package's export lists name only what exists, each name once."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about half a second at import; nothing in the package
    or the CLI needs it (scipy.special.ndtr gives the normal cdf)."""
    src = str(Path(asianvol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, asianvol, asianvol.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
