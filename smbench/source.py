"""Locates the smfilter sources of the checkout this benchmark sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("scenarios", "ellipsoid", "mvee", "dsmf", "baselines", "harness")


def import_smfilter(fresh: bool = False) -> dict:
    """Import smfilter from ROOT/src and return its layer modules by name.

    fresh=True drops smfilter from the module cache first, so the import
    runs the package's module code again (used to time set-up).  Raises
    ImportError when the checkout holds no smfilter sources, rather than
    picking up some other installed copy.
    """
    if not (SRC / "smfilter" / "__init__.py").is_file():
        raise ImportError(f"no smfilter sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "smfilter" or n.startswith("smfilter.")]:
            del sys.modules[name]
    package = importlib.import_module("smfilter")
    if Path(package.__file__).resolve().parent != (SRC / "smfilter").resolve():
        raise ImportError(f"smfilter resolved to {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"smfilter.{name}") for name in MODULES}
