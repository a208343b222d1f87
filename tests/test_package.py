"""Each public name has one home: the package binds none of them, and a
module's __all__ names only what that module defines."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cdtsep

MODULES = sorted(f"cdtsep.{info.name}" for info in pkgutil.iter_modules(cdtsep.__path__))


# cli has no __all__: its one public name is the console entry point main
@pytest.mark.parametrize("module_name", [m for m in MODULES if m != "cdtsep.cli"])
def test_all_names_only_what_the_module_defines(module_name):
    module = importlib.import_module(module_name)
    # constants such as SCHEMA_VERSION have no __module__ to check
    foreign = [name for name in module.__all__
               if getattr(getattr(module, name), "__module__", module_name) != module_name]
    assert foreign == []


def test_import_loads_no_submodule():
    src = Path(cdtsep.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cdtsep; print(sorted(m for m in sys.modules if m.startswith('cdtsep.')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
