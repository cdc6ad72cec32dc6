"""Every module of nanotile imports on its own, in a fresh interpreter.

A test process loads the package once, in whatever order its test modules
ask for it, so an import cycle that fails for one first import (a module
reading a name from a partly initialised one) never shows here.  One
subprocess imports each module first, clearing nanotile from sys.modules
before each import, and a second runs the command line's help.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "nanotile").glob("*.py") if p.stem != "__init__")

FIRST_IMPORTS = """
import importlib, sys, traceback
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "nanotile"]:
        del sys.modules[loaded]
    try:
        importlib.import_module("nanotile." + name)
    except Exception:
        print(name + ": " + traceback.format_exc().strip().splitlines()[-1])
"""


def _fresh(*args):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_each_module_imports_first_in_a_fresh_interpreter():
    assert {"cost", "tiler", "l2plan", "executor", "cli"} <= set(MODULES)
    run = _fresh("-c", FIRST_IMPORTS, *MODULES)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == []


def test_cli_help_runs_in_a_fresh_interpreter():
    run = _fresh("-m", "nanotile.cli", "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage:")
