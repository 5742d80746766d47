"""Every ``repro`` module imports cleanly as the first module imported.

An import cycle can hide behind import order: a module that fails when
it is imported first still works once another module has pulled its
partners in.  One fresh interpreter imports each module in turn, purging
every ``repro`` entry from ``sys.modules`` before each import, and
reports the modules that fail.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import importlib, pkgutil, sys
import repro

names = ["repro"] + sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
failures = []
for name in names:
    for loaded in [k for k in sys.modules if k == "repro" or k.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
print(len(names))
print("\\n".join(failures))
"""


def test_every_module_imports_first():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    count, *failures = result.stdout.splitlines()
    assert int(count) > 100
    assert [line for line in failures if line] == []
