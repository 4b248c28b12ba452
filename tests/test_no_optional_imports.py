"""Core imports must not pull in optional dependencies at module scope.

The ``pip install .`` contract: a no-extras install runs every core entry
point with numpy alone.  That only holds if importing the package — and the
modules that *gate* optional features, like the backend registry and the
server package — never executes ``import numba`` / ``import fastapi`` at
module scope.  Each case runs in a fresh interpreter so this suite's own
imports cannot mask a violation, and asserts against ``sys.modules`` so a
lazy import hidden behind a function stays legal while a module-scope one
fails loudly.  CI's no-extras smoke job runs the same check from a clean
venv where the optional packages are not even installed.

The same fresh-interpreter check keeps the model-level substrate (autograd,
training, QAT, pruning, compressed layers), which no registered experiment
runs, out of every CLI launch and spawned worker.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

OPTIONAL = ("numba", "fastapi", "uvicorn")


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )

#: Module -> the optional deps importing it must NOT load.  repro.server is
#: included deliberately: it must be importable (for the availability error
#: message) without fastapi, which only loads when an app is constructed.
CASES = [
    ("repro", OPTIONAL),
    ("repro.backend", OPTIONAL),
    ("repro.cli", OPTIONAL),
    ("repro.engine", OPTIONAL),
    ("repro.server", OPTIONAL),
]


@pytest.mark.parametrize("module,forbidden", CASES, ids=[c[0] for c in CASES])
def test_import_does_not_load_optional_deps(module, forbidden):
    script = (
        "import sys\n"
        f"import {module}\n"
        f"loaded = [name for name in {forbidden!r}\n"
        "          if any(m == name or m.startswith(name + '.') for m in sys.modules)]\n"
        "assert not loaded, (\n"
        f"    f'importing {module} pulled in optional deps at module scope: {{loaded}}')\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_backend_listing_works_in_fresh_interpreter():
    """`repro backends` plumbing — registry + availability — with no extras."""
    script = (
        "from repro.backend import backend_availability, backend_names\n"
        "names = backend_names()\n"
        "assert 'compiled' in names, names\n"
        "availability = backend_availability()\n"
        "assert set(availability) == set(names)\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


#: Modules (and their submodules) that no registered experiment runs; the
#: package ``__init__``s must not re-export them.
MODEL_SUBSTRATE = (
    "repro.nn",
    "repro.data",
    "repro.quantization",
    "repro.pruning",
    "repro.lowrank.layers",
    "repro.lowrank.compress",
    "repro.lowrank.rank_allocation",
    "repro.lowrank.search",
    "repro.imc.bitslicing",
    "repro.imc.scheduler",
    "repro.training.trainer",
    "repro.training.evaluate",
    "repro.training.seeds",
)


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.experiments"])
def test_import_does_not_load_model_substrate(module):
    script = (
        "import sys\n"
        f"import {module}\n"
        f"loaded = sorted(m for m in sys.modules for prefix in {MODEL_SUBSTRATE!r}\n"
        "                if m == prefix or m.startswith(prefix + '.'))\n"
        "assert not loaded, loaded\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_model_substrate_imports_by_path():
    """Every substrate module still imports on its own."""
    script = "".join(f"import {module}\n" for module in MODEL_SUBSTRATE)
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr
