"""Smoke tests keeping every example script runnable.

Each script under ``examples/`` is executed end to end with small arguments,
so API changes cannot silently break them.  A new example needs its own
``test_<script>_example`` here; :meth:`TestExampleScripts.test_all_examples_present`
walks the directory, so an example without one fails.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    """Execute an example script as ``__main__`` with the given argv and return its stdout."""
    script = EXAMPLES_DIR / name
    assert script.exists(), f"example {name} is missing"
    old_argv = sys.argv
    sys.argv = [str(script)] + argv
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExampleScripts:
    def test_quickstart_example(self, capsys):
        out = run_example("quickstart.py", ["--array", "32"], capsys)
        assert "group low-rank reconstruction error" in out
        assert "computing cycles and energy on a 32x32 array" in out
        assert "ours (g=4) + SDK" in out
        assert "next step" in out

    def test_imc_energy_report_example(self, capsys):
        out = run_example("imc_energy_report.py", [], capsys)
        assert "Fig. 7 — normalized energy, resnet20" in out
        assert "component breakdown" in out
        assert "maximum energy saving vs im2col" in out

    def test_compress_resnet20_example(self, capsys):
        out = run_example("compress_resnet20.py", ["--groups", "2", "--rank-divisor", "8"], capsys)
        assert "ResNet-20 compressed with g=2" in out
        assert "network computing cycles" in out
        assert "speedup vs im2col" in out

    def test_pareto_sweep_example(self, capsys):
        out = run_example("pareto_sweep.py", ["--network", "resnet20", "--array", "64"], capsys)
        assert "Pareto-optimal" in out
        assert "headline" in out
        assert "PatDNN" in out

    def test_rank_allocation_example(self, capsys):
        out = run_example("rank_allocation.py", [], capsys)
        assert "uniform rank rule vs. sensitivity-driven allocation" in out
        assert "per-layer ranks under the cycle budget" in out
        assert "deployment comparison" in out

    def test_noise_robustness_example(self, capsys):
        out = run_example("noise_robustness.py", ["--trials", "2"], capsys)
        assert "relative output error" in out
        assert "Monte-Carlo trials" in out
        assert "typical_rram" in out and "worst_case_rram" in out

    def test_layer_families_example(self, capsys):
        out = run_example("layer_families.py", ["--trials", "2"], capsys)
        assert "modern layers on a 64x64 crossbar" in out
        assert "depthwise" in out and "attention" in out
        assert "block-diag / dense" in out

    def test_all_examples_present(self):
        """Every script in ``examples/`` has a test here, and every test's script exists."""
        scripts = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
        tested = {
            name[len("test_"):-len("_example")]
            for name in vars(type(self))
            if name.startswith("test_") and name.endswith("_example")
        }
        assert scripts == tested
