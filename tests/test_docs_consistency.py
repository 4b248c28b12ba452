"""The docs-consistency gate (tools/check_docs.py) and its helper.

The CI job runs the script; this suite keeps it honest locally — the live
repo must pass, and the name matcher must actually detect an undocumented
registration rather than vacuously succeeding.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_docs.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckDocs:
    def test_repo_docs_are_consistent(self):
        """The committed docs must cover every registered name."""
        completed = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        assert "docs-consistency OK" in completed.stdout

    def test_missing_names_detects_absent_name(self, tmp_path):
        document = tmp_path / "doc.md"
        document.write_text("mentions `table1` and layer_families here")
        module = _load_module()
        absent = module.missing_names(
            document, ["table1", "layer_families", "fig6"]
        )
        assert absent == ["fig6"]

    def test_missing_names_requires_word_boundaries(self, tmp_path):
        """A substring inside a longer identifier is not a mention."""
        document = tmp_path / "doc.md"
        document.write_text("only fig6_extended appears")
        module = _load_module()
        assert module.missing_names(document, ["fig6_extended"]) == []

    def test_gate_lists_what_is_missing(self, tmp_path, monkeypatch):
        """Pointing the gate at empty docs names every absent registration."""
        module = _load_module()
        for name in ("README.md", "ENGINE.md"):
            (tmp_path / name).write_text("empty")
        (tmp_path / "docs").mkdir()
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1

    def test_stale_references_detected(self, tmp_path):
        """Missing modules and missing attributes of real ones are reported by line."""
        document = tmp_path / "doc.md"
        document.write_text(
            "`repro.engine.kernels.im2col_columns` unfolds inputs in the repro.imc package.\n"
            "See repro.no_such_module.Thing and\n"
            "repro.mapping.geometry.ConvGeometry.no_such_method.\n"
        )
        module = _load_module()
        assert module.stale_references(document) == [
            (2, "repro.no_such_module.Thing"),
            (3, "repro.mapping.geometry.ConvGeometry.no_such_method"),
        ]

    def test_gate_fails_on_document_naming_missing_module(self, tmp_path, monkeypatch, capsys):
        """Docs that list every registered name still fail on one stale path."""
        module = _load_module()
        names = " ".join(
            sorted(module.experiment_registry())
            + list(module.backend_names())
            + list(module.registered_networks())
        )
        (tmp_path / "README.md").write_text(names)
        (tmp_path / "ENGINE.md").write_text(f"{names}\nsee `repro.no_such_module`\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text(names)
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1
        assert "ENGINE.md:2: repro.no_such_module does not resolve" in capsys.readouterr().err

    def test_stale_cli_flag_detected(self, tmp_path, monkeypatch, capsys):
        """A documented invocation passing an option the CLI lacks fails the gate."""
        module = _load_module()
        names = " ".join(
            sorted(module.experiment_registry())
            + list(module.backend_names())
            + list(module.registered_networks())
        )
        (tmp_path / "README.md").write_text(names)
        (tmp_path / "ENGINE.md").write_text(f"{names}\n    python -m repro report --jobs 4\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text(
            f"{names}\nrun `repro --workers 2 report --json out.json`\n"
        )
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1
        errors = capsys.readouterr().err
        assert "ENGINE.md:2: repro has no option --jobs" in errors
        assert "workloads.md:2" not in errors  # real options pass
