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

    def test_cli_flag_is_judged_by_its_position(self, tmp_path, monkeypatch, capsys):
        """A global option after the subcommand fails the gate, as it fails the CLI."""
        module = _load_module()
        names = " ".join(
            sorted(module.experiment_registry())
            + list(module.backend_names())
            + list(module.registered_networks())
        )
        (tmp_path / "README.md").write_text(names)
        (tmp_path / "ENGINE.md").write_text(f"{names}\n    python -m repro report --output x\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text(
            f"{names}\nrun `repro --output x report` or `repro --store report report --workers 2`\n"
        )
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1
        errors = capsys.readouterr().err
        assert "ENGINE.md:2: repro has no option --output" in errors
        assert "workloads.md:2" not in errors  # each option where its parser takes it

    def test_stale_context_member_detected(self, tmp_path, monkeypatch, capsys):
        """A document naming a missing ExecutionContext method fails the gate."""
        module = _load_module()
        names = " ".join(
            sorted(module.experiment_registry())
            + list(module.backend_names())
            + list(module.registered_networks())
        )
        (tmp_path / "README.md").write_text(names)
        (tmp_path / "ENGINE.md").write_text(
            f"{names}\nbuilt by `ctx.dense_monte_carlo_plan(weight, trials=8)`\n"
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text(
            f"{names}\n`ExecutionContext.grouped_conv_plan` on `ctx.array`, see ctx.tiled(\n"
        )
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1
        errors = capsys.readouterr().err
        assert "ENGINE.md:2: ExecutionContext has no member named by ctx.dense_monte_carlo_plan" in errors
        assert "workloads.md:2" not in errors  # real methods and fields pass

    def test_unread_env_variable_detected(self, tmp_path, monkeypatch, capsys):
        """A document naming an environment variable no source reads fails the gate."""
        module = _load_module()
        names = " ".join(
            sorted(module.experiment_registry())
            + list(module.backend_names())
            + list(module.registered_networks())
        )
        (tmp_path / "README.md").write_text(names)
        (tmp_path / "ENGINE.md").write_text(f"{names}\nexport `$REPRO_NO_SUCH_KNOB=1` first\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "workloads.md").write_text(
            f"{names}\n`$REPRO_WORKERS`, `$REPRO_SERVER_PORT` and every `$REPRO_SERVER_*` knob\n"
        )
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1
        errors = capsys.readouterr().err
        assert "ENGINE.md:2: no source reads $REPRO_NO_SUCH_KNOB" in errors
        assert "workloads.md:2" not in errors  # read variables and the server prefix pass
