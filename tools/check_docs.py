#!/usr/bin/env python
"""Docs-consistency gate: the registries and the docs must agree.

The README, ENGINE.md and docs/workloads.md enumerate registered names —
experiments, execution backends, zoo networks.  Those listings rot silently:
registering a new experiment without documenting it ships an invisible
feature, and a doc mentioning a renamed backend ships a lie.  This check
walks the live registries and fails when a registered name is missing from
the documents that promise to list it:

* every ``experiment_registry()`` name must appear in README.md and ENGINE.md;
* every ``backend_names()`` name must appear in README.md and ENGINE.md;
* every ``registered_networks()`` name must appear in docs/workloads.md;
* every dotted ``repro.…`` reference in README.md, ENGINE.md, docs/*.md and
  the package sources must name an importable module or an attribute of one,
  so deleting or renaming code cannot leave a stale path behind;
* every ``--flag`` on a line that runs the CLI (``python -m repro …`` or
  ``repro …``) in those files and the verify skill must be an option of
  ``repro.cli.build_parser()`` or one of its subcommands, so removing a flag
  cannot leave a documented command that fails.

Run from the repository root (CI does, via the docs-consistency job)::

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path
from typing import List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend import backend_names  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.engine.sweep import experiment_registry  # noqa: E402
from repro.workloads import registered_networks  # noqa: E402
import repro.experiments  # noqa: E402,F401  (populates the experiment registry)


def missing_names(document: Path, names: Sequence[str]) -> List[str]:
    """Names with no word-boundary occurrence anywhere in ``document``."""
    text = document.read_text(encoding="utf-8")
    return [
        name for name in names
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]


#: A dotted reference into the package, e.g. ``repro.engine.kernels.im2col_columns``.
REFERENCE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def resolves(reference: str) -> bool:
    """Whether ``reference`` names an importable module or an attribute of one."""
    parts = reference.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def stale_references(document: Path) -> List[Tuple[int, str]]:
    """(line number, reference) of every ``repro.…`` reference that does not resolve."""
    return [
        (number, match.group())
        for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), start=1)
        for match in REFERENCE.finditer(line)
        if not resolves(match.group())
    ]


def referencing_documents() -> List[Path]:
    """The documents and sources whose ``repro.…`` references must resolve."""
    documents = [REPO_ROOT / "README.md", REPO_ROOT / "ENGINE.md"]
    documents += sorted((REPO_ROOT / "docs").glob("*.md"))
    documents += sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    return [document for document in documents if document.exists()]


#: The arguments of one CLI invocation on a line, up to the end of its command.
INVOCATION = re.compile(r"(?<![\w.-])repro\s+(?P<args>[^`#|;&)\"']*)")
#: A long option, e.g. ``--workers``.
FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def cli_flags() -> Set[str]:
    """Every long option of ``repro.cli.build_parser()`` and its subcommands."""
    flags: Set[str] = set()
    parsers = [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(option for option in action.option_strings if option.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags


def unknown_cli_flags(document: Path, flags: Set[str]) -> List[Tuple[int, str]]:
    """(line number, flag) of every option a ``repro`` invocation passes that the CLI lacks."""
    return [
        (number, flag)
        for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), start=1)
        for invocation in INVOCATION.finditer(line)
        for flag in FLAG.findall(invocation.group("args"))
        if flag not in flags
    ]


def main() -> int:
    experiments = tuple(sorted(experiment_registry()))
    backends = tuple(backend_names())
    networks = registered_networks()

    requirements: Tuple[Tuple[Path, Tuple[str, ...], str], ...] = (
        (REPO_ROOT / "README.md", experiments, "registered experiments"),
        (REPO_ROOT / "README.md", backends, "registered backends"),
        (REPO_ROOT / "ENGINE.md", experiments, "registered experiments"),
        (REPO_ROOT / "ENGINE.md", backends, "registered backends"),
        (REPO_ROOT / "docs" / "workloads.md", networks, "registered zoo networks"),
    )

    failures: List[str] = []
    for document, names, label in requirements:
        relative = document.relative_to(REPO_ROOT)
        if not document.exists():
            failures.append(f"{relative}: missing (must list the {label})")
            continue
        absent = missing_names(document, names)
        if absent:
            failures.append(f"{relative}: {label} not mentioned: {', '.join(absent)}")

    documents = referencing_documents()
    for document in documents:
        relative = document.relative_to(REPO_ROOT)
        for number, reference in stale_references(document):
            failures.append(f"{relative}:{number}: {reference} does not resolve")

    flags = cli_flags()
    skill = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    for document in documents + ([skill] if skill.exists() else []):
        relative = document.relative_to(REPO_ROOT)
        for number, flag in unknown_cli_flags(document, flags):
            failures.append(f"{relative}:{number}: repro has no option {flag}")

    if failures:
        print("docs-consistency check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "Document every registered name (or unregister it), point every "
            "repro.… reference at code that exists and pass repro only options it "
            "accepts; see docs/workloads.md and ENGINE.md.",
            file=sys.stderr,
        )
        return 1

    print(
        "docs-consistency OK: "
        f"{len(experiments)} experiments, {len(backends)} backends, "
        f"{len(networks)} networks all documented; "
        f"repro.… references in {len(documents)} files resolve; "
        "documented repro invocations use only real options"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
