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
  ``repro …``) in those files and the verify skill must be an option of the
  parser it reaches: before the subcommand an option of
  ``repro.cli.build_parser()``, after it an option of that subcommand.  So
  removing a flag, or writing a global option after the subcommand, cannot
  leave a documented command that fails;
* every ``ExecutionContext.<name>`` and ``ctx.<name>`` in those files and the
  verify skill must name a method or dataclass field of
  ``repro.engine.ExecutionContext``, so deleting or renaming a plan method
  cannot leave a documented call behind;
* every ``REPRO_…`` environment variable those files and the verify skill
  name must be read by the package: a ``"REPRO_X"`` string literal under
  ``src/repro``, or a ``REPRO_SERVER_…`` name that ``repro.server.config``
  builds from its prefix.  So deleting a knob cannot leave a documented
  variable that nothing reads.

Run from the repository root (CI does, via the docs-consistency job)::

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend import backend_names  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.engine import ExecutionContext  # noqa: E402
from repro.engine.sweep import experiment_registry  # noqa: E402
from repro.server import config as server_config  # noqa: E402
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


def _grammar(
    parser: argparse.ArgumentParser,
) -> Tuple[Dict[str, argparse.Action], Dict[str, argparse.ArgumentParser]]:
    """A parser's long options and its subcommands, by name."""
    options: Dict[str, argparse.Action] = {}
    commands: Dict[str, argparse.ArgumentParser] = {}
    for action in parser._actions:
        options.update((option, action) for option in action.option_strings if option.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            commands.update(action.choices)
    return options, commands


def unknown_cli_flags(document: Path, parser: argparse.ArgumentParser) -> List[Tuple[int, str]]:
    """(line number, flag) of every option a ``repro`` invocation passes where the CLI lacks it.

    Each option is judged by the parser its position reaches: the root parser
    until a subcommand name, then that subcommand's.  The value after a
    single-valued option (``--store DIR``) is skipped, so it is never taken
    for a subcommand.
    """
    found: List[Tuple[int, str]] = []
    for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), start=1):
        for invocation in INVOCATION.finditer(line):
            options, commands = _grammar(parser)
            tokens = iter(invocation.group("args").split())
            for token in tokens:
                if token in commands:
                    options, commands = _grammar(commands[token])
                    continue
                for flag in FLAG.findall(token):
                    if flag not in options:
                        found.append((number, flag))
                    elif options[flag].nargs is None and "=" not in token:
                        next(tokens, None)
    return found


#: A member named on the execution context, e.g. ``ExecutionContext.dense_plan`` or ``ctx.tiled(``.
CONTEXT_MEMBER = re.compile(r"\b(?:ExecutionContext|ctx)\.(?P<name>[A-Za-z_]\w*)")


def context_members() -> Set[str]:
    """Every method, property and dataclass field of ``ExecutionContext``."""
    return set(dir(ExecutionContext)) | {field.name for field in dataclasses.fields(ExecutionContext)}


def unknown_context_members(document: Path, members: Set[str]) -> List[Tuple[int, str]]:
    """(line number, mention) of every ``ExecutionContext``/``ctx`` member that does not exist."""
    return [
        (number, match.group())
        for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), start=1)
        for match in CONTEXT_MEMBER.finditer(line)
        if match.group("name") not in members
    ]


#: An environment variable of the package, e.g. ``REPRO_WORKERS`` (or the
#: ``REPRO_SERVER_`` of a ``$REPRO_SERVER_*`` mention).
ENV_VARIABLE = re.compile(r"\bREPRO_[A-Z0-9_]+")


def read_env_variables() -> Set[str]:
    """Every ``REPRO_…`` name the package reads.

    A ``"REPRO_X"`` string literal anywhere under the package, plus the
    ``REPRO_SERVER_…`` names ``repro.server.config`` builds by prefixing one
    of its upper-case literals (``SERVER_ENV_PREFIX + "HOST"``,
    ``_env_int("PORT", …)``).
    """
    names = {
        match
        for source in Path(repro.__file__).parent.rglob("*.py")
        for match in re.findall(r'"(REPRO_[A-Z0-9_]+)"', source.read_text(encoding="utf-8"))
    }
    config = Path(server_config.__file__).read_text(encoding="utf-8")
    names.update(
        server_config.SERVER_ENV_PREFIX + token
        for token in re.findall(r'"([A-Z][A-Z0-9_]*)"', config)
    )
    return names


def unread_env_variables(document: Path, read: Set[str]) -> List[Tuple[int, str]]:
    """(line number, name) of every ``REPRO_…`` variable no source reads."""
    return [
        (number, match.group())
        for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), start=1)
        for match in ENV_VARIABLE.finditer(line)
        if match.group() not in read
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

    parser = build_parser()
    members = context_members()
    read = read_env_variables()
    skill = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    for document in documents + ([skill] if skill.exists() else []):
        relative = document.relative_to(REPO_ROOT)
        for number, flag in unknown_cli_flags(document, parser):
            failures.append(f"{relative}:{number}: repro has no option {flag}")
        for number, mention in unknown_context_members(document, members):
            failures.append(f"{relative}:{number}: ExecutionContext has no member named by {mention}")
        for number, name in unread_env_variables(document, read):
            failures.append(f"{relative}:{number}: no source reads ${name}")

    if failures:
        print("docs-consistency check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "Document every registered name (or unregister it), point every "
            "repro.… reference at code that exists, pass repro only options it "
            "accepts, name only ExecutionContext members that exist and only "
            "environment variables the package reads; see docs/workloads.md "
            "and ENGINE.md.",
            file=sys.stderr,
        )
        return 1

    print(
        "docs-consistency OK: "
        f"{len(experiments)} experiments, {len(backends)} backends, "
        f"{len(networks)} networks all documented; "
        f"repro.… references in {len(documents)} files resolve; "
        "documented repro invocations use only real options, "
        "ExecutionContext members exist and every REPRO_… variable is read"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
