"""Golden-value regression suite: every reproduced number vs. a committed snapshot.

``report_golden.json`` is a committed ``suite_to_json`` snapshot of the full
default experiment suite (Table I, Figs. 6–9, the robustness sweep).  This
test re-runs the suite and compares **every** number in the emitted document
against the snapshot within per-metric tolerances, so silent numeric drift
anywhere in the engine — a kernel change that shifts conductances, a cache
that stops being bit-transparent, a sweep that quietly loses points — fails
CI instead of shipping.

Tolerances are keyed by metric name: discrete quantities (cycles, tiles,
counts, configuration) must match exactly; analytically-derived floats
(energies, ratios) to ~1e-9; quantities that pass through LAPACK/BLAS (SVD
reconstruction errors, Monte-Carlo output errors, proxy accuracies) get a
small relative tolerance so a different BLAS build does not flap the suite.

Under a non-bit-identical execution backend (``REPRO_BACKEND=numpy32``) the
suite runs in **tolerance mode**: every float tolerance is widened by the
active precision policy's documented ``golden_scale`` (the float32 envelope —
see ENGINE.md, "Execution backends"); integer metrics stay exact.  The
bit-identical backends (``numpy64``, ``threaded``) keep the float64 envelope
unchanged, which is what the CI backend-parity matrix asserts.

Regenerate the snapshot after an *intentional* numeric change with::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src python -m repro report --json tests/golden/report_golden.json

and review the diff — every changed number should be explainable by the
change being shipped.  Pin BLAS to one thread as above: a multi-threaded BLAS
changes the last bits of the robustness accuracies.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, List, Tuple

import pytest

from repro.backend import active_backend, using_backend
from repro.experiments.runner import run_all, suite_to_json
from repro.store import ExperimentStore

GOLDEN_PATH = Path(__file__).resolve().parent / "report_golden.json"

#: (key-substring, rtol, atol) — first match wins, checked in order.
#: Accuracies are interpolated from BLAS-derived errors, so their allowance
#: must absorb at least the drift the "error" tolerance itself admits
#: (a 1e-5 relative error shift moves proxy accuracy by up to ~1e-5 absolute).
TOLERANCES: Tuple[Tuple[str, float, float], ...] = (
    ("accuracy", 1e-5, 1e-4),
    ("error", 1e-5, 1e-9),
    ("energy", 1e-9, 1e-12),
    ("saving", 1e-6, 1e-9),
    ("speedup", 1e-6, 1e-9),
    ("ratio", 1e-6, 1e-9),
)
DEFAULT_RTOL, DEFAULT_ATOL = 1e-7, 1e-9

#: Derived formatted strings that re-render reproduced floats; their numeric
#: sources are compared field by field, so re-formatting is not re-checked.
SKIPPED_KEYS = frozenset({"headline"})


def _tolerance_for(path: str) -> Tuple[float, float]:
    # Tolerance mode: a non-bit-identical backend widens every float band by
    # its policy's documented golden_scale (1.0 for the float64 family).
    scale = active_backend().policy.golden_scale
    leaf = path.rsplit(".", 1)[-1]
    leaf = leaf.split("[", 1)[0]
    for substring, rtol, atol in TOLERANCES:
        if substring in leaf:
            return rtol * scale, atol * scale
    return DEFAULT_RTOL * scale, DEFAULT_ATOL * scale


def _compare(expected: Any, actual: Any, path: str, mismatches: List[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            missing = sorted(set(expected) - set(actual))
            extra = sorted(set(actual) - set(expected))
            mismatches.append(f"{path}: keys differ (missing={missing}, extra={extra})")
            return
        for key in expected:
            if key in SKIPPED_KEYS:
                if not actual[key]:
                    mismatches.append(f"{path}.{key}: expected non-empty value")
                continue
            _compare(expected[key], actual[key], f"{path}.{key}", mismatches)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            mismatches.append(f"{path}: length {len(actual)} != golden {len(expected)}")
            return
        for index, (exp_item, act_item) in enumerate(zip(expected, actual)):
            _compare(exp_item, act_item, f"{path}[{index}]", mismatches)
        return
    if isinstance(expected, bool) or isinstance(actual, bool):
        if expected is not actual:
            mismatches.append(f"{path}: {actual!r} != golden {expected!r}")
        return
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            if expected != actual:
                mismatches.append(f"{path}: {actual} != golden {expected} (exact)")
            return
        rtol, atol = _tolerance_for(path)
        if not math.isclose(float(actual), float(expected), rel_tol=rtol, abs_tol=atol):
            mismatches.append(
                f"{path}: {actual!r} != golden {expected!r} (rtol={rtol}, atol={atol})"
            )
        return
    if expected != actual:
        mismatches.append(f"{path}: {actual!r} != golden {expected!r}")


@pytest.fixture(scope="module")
def experiment_store(tmp_path_factory):
    """A cold persistent store the golden run fills (and a warm pass re-reads)."""
    return ExperimentStore(tmp_path_factory.mktemp("golden") / "store")


@pytest.fixture(scope="module")
def reproduced_document(experiment_store):
    # The cold run executes *through* the store layer, so the golden
    # comparison also certifies that persisting cells does not perturb a
    # single reproduced number.
    return suite_to_json(run_all(store=experiment_store))


@pytest.fixture(scope="module")
def warm_document(reproduced_document, experiment_store):
    """A second full run assembled purely from the store the cold run filled."""
    return suite_to_json(run_all(store=experiment_store))


class TestGoldenReport:
    def test_snapshot_exists(self):
        assert GOLDEN_PATH.exists(), (
            "missing golden snapshot; regenerate with "
            "`OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 "
            "PYTHONPATH=src python -m repro report --json tests/golden/report_golden.json`"
        )

    def test_every_reproduced_number_matches_snapshot(self, reproduced_document):
        golden = json.loads(GOLDEN_PATH.read_text())
        mismatches: List[str] = []
        _compare(golden, reproduced_document, "$", mismatches)
        preview = "\n".join(mismatches[:40])
        assert not mismatches, (
            f"{len(mismatches)} reproduced values drifted from the golden snapshot "
            f"(first {min(40, len(mismatches))} shown):\n{preview}\n"
            "If the drift is intentional, regenerate the snapshot (see module docstring) "
            "and review the diff."
        )

    def test_warm_store_run_matches_snapshot(self, warm_document):
        """The golden contract holds when every cell is decoded, not computed."""
        golden = json.loads(GOLDEN_PATH.read_text())
        mismatches: List[str] = []
        _compare(golden, warm_document, "$", mismatches)
        assert not mismatches, (
            f"warm-store run drifted from the golden snapshot: {mismatches[:10]}"
        )

    def test_warm_store_run_is_byte_identical_to_cold(
        self, reproduced_document, warm_document
    ):
        cold = json.dumps(reproduced_document, indent=2, sort_keys=False)
        warm = json.dumps(warm_document, indent=2, sort_keys=False)
        assert warm == cold

    def test_snapshot_covers_all_experiments(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert set(golden["experiments"]) == {
            "table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families",
        }


class TestCompareHelper:
    """The tolerance walker itself must catch what it claims to catch.

    These meta-tests pin the float64 envelope explicitly: under a numpy32
    parity run the widened tolerance-mode bands would otherwise absorb the
    synthetic drift they inject.
    """

    def test_detects_numeric_drift(self):
        mismatches: List[str] = []
        with using_backend("numpy64"):
            _compare({"accuracy": 90.0}, {"accuracy": 90.5}, "$", mismatches)
        assert mismatches

    def test_tolerance_mode_widens_float_bands(self):
        """A drift the float64 envelope rejects passes under the float32 policy."""
        drift = {"accuracy": 90.0}, {"accuracy": 90.05}
        with using_backend("numpy64"):
            strict: List[str] = []
            _compare(*drift, "$", strict)
        with using_backend("numpy32"):
            scaled: List[str] = []
            _compare(*drift, "$", scaled)
        assert strict and not scaled

    def test_accepts_within_tolerance(self):
        mismatches: List[str] = []
        with using_backend("numpy64"):
            _compare({"accuracy": 90.0}, {"accuracy": 90.0 + 1e-8}, "$", mismatches)
        assert not mismatches

    def test_int_metrics_are_exact(self):
        mismatches: List[str] = []
        _compare({"cycles": 1000}, {"cycles": 1001}, "$", mismatches)
        assert mismatches

    def test_detects_missing_keys_and_short_lists(self):
        mismatches: List[str] = []
        _compare({"a": 1, "b": 2}, {"a": 1}, "$", mismatches)
        _compare([1, 2, 3], [1, 2], "$.list", mismatches)
        assert len(mismatches) == 2

    def test_bool_is_not_coerced_to_int(self):
        mismatches: List[str] = []
        _compare({"flag": True}, {"flag": 1}, "$", mismatches)
        assert mismatches
