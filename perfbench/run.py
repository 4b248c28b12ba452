"""End-to-end benchmark of ``repro report``: cold, warm and 2-worker runs.

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 35 --trace 0

Run from the root of a checkout (no build step; the program is imported from
``src/``).  Each measured invocation launches the real CLI in a fresh process
(``perfbench/launch.py``, which runs ``repro.cli.main`` as ``python -m repro``
does) with every BLAS/OpenMP pool pinned to one thread, checks its report
against ``tests/golden/report_golden.json`` within the golden suite's own
per-metric bands, and records its wall time, the CPU time and peak RSS of its
whole process tree, its set-up time and the size of its store.  Invocations
repeat, one at a time, until ``--seconds`` is spent; each metric is the median
over the run's invocations.

The host is shared and its speed drifts by tens of percent over minutes, longer
than a run.  So ``reference.py``, a fixed piece of work that is no part of
``repro``, is launched before the first invocation and after every one, and
each invocation's times are scaled by ``REFERENCE_NOMINAL_S`` over the mean
of the two reference times on either side of it (``host_factors``).  The three
time metrics are therefore seconds of a host on which one reference launch
takes ``REFERENCE_NOMINAL_S``; the unscaled times are in the line before the
result.

``--trace 1`` makes a traced run instead: traced and untraced invocations
alternate, the traced ones with every layer in ``layers.py`` wrapped, and the
run reports the per-layer metrics (medians over the traced invocations) plus
``trace.overhead_s``.  See ``README.md`` for the workloads, the metrics and
the predictions they are meant to test.

The last line of standard output is the result, one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 6.1, "unit": "s"}, ...}}

The line before it records the environment and each metric's sample count
and quartiles.  Failed invocations are logged to standard error with the
first offending report field, and stay in the sample.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
GOLDEN = ROOT / "tests" / "golden" / "report_golden.json"
GOLDEN_SUITE = ROOT / "tests" / "golden" / "test_golden_report.py"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.py"
#: Median time of one ``reference.py`` launch on the 2-vCPU host where the
#: benchmark was defined.  Reported times are seconds of a host this fast.
REFERENCE_NOMINAL_S = 0.32

sys.path.insert(0, str(HERE))
import layers  # noqa: E402

#: Workload name -> (global CLI arguments, whether it reads a prepared store).
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    # Serial, from an empty store: computes and writes every cell.
    "report_cold": ((), False),
    # Serial, against a store one untimed run filled: every cell is a read.
    "report_warm": ((), True),
    # 2 worker processes x 1 BLAS thread, from an empty store.
    "report_workers2": (("--workers", "2"), False),
}
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "store_mb": "MiB", "pass_ratio": "ratio",
}
#: Every run takes at least this many measured invocations, whatever --seconds says.
MIN_INVOCATIONS = 3
#: Set-up is sampled at least this often per run: a run with fewer invocations
#: adds launches that end right after set-up (``repro backends``).
MIN_SETUP_SAMPLES = 8
#: No invocation may outlive this, so a run ends well inside its 180 s limit.
INVOCATION_TIMEOUT_S = 120.0
#: After an invocation exits, how long the processes it left behind may take to end.
STRAGGLER_GRACE_S = 10.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles(n=4)``."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3, "max": max(values)}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
class GoldenCheck:
    """Judges a report against the golden snapshot with the golden suite's bands.

    The comparator and its per-metric tolerance table are the ones in
    ``tests/golden/test_golden_report.py``, loaded from that file.
    """

    def __init__(self) -> None:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        spec = importlib.util.spec_from_file_location("perfbench_golden_suite", GOLDEN_SUITE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self._compare = module._compare
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))

    def mismatches(self, report_path: Path) -> List[str]:
        """Field paths (with values) where the report leaves the golden bands."""
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            return [f"$: no readable report ({error})"]
        found: List[str] = []
        self._compare(self.golden, report, "$", found)
        return found


# ---------------------------------------------------------------------------
# Launching and reaping
# ---------------------------------------------------------------------------
@dataclass
class Invocation:
    """What one launch measured, and why it failed (``problem``), if it did."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: Optional[float]
    store_mb: float = 0.0
    problem: str = ""

    @property
    def ok(self) -> bool:
        return not self.problem


def _session_members(session: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap_session(session: int) -> None:
    """Wait for every process left in the invocation's session; kill stragglers."""
    deadline = time.monotonic() + STRAGGLER_GRACE_S
    while members := _session_members(session):
        if time.monotonic() > deadline:
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def child_env(extra: Dict[str, str]) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def launch(
    cli_args: Sequence[str], env: Dict[str, str], log_path: Path, timeout_s: float, script: Path = LAUNCH
) -> Tuple[Invocation, int]:
    """Run ``script cli_args`` to completion; returns its measures and exit code.

    The child leads a new session, so every process it starts can be found and
    waited for.  ``wait4`` reports the CPU time and peak RSS of the child
    together with every descendant it waited for (the sweep workers).  The
    set-up time is read from ``$PERFBENCH_SETUP_FILE`` when the environment
    names one (``launch.py`` writes it).
    """
    setup_file = Path(env["PERFBENCH_SETUP_FILE"]) if "PERFBENCH_SETUP_FILE" in env else None
    if setup_file is not None:
        setup_file.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(script), *cli_args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            start_new_session=True,
        )
    problem = ""
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            if not poller.poll(timeout_s * 1000):
                problem = f"timed out after {timeout_s:.0f} s"
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
        finally:
            os.close(pidfd)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        _reap_session(proc.pid)
        raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    _reap_session(proc.pid)
    setup_s: Optional[float] = None
    if setup_file is not None:
        try:
            setup_s = float(setup_file.read_text()) - started
        except (OSError, ValueError):
            pass
    return (
        Invocation(
            wall_s=ended - started,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            setup_s=setup_s,
            problem=problem,
        ),
        code,
    )


def tree_mb(path: Path) -> float:
    """MiB in the files under ``path`` (0 if it does not exist)."""
    total = 0
    for dirpath, _, filenames in os.walk(path):
        total += sum(os.lstat(os.path.join(dirpath, name)).st_size for name in filenames)
    return total / 2**20


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------
def _filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from ``/proc/self/mountinfo``."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                target = str(path.resolve())
                inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, fstype = mount_point, right.split()[0]
    except (OSError, IndexError):
        pass
    return fstype


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """blake2b of every file under ``src/repro``: identifies the code measured
    where no git metadata is available."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, store_parent: Path) -> Dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = os.cpu_count() or 1
    record: Dict[str, object] = {
        "cpu_count": cpus,
        "pinned_threads": PINNED_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "store_filesystem": _filesystem_type(store_parent),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "time_scale": f"wall_s, cpu_s and setup_s are seconds of a host on which one launch of "
        f"perfbench/reference.py takes {REFERENCE_NOMINAL_S} s; unscaled_* samples are as measured",
        "not_measured": "BLAS pools are pinned to 1 thread in every process, so the program's own "
        "unpinned BLAS oversubscription (ROADMAP item 2) is outside what this benchmark measures",
        "flags": [],
    }
    if workload == "report_workers2" and cpus < 2:
        record["flags"].append(f"cpu_count {cpus} < 2: report_workers2 oversubscribes this host")
    return record


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Runner:
    """Launches, checks and measures the invocations of one benchmark run."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.workers_args, self.warm = WORKLOADS[workload]
        # repro report takes no input beyond its configuration: the seed only
        # names this run's directories, so one seed always gives the same inputs.
        self.work = WORK / f"{workload}-{seed}-{random.Random(seed).getrandbits(32):08x}"
        self.deadline = deadline
        self.check = GoldenCheck()
        self.count = 0
        #: For a warm workload: the report the preparation run wrote.
        self.prepared_report: Optional[bytes] = None

    def __enter__(self) -> "Runner":
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def timeout(self) -> float:
        """How long the next launch may take: capped so the run meets its deadline."""
        return max(1.0, min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic()))

    def setup_only(self) -> Invocation:
        """A launch that ends right after set-up (``repro backends``)."""
        env = child_env({"PERFBENCH_SETUP_FILE": str(self.work / "setup.stamp")})
        result, code = launch(["backends"], env, self.work / "setup-only.log", self.timeout())
        if code != 0:
            print(f"[perfbench] set-up-only launch exited {code}", file=sys.stderr)
        return result

    def reference(self) -> float:
        """Wall time of one ``reference.py`` launch."""
        log = self.work / "reference.log"
        result, code = launch([], child_env({}), log, self.timeout(), script=REFERENCE)
        if result.problem or code != 0:
            tail = " ".join(log.read_text(errors="replace").strip().splitlines()[-1:])
            raise RuntimeError(f"reference launch failed ({result.problem or f'exit code {code}'}): {tail}")
        return result.wall_s

    def store_dir(self) -> Path:
        return self.work / ("store" if self.warm else f"store-{self.count}")

    def invoke(self, traced: bool = False) -> Tuple[Invocation, Optional[dict]]:
        """One ``repro report`` invocation, checked; plus merged trace dumps."""
        self.count += 1
        tag = f"{self.count}{'-traced' if traced else ''}"
        store, report = self.store_dir(), self.work / f"report-{tag}.json"
        if not self.warm:
            store.mkdir()
        extra = {"PERFBENCH_SETUP_FILE": str(self.work / "setup.stamp")}
        trace_dir = self.work / f"trace-{tag}"
        if traced:
            trace_dir.mkdir()
            extra["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        args = ["--store", str(store), *self.workers_args, "report", "--json", str(report)]
        log = self.work / f"invocation-{tag}.log"
        result, code = launch(args, child_env(extra), log, self.timeout())
        result.store_mb = tree_mb(store)
        if not result.problem and code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            result.problem = f"exit code {code}: {' '.join(tail)}"
        if not result.problem:
            found = self.check.mismatches(report)
            if found:
                result.problem = f"{len(found)} report fields outside the golden bands, first {found[0]}"
        if not result.problem and self.warm:
            if self.prepared_report is None:
                self.prepared_report = report.read_bytes()
            elif report.read_bytes() != self.prepared_report:
                result.problem = "warm report is not byte-identical to the preparation run's report"
        merged = None
        if traced and not result.problem:
            merged = layers.merge(json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json")))
            result.problem = layers.svd_accounting_error(merged)
        if result.problem:
            print(f"[perfbench] {self.workload} invocation {tag} FAILED: {result.problem}", file=sys.stderr)
        if not self.warm:
            shutil.rmtree(store, ignore_errors=True)
        report.unlink(missing_ok=True)
        shutil.rmtree(trace_dir, ignore_errors=True)
        return result, merged

    def prepare(self) -> Optional[Invocation]:
        """For a warm workload: fill the store with one untimed invocation."""
        if not self.warm:
            return None
        prep, _ = self.invoke()
        return prep


def host_factors(references: Sequence[float]) -> List[float]:
    """Scale factor of each launch measured between two reference launches.

    ``references[i]`` is the reference time taken just before the i-th
    measured launch and ``references[i + 1]`` the one just after it.  Its
    factor is ``REFERENCE_NOMINAL_S`` over their mean: below 1 while the host
    runs slower than nominal, above 1 while it runs faster.
    """
    return [REFERENCE_NOMINAL_S / ((before + after) / 2) for before, after in zip(references, references[1:])]


def measure(runner: Runner, seconds: float) -> Tuple[List[Invocation], Dict[str, float], Dict[str, List[float]]]:
    """Untraced invocations, one after another, until ``seconds`` is spent.

    A reference launch runs before the first invocation and after each one;
    every time metric is the median of the invocations' times scaled by their
    :func:`host_factors`.  Returns the invocations, the metric values and the
    samples behind them, the unscaled times and reference times included.
    """
    references = [runner.reference()]
    runs: List[Invocation] = []
    started = time.monotonic()
    while True:
        runs.append(runner.invoke()[0])
        references.append(runner.reference())
        elapsed = time.monotonic() - started
        cycle = elapsed / len(runs)
        if len(runs) >= MIN_INVOCATIONS and elapsed + cycle > seconds:
            break
        if time.monotonic() + cycle > runner.deadline:
            break
    # Too few set-up samples: add launches that end right after set-up, each
    # followed by its own reference launch.
    launched = list(runs)
    while sum(item.setup_s is not None for item in launched) < MIN_SETUP_SAMPLES:
        if time.monotonic() + 5 > runner.deadline:
            break
        launched.append(runner.setup_only())
        references.append(runner.reference())
        if launched[-1].setup_s is None:
            break
    factors = host_factors(references)
    setups = [(item.setup_s, factor) for item, factor in zip(launched, factors) if item.setup_s is not None]
    samples = {
        "wall_s": [run.wall_s * factor for run, factor in zip(runs, factors)],
        "cpu_s": [run.cpu_s * factor for run, factor in zip(runs, factors)],
        "setup_s": [setup_s * factor for setup_s, factor in setups],
        "peak_rss_mb": [run.peak_rss_mb for run in runs],
        "store_mb": [run.store_mb for run in runs],
    }
    values = {name: statistics.median(sample) for name, sample in samples.items() if sample}
    values["pass_ratio"] = sum(run.ok for run in runs) / len(runs)
    samples.update({
        "unscaled_wall_s": [run.wall_s for run in runs],
        "unscaled_cpu_s": [run.cpu_s for run in runs],
        "unscaled_setup_s": [setup_s for setup_s, _ in setups],
        "reference_s": references,
        "host_factor": factors,
    })
    return runs, values, samples


def measure_traced(runner: Runner, seconds: float) -> Tuple[List[Invocation], Dict[str, float], Dict[str, List[float]]]:
    """Untraced and traced invocations alternately until ``seconds`` is spent."""
    plain: List[Invocation] = []
    traced: List[Invocation] = []
    per_layer: List[Dict[str, float]] = []
    started = time.monotonic()
    while True:
        plain.append(runner.invoke()[0])
        invocation, merged = runner.invoke(traced=True)
        traced.append(invocation)
        if merged is not None:
            per_layer.append(layers.per_layer_metrics(merged))
        elapsed = time.monotonic() - started
        plain_s = statistics.median([run.wall_s for run in plain])
        traced_s = statistics.median([run.wall_s for run in traced])
        pair = plain_s + traced_s
        if elapsed + pair > seconds or time.monotonic() + pair > runner.deadline:
            break
    values = {name: statistics.median([row[name] for row in per_layer]) for name in (per_layer[0] if per_layer else ())}
    values["trace.overhead_s"] = traced_s - plain_s
    samples = {"wall_s": [run.wall_s for run in plain], "traced_wall_s": [run.wall_s for run in traced]}
    return plain + traced, values, samples


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Pin this process too, before anything imports numpy, and drop the
    # $REPRO_* defaults (store, workers, backend...) that would change what
    # the invocations measure.
    os.environ.update(PINNED_THREADS)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    missing = [path for path in (ROOT / "src" / "repro" / "cli.py", GOLDEN, GOLDEN_SUITE) if not path.exists()]
    if missing:
        print(f"[perfbench] not a repro checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    # Each run must end within 180 s; leave room for the preparation run and clean-up.
    deadline = time.monotonic() + 165.0

    def stop(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    with Runner(args.workload, args.seed, deadline) as runner:
        record = environment(args.workload, runner.work)
        # Compiles bytecode and fills the page cache, so the first measured
        # launch is not special.
        runner.setup_only()
        runner.reference()
        prep = runner.prepare()
        if prep is not None and not prep.ok:
            runs, values, samples = [prep], {}, {}
        elif args.trace:
            runs, values, samples = measure_traced(runner, args.seconds)
        else:
            runs, values, samples = measure(runner, args.seconds)
    units = dict(layers.PER_LAYER) if args.trace else END_TO_END
    described = {name: describe(sample) for name, sample in samples.items() if sample}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": record, "samples": described}))
    failed = sum(not run.ok for run in runs)
    print(json.dumps({
        "correct": failed == 0 and set(values) == set(units),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
