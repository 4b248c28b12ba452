"""Run the ``repro`` CLI in this process, exactly as ``python -m repro`` does.

    PYTHONPATH=src python perfbench/launch.py --store DIR report --json OUT

The benchmark launches every measured invocation through this script, so it
can see inside a run without changing the program:

* ``PERFBENCH_SETUP_FILE`` names a file that receives the monotonic clock
  reading taken once ``repro.cli`` and the experiment registry are imported,
  just before the subcommand dispatches: the end of set-up.
* ``PERFBENCH_TRACE_DIR`` makes this a traced run.  The layer functions listed
  in ``layers.py`` are wrapped before the CLI runs, and this process writes its
  spans and counts to ``<dir>/<pid>.json`` when the CLI returns.  Spawned sweep
  workers re-run this script as ``__mp_main__``, so they install the same
  wrappers and write their own dump when their work ends.
"""

import os
import sys
import time

_started = time.perf_counter()
import repro.cli  # noqa: E402
import repro.experiments  # noqa: E402,F401  (populates the experiment registry)

_import_s = time.perf_counter() - _started
_trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
_probe = None
if _trace_dir:
    import layers

    _probe = layers.install("cli" if __name__ == "__main__" else "worker", _import_s)
    if __name__ == "__mp_main__":
        layers.dump_when_worker_ends(_probe, _trace_dir)


if __name__ == "__main__":
    _setup_file = os.environ.get("PERFBENCH_SETUP_FILE")
    if _setup_file:
        with open(_setup_file, "w", encoding="utf-8") as _handle:
            _handle.write(repr(time.monotonic()))
    try:
        _code = repro.cli.main(sys.argv[1:])
    finally:
        if _probe is not None:
            _probe.dump(os.path.join(_trace_dir, f"{os.getpid()}.json"))
    sys.exit(_code)
