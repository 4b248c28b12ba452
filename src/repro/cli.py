"""Command-line interface: reproduce paper artefacts and run deployment reports.

Usage (after ``pip install -e .``)::

    python -m repro table1                      # reproduce Table I
    python -m repro fig6 --network wrn16_4      # one or both Fig. 6 networks
    python -m repro fig7                        # normalized energy comparison
    python -m repro fig8                        # vs. quantization
    python -m repro fig9                        # vs. traditional low-rank
    python -m repro report                      # everything (Table I + Figs. 6-9)
    python -m repro robustness --trials 16      # Monte-Carlo hardware-scenario sweep
    python -m repro layer_families              # modern-layer mapping-efficiency sweep
    python -m repro compare --network resnet20 --array 64
                                                # deployment-style method comparison

With ``--store DIR`` (or ``$REPRO_STORE``) runs are incremental: every sweep
grid cell is persisted in a content-addressed artifact store, warm reruns
assemble from it instead of recomputing, and ``report --shard K/N`` computes
one shard of the grid cells so several processes can split a sweep with the
store as their shared medium::

    python -m repro --store .repro-store report --shard 1/4 &
    python -m repro --store .repro-store report --shard 2/4 &
    ...wait...
    python -m repro --store .repro-store report --json out.json   # warm assembly

    python -m repro --store .repro-store store ls     # inspect artifacts
    python -m repro --store .repro-store store gc     # drop stale/corrupt ones
    python -m repro --store .repro-store store clear  # start cold

``--backend NAME`` (or ``$REPRO_BACKEND``) selects the execution backend for
every kernel and SVD: ``numpy64`` (default float64 reference), ``threaded``
(multicore tile executor, bit-identical to numpy64), ``numpy32`` (float32
precision policy; its store artifacts are salted separately) or ``compiled``
(numba-JIT fused tile executor — requires the ``repro[compiled]`` extra;
without it the backend is listed but resolving it explains what to
install).  ``repro backends`` lists every registered backend with its
precision policy and availability on this host::

    python -m repro --backend threaded report
    REPRO_BACKEND=numpy32 python -m repro robustness --trials 16
    python -m repro backends

``--workers N`` (or ``$REPRO_WORKERS``) runs any experiment sweep in ``N``
workers: this process computes as worker 0 beside ``N - 1`` spawned worker
processes.  The grid is partitioned into fingerprint-hash store shards,
workers claim shards through crash-safe leases (work stealing — this process
re-claims at once the shards of a worker that was SIGKILLed), and the report is
assembled from the shared store, byte-identical to a ``--workers 1`` run::

    python -m repro --store .repro-store --workers 4 report --json out.json

Without ``--store`` the workers share an ephemeral store for the run.
``repro workers status`` inspects an in-flight (or abandoned) parallel sweep:
the live shard leases, per-worker heartbeat ages, done-marker progress and
steal/lost-race counters of every lease namespace under the store::

    python -m repro --store .repro-store workers status

``repro serve`` runs the HTTP experiment service (:mod:`repro.server`) over
the store: ``POST /sweeps`` deduplicates identical sweep specs into one job,
``GET /jobs/<id>/report`` serves the report byte-identical to
``repro report --json``, and ``GET /workers`` is this status view as JSON.
Configure with ``$REPRO_SERVER_*`` (see ENGINE.md, "Experiment service")::

    python -m repro --store .repro-store serve --port 8321

Every subcommand prints plain text; ``--output FILE`` writes it to a file too.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .backend import (
    backend_availability,
    backend_names,
    backend_policy,
    default_backend_name,
    resolve_backend,
    using_backend,
)
from .experiments.fig6 import format_fig6, run_fig6
from .experiments.fig7 import format_fig7, run_fig7
from .experiments.fig8 import format_fig8, run_fig8
from .experiments.fig9 import format_fig9, run_fig9
from .engine.sweep import parse_shard, to_jsonable
from .experiments.layer_families import (
    FAMILIES,
    format_layer_families,
    run_layer_families,
)
from .experiments.robustness import format_robustness, run_robustness
from .experiments.runner import (
    format_report,
    format_shard_summary,
    run_all,
    run_shard,
    suite_to_json,
)
from .experiments.table1 import format_table1, run_table1
from .imc.reports import MethodSpec, compare_methods
from .mapping.geometry import ArrayDims
from .parallel import collect_workers_status, format_workers_status, resolve_workers
from .scenarios import scenario_names
from .store import ExperimentStore, open_store, resolve_lease_ttl
from .workloads import compressible_geometries

__all__ = ["build_parser", "main"]


def _int_in_range(minimum: int, maximum: Optional[int] = None):
    """An argparse ``type`` that rejects integers outside ``[minimum, maximum]``.

    Out-of-range values fail at parse time as a usage error (exit 2), before
    any work starts, instead of surfacing later as a library traceback.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum or (maximum is not None and value > maximum):
            bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


_positive_int = _int_in_range(1)


def _fig6_text(args: argparse.Namespace, store: Optional[ExperimentStore]) -> str:
    networks = (args.network,) if args.network else ("resnet20", "wrn16_4")
    return format_fig6(
        run_fig6(networks=networks, store=store, workers=args.workers),
        include_plots=args.plots,
    )


def _format_size(size_bytes: int) -> str:
    if size_bytes >= 1 << 20:
        return f"{size_bytes / (1 << 20):.1f} MiB"
    if size_bytes >= 1 << 10:
        return f"{size_bytes / (1 << 10):.1f} KiB"
    return f"{size_bytes} B"


def _store_text(args: argparse.Namespace, store: ExperimentStore) -> str:
    if args.action == "ls":
        entries = store.ls()
        lines = [f"store {store.root} — {len(entries)} artifacts"]
        for entry in entries:
            marker = "  [stale]" if entry.stale else ""
            lines.append(
                f"  {entry.kind:20s} {entry.fingerprint:36s} "
                f"{_format_size(entry.size_bytes):>10s}{marker}"
            )
        for kind, (count, size) in sorted(store.stats(entries).items()):
            lines.append(f"  total {kind:20s} {count:4d} artifacts  {_format_size(size)}")
        return "\n".join(lines)
    if args.action == "gc":
        stats = store.gc()
        heartbeats = (
            f", pruned {stats.heartbeats_pruned} stale worker heartbeats"
            if stats.heartbeats_pruned
            else ""
        )
        return (
            f"store {store.root} — gc removed {stats.removed} artifacts "
            f"({_format_size(stats.freed_bytes)}), kept {stats.kept}{heartbeats}"
        )
    if args.action == "clear":
        removed = store.clear()
        return f"store {store.root} — cleared {removed} artifacts"
    raise ValueError(f"unknown store action {args.action!r}")


def _backends_text() -> str:
    """One line per registered backend: policy, salt, availability.

    Reads only declared policies and availability probes — never constructs
    a backend — so the listing works (and diagnoses) even when the currently
    selected backend is the unavailable one.
    """
    availability = backend_availability()
    default = default_backend_name()
    lines = [f"{len(availability)} registered execution backends (default: {default})"]
    for name, reason in availability.items():
        policy = backend_policy(name)
        contract = "bit-identical" if policy.bit_identical else "tolerance envelope"
        status = "available" if reason is None else f"unavailable: {reason}"
        lines.append(
            f"  {name:10s} {policy.name:14s} {contract:19s} "
            f"salt={policy.salt_token or '<none>':10s} {status}"
        )
    return "\n".join(lines)


def _compare_text(args: argparse.Namespace) -> str:
    geometries = compressible_geometries(args.network)
    array = ArrayDims.square(args.array)
    methods = [
        MethodSpec("im2col (uncompressed)", "im2col"),
        MethodSpec("VW-SDK (uncompressed)", "sdk"),
        MethodSpec(f"pattern pruning (e={args.entries})", "pattern", {"entries": args.entries}),
        MethodSpec(
            f"ours (g={args.groups}, k=m/{args.rank_divisor})",
            "lowrank",
            {"rank_divisor": args.rank_divisor, "groups": args.groups, "use_sdk": True},
        ),
    ]
    comparison = compare_methods(methods, geometries, array)
    return comparison.describe(
        title=f"{args.network} compressible layers on a {array} array"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", type=str, default="", help="also write the output to this file")
    parser.add_argument(
        "--store", type=str, default="",
        help="persistent experiment store directory (default: $REPRO_STORE; empty = no caching)",
    )
    parser.add_argument(
        "--backend", type=str, default=None, metavar="NAME",
        help="execution backend for every kernel and SVD "
             f"(one of: {', '.join(backend_names())}; "
             "default: $REPRO_BACKEND, else numpy64)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="run experiment sweeps in N workers, this process and N-1 "
             "spawned ones, with store-shard work stealing (default: "
             "$REPRO_WORKERS, else 1; --workers 4 output is byte-identical "
             "to --workers 1)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="reproduce Table I")

    subparsers.add_parser(
        "backends",
        help="list registered execution backends, their precision policies "
             "and availability on this host",
    )

    fig6 = subparsers.add_parser("fig6", help="reproduce Fig. 6 (vs. pattern pruning)")
    fig6.add_argument("--network", choices=("resnet20", "wrn16_4"), default=None)
    fig6.add_argument("--plots", action="store_true", help="include ASCII scatter plots")

    subparsers.add_parser("fig7", help="reproduce Fig. 7 (normalized energy)")
    subparsers.add_parser("fig8", help="reproduce Fig. 8 (vs. quantization)")
    subparsers.add_parser("fig9", help="reproduce Fig. 9 (vs. traditional low-rank)")

    report = subparsers.add_parser("report", help="reproduce every table and figure")
    report.add_argument("--plots", action="store_true")
    report.add_argument(
        "--arrays", type=_positive_int, nargs="+", default=None, metavar="SIZE",
        help="restrict the Fig. 6 array-size sweep (e.g. --arrays 64 128)",
    )
    report.add_argument(
        "--json", type=str, default="", dest="json_path",
        help="also write a machine-readable JSON report to this file",
    )
    report.add_argument(
        "--trials", type=_positive_int, default=8,
        help="Monte-Carlo trial count of the robustness and layer-families sweeps",
    )
    report.add_argument(
        "--shard", type=str, default="", metavar="K/N",
        help="compute only shard K of N grid cells into the store, then exit "
             "(requires --store; run a final un-sharded report to assemble)",
    )
    # SUPPRESS keeps the subcommand-position flag from clobbering the global
    # one with its default when absent (argparse subparser-default semantics).
    report.add_argument(
        "--workers", type=_positive_int, dest="workers", default=argparse.SUPPRESS, metavar="N",
        help="same as the global --workers, accepted after the subcommand too",
    )

    robustness = subparsers.add_parser(
        "robustness",
        help="Monte-Carlo robustness sweep across hardware scenarios",
    )
    robustness.add_argument(
        "--scenarios", nargs="+", choices=scenario_names(), default=None, metavar="NAME",
        help=f"restrict the scenario sweep (default: all of {', '.join(scenario_names())})",
    )
    robustness.add_argument(
        "--networks", nargs="+", choices=("resnet20", "wrn16_4"),
        default=("resnet20", "wrn16_4"),
        help="evaluation networks to sweep",
    )
    robustness.add_argument(
        "--trials", type=_positive_int, default=8, help="independent noisy programmings per point"
    )
    robustness.add_argument(
        "--array", type=int, choices=(32, 64, 128), default=64, help="crossbar array size"
    )
    robustness.add_argument(
        "--json", type=str, default="", dest="json_path",
        help="also write the machine-readable robustness result to this file",
    )
    robustness.add_argument(
        "--workers", type=_positive_int, dest="workers", default=argparse.SUPPRESS, metavar="N",
        help="same as the global --workers, accepted after the subcommand too",
    )

    layer_families = subparsers.add_parser(
        "layer_families",
        help="mapping-efficiency sweep of modern layer families "
             "(conv/grouped/depthwise/attention) across hardware scenarios",
    )
    layer_families.add_argument(
        "--families", nargs="+", choices=FAMILIES, default=None, metavar="NAME",
        help=f"restrict the family sweep (default: all of {', '.join(FAMILIES)})",
    )
    layer_families.add_argument(
        "--scenarios", nargs="+", choices=scenario_names(), default=None, metavar="NAME",
        help=f"restrict the scenario sweep (default: all of {', '.join(scenario_names())})",
    )
    layer_families.add_argument(
        "--trials", type=_positive_int, default=8, help="independent noisy programmings per point"
    )
    layer_families.add_argument(
        "--array", type=int, choices=(32, 64, 128), default=64, help="crossbar array size"
    )
    layer_families.add_argument(
        "--json", type=str, default="", dest="json_path",
        help="also write the machine-readable layer-families result to this file",
    )
    layer_families.add_argument(
        "--workers", type=_positive_int, dest="workers", default=argparse.SUPPRESS, metavar="N",
        help="same as the global --workers, accepted after the subcommand too",
    )

    store = subparsers.add_parser(
        "store", help="inspect or maintain the persistent experiment store"
    )
    store.add_argument(
        "action", choices=("ls", "gc", "clear"),
        help="ls: list artifacts; gc: drop stale/corrupt artifacts; clear: remove everything",
    )

    workers = subparsers.add_parser(
        "workers", help="inspect the parallel workers coordinating through the store"
    )
    workers.add_argument(
        "action", choices=("status",),
        help="status: live shard leases, worker heartbeats, done-marker progress "
             "and steal/lost-race counters per lease namespace",
    )
    workers.add_argument(
        "--namespace", type=str, default=None, metavar="NAME",
        help="restrict to one lease namespace (default: every namespace in the store)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the HTTP experiment service (repro.server)"
    )
    serve.add_argument(
        "--host", type=str, default=None,
        help="bind address (default: $REPRO_SERVER_HOST, else 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=_int_in_range(0, 65535), default=None,
        help="bind port (default: $REPRO_SERVER_PORT, else 8321)",
    )

    compare = subparsers.add_parser("compare", help="deployment-style method comparison")
    compare.add_argument("--network", choices=("resnet20", "wrn16_4"), default="resnet20")
    compare.add_argument("--array", type=int, choices=(32, 64, 128), default=64)
    compare.add_argument("--groups", type=_positive_int, default=4)
    compare.add_argument("--rank-divisor", type=_positive_int, default=8)
    # Pattern entries per 3x3 kernel of the compressible layers.
    compare.add_argument("--entries", type=_int_in_range(1, 9), default=6)
    return parser


def _emit(text: str, args: argparse.Namespace) -> int:
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "backends":
        # The diagnostic listing must work precisely when the selected
        # backend is the broken one (--backend/$REPRO_BACKEND naming an
        # unavailable or unknown backend), so it dispatches before the
        # eager resolution below and never constructs a backend.
        return _emit(_backends_text(), args)
    try:
        # Resolve eagerly: an unknown or unavailable --backend (or
        # $REPRO_BACKEND) must fail with the registered-name listing or the
        # extras-install hint before any work starts.
        backend = resolve_backend(args.backend)
    except ValueError as error:
        parser.error(str(error))
    try:
        # Same for $REPRO_WORKERS (a non-integer or non-positive count).
        # Whether the count was an explicit flag (vs. $REPRO_WORKERS) matters
        # to --shard: an env default must not reject an external partition.
        args.workers_explicit = args.workers is not None
        args.workers = resolve_workers(args.workers)
        # And $REPRO_LEASE_TTL (a non-number or a non-positive TTL).
        resolve_lease_ttl()
    except ValueError as error:
        parser.error(str(error))
    store = open_store(args.store or None)

    with using_backend(backend):
        text = _dispatch(args, parser, store)

    return _emit(text, args)


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser, store) -> str:
    if args.command == "table1":
        text = format_table1(run_table1(store=store, workers=args.workers))
    elif args.command == "fig6":
        text = _fig6_text(args, store)
    elif args.command == "fig7":
        text = format_fig7(run_fig7(store=store, workers=args.workers), include_plots=False)
    elif args.command == "fig8":
        text = format_fig8(run_fig8(store=store, workers=args.workers), include_plots=False)
    elif args.command == "fig9":
        text = format_fig9(run_fig9(store=store, workers=args.workers), include_plots=False)
    elif args.command == "report" and args.shard:
        if store is None:
            parser.error("--shard requires --store (or $REPRO_STORE)")
        if args.json_path or args.plots:
            parser.error(
                "--shard computes grid cells without assembling a report; "
                "run the final un-sharded `report --json/--plots` to emit it"
            )
        if args.workers_explicit and args.workers > 1:
            # Only an *explicit* flag conflicts: a fleet-wide $REPRO_WORKERS
            # default must not break the documented --shard K/N pattern (the
            # sharded compute path ignores env workers for the same reason).
            parser.error(
                "--shard is one slice of an externally-partitioned run; "
                "use --workers without --shard for in-process partitioning"
            )
        try:
            shard = parse_shard(args.shard)
        except ValueError as error:
            parser.error(str(error))
        stats = run_shard(
            shard,
            store,
            include_fig6_arrays=args.arrays,
            robustness_trials=args.trials,
        )
        text = format_shard_summary(stats)
    elif args.command == "report":
        suite = run_all(
            include_fig6_arrays=args.arrays,
            robustness_trials=args.trials,
            store=store,
            workers=args.workers,
        )
        text = format_report(suite, include_plots=args.plots)
        if args.json_path:
            import json

            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(suite_to_json(suite), handle, indent=2)
                handle.write("\n")
    elif args.command == "robustness":
        result = run_robustness(
            networks=tuple(args.networks),
            scenarios=tuple(args.scenarios) if args.scenarios else None,
            trials=args.trials,
            array_size=args.array,
            store=store,
            workers=args.workers,
        )
        text = format_robustness(result)
        if args.json_path:
            import json

            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(to_jsonable(result), handle, indent=2)
                handle.write("\n")
    elif args.command == "layer_families":
        result = run_layer_families(
            families=tuple(args.families) if args.families else FAMILIES,
            scenarios=tuple(args.scenarios) if args.scenarios else None,
            trials=args.trials,
            array_size=args.array,
            store=store,
            workers=args.workers,
        )
        text = format_layer_families(result)
        if args.json_path:
            import json

            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(to_jsonable(result), handle, indent=2)
                handle.write("\n")
    elif args.command == "store":
        if store is None:
            parser.error("the store command requires --store DIR (or $REPRO_STORE)")
        text = _store_text(args, store)
    elif args.command == "workers":
        if store is None:
            parser.error("the workers command requires --store DIR (or $REPRO_STORE)")
        text = (
            f"store {store.root} — "
            + format_workers_status(collect_workers_status(store, args.namespace))
        )
    elif args.command == "serve":
        from .server import ServerConfig, serve as run_server

        try:
            config = ServerConfig.from_env(
                host=args.host,
                port=args.port,
                store_root=str(store.root) if store is not None else None,
                backend=args.backend,
                job_workers=args.workers
                if (args.workers_explicit or args.workers > 1)
                else None,
            )
        except ValueError as error:
            parser.error(str(error))
        run_server(config, store=store)
        text = "server stopped"
    elif args.command == "compare":
        text = _compare_text(args)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return text
