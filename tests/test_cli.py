"""Tests for the ``python -m repro`` command-line interface.

The fast subcommands are exercised directly; the heavyweight ``report``
command is run end to end through ``main()`` with a restricted Fig. 6 sweep
and a small robustness trial count so its ``--arrays``/``--trials``/``--json``
plumbing stays covered without dominating the suite's runtime.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "fig6", "fig7", "fig8", "fig9", "report",
                        "robustness", "layer_families", "compare"):
            args = parser.parse_args([command] if command != "compare" else ["compare"])
            assert args.command == command

    def test_robustness_defaults(self):
        args = build_parser().parse_args(["robustness"])
        assert args.scenarios is None
        assert args.trials == 8 and args.array == 64

    def test_robustness_invalid_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness", "--scenarios", "not_a_scenario"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.network == "resnet20" and args.array == 64

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--network", "vgg"])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["compare", "--rank-divisor", "0"], "--rank-divisor"),
            (["compare", "--rank-divisor", "-2"], "--rank-divisor"),
            (["compare", "--groups", "0"], "--groups"),
            (["compare", "--entries", "0"], "--entries"),
            (["compare", "--entries", "12"], "--entries"),
            (["report", "--trials", "0"], "--trials"),
            (["robustness", "--trials", "0"], "--trials"),
            (["layer_families", "--trials", "-1"], "--trials"),
            (["report", "--arrays", "64", "0"], "--arrays"),
            (["report", "--workers", "0"], "--workers"),
            (["robustness", "--workers", "-5"], "--workers"),
            (["layer_families", "--workers", "0"], "--workers"),
            (["serve", "--port", "70000"], "--port"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, flag, capsys):
        """Range errors exit 2 with a usage message before any work starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: must be" in captured.err
        assert captured.out == ""


class TestExecution:
    def test_compare_command_prints_table(self, capsys):
        exit_code = main(["compare", "--network", "resnet20", "--array", "64"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "im2col" in captured and "ours" in captured and "speedup" in captured

    def test_fig8_command(self, capsys):
        exit_code = main(["fig8"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 8" in captured and "DoReFa" in captured

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "compare.txt"
        exit_code = main(["--output", str(target), "compare"])
        capsys.readouterr()
        assert exit_code == 0
        assert target.exists()
        assert "speedup" in target.read_text()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--output", "{missing}/out.txt", "fig8"], "--output"),
            (["--output", "{tmp}", "table1"], "--output"),
            (["report", "--json", "{missing}/x.json"], "--json"),
            (["robustness", "--json", "{tmp}"], "--json"),
            (["layer_families", "--json", "{missing}/x.json"], "--json"),
        ],
    )
    def test_unwritable_output_path_is_a_usage_error_before_the_run(
        self, argv, flag, tmp_path, capsys, monkeypatch
    ):
        from repro.engine.sweep import ExperimentSpec

        def no_run(*args, **kwargs):
            raise AssertionError("the run must not start")

        monkeypatch.setattr(ExperimentSpec, "run", no_run)
        paths = {"tmp": str(tmp_path), "missing": str(tmp_path / "missing")}
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(**paths) for arg in argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}:" in captured.err
        assert captured.out == ""

    def test_robustness_command_prints_tables(self, capsys):
        exit_code = main(
            [
                "robustness",
                "--trials", "2",
                "--networks", "resnet20",
                "--scenarios", "ideal", "typical_rram",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Robustness — resnet20" in captured
        assert "typical_rram" in captured
        assert "group_lowrank" in captured

    def test_robustness_jobs_and_json(self, tmp_path, capsys):
        target = tmp_path / "robustness.json"
        exit_code = main(
            [
                "robustness",
                "--trials", "2",
                "--networks", "resnet20",
                "--scenarios", "ideal", "faulty",
                "--json", str(target),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(target.read_text())
        assert document["trials"] == 2
        assert document["scenarios"] == ["ideal", "faulty"]
        assert len(document["points"]) == 2 * 3  # scenarios × mappings

    def test_layer_families_command_prints_table(self, capsys):
        exit_code = main(
            [
                "layer_families",
                "--trials", "2",
                "--scenarios", "ideal", "typical_rram",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Layer families — mapping efficiency" in captured
        assert "depthwise" in captured and "attention" in captured

    def test_layer_families_families_and_json(self, tmp_path, capsys):
        target = tmp_path / "layer_families.json"
        exit_code = main(
            [
                "layer_families",
                "--trials", "2",
                "--families", "conv", "depthwise",
                "--scenarios", "ideal", "faulty",
                "--json", str(target),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(target.read_text())
        assert document["trials"] == 2
        assert document["families"] == ["conv", "depthwise"]
        assert len(document["points"]) == 2 * 2  # families × scenarios

    def test_report_end_to_end_with_arrays_jobs_json(self, tmp_path, capsys):
        """`report --arrays/--trials/--json` through main(), restricted to stay fast."""
        target = tmp_path / "report.json"
        exit_code = main(
            [
                "report",
                "--arrays", "32",
                "--trials", "2",
                "--json", str(target),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Reproduction report" in captured
        assert "Robustness —" in captured
        document = json.loads(target.read_text())
        assert set(document["experiments"]) == {
            "table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families",
        }
        assert document["headline"]
        # --arrays restricted the Fig. 6 sweep to the requested sizes.
        panels = document["experiments"]["fig6"]["result"]["panels"]
        assert {panel["array_size"] for panel in panels} == {32}


class TestStoreCli:
    """The persistent-store surface: --store plumbing and the store subcommand."""

    def test_store_parser_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.store == "" and args.shard == ""

    def test_store_action_choices(self):
        for action in ("ls", "gc", "clear"):
            args = build_parser().parse_args(["--store", "/tmp/s", "store", action])
            assert args.command == "store" and args.action == action
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--store", "/tmp/s", "store", "nuke"])

    def test_store_command_requires_a_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit):
            main(["store", "ls"])
        capsys.readouterr()

    def test_store_ls_gc_clear_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["--store", store_dir, "fig9"]) == 0
        capsys.readouterr()

        assert main(["--store", store_dir, "store", "ls"]) == 0
        listing = capsys.readouterr().out
        assert "fig9/panel" in listing and "artifacts" in listing

        assert main(["--store", store_dir, "store", "gc"]) == 0
        assert "removed 0" in capsys.readouterr().out

        assert main(["--store", store_dir, "store", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out

        assert main(["--store", store_dir, "store", "ls"]) == 0
        assert "0 artifacts" in capsys.readouterr().out

    def test_store_gc_reports_pruned_heartbeats(self, tmp_path, capsys):
        import json
        import time

        from repro.store import LeaseBoard

        store_dir = tmp_path / "store"
        board = LeaseBoard(store_dir, "crashed-run")
        board.beat("worker-0")
        record_path = board.heartbeat_path("worker-0")
        record = json.loads(record_path.read_text())
        record["beat"] = time.time() - 3600.0
        record_path.write_text(json.dumps(record))

        assert main(["--store", str(store_dir), "store", "gc"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale worker heartbeats" in out

    def test_store_env_var_is_the_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        assert main(["fig9"]) == 0
        capsys.readouterr()
        assert (tmp_path / "env-store").exists()
        assert main(["store", "ls"]) == 0
        assert "fig9/panel" in capsys.readouterr().out

    def test_single_figure_commands_reuse_the_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["--store", store_dir, "fig9"]) == 0
        first = capsys.readouterr().out
        mtimes = {
            p: p.stat().st_mtime_ns for p in (tmp_path / "store").rglob("*.json")
        }
        assert main(["--store", store_dir, "fig9"]) == 0
        second = capsys.readouterr().out
        assert second == first
        assert {
            p: p.stat().st_mtime_ns for p in (tmp_path / "store").rglob("*.json")
        } == mtimes


class TestBackendsCli:
    """``repro backends``: the availability listing and --backend failures."""

    def test_backends_lists_every_registered_backend(self, capsys):
        exit_code = main(["backends"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in ("numpy64", "numpy32", "threaded", "compiled"):
            assert name in out
        assert "registered execution backends" in out
        assert "bit-identical" in out and "tolerance envelope" in out

    def test_backends_reports_unavailable_with_reason(self, capsys, without_numba):
        exit_code = main(["backends"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "unavailable: " in out and "numba" in out

    def test_backends_survives_a_broken_selected_backend(self, capsys, monkeypatch, without_numba):
        """The listing is the diagnostic tool, so it must work even when the
        environment selects the very backend that cannot load."""
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        exit_code = main(["backends"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "(default: compiled)" in out

    def test_backends_output_file(self, tmp_path, capsys):
        target = tmp_path / "backends.txt"
        exit_code = main(["--output", str(target), "backends"])
        capsys.readouterr()
        assert exit_code == 0
        assert "compiled" in target.read_text()

    def test_unavailable_backend_flag_rejected_with_hint(self, capsys, without_numba):
        with pytest.raises(SystemExit):
            main(["--backend", "compiled", "table1"])
        err = capsys.readouterr().err
        assert "unavailable" in err and "repro[compiled]" in err

    def test_unavailable_env_backend_rejected_with_hint(self, capsys, monkeypatch, without_numba):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        with pytest.raises(SystemExit):
            main(["table1"])
        err = capsys.readouterr().err
        assert "repro[compiled]" in err

    def test_compiled_backend_parses(self):
        assert build_parser().parse_args(["--backend", "compiled", "table1"]).backend == "compiled"


class TestWorkersCli:
    """The global --workers flag: validation, placement, shard interplay."""

    def test_workers_accepted_globally_and_after_subcommand(self):
        parser = build_parser()
        assert parser.parse_args(["--workers", "4", "report"]).workers == 4
        assert parser.parse_args(["report", "--workers", "4"]).workers == 4
        # The subcommand-position flag must not clobber the global one.
        assert parser.parse_args(["--workers", "4", "robustness"]).workers == 4

    def test_workers_zero_rejected_eagerly(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workers", "0", "table1"])
        assert ">= 1" in capsys.readouterr().err

    def test_invalid_env_workers_rejected_eagerly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(SystemExit):
            main(["table1"])
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_shard_with_workers_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "--store", str(tmp_path / "s"), "--workers", "2",
                "report", "--shard", "1/2",
            ])
        assert "--workers" in capsys.readouterr().err


class TestWorkersStatusCli:
    """End-to-end coverage of ``repro workers status``."""

    def _seed_namespace(self, store_dir):
        from repro.store.leases import LeaseBoard

        board = LeaseBoard(store_dir, "report")
        board.write_plan({
            "names": ["fig6", "fig7"],
            "nshards": 4,
            "backend": "numpy",
            "workers": 2,
        })
        assert board.claim(0, "worker-0")
        assert board.claim(2, "worker-1")
        board.mark_done(1, "worker-0")
        board.beat("worker-0", shards=[1], computed=3, stolen=0)
        board.beat("worker-1", shards=[], computed=0, stolen=1)
        return board

    def test_status_renders_leases_heartbeats_and_progress(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        self._seed_namespace(store_dir)
        assert main(["--store", store_dir, "workers", "status"]) == 0
        out = capsys.readouterr().out
        assert "namespace report" in out
        assert "plan:" in out and "backend numpy" in out and "workers 2" in out
        assert "shard   0" in out and "worker-0" in out
        assert "shard   2" in out and "worker-1" in out
        assert "1/4 shards done" in out
        assert "heartbeat" in out

    def test_status_namespace_filter(self, tmp_path, capsys):
        from repro.store.leases import LeaseBoard

        store_dir = str(tmp_path / "store")
        self._seed_namespace(store_dir)
        other = LeaseBoard(store_dir, "fig9")
        assert other.claim(0, "solo")
        assert main(["--store", store_dir, "workers", "status", "--namespace", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "namespace fig9" in out
        assert "namespace report" not in out

    def test_status_with_no_lease_state(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["--store", store_dir, "workers", "status"]) == 0
        assert "no active lease namespaces" in capsys.readouterr().out

    def test_status_requires_a_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit):
            main(["workers", "status"])
        assert "--store" in capsys.readouterr().err
