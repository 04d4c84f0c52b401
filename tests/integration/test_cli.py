"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import APP_FACTORIES, build_parser, main, resolve_trace_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        # `run` is the checking command: every run is verified.
        args = build_parser().parse_args(["run", "stencil"])
        assert args.shards == 4 and args.backend == "threaded"
        assert args.steps == 3 and args.sync == "p2p"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nbody"])

    def test_removed_tier_flag_is_a_usage_error(self, capsys):
        # No deprecated alias: the one steady-state form takes no switch.
        with pytest.raises(SystemExit) as exc:
            main(["run", "stencil", "--jit", "off"])
        assert exc.value.code == 2
        assert "--jit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "stencil"],
        ["profile", "--app", "stencil"],
        ["run", "stencil", "--mode", "threaded"],
        ["run", "stencil", "--no-check"],
        ["run", "stencil", "--top-k", "3"],
        ["run", "stencil", "--prom", "p.prom"],
    ], ids=["verify", "profile", "mode", "no-check", "top-k", "prom"])
    def test_removed_command_is_a_usage_error(self, argv, capsys):
        # `run` is the one command that runs an app: it checks and
        # profiles every run, so nothing else is left to ask for.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestCommands:
    @pytest.mark.parametrize("app", sorted(APP_FACTORIES))
    def test_verify_each_app(self, app, capsys):
        rc = main(["run", app, "--tiles", "4", "--steps", "2",
                   "--shards", "2", "--backend", "stepped"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reference == sequential: OK" in out
        assert "MISMATCH" not in out and "FAIL" not in out
        assert "CR(2 shards, stepped, p2p)" in out
        assert "critical path" in out and "sync_wait" in out

    def test_verify_threaded_barrier(self, capsys):
        rc = main(["run", "circuit", "--steps", "2", "--backend", "threaded",
                   "--sync", "barrier"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_compile(self, capsys):
        rc = main(["compile", "stencil", "--steps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "before control replication" in out
        assert "must_epoch" in out

    def test_figure_small(self, capsys):
        rc = main(["figure", "9", "--max-nodes", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 9" in out

    def test_apps(self, capsys):
        rc = main(["apps"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in APP_FACTORIES:
            assert name in out

    def test_square_stencil_flag(self, capsys):
        rc = main(["run", "stencil", "--shape", "square", "--steps", "2",
                   "--size", "16"])
        assert rc == 0


class TestTracePathResolution:
    def test_fresh_path_unchanged(self, tmp_path):
        p = str(tmp_path / "t.json")
        assert resolve_trace_path(p) == p

    def test_existing_path_gets_run_index(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("{}")
        assert resolve_trace_path(str(p)) == str(tmp_path / "t.1.json")
        (tmp_path / "t.1.json").write_text("{}")
        assert resolve_trace_path(str(p)) == str(tmp_path / "t.2.json")

    def test_two_traced_runs_keep_both_files(self, tmp_path, capsys):
        """Regression: a second --trace run must not clobber the first."""
        p = tmp_path / "trace.json"
        for _ in range(2):
            rc = main(["run", "stencil", "--steps", "2", "--shards", "2",
                       "--trace", str(p)])
            assert rc == 0
        capsys.readouterr()
        assert p.exists() and (tmp_path / "trace.1.json").exists()
        first = json.loads(p.read_text())
        assert first["traceEvents"]


class TestMetricsFlag:
    def test_verify_writes_prometheus(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text
        out = tmp_path / "m.prom"
        rc = main(["run", "stencil", "--steps", "2", "--shards", "2",
                   "--metrics", str(out)])
        assert rc == 0
        capsys.readouterr()
        flat = parse_prometheus_text(out.read_text())
        assert any(k.startswith("spmd_tasks_total") for k in flat)
        assert any(k.startswith("compiler_pass_seconds_total") for k in flat)

    def test_run_writes_prometheus(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        rc = main(["run", "stencil", "--steps", "2", "--shards", "2",
                   "--backend", "stepped", "--metrics", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert "spmd_copies_total" in out.read_text()


class TestProfileCommand:
    """`run` prints the profile of the run it checked, from its rings."""

    def test_parser_defaults(self):
        # The profile is written only where an output path is given.
        args = build_parser().parse_args(["run", "stencil"])
        assert args.backend == "threaded"
        assert args.trace is args.metrics is args.json is None
        assert not hasattr(args, "top_k")

    def test_profile_stencil(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text
        json_out = tmp_path / "p.json"
        prom_out = tmp_path / "p.prom"
        rc = main(["run", "stencil", "--steps", "4", "--shards", "2",
                   "--backend", "threaded",
                   "--json", str(json_out), "--metrics", str(prom_out)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel efficiency" in out and "critical path" in out

        rep = json.loads(json_out.read_text())
        assert rep["app"] == "stencil" and rep["num_shards"] == 2
        # Acceptance: per-shard buckets sum within 2% of shard wall time.
        for sh in rep["shards"]:
            total = sum(sh["buckets"].values())
            assert total == pytest.approx(sh["wall_s"], rel=0.02)
        # Acceptance: a critical-path chain of named stmt uids.
        uids = [s["uid"] for s in rep["critical_path"]["steps"]]
        assert any(u is not None for u in uids)
        assert rep["parallel_efficiency"] is not None
        assert rep["replay"]["hits"] > 0

        # Acceptance: the report round-trips through the text exporter.
        flat = parse_prometheus_text(prom_out.read_text())
        assert flat["profile_parallel_efficiency"] == pytest.approx(
            rep["parallel_efficiency"])
        for sh in rep["shards"]:
            key = f'profile_shard_wall_seconds{{shard="{sh["shard"]}"}}'
            assert flat[key] == pytest.approx(sh["wall_s"])

    def test_profile_with_trace_output(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main(["run", "circuit", "--steps", "3", "--shards", "2",
                   "--json", str(tmp_path / "p.json"),
                   "--metrics", str(tmp_path / "p.prom"),
                   "--trace", str(trace)])
        assert rc == 0
        capsys.readouterr()
        assert json.loads(trace.read_text())["traceEvents"]

    def test_sequential_backend_prints_no_profile(self, capsys):
        rc = main(["run", "circuit", "--steps", "2",
                   "--backend", "sequential"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reference == sequential: OK" in out
        assert "critical path" not in out


class TestWrongAnswer:
    """`run` exits 1, naming what disagrees, when a state is wrong."""

    ARGV = ["run", "stencil", "--steps", "2", "--shards", "2",
            "--backend", "stepped"]

    def test_reference_mismatch_names_the_field(self, monkeypatch, capsys):
        from repro.apps.stencil import StencilProblem
        real = StencilProblem.reference_state

        def perturbed(self):
            ref = real(self)
            ref["out"] = ref["out"] + 1.0
            return ref
        monkeypatch.setattr(StencilProblem, "reference_state", perturbed)
        rc = main(self.ARGV)
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL sequential != reference on out" in out
        assert "reference == sequential: MISMATCH" in out

    def test_sequential_mismatch(self, monkeypatch, capsys):
        from repro.apps.stencil import StencilProblem
        real = StencilProblem.run_sequential

        def perturbed(self):
            state, scalars, ex = real(self)
            state["in"] = state["in"] + 1.0
            return state, scalars, ex
        monkeypatch.setattr(StencilProblem, "run_sequential", perturbed)
        rc = main(self.ARGV)
        out = capsys.readouterr().out
        assert rc == 1
        assert "MISMATCH vs sequential" in out
        assert "FAIL stepped != sequential on in" in out


class TestOutputPaths:
    """A bad output directory is refused before any work, not after."""

    ARGV = {"run": ["run", "stencil", "--steps", "2"],
            "compile": ["compile", "stencil"],
            "figure": ["figure", "9", "--max-nodes", "2"],
            "simulate": ["simulate", "stencil", "--nodes", "2"]}

    @pytest.mark.parametrize("command,flag", [
        ("run", "--trace"), ("run", "--metrics"), ("run", "--json"),
        ("compile", "--trace"),
        ("figure", "--trace"), ("figure", "--metrics"),
        ("simulate", "--trace"), ("simulate", "--metrics"),
    ])
    def test_missing_directory_exits_2_before_the_run(
            self, command, flag, tmp_path, monkeypatch, capsys):
        from repro.runtime import SPMDExecutor
        from repro.runtime.sequential import SequentialExecutor
        built = []
        for cls in (SPMDExecutor, SequentialExecutor):
            def spy(self, *a, _real=cls.__init__, **kw):
                built.append(type(self).__name__)
                _real(self, *a, **kw)
            monkeypatch.setattr(cls, "__init__", spy)
        path = tmp_path / "missing" / "out.file"
        rc = main(self.ARGV[command] + [flag, str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert flag in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert built == []
        assert not path.parent.exists()

    def test_sequential_backend_writes_no_outputs(self, tmp_path, capsys):
        rc = main(["run", "stencil", "--backend", "sequential",
                   "--metrics", str(tmp_path / "m.prom")])
        assert rc == 2
        assert "--metrics" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_shard(self, capsys):
        rc = main(["explain", "circuit", "--steps", "2", "--shards", "2",
                   "--shard", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shard 1 of 2" in out
        assert "channels:" in out

    def test_figure_csv(self, capsys):
        rc = main(["figure", "9", "--max-nodes", "2", "--csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("figure,series,nodes")
