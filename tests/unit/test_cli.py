"""Unit tests for the repro-sr command-line interface."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, _parser, main

SRC = Path(__file__).resolve().parents[2] / "src"


class TestCompileCommand:
    def test_feasible_compile(self, capsys):
        code = main([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out
        assert "switching commands" in out

    def test_infeasible_compile_exits_nonzero(self, capsys):
        code = main([
            "compile", "--topology", "torus8x8", "--bandwidth", "64",
            "--models", "5", "--load", "1.0",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "infeasible" in out


class TestCompileCacheAndBackend:
    def test_cache_dir_miss_then_hit(self, capsys, tmp_path):
        args = [
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "3", "--load", "0.5",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache: miss" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache: hit" in second
        # The replay reports the same schedule.
        assert [l for l in first.splitlines() if "feasible" in l] == [
            l for l in second.splitlines() if "feasible" in l
        ]

    def test_reference_backend_accepted(self, capsys):
        code = main([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "1", "--load", "0.4",
            "--lp-backend", "reference",
        ])
        assert code == 0
        assert "feasible" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "compile", "--topology", "hypercube6", "--load", "0.5",
                "--lp-backend", "glpk",
            ])


class TestMatrixCommand:
    def test_prints_matrix_with_stats(self, capsys, tmp_path):
        args = [
            "matrix", "--topologies", "hypercube6", "--bandwidths", "128",
            "--loads", "0.4", "0.5", "--models", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "SR feasibility matrix" in cold
        assert "jobs=1" in cold
        assert "0 hits / 2 misses" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "2 hits / 0 misses" in warm
        assert "hit rate 100.0%" in warm

    def test_jobs_flag_runs_parallel(self, capsys, tmp_path):
        code = main([
            "matrix", "--topologies", "hypercube6", "--bandwidths", "128",
            "--loads", "0.5", "--models", "1", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert "jobs=2" in capsys.readouterr().out


class TestUtilizationCommand:
    def test_prints_table(self, capsys):
        code = main([
            "utilization", "--topology", "hypercube6", "--bandwidth", "64",
            "--models", "5", "--loads", "0.4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "LSD->MSD" in out
        assert "AssignPaths" in out
        assert "0.4000" in out


class TestPipelineCommand:
    def test_prints_series(self, capsys):
        code = main([
            "pipeline", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--loads", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "WR thr" in out
        assert "SR status" in out


class TestExportAndGantt:
    def test_export_writes_loadable_schedule(self, capsys, tmp_path):
        target = tmp_path / "omega.json"
        code = main([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.5", "--export", str(target),
        ])
        assert code == 0
        assert "schedule written" in capsys.readouterr().out
        from repro.core.io import load_schedule

        loaded = load_schedule(target)
        assert loaded.num_commands > 0

    def test_gantt_prints_chart(self, capsys):
        code = main([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.5", "--gantt", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "switching schedule" in out
        assert "|" in out


class TestInspectCommand:
    def test_inspect_saved_schedule(self, capsys, tmp_path):
        target = tmp_path / "omega.json"
        main([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.5", "--export", str(target),
        ])
        capsys.readouterr()
        code = main([
            "inspect", str(target), "--gantt", "0", "--occupancy", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "re-validated on load" in out
        assert "switching schedule" in out
        assert "link occupancy" in out


class TestTopologyCommand:
    def test_prints_summaries(self, capsys):
        code = main(["topology"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hypercube6" in out
        assert "bisection" in out
        assert "torus8x8" in out


class TestFaultsCommand:
    def test_inject_repair_compare(self, capsys):
        code = main([
            "faults", "--topology", "6cube", "--models", "5",
            "--fail-links", "1", "--seed", "0",
            "--invocations", "16", "--warmup", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault trace" in out
        assert "repair strategy" in out
        assert "repair latency" in out
        assert "SR repaired jitter" in out
        assert "WR degraded" in out

    def test_topology_alias_matches_canonical(self, capsys):
        for name in ("6cube", "hypercube6"):
            code = main([
                "faults", "--topology", name, "--models", "5",
                "--fail-links", "1", "--seed", "0",
                "--invocations", "16", "--warmup", "4",
            ])
            assert code == 0
        outs = capsys.readouterr().out
        # Identical seed + workload: the alias run reproduces the trace.
        lines = [
            line for line in outs.splitlines()
            if line.startswith("fault trace")
        ]
        assert len(lines) == 2 and lines[0] == lines[1]


class TestTraceCommand:
    def test_sr_trace_emits_profile_and_chrome_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "trace.json"
        code = main([
            "trace", "--mode", "sr", "--topology", "hypercube6",
            "--models", "5", "--load", "0.5", "--invocations", "8",
            "--warmup", "4", "--out", str(target), "--chart", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "compile profile" in out
        assert "assign-paths" in out
        assert "OI=False" in out
        assert "traced link occupancy" in out
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]
        phases = {record["ph"] for record in doc["traceEvents"]}
        assert {"M", "X"} <= phases
        cats = {record.get("cat") for record in doc["traceEvents"]}
        assert {"compile", "link", "crossbar"} <= cats

    def test_wr_trace_runs_wormhole(self, capsys, tmp_path):
        import json

        target = tmp_path / "trace.json"
        code = main([
            "trace", "--mode", "wr", "--topology", "hypercube6",
            "--models", "5", "--load", "0.5", "--invocations", "8",
            "--warmup", "4", "--out", str(target), "--chart", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "WR run" in out
        assert "compile profile" not in out
        # Link owners are (message, invocation) flights: shown by name.
        chart = out[out.index("traced link occupancy"):].splitlines()[1:6]
        assert len(chart) == 5 and all("  [" in row for row in chart)
        assert "(" not in "".join(row.split("|")[-1] for row in chart)
        doc = json.loads(target.read_text())
        cats = {record.get("cat") for record in doc["traceEvents"]}
        assert "flight" in cats and "compile" not in cats


class TestCrossbarTracing:
    def test_sr_trace_draws_one_frame_of_omega(self, monkeypatch, tmp_path):
        """``trace --mode sr`` renders each switching command of the
        compiled Ω as one ``switch`` span on its node's ``CP<node>``
        track, naming the message and both ports."""
        import json

        import repro.core.compiler as compiler

        compiled = []
        compile_schedule = compiler.compile_schedule

        def spy(*args, **kwargs):
            compiled.append(compile_schedule(*args, **kwargs))
            return compiled[-1]

        monkeypatch.setattr(compiler, "compile_schedule", spy)
        target = tmp_path / "trace.json"
        assert main([
            "trace", "--mode", "sr", "--topology", "hypercube6",
            "--models", "5", "--load", "0.5", "--invocations", "8",
            "--warmup", "4", "--out", str(target),
        ]) == 0
        (routing,) = compiled
        events = json.loads(target.read_text())["traceEvents"]
        tracks = {
            e["tid"]: e["args"]["name"] for e in events
            if e["name"] == "thread_name"
        }
        switches = sorted(
            (tracks[e["tid"]], e["args"]["message"], e["args"]["input"],
             e["args"]["output"])
            for e in events if e.get("cat") == "crossbar"
        )
        assert {e["name"] for e in events if e.get("cat") == "crossbar"} == {
            "switch"
        }
        assert switches == sorted(
            (f"CP{node}", c.message, str(c.input_port), str(c.output_port))
            for node, ns in routing.schedule.node_schedules.items()
            for c in ns.commands
        )


class TestAllocatorOption:
    def test_random_allocator_is_seed_reproducible(self, capsys):
        args = [
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.4", "--allocator", "random",
        ]
        code_a = main(args + ["--seed", "3"])
        out_a = capsys.readouterr().out
        code_b = main(args + ["--seed", "3"])
        out_b = capsys.readouterr().out
        assert code_a == code_b
        assert out_a == out_b

    def test_random_allocator_seed_changes_placement(self):
        from repro.cli import _spec
        import argparse

        placements = []
        for seed in (0, 1):
            ns = argparse.Namespace(
                topology="6cube", bandwidth=64.0, models=5,
                allocator="random", seed=seed,
            )
            placements.append(_spec(ns).build().allocation)
        assert placements[0] != placements[1]

    def test_bfs_allocator_accepted(self, capsys):
        code = main([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.5", "--allocator", "bfs",
        ])
        assert code in (0, 1)  # placement may change feasibility
        assert capsys.readouterr().out  # but it must report either way


class TestArgumentValidation:
    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "--topology", "ring", "--load", "0.5"])

    def test_unknown_allocator_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "--allocator", "oracle", "--load", "0.5"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        ("flags", "message"),
        [  # the command, then its flags
            (["compile", "--models", "0"], "models must be >= 1, got 0"),
            (["compile", "--bandwidth", "-1"],
             "bandwidth must be > 0, got -1.0"),
            (["compile", "--load", "0"],
             "normalized load must be in (0, 1], got 0.0"),
            (["compile", "--load", "-0.5"],
             "normalized load must be in (0, 1], got -0.5"),
            (["compile", "--bandwidth", "inf"],
             "bandwidth must be finite, got inf"),
            (["compile", "--bandwidth", "16"], "bandwidth must be >= 64 (the "
             "calibration bandwidth), got 16.0"),
            (["compile", "--bandwidth", "63.99"], "bandwidth must be >= 64 "
             "(the calibration bandwidth), got 63.99"),
            (["matrix", "--loads", "nan"],
             "normalized load must be in (0, 1], got nan"),
            (["matrix", "--loads", "1.5"],
             "normalized load must be in (0, 1], got 1.5"),
            (["matrix", "--bandwidths", "16"], "bandwidth must be >= 64 (the "
             "calibration bandwidth), got 16.0"),
            (["matrix", "--bandwidths", "-5"],
             "bandwidth must be > 0, got -5.0"),
            (["matrix", "--bandwidths", "nan"],
             "bandwidth must be > 0, got nan"),
            (["matrix", "--bandwidths", "inf"],
             "bandwidth must be finite, got inf"),
            (["matrix", "--models", "-3"], "models must be >= 1, got -3"),
            (["utilization", "--loads", "nan"],
             "normalized load must be in (0, 1], got nan"),
            (["pipeline", "--loads", "nan"],
             "normalized load must be in (0, 1], got nan"),
            (["trace", "--mode", "sr", "--invocations", "0"],
             "need >= 4 measured invocations, got 0 with warmup=4"),
            (["trace", "--mode", "wr", "--invocations", "2", "--warmup", "0"],
             "need >= 4 measured invocations, got 2 with warmup=0"),
            (["trace", "--mode", "sr", "--invocations", "3", "--warmup", "-2"],
             "warmup must be >= 0, got -2"),
            (["faults", "--load", "1.5"],
             "normalized load must be in (0, 1], got 1.5"),
            (["faults", "--warmup", "-1"], "warmup must be >= 0, got -1"),
            (["faults", "--invocations", "6"],
             "need >= 4 measured invocations, got 6 with warmup=8"),
            (["compile", "--gantt", "64"],
             "--gantt 64 is not a node of hypercube6 (nodes 0-63)"),
            (["compile", "--topology", "8x8torus", "--gantt", "70"],
             "--gantt 70 is not a node of 8x8torus (nodes 0-63)"),
            (["compile", "--gantt", "-1"],
             "argument --gantt: must be >= 0, got -1"),
            (["inspect", "omega.json", "--gantt", "-1"],
             "argument --gantt: must be >= 0, got -1"),
        ],
    )
    def test_invalid_instance_is_a_usage_error(self, capsys, flags, message):
        """Exit 2 and one ``error:`` line, not a traceback with the exit
        code (1) that ``compile`` uses for an unschedulable instance."""
        with pytest.raises(SystemExit) as stop:
            main(flags)
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"repro-sr {flags[0]}: error: {message}"
        )

    @pytest.mark.parametrize(
        ("flags", "culprit"),
        [
            (["compile", "--export", "missing/omega.json"],
             "missing is not a directory"),
            (["compile", "--export", "file/omega.json"],
             "file is not a directory"),
            (["compile", "--export", "."], "a directory"),
            (["compile", "--cache-dir", "file/cache"],
             "file is not a directory"),
            (["compile", "--cache-dir", "file"], "file is not a directory"),
            (["matrix", "--topologies", "hypercube6", "--bandwidths", "128",
              "--loads", "0.5", "--models", "1", "--cache-dir", "file/c"],
             "file is not a directory"),
            (["diagnose", "--cache-dir", "file/cache"],
             "file is not a directory"),
            (["serve", "--port", "0", "--workers", "0",
              "--cache-dir", "file/cache"], "file is not a directory"),
            (["trace", "--out", "missing/t.json"],
             "missing is not a directory"),
            (["trace", "--out", "."], "a directory"),
            (["check", "SCHEDULE", "--trace", "missing/f.json"],
             "missing is not a directory"),
            (["fuzz", "--count", "1", "--out", "file/reproducers"],
             "file is not a directory"),
            (["fuzz", "--count", "1", "--out", "file"],
             "file is not a directory"),
        ],
    )
    def test_unwritable_output_path_is_a_usage_error(
        self, capsys, tmp_path, tmp_path_factory, monkeypatch, flags, culprit
    ):
        """Found before any work is done: exit 2, one ``error:`` line
        naming the path, nothing written -- not a traceback after the
        compile with the exit code (1) of "infeasible", nor after the
        trace or the analysis, nor a fuzz run that had nowhere to put a
        reproducer."""
        if "SCHEDULE" in flags:
            schedule = tmp_path_factory.mktemp("schedule") / "s.json"
            assert main([
                "compile", "--bandwidth", "128", "--models", "3",
                "--export", str(schedule),
            ]) == 0
            capsys.readouterr()
            flags = [str(schedule) if f == "SCHEDULE" else f for f in flags]
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("")
        if flags[0] == "compile":
            flags = [*flags, "--bandwidth", "128", "--models", "3"]
        option = next(flag for flag in flags if flag in (
            "--export", "--cache-dir", "--out", "--trace"))
        path = flags[flags.index(option) + 1]
        with pytest.raises(SystemExit) as stop:
            main(flags)
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        verb = "use" if option == "--cache-dir" or flags[0] == "fuzz" else "write"
        assert captured.err.splitlines()[-1] == (
            f"repro-sr {flags[0]}: error: cannot {verb} {option} {path}: "
            f"{culprit}"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert Path("file").read_text() == ""

    @pytest.mark.parametrize("command", ["diagnose", "trace", "submit"])
    def test_every_common_argument_command_rejects_it(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--models", "0"])
        assert stop.value.code == 2
        assert "models must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "inspect"])
    @pytest.mark.parametrize(
        "content", [None, "not json", '{"a": 1}'],
        ids=["absent", "garbage", "wrong-json"],
    )
    def test_unreadable_schedule_exits_2(
        self, capsys, tmp_path, command, content
    ):
        target = tmp_path / "omega.json"
        if content is not None:
            target.write_text(content)
        with pytest.raises(SystemExit) as stop:
            main([command, str(target)])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            f"repro-sr {command}: error: cannot read schedule {target}: "
        )

    def test_submit_without_a_farm_exits_2(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(SystemExit) as stop:
            main(["submit", "--port", str(port)])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"repro-sr submit: error: no compile farm at 127.0.0.1:{port}: "
        )

    def test_infeasible_instance_still_exits_one(self, capsys):
        code = main(["compile", "--bandwidth", "64", "--load", "0.99"])
        assert code == 1
        assert capsys.readouterr().out.startswith("infeasible at load 0.99")

    def test_the_calibration_bandwidth_gets_a_verdict(self, capsys):
        """B = 64 is the lowest bandwidth whose longest message fits the
        task-time window: a verdict (here U > 1), not a usage error."""
        code = main([
            "compile", "--topology", "hypercube6", "--models", "5",
            "--load", "0.5", "--bandwidth", "64",
        ])
        assert code == 1
        assert capsys.readouterr().out.startswith(
            "infeasible at load 0.5: peak utilisation 1.4800 > 1"
        )


class TestCacheDirTilde:
    """``--cache-dir=~/x`` reaches the program unexpanded (so does a
    quoted or Makefile-spelled one); it must not create ``./~``."""

    def test_compile_and_matrix_write_under_home(
        self, capsys, tmp_path, monkeypatch
    ):
        home, cwd = tmp_path / "home", tmp_path / "cwd"
        home.mkdir()
        cwd.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(cwd)
        point = ["--bandwidth", "128", "--models", "3"]
        assert main(["compile", *point, "--cache-dir=~/c"]) == 0
        # The line echoes the directory as typed.
        assert "cache: miss (~/c)" in capsys.readouterr().out
        assert main(["compile", *point, "--cache-dir=~/c"]) == 0
        assert "cache: hit (~/c)" in capsys.readouterr().out
        assert main([
            "matrix", "--topologies", "hypercube6", "--bandwidths", "128",
            "--loads", "0.5", "--models", "1", "--cache-dir=~/m",
        ]) == 0
        assert list((home / "c").rglob("*.json"))
        assert (home / "m" / "cache-stats.json").exists()
        assert list(cwd.iterdir()) == []


#: What ``main`` answers without running a command: every ``--help``, one
#: bad flag per command, an unknown command, none at all.
PARSE_ONLY = [
    ["--help"], [], ["no-such-command"], ["--no-such-flag", "compile"],
    *([command, "--help"] for command in COMMANDS),
    *([command, "--no-such-flag"] for command in COMMANDS),
]


@pytest.mark.parametrize(
    "argv", PARSE_ONLY, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_the_parser_main_builds_says_what_the_full_one_does(capsys, argv):
    """``main`` builds the subparser of the command it runs only; its help
    and usage errors are the full parser's, byte for byte."""
    def answer(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        return stop.value.code, capsys.readouterr()

    assert answer(main) == answer(_parser(COMMANDS).parse_args)


class TestOneShotProcess:
    ARGV = ["compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--models", "5", "--load", "0.5", "--export", "omega.json"]

    @staticmethod
    def child(argv, **kwargs):
        paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            **kwargs,
        )

    def test_a_process_prints_and_writes_what_main_does(
        self, capsys, tmp_path, monkeypatch
    ):
        alone, here = tmp_path / "alone", tmp_path / "here"
        alone.mkdir()
        here.mkdir()
        done = self.child(["-m", "repro.cli", *self.ARGV], cwd=alone)
        monkeypatch.chdir(here)
        code = main(self.ARGV)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, capsys.readouterr().out, "")
        assert code == 0
        assert (alone / "omega.json").read_bytes() == (
            here / "omega.json").read_bytes()

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        assert main(["topology"]) == 0
        assert gc.get_freeze_count() == 0

    def test_the_process_entry_freezes_it_after_main(self):
        done = self.child(["-c", """
import gc, sys
import repro.cli
sys.argv = ["repro-sr", "topology"]
try:
    repro.cli.run()
except SystemExit as stop:
    print(stop.code, gc.get_freeze_count() > 0)
"""])
        assert done.stdout.splitlines()[-1] == "0 True", done.stderr
