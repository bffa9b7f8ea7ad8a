"""CLI tests (direct main() invocation, small problem sizes)."""

import argparse
import ast
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SMALL = ["--procs", "4", "--scale", "0.2"]


class TestRun:
    def test_run_app(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "MP3D", *SMALL,
                            "--scheme", "Dir3CV2", "--check")
        assert code == 0
        assert "execution time" in out
        assert "invalidation events" in out

    def test_run_with_histogram(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "LU", *SMALL,
                            "--histogram")
        assert code == 0
        assert "invalidation distribution" in out

    def test_run_sparse(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "DWF", *SMALL,
                            "--l2-bytes", "512", "--sparse", "0.5")
        assert code == 0
        assert "sparse replacements" in out

    def test_run_with_faults(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "MP3D", *SMALL,
                            "--faults", "7", "--check")
        assert code == 0
        assert "faults injected" in out
        assert "invariant violations" not in out  # zero stays silent

    def test_run_strict(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "LU", *SMALL,
                            "--strict", "--faults", "7")
        assert code == 0
        assert "request retries" in out

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "NoSuchApp", *SMALL])


class TestErrorPolicy:
    """Every subcommand shares ``main``'s one error policy: an OSError or
    ValueError ends in ``error: ...`` on stderr and exit 2, not a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "--app", "LU", *SMALL, "--scheme", "Dir3QQ"],
        ["sweep", "--app", "LU", *SMALL, "--axis", "scheme=Dir3QQ",
         "--no-cache"],
        ["obs", "trace", "--app", "LU", *SMALL, "--scheme", "Dir3QQ",
         "--out", "unused.json"],
    ], ids=["run", "sweep", "obs"])
    def test_unknown_scheme_exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Dir3QQ" in err
        assert "Traceback" not in err

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "missing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err
        assert "Traceback" not in err


class TestOneTree:
    """One argparse tree: ``repro.cli`` alone builds a parser and has a
    ``main``; ``obs`` and ``verify`` are groups in it."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def test_top_level_subcommands(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [
            "run", "sweep", "ckpt", "dump-trace", "replay", "profile",
            "obs", "verify",
        ]
        groups = {name: list(next(
            a for a in sub.choices[name]._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices) for name in ("obs", "verify")}
        assert groups == {
            "obs": ["trace", "summarize", "diff", "critical-path"],
            "verify": ["check", "conform", "lint"],
        }

    def test_one_parser_one_main_one_entry_module(self):
        builders = []
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "ArgumentParser"):
                    builders.append(path.relative_to(self.SRC).as_posix())
        assert builders == ["cli.py"]
        mains = [p.relative_to(self.SRC).as_posix()
                 for p in self.SRC.rglob("__main__.py")]
        assert mains == ["__main__.py"]
        for group in ("obs/cli.py", "verify/cli.py"):
            tree = ast.parse((self.SRC / group).read_text())
            defined = {n.name for n in tree.body
                       if isinstance(n, ast.FunctionDef)}
            assert "main" not in defined and "build_parser" not in defined
            assert "add_commands" in defined


class TestTraceRoundtrip:
    def test_dump_then_replay(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        code, out = run_cli(capsys, "dump-trace", "--app", "MP3D", *SMALL,
                            "--out", str(trace))
        assert code == 0
        assert trace.exists()
        code, out = run_cli(capsys, "replay", "--trace", str(trace),
                            "--scheme", "Dir2B")
        assert code == 0
        assert "replayed" in out


class TestSweep:
    def test_basic_grid(self, capsys):
        code, out = run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                            "--axis", "scheme=full,Dir2B", "--no-cache")
        assert code == 0
        assert "2 grid points" in out
        assert "full" in out and "Dir2B" in out
        assert "exec_time" in out

    def test_two_axes_parallel(self, capsys):
        code, out = run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                            "--axis", "scheme=full,Dir2B",
                            "--axis", "sparse_size_factor=none,1.0",
                            "--jobs", "2", "--no-cache")
        assert code == 0
        assert "4 grid points" in out
        assert "jobs=2" in out

    def test_parallel_output_matches_serial(self, capsys):
        argv = ["sweep", "--app", "MP3D", *SMALL,
                "--axis", "scheme=full,Dir1NB", "--no-cache"]
        _, serial = run_cli(capsys, *argv)
        _, parallel = run_cli(capsys, *argv, "--jobs", "2")
        strip = lambda s: s.split("):", 1)[1]  # noqa: E731 - drop jobs= line
        assert strip(parallel) == strip(serial)

    def test_cache_warm_rerun(self, capsys, tmp_path):
        argv = ["sweep", "--app", "MP3D", *SMALL,
                "--axis", "scheme=full,Dir2B",
                "--cache-dir", str(tmp_path)]
        _, cold = run_cli(capsys, *argv)
        assert "2 misses" in cold and "2 stored" in cold
        _, warm = run_cli(capsys, *argv)
        assert "2 hits" in warm and "0 misses" in warm

    def test_progress_in_grid_order(self, capsys):
        code, out = run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                            "--axis", "scheme=full,Dir2B",
                            "--jobs", "2", "--no-cache", "--progress")
        assert code == 0
        first = out.index("[1/2] scheme=full")
        second = out.index("[2/2] scheme=Dir2B")
        assert first < second

    def test_chaos_run_with_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "report.json"
        code, out = run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                            "--axis", "scheme=full,Dir2B", "--jobs", "2",
                            "--no-cache", "--chaos", "3",
                            # seed 3 draws one hang: don't wait out the 30 s
                            # default for a point that simulates in well under 1 s
                            "--timeout", "2",
                            "--report", str(report))
        assert code == 0
        assert "sweep report:" in out
        record = json.loads(report.read_text())
        assert record["schema"] == 1
        assert record["counts"]["completed"] == 2

    def test_chaos_output_matches_clean_run(self, capsys):
        argv = ["sweep", "--app", "MP3D", *SMALL,
                "--axis", "scheme=full,Dir1NB", "--no-cache"]
        _, clean = run_cli(capsys, *argv)
        _, chaotic = run_cli(capsys, *argv, "--jobs", "2", "--chaos", "5")
        strip = lambda s: s.split("):", 1)[1]  # noqa: E731 - drop jobs= line
        # the table (everything before the report line) is byte-identical
        table = strip(chaotic).split("\n[sweep")[0].rstrip("\n")
        assert table == strip(clean).rstrip("\n")

    def test_keep_going_quarantines_poison_point(self, capsys):
        code, out = run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                            "--axis", "scheme=full,no-such-scheme",
                            "--no-cache", "--keep-going", "--retries", "0")
        assert code == 0
        assert "1 quarantined" in out
        assert "quarantined [1] scheme=no-such-scheme" in out

    def test_resume_requires_cache(self, capsys):
        with pytest.raises(SystemExit, match="--resume needs a result cache"):
            run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                    "--axis", "scheme=full", "--no-cache", "--resume")

    def test_resume_reports_prior_points(self, capsys, tmp_path):
        argv = ["sweep", "--app", "MP3D", *SMALL,
                "--axis", "scheme=full,Dir2B", "--cache-dir", str(tmp_path)]
        run_cli(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--resume")
        assert code == 0
        assert "resuming sweep" in out
        assert "2/2 points done, 0 pending" in out
        assert "2 hits" in out

    def test_resume_summary_is_what_cache_and_checkpoints_hold(
        self, capsys, tmp_path
    ):
        """An interrupted, checkpointed sweep leaves results in the cache
        and snapshots in its checkpoint directory; `--resume` reads its
        summary off those two and nothing else is written."""
        from repro.analysis.supervisor import ChaosPlan

        # chaos seed 48 at midkill 0.3: point 0 clean, point 1 SIGKILLed
        # after its first snapshot, point 2 fails before simulating
        plan = ChaosPlan(seed=48, midkill=0.3)
        assert [plan.action(i) for i in range(3)] == [None, "midkill", "fail"]
        argv = ["sweep", "--app", "MP3D", *SMALL, "--jobs", "2",
                "--axis", "scheme=full,Dir2B,Dir1NB",
                "--cache-dir", str(tmp_path), "--ckpt-interval", "100"]
        code, out = run_cli(capsys, *argv, "--chaos", "48",
                            "--chaos-midkill", "0.3", "--retries", "0",
                            "--keep-going")
        assert code == 0 and "1 completed, 2 quarantined" in out

        def held():
            snapshots = sorted(
                p.name for p in tmp_path.glob("checkpoints/*/*.ckpt")
            )
            return len(list(tmp_path.glob("??/*.json"))), snapshots

        assert held() == (1, ["point00001.ckpt"])
        code, out = run_cli(capsys, *argv, "--resume")
        assert code == 0
        assert ("1/3 points done, 2 pending "
                "(1 resumable from mid-run checkpoints)") in out
        assert "1 resumed from checkpoint (100 events saved)" in out
        assert held() == (3, [])
        assert not (tmp_path / "manifests").exists()

    def test_bad_axis_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                    "--axis", "schemefull", "--no-cache")

    def test_unknown_field_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                    "--axis", "no_such_field=1,2", "--no-cache")


class TestProfile:
    def test_profile_prints_pstats_report(self, capsys):
        code, out = run_cli(capsys, "profile", "--app", "MP3D", *SMALL,
                            "--top", "5")
        assert code == 0
        assert "events" in out
        assert "cumtime" in out  # the pstats header
        assert "events.py" in out  # the kernel shows up in any profile

    def test_profile_event_cap_and_dump(self, capsys, tmp_path):
        out_path = tmp_path / "profile.pstats"
        code, out = run_cli(capsys, "profile", "--app", "MP3D", *SMALL,
                            "--events", "50", "--sort", "cumtime",
                            "--out", str(out_path))
        assert code == 0
        assert "50 events" in out  # the cap bound the run
        assert out_path.is_file()


class TestCkpt:
    def _write(self, capsys, tmp_path, interval="50"):
        path = str(tmp_path / "run.ckpt")
        code, out = run_cli(capsys, "run", "--app", "MP3D", *SMALL,
                            "--seed", "3", "--checkpoint-to", path,
                            "--checkpoint-interval", interval)
        assert code == 0
        return path, out

    def test_run_checkpoint_flags_must_pair(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="needs --checkpoint-interval"):
            run_cli(capsys, "run", "--app", "MP3D", *SMALL,
                    "--checkpoint-to", str(tmp_path / "x.ckpt"))
        with pytest.raises(SystemExit, match="needs --checkpoint-to"):
            run_cli(capsys, "run", "--app", "MP3D", *SMALL,
                    "--checkpoint-interval", "100")

    def test_inspect_prints_header(self, capsys, tmp_path):
        path, _ = self._write(capsys, tmp_path)
        code, out = run_cli(capsys, "ckpt", "inspect", path, "--config")
        assert code == 0
        assert "events run" in out
        assert "app=MP3D" in out
        assert '"seed": 3' in out  # --config dumps the machine config

    def test_verify_passes_on_intact_file(self, capsys, tmp_path):
        path, _ = self._write(capsys, tmp_path)
        code, out = run_cli(capsys, "ckpt", "verify", path)
        assert code == 0
        assert out.startswith("OK:")
        assert "fingerprint verified" in out

    def test_verify_fails_on_corruption(self, capsys, tmp_path):
        path, _ = self._write(capsys, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-5] ^= 0xFF
        open(path, "wb").write(bytes(data))
        code, out = run_cli(capsys, "ckpt", "verify", path)
        assert code == 1
        assert out.startswith("FAIL:")

    def test_schema_6_snapshot_refused_cleanly(self, capsys, tmp_path):
        """A snapshot from before the ``"sampled"`` checker mode was
        retired (schema 6), or from before cache levels were packed into
        columns (schema 7), ends in a message, not a traceback."""
        import json

        path, _ = self._write(capsys, tmp_path)
        head, payload = open(path, "rb").read().split(b"\n", 1)
        for old in (6, 7):
            header = json.loads(head)
            header["schema"] = old
            open(path, "wb").write(json.dumps(header).encode() + b"\n" + payload)
            code, out = run_cli(capsys, "ckpt", "verify", path)
            assert code == 1
            assert out.startswith("FAIL:") and f"schema {old} is not readable" in out
            with pytest.raises(SystemExit, match=f"cannot resume: .*schema {old}"):
                run_cli(capsys, "ckpt", "resume", path)

    def test_resume_reproduces_the_full_run(self, capsys, tmp_path):
        """`ckpt resume` rebuilds the machine from header metadata and
        finishes with exactly the stats of the uninterrupted run."""
        path, full = self._write(capsys, tmp_path)
        code, out = run_cli(capsys, "ckpt", "resume", path)
        assert code == 0
        assert out.splitlines()[0].startswith("resuming MP3D on 4 processors")
        # identical stats block (both outputs lead with one banner line)
        assert out.splitlines()[1:] == full.splitlines()[1:]

    def test_sweep_ckpt_flags_validation(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="--ckpt-interval"):
            run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                    "--axis", "scheme=full", "--no-cache",
                    "--ckpt-dir", str(tmp_path))
        with pytest.raises(SystemExit, match="--chaos"):
            run_cli(capsys, "sweep", "--app", "MP3D", *SMALL,
                    "--axis", "scheme=full", "--no-cache",
                    "--chaos-midkill", "0.5")
