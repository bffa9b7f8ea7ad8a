"""Exit codes and output of ``python -m repro verify``."""

from pathlib import Path

from repro import cli


def main(argv):
    """``repro verify ARGV`` through the one CLI entry point."""
    return cli.main(["verify", *argv])


REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_check_clean_scheme_exits_zero(capsys):
    assert main(["check", "--scheme", "full", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "states:" in out and "ok:" in out


def test_check_reports_scheme_and_bounds(capsys):
    main(["check", "--scheme", "Dir1NB", "-n", "3"])
    out = capsys.readouterr().out
    assert "Dir1NB on 3 nodes" in out


def test_check_multiple_schemes_prints_summary_table(capsys):
    assert main(["check", "--scheme", "DirN,Dir1NB", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out
    assert "Dir3" in out and "Dir1NB" in out


def test_check_truncation_exits_two(capsys):
    assert main(["check", "--scheme", "full", "-n", "3",
                 "--max-states", "5"]) == 2


def test_check_por_reports_pruning(capsys):
    assert main(["check", "--scheme", "full", "-n", "3", "--por"]) == 0
    out = capsys.readouterr().out
    assert "POR" in out and "pruned actions:" in out


def test_check_stats_file_is_json(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert main(["check", "--scheme", "full", "-n", "3", "--por",
                 "--stats", str(stats)]) == 0
    import json

    payload = json.loads(stats.read_text())
    assert payload["por"] is True and payload["verdict"] == "ok"


def test_check_multi_scheme_stats_is_a_list(tmp_path):
    stats = tmp_path / "stats.json"
    assert main(["check", "--scheme", "full,Dir1B", "-n", "3",
                 "--stats", str(stats)]) == 0
    import json

    payload = json.loads(stats.read_text())
    assert isinstance(payload, list) and len(payload) == 2


def test_check_cross_check_agrees(capsys):
    assert main(["check", "--scheme", "full", "-n", "3",
                 "--cross-check"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out and "cross-check ok" in out


def test_check_liveness_reports_ok(capsys):
    assert main(["check", "--scheme", "full", "-n", "3",
                 "--liveness"]) == 0
    out = capsys.readouterr().out
    assert "liveness ok" in out and "fair" in out


def test_lint_shipped_tree_exits_zero(capsys):
    assert main(["lint", str(REPO_SRC)]) == 0
    assert "lint clean" in capsys.readouterr().out


def test_lint_finding_exits_one(tmp_path, capsys):
    bad = tmp_path / "machine" / "net.py"
    bad.parent.mkdir()
    bad.write_text("import random\ndef f():\n    return random.random()\n")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "unseeded-random" in out


def test_check_unknown_scheme_is_a_clean_error(capsys):
    assert main(["check", "--scheme", "Dir3QQ", "-n", "3"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized scheme" in err and "Traceback" not in err


def test_check_empty_scheme_is_a_clean_error(capsys):
    assert main(["check", "--scheme", "", "-n", "3"]) == 2
    assert "at least one scheme" in capsys.readouterr().err


def test_lint_missing_path_does_not_read_as_clean(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    captured = capsys.readouterr()
    assert "no such file" in captured.err
    assert "lint clean" not in captured.out


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "enum-dispatch" in out and "unpicklable-continuation" in out
