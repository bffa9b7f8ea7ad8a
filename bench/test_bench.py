"""Self-test of the benchmark harness: ``python -m pytest bench -q``.

Runs every workload once at the ``tiny`` scale (both passes), then checks
what came out against ``BENCHMARK.json``.  ``testpaths = ["tests"]``
keeps this out of the tier-1 suite: it tests ``bench/``, not ``src/``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One tiny-scale suite run: (merged result, the leaves' final JSON lines)."""
    out = tmp_path_factory.mktemp("bench") / "tiny.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "tiny",
         "--repeats", "1", "--profiled", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    finals = [json.loads(line) for line in proc.stdout.splitlines()
              if line.startswith('{"correct"')]
    return json.loads(out.read_text()), finals


def test_declaration_obeys_the_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_every_declared_metric_is_emitted_with_its_unit(tiny_run):
    merged, finals = tiny_run
    assert merged["scale"] == "tiny"
    assert set(merged["workloads"]) == set(workloads.WHY)
    # per workload: the --trace 0 line, then the --trace 1 line
    assert len(finals) == 2 * len(workloads.WHY)
    for i, final in enumerate(finals):
        group = SPEC["per_layer"] if i % 2 else SPEC["end_to_end"]
        assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
        assert {n: m["unit"] for n, m in final["metrics"].items()} == {
            m["name"]: m["unit"] for m in group}
        assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())
    for entry in merged["workloads"].values():
        assert entry["failed"] == 0 and entry["failures"] == []
        assert all(entry["values"][m["name"]] > 0 for m in SPEC["end_to_end"])


def test_profiled_self_time_accounts_for_the_profiled_wall(tiny_run):
    merged, _ = tiny_run
    for name, entry in merged["workloads"].items():
        values = entry["values"]
        total = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert total == pytest.approx(values["profile.wall_s"], rel=0.05), name
        assert values["verify.states"] == 1657


def test_every_source_file_has_a_layer():
    package = ROOT / "src" / "repro"
    files = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py"))
    assert files
    unmapped = [f for f in files if layers.layer_of(f) is None]
    assert unmapped == []
    assert set(layers.LAYER_OF.values()) <= set(layers.LAYERS)
    assert layers.layer_of("core/sparse.py") == "core.sparse"
    assert layers.layer_of("core/coarse_vector.py") == "core.schemes"
    assert layers.layer_of("brand_new_module.py") is None


def test_compare_passes_an_identical_pair_and_flags_a_slowdown(tiny_run):
    merged, _ = tiny_run
    lines, status = compare.compare(merged, copy.deepcopy(merged), SPEC)
    assert status == 0
    assert not any(line.endswith("worse") for line in lines)

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    slow = copy.deepcopy(merged)
    slow["workloads"]["lu32"]["values"]["wall_s"] *= 1 + 1.5 * bound
    lines, status = compare.compare(merged, slow, SPEC)
    assert status == 1
    assert [line for line in lines if line.endswith("worse")
            and line.split()[:2] == ["lu32", "wall_s"]]

    miscounted = copy.deepcopy(merged)
    miscounted["workloads"]["comm32"]["values"]["sim.msgs"] += 1
    assert compare.compare(merged, miscounted, SPEC)[1] == 1


def test_compare_marks_a_noisy_pair_unresolved():
    def verdict(a, b, lower_is_better=True):
        best = min if lower_is_better else max
        return compare.timing_verdict(best(a), best(b), a, b, lower_is_better, 0.1)[1]

    assert verdict([1.0, 1.3, 1.0], [1.0, 1.0, 1.3]) == "unresolved"
    # ... unless every repeat of B beats every repeat of A
    assert verdict([1.0, 1.3, 1.0], [0.8, 0.9, 0.7]) == "ok"
    assert verdict([1.0, 1.01, 1.0], [1.2, 1.21, 1.2]) == "worse"
    assert verdict([10, 10, 10], [8, 8, 8], lower_is_better=False) == "worse"


def test_compare_refuses_tiny_against_full(tiny_run):
    merged, _ = tiny_run
    full = copy.deepcopy(merged)
    full["scale"] = "full"
    assert compare.compare(merged, full, SPEC)[1] == 2


def test_without_the_simulator_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "lu32", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
