#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the reference (the parent commit, or the first of two sets of the
same commit) and B the candidate.  For every workload and end-to-end
metric it prints both values (the fastest repeat, as ``run.py`` reports),
how much worse B is as a share of A, the bound from ``BENCHMARK.json``
and a verdict:

* ``worse`` — B's value is worse than A's by more than the bound;
* ``unresolved`` — not worse, but one side's own repeats spread wider
  than the bound, so "unchanged" cannot be claimed (unless every repeat
  of B beats every repeat of A);
* ``ok`` — otherwise.

Simulated counts (``sim.*``), ``verify.states`` and the failed checks
are facts, not timings: at equal seeds they must match exactly, and any
failed check or mismatch is ``worse``.  Exit status is 1 if anything is
``worse``, 2 if the files cannot be compared (different scales), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def spread(values: List[float]) -> float:
    """Width of a side's own repeats as a share of their median."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    return width / statistics.median(values)


def timing_verdict(
    value_a: float, value_b: float, repeats_a: List[float], repeats_b: List[float],
    lower_is_better: bool, bound: float,
) -> Tuple[float, str]:
    """(share by which B is worse than A, verdict) for one metric."""
    worse_by = (value_b - value_a) / value_a
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        return worse_by, "worse"
    if max(spread(repeats_a), spread(repeats_b)) > bound:
        if lower_is_better:
            b_always_better = max(repeats_b) < min(repeats_a)
        else:
            b_always_better = min(repeats_b) > max(repeats_a)
        if not b_always_better:
            return worse_by, "unresolved"
    return worse_by, "ok"


def exact_mismatches(a: Dict[str, Any], b: Dict[str, Any], same_seed: bool) -> List[str]:
    """What had to match exactly between two runs of a workload and did not."""
    out = [f"{side} failed {w['failed']} of {w['attempted']} checks"
           for side, w in (("A", a), ("B", b)) if w["failed"]]
    if same_seed:
        for key in sorted(set(a["values"]) & set(b["values"])):
            if key.startswith("sim.") or key == "verify.states":
                if a["values"][key] != b["values"][key]:
                    out.append(f"{key}: {a['values'][key]!r} != {b['values'][key]!r}")
    return out


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[List[str], int]:
    """(report lines, exit status) for two result documents."""
    if a["scale"] != b["scale"]:
        return [f"cannot compare a {a['scale']}-scale result with a "
                f"{b['scale']}-scale one"], 2
    same_seed = a["seed"] == b["seed"]
    lines = [f"A: seed {a['seed']}, {a['host']['time']}   "
             f"B: seed {b['seed']}, {b['host']['time']}   scale {a['scale']}"]
    if not same_seed:
        lines.append("seeds differ: simulated counts are not compared")
    lines.append(f"{'workload':<10}{'metric':<14}{'A':>13}{'B':>13}"
                 f"{'B worse by':>12}{'bound':>8}{'n A/B':>8} verdict")
    worse = False
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            by, verdict = timing_verdict(
                wa["values"][key], wb["values"][key], wa["raw"][key], wb["raw"][key],
                metric["better"] == "lower", metric["bound"])
            worse |= verdict == "worse"
            lines.append(
                f"{name:<10}{key:<14}{wa['values'][key]:>13.6g}"
                f"{wb['values'][key]:>13.6g}{100 * by:>+11.1f}%"
                f"{100 * metric['bound']:>7.0f}%"
                f"{len(wa['raw'][key]):>4}/{len(wb['raw'][key]):<3} {verdict}")
        for mismatch in exact_mismatches(wa, wb, same_seed):
            worse = True
            lines.append(f"{name:<10}{mismatch}  worse")
    return lines, 1 if worse else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, status = compare(a, b, spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
