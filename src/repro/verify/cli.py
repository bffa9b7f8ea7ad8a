"""``repro verify``: model-check, lint, and trace conformance.

Subcommands::

    python -m repro verify check --scheme Dir1CV2 -n 4
    python -m repro verify check --scheme Dir4B -n 8 --por --stats stats.json
    python -m repro verify check --scheme full -n 4 --cross-check
    python -m repro verify check --scheme full -n 3 --liveness
    python -m repro verify conform trace.json
    python -m repro verify lint src/repro
    python -m repro verify lint --list-rules

``check`` exits 0 only when the bounded state space was exhausted with no
violation; a violation prints the minimal counterexample trace.  With
``--por`` the explorer prunes independent interleavings (ample sets) —
same verdicts, far fewer states; ``--cross-check`` runs both full BFS
and POR and fails unless the verdicts agree.  ``--liveness`` additionally
searches for fairness-violating cycles (starved requests, livelocks) and
prints the lasso counterexample.  ``conform`` replays a recorded
:mod:`repro.obs` trace through the protocol model and rejects the first
traced event the model would not allow.  ``lint`` exits 0 when no
findings survive inline suppressions.  :func:`add_commands` puts the
three under ``repro verify`` in :func:`repro.cli.build_parser`, whose
``main`` turns an ``OSError`` or ``ValueError`` (an unknown scheme, a
missing trace) into ``error: ...`` and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.registry import make_scheme
from repro.verify.explorer import ExploreResult, explore, por_cross_check
from repro.verify.lint import LINT_RULES, run_lint
from repro.verify.model import ModelConfig


def _config_for(args: argparse.Namespace, name: str) -> ModelConfig:
    return ModelConfig(
        scheme=make_scheme(name, args.nodes, seed=args.seed),
        num_nodes=args.nodes,
        blocks=tuple(range(args.lines)),
        max_inflight=args.inflight,
        sparse_ways=args.sparse_ways,
        include_drop=not args.no_drop,
        symmetry=not args.no_symmetry,
        max_states=args.max_states,
    )


def _write_stats(args: argparse.Namespace, payload: object) -> None:
    """Write the ``--stats`` JSON report (``-`` streams to stdout)."""
    if not args.stats:
        return
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.stats == "-":
        sys.stdout.write(text)
    else:
        Path(args.stats).write_text(text)
        print(f"wrote stats to {args.stats}")


def cmd_check(args: argparse.Namespace) -> int:
    """Exhaustively explore the bounded state space of each scheme.

    ``--scheme`` accepts a comma-separated list; with several schemes the
    per-scheme results are printed as one summary table (plus the first
    counterexample, if any).
    """
    names = [n for n in args.scheme.split(",") if n.strip()]
    if not names:
        raise ValueError("--scheme needs at least one scheme name")
    if args.cross_check:
        return _cross_check(args, names)
    if len(names) > 1:
        return _check_many(args, names)
    cfg = _config_for(args, names[0])
    result = explore(cfg, por=args.por)
    store = "full map" if args.sparse_ways is None else (
        f"sparse 1x{args.sparse_ways}"
    )
    print(
        f"{result.scheme} on {result.num_nodes} nodes, "
        f"{len(cfg.blocks)} line(s), {store}, "
        f"<= {cfg.max_inflight} in-flight"
        + (f", POR ({result.canonicalizer} canon)" if result.por else "")
    )
    print(
        f"states: {result.states:,}  transitions: {result.transitions:,}  "
        f"max depth: {result.max_depth}  merged: {result.merged:,}"
        + (
            f"  pruned actions: {result.pruned:,} "
            f"(ample at {result.ample_states:,} states)"
            if result.por
            else ""
        )
    )
    _write_stats(args, result.stats_dict())
    status = 0
    if result.violation is not None:
        print("counterexample (minimal):")
        print(result.violation.format())
        return 1
    if result.truncated:
        print(
            f"state bound hit ({cfg.max_states:,}): exploration incomplete — "
            f"raise --max-states or shrink the config", file=sys.stderr,
        )
        return 2
    print("ok: every reachable state satisfies the coherence invariants")
    if args.liveness:
        status = _liveness([names[0]], args)
    return status


def _check_many(args: argparse.Namespace, names: Sequence[str]) -> int:
    from repro.analysis.report import format_verification_report

    results = [explore(_config_for(args, name), por=args.por)
               for name in names]
    print(format_verification_report(results))
    _write_stats(args, [r.stats_dict() for r in results])
    for result in results:
        if result.violation is not None:
            print(f"\ncounterexample for {result.scheme} (minimal):")
            print(result.violation.format())
            return 1
    if any(r.truncated for r in results):
        print(
            f"state bound hit ({args.max_states:,}): exploration incomplete — "
            f"raise --max-states or shrink the config", file=sys.stderr,
        )
        return 2
    if args.liveness:
        return _liveness(names, args)
    return 0


def _cross_check(args: argparse.Namespace, names: Sequence[str]) -> int:
    """POR soundness mode: full BFS vs POR must agree on every verdict."""
    from repro.analysis.report import format_verification_report

    rows: List[ExploreResult] = []
    stats: List[Dict[str, object]] = []
    disagreements = []
    violated = False
    for name in names:
        full, reduced, agree = por_cross_check(_config_for(args, name))
        rows.extend([full, reduced])
        stats.append({
            "scheme": name,
            "full": full.stats_dict(),
            "por": reduced.stats_dict(),
            "agree": agree,
        })
        if not agree:
            disagreements.append(name)
        if full.violation is not None or reduced.violation is not None:
            violated = True
        print(
            f"{name}: full {full.states:,} states ({full.verdict}) vs "
            f"POR {reduced.states:,} states ({reduced.verdict}) — "
            f"{'agree' if agree else 'DISAGREE'}"
        )
    print()
    print(format_verification_report(rows))
    _write_stats(args, stats)
    if disagreements:
        print(
            f"POR cross-check FAILED for: {', '.join(disagreements)}",
            file=sys.stderr,
        )
        return 1
    print("cross-check ok: POR and full BFS verdicts agree")
    return 1 if violated else 0


def _liveness(names: Sequence[str], args: argparse.Namespace) -> int:
    """Fairness-constrained cycle detection over each scheme's graph."""
    from repro.analysis.report import format_liveness_report
    from repro.verify.liveness import check_liveness

    results = [check_liveness(_config_for(args, name)) for name in names]
    print()
    print(format_liveness_report(results))
    for result in results:
        if result.violation is not None:
            print(f"\nlasso counterexample for {result.scheme}:")
            print(result.violation.format())
            return 1
    if any(r.truncated for r in results):
        print(
            f"liveness state bound hit ({args.max_states:,}): incomplete",
            file=sys.stderr,
        )
        return 2
    print("liveness ok: every request completes; no fair livelock cycle")
    return 0


def cmd_conform(args: argparse.Namespace) -> int:
    """Check that a recorded trace is a path in the protocol model."""
    from repro.verify.conformance import check_trace, format_conformance_report

    result = check_trace(
        args.trace,
        scheme=args.conform_scheme,
        num_nodes=args.conform_nodes,
        max_divergences=args.max_divergences,
    )
    print(format_conformance_report(result))
    _write_stats(args, result.stats_dict())
    return 0 if result.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST rules over the given files/directories."""
    if args.list_rules:
        for name, description in LINT_RULES.items():
            print(f"{name:22s} {description}")
        return 0
    paths = args.paths
    if not paths:
        # default: the installed repro package sources
        import repro

        paths = [str(Path(repro.__file__).parent)]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        # a typo'd path must not read as a clean lint run (e.g. in CI)
        raise FileNotFoundError(f"no such file or directory: {', '.join(missing)}")
    findings = run_lint(paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint clean")
    return 0


def add_commands(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Add ``check``, ``conform``, and ``lint``."""
    p = sub.add_parser("check", help="model-check one scheme's state space")
    p.add_argument("--scheme", default="full",
                   help="scheme name (registry); comma-separate several "
                        "for a summary table")
    p.add_argument("-n", "--nodes", type=int, default=3,
                   help="number of nodes (<= 5 for full BFS; --por reaches 8)")
    p.add_argument("--lines", type=int, default=1, choices=(1, 2),
                   help="modeled memory blocks")
    p.add_argument("--inflight", type=int, default=2,
                   help="max concurrent in-flight messages")
    p.add_argument("--sparse-ways", type=int, default=None, metavar="W",
                   help="model a 1-set, W-way sparse directory per home")
    p.add_argument("--no-drop", action="store_true",
                   help="disable silent clean-copy drops (smaller space)")
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable symmetry reduction (debugging)")
    p.add_argument("--max-states", type=int, default=250_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--por", action="store_true",
                   help="partial-order reduction (prune provably "
                        "commuting delivery interleavings)")
    p.add_argument("--cross-check", action="store_true",
                   help="run full BFS and POR; fail unless verdicts agree")
    p.add_argument("--liveness", action="store_true",
                   help="also search for fair starvation/livelock cycles")
    p.add_argument("--stats", metavar="FILE",
                   help="write a JSON stats report ('-' for stdout)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "conform", help="check a recorded obs trace against the model"
    )
    p.add_argument("trace", help="trace file (chrome or jsonl)")
    p.add_argument("--scheme", dest="conform_scheme", default=None,
                   help="override the trace header's scheme")
    p.add_argument("--nodes", dest="conform_nodes", type=int, default=None,
                   help="override the trace header's processor count")
    p.add_argument("--max-divergences", type=int, default=10,
                   help="stop after this many diverging blocks")
    p.add_argument("--stats", metavar="FILE",
                   help="write a JSON stats report ('-' for stdout)")
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser("lint", help="AST lint over simulator sources")
    p.add_argument("paths", nargs="*", help="files/dirs (default: repro pkg)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=cmd_lint)
