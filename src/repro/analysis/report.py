"""Plain-text table/series formatting for benchmark output.

Benchmarks print the same rows and series the paper's tables and figures
report; these helpers keep that output aligned and consistent without any
plotting dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.machine.stats import SimStats
    from repro.obs.causal import ChainSet
    from repro.verify.explorer import ExploreResult
    from repro.verify.liveness import LivenessResult


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, indent: str = ""
) -> str:
    """Monospace table with right-aligned numeric columns."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return indent + "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 1000 else f"{cell:,.0f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def format_series(
    series: Mapping[str, Sequence[float]], *, x_label: str = "x"
) -> str:
    """Columns of y-values per named series, one row per x."""
    names = list(series)
    length = max(len(v) for v in series.values())
    headers = [x_label] + names
    rows: List[List[object]] = []
    for x in range(length):
        row: List[object] = [x]
        for name in names:
            vals = series[name]
            row.append(vals[x] if x < len(vals) else "")
        rows.append(row)
    return format_table(headers, rows)


def format_histogram(
    hist: Mapping[int, int], *, max_width: int = 50, label: str = "invals"
) -> str:
    """ASCII bar chart of a {size: count} histogram (Figures 3-6 style)."""
    if not hist:
        return "(empty histogram)"
    total = sum(hist.values())
    peak = max(hist.values())
    lines = []
    for size in range(0, max(hist) + 1):
        count = hist.get(size, 0)
        pct = 100.0 * count / total
        bar = "#" * max(0, round(max_width * count / peak))
        lines.append(f"{label}={size:3d}  {pct:6.2f}%  {bar}")
    return "\n".join(lines)


def format_fault_report(stats: "SimStats") -> str:
    """Table of the robustness counters of one run (empty-plan runs show
    all zeros; fault-free runs normally skip printing this entirely)."""
    summary = stats.fault_summary()
    return format_table(
        ["counter", "count"], [(k, v) for k, v in summary.items()]
    )


def format_verification_report(results: Iterable["ExploreResult"]) -> str:
    """One row per model-checked configuration (``repro verify check``).

    The verdict column is ``ok`` for an exhausted, violation-free state
    space, ``TRUNCATED`` when the state bound cut the search short, or
    the name of the violated invariant.  When any result ran with
    partial-order reduction, ``pruned`` (actions skipped) and ``canon``
    (canonicalizer used) columns are appended.
    """
    materialized = list(results)
    por = any(getattr(r, "por", False) for r in materialized)
    rows: List[Sequence[object]] = []
    for r in materialized:
        if r.violation is not None:
            verdict = r.violation.invariant
        elif r.truncated:
            verdict = "TRUNCATED"
        else:
            verdict = "ok"
        row: List[object] = [
            r.scheme, r.num_nodes, r.states, r.transitions, r.max_depth,
            verdict,
        ]
        if por:
            row[5:5] = [r.pruned, r.canonicalizer]
        rows.append(row)
    headers = ["scheme", "nodes", "states", "transitions", "depth", "verdict"]
    if por:
        headers[5:5] = ["pruned", "canon"]
    return format_table(headers, rows)


def format_liveness_report(results: Iterable["LivenessResult"]) -> str:
    """One row per liveness-checked configuration (``check --liveness``).

    The verdict is ``ok`` for a graph free of fair starvation/livelock
    cycles, ``TRUNCATED`` when the state bound bit, or the violated
    property name.
    """
    rows: List[Sequence[object]] = []
    for r in results:
        if r.violation is not None:
            verdict = r.violation.property
        elif r.truncated:
            verdict = "TRUNCATED"
        else:
            verdict = "ok"
        rows.append(
            [r.scheme, r.num_nodes, r.states, r.transitions, r.sccs,
             r.fair_sccs, verdict]
        )
    return format_table(
        ["scheme", "nodes", "states", "transitions", "sccs", "fair",
         "verdict"],
        rows,
    )


def format_metrics_report(metrics: Mapping[str, object]) -> str:
    """Render an exported metrics block (``SimStats.to_dict()["metrics"]``).

    Counters and gauges become one table; each log2 histogram prints its
    count/mean headline and a bar per occupied bucket (upper bounds are
    powers of two, so rows read "< 16", "< 32", ...).
    """
    counters: Mapping[str, object] = metrics.get("counters", {})  # type: ignore[assignment]
    gauges: Mapping[str, object] = metrics.get("gauges", {})  # type: ignore[assignment]
    histograms: Mapping[str, Mapping[str, object]] = metrics.get(  # type: ignore[assignment]
        "histograms", {}
    )
    sections: List[str] = []
    scalar_rows: List[Sequence[object]] = [
        [name, "counter", value] for name, value in sorted(counters.items())
    ] + [
        [name, "gauge", value] for name, value in sorted(gauges.items())
    ]
    if scalar_rows:
        sections.append(format_table(["metric", "kind", "value"], scalar_rows))
    for name in sorted(histograms):
        hist = histograms[name]
        buckets: Mapping[str, int] = hist.get("buckets", {})  # type: ignore[assignment]
        sections.append(
            f"histogram {name}: count={hist.get('count', 0)} "
            f"mean={hist.get('mean', 0.0)}"
        )
        if buckets:
            peak = max(buckets.values())
            lines = []
            for ub in sorted(buckets, key=int):
                n = buckets[ub]
                bar = "#" * max(1, round(30 * n / peak)) if n else ""
                lines.append(f"  < {ub:>8}  {n:8,}  {bar}")
            sections.append("\n".join(lines))
    if not sections:
        return "(no metrics recorded)"
    return "\n".join(sections)


def format_profile(rows: Iterable[Sequence[object]]) -> str:
    """Table for :meth:`repro.obs.profiler.PhaseProfiler.to_rows`."""
    return format_table(
        ["phase", "wall s", "sim events", "events/s", "trace events"],
        rows,
    )


def format_critical_path(
    chain_set: "ChainSet", *, top: int = 5, histograms: bool = True
) -> str:
    """Render ``repro obs critical-path``'s report from a ChainSet.

    Sections: the aggregate per-phase latency breakdown (where did the
    cycles go, sweep-wide), the top-``top`` slowest transactions with
    their reconstructed chains, and optionally a log2 histogram per
    phase (the per-scheme phase distribution view).
    """
    chains = chain_set.chains
    if not chains:
        return (
            "(no causal chains: trace has no txn_id-tagged transactions"
            + (
                f"; {chain_set.untagged} untagged txn spans — "
                "was it recorded before causal tracking?"
                if chain_set.untagged
                else ")"
            )
        )
    sections: List[str] = []
    total_latency = sum(c.latency for c in chains)
    headline = (
        f"{len(chains)} transactions, "
        f"{total_latency:,.0f} cycles total latency"
    )
    extras = []
    if chain_set.incomplete:
        extras.append(f"{chain_set.incomplete} incomplete (ring drops)")
    if chain_set.untagged:
        extras.append(f"{chain_set.untagged} untagged")
    if extras:
        headline += " (" + ", ".join(extras) + ")"
    sections.append(headline)

    totals = chain_set.phase_totals()
    phase_rows: List[Sequence[object]] = []
    for phase, cycles in totals.items():
        count = sum(1 for c in chains if phase in c.phases)
        share = 100.0 * cycles / total_latency if total_latency else 0.0
        phase_rows.append([
            phase,
            round(cycles, 1),
            f"{share:.1f}%",
            round(cycles / count, 1) if count else 0.0,
            count,
        ])
    sections.append(
        format_table(["phase", "cycles", "share", "mean", "txns"], phase_rows)
    )

    slowest = chain_set.top_slowest(top)
    if slowest:
        lines = ["slowest transactions:"]
        for c in slowest:
            lines.append(
                f"  #{c.txn_id} {c.kind} block {c.block} "
                f"cluster {c.requester} -> home {c.home}: "
                f"{c.latency:,.1f} cycles @ {c.t_issue:,.1f}"
            )
            for phase, cycles in c.ordered_phases():
                notes = ""
                if phase == "net_request" and c.retries:
                    notes = f"  ({c.retries} retries, {c.faults} faults)"
                elif phase == "inval_fanout" and (c.invals or c.cache_invals):
                    notes = (
                        f"  ({c.invals} invals, "
                        f"{c.cache_invals} copies killed)"
                    )
                lines.append(f"      {phase:<13} {cycles:>10,.1f}{notes}")
        sections.append("\n".join(lines))

    if histograms:
        for phase, hist in sorted(chain_set.histograms.items()):
            d = hist.to_dict()
            buckets: Mapping[str, int] = d.get("buckets", {})  # type: ignore[assignment]
            sections.append(
                f"phase {phase}: count={d['count']} mean={d['mean']}"
            )
            if buckets:
                peak = max(buckets.values())
                rows = []
                for ub in sorted(buckets, key=int):
                    n = buckets[ub]
                    bar = "#" * max(1, round(30 * n / peak)) if n else ""
                    rows.append(f"  < {ub:>8}  {n:8,}  {bar}")
                sections.append("\n".join(rows))
    return "\n".join(sections)


def normalized(
    values: Mapping[str, float], *, baseline: str
) -> Dict[str, float]:
    """Each value divided by the baseline entry (Figures 7-14 style)."""
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} not among {sorted(values)}")
    base = values[baseline]
    if base == 0:
        raise ZeroDivisionError("baseline value is zero")
    return {k: v / base for k, v in values.items()}
