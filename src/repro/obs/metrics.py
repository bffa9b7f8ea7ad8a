"""Metric instruments: monotonic counters, gauges, log2 histograms.

The machine layer records *in simulated cycles* (deterministic per
seed), so metrics from two runs of the same seed are identical and a
``repro obs diff`` of two seeds shows real workload variation, not
clock noise.  Instruments are created lazily through a
:class:`MetricsRegistry`, which validates names against the central
:mod:`repro.obs.registry` glossary so a typo cannot open a silently
separate series.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.obs.registry import METRICS, METRICS_SCHEMA


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0: counters only go up)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def to_dict(self) -> int:
        """JSON form: the bare count."""
        return self.value


class Gauge:
    """A last-value (or running-max) instrument."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, v: float) -> None:
        """Record the current value."""
        self.value = v

    def set_max(self, v: float) -> None:
        """Keep the running maximum (peak tracking)."""
        if v > self.value:
            self.value = v

    def to_dict(self) -> float:
        """JSON form: the bare value."""
        return self.value


class Log2Histogram:
    """Power-of-two bucketed histogram of non-negative observations.

    Bucket ``i`` holds observations ``v`` with ``v < 2**i`` and
    ``v >= 2**(i-1)`` (bucket 0 holds ``v < 1``, i.e. zero-latency /
    zero-size observations).  Exported as ``{upper_bound: count}`` plus
    ``count`` / ``total`` so averages survive the bucketing.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}  # bucket index -> count
        self.count = 0
        self.total = 0.0

    def observe(self, v: float) -> None:
        """Record one observation (negative values clamp to bucket 0)."""
        if v >= 1:
            idx = int(v).bit_length()
            self.total += v
        else:
            idx = 0
            if v > 0:
                self.total += v
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        self.count += 1

    @property
    def mean(self) -> float:
        """Average of the raw (pre-bucketing) observations."""
        return self.total / self.count if self.count else 0.0

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(upper_bound, count)`` pairs in increasing bucket order."""
        for idx in sorted(self.buckets):
            yield 2**idx, self.buckets[idx]

    def to_dict(self) -> Dict[str, object]:
        """JSON form: count/total/mean plus the bucket map."""
        return {
            "count": self.count,
            "total": round(self.total, 3),
            "mean": round(self.mean, 3),
            "buckets": {str(ub): n for ub, n in self.items()},
        }


class MetricsRegistry:
    """Lazily created, name-validated instruments for one run."""

    def __init__(self, *, strict: bool = True) -> None:
        self.strict = strict
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Log2Histogram] = {}

    def _get(self, table: Dict[str, Any], name: str, make: Any) -> Any:
        instrument = table.get(name)
        if instrument is None:
            if self.strict and name not in METRICS:
                raise ValueError(
                    f"metric {name!r} is not declared in repro.obs.registry."
                    f"METRICS; add it there (with a description) first"
                )
            instrument = table[name] = make()
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get(self.counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get(self.gauges, name, Gauge)

    def histogram(self, name: str) -> Log2Histogram:
        """Get or create the named log2 histogram."""
        return self._get(self.histograms, name, Log2Histogram)

    @property
    def empty(self) -> bool:
        """True when no instrument has been created."""
        return not (self.counters or self.gauges or self.histograms)

    def to_state(self) -> Dict[str, Any]:
        """Lossless snapshot for checkpoints (:meth:`to_dict` rounds).

        ``ckpt_*`` counters are harness activity, not simulation state,
        and are left out (see ``Tracer.to_state``).
        """
        return {
            "counters": {
                name: c.value for name, c in self.counters.items()
                if not name.startswith("ckpt_")
            },
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {
                name: (dict(h.buckets), h.count, h.total)
                for name, h in self.histograms.items()
            },
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`to_state`, replacing every instrument."""
        self.counters.clear()
        for name, value in state["counters"].items():
            self.counter(name).value = value
        self.gauges.clear()
        for name, value in state["gauges"].items():
            self.gauge(name).value = value
        self.histograms.clear()
        for name, (buckets, count, total) in state["histograms"].items():
            hist = self.histogram(name)
            hist.buckets = dict(buckets)
            hist.count = count
            hist.total = total

    def to_dict(self) -> Dict[str, object]:
        """Versioned JSON form (the ``metrics`` key of stats output)."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {
                k: c.to_dict() for k, c in sorted(self.counters.items())
            },
            "gauges": {k: g.to_dict() for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self.histograms.items())
            },
        }


def histogram_delta(
    a: Mapping[str, object], b: Mapping[str, object]
) -> Dict[str, object]:
    """Bucket-wise difference of two exported histograms (``b - a``).

    Both arguments are ``Log2Histogram.to_dict()`` shapes; the result
    uses the union of bucket upper bounds, so ``repro obs diff`` can
    report exactly where two runs' latency distributions diverge.
    """
    buckets_a: Mapping[str, int] = a.get("buckets", {})  # type: ignore[assignment]
    buckets_b: Mapping[str, int] = b.get("buckets", {})  # type: ignore[assignment]
    bounds = sorted(
        {int(k) for k in buckets_a} | {int(k) for k in buckets_b}
    )
    return {
        "count": int(b.get("count", 0)) - int(a.get("count", 0)),  # type: ignore[arg-type]
        "mean_a": a.get("mean", 0.0),
        "mean_b": b.get("mean", 0.0),
        "buckets": {
            str(ub): int(buckets_b.get(str(ub), 0))
            - int(buckets_a.get(str(ub), 0))
            for ub in bounds
        },
    }


def load_metrics_dict(data: Mapping[str, object]) -> Dict[str, object]:
    """Validate and normalize an exported ``metrics`` block.

    Accepts the current :data:`~repro.obs.registry.METRICS_SCHEMA` only
    (the block has existed in one shape); raises :class:`ValueError` on
    anything newer so old tooling fails loudly instead of misreading.
    """
    schema = data.get("schema")
    if not isinstance(schema, int) or schema > METRICS_SCHEMA or schema < 1:
        raise ValueError(
            f"unsupported metrics schema {schema!r} "
            f"(this build reads <= {METRICS_SCHEMA})"
        )
    out = dict(data)
    for key in ("counters", "gauges", "histograms"):
        out.setdefault(key, {})
    return out


#: shared no-op instruments behind :data:`~repro.obs.tracer.NULL_TRACER`


class _NullInstrument:
    """Accepts every recording call and keeps nothing."""

    def inc(self, v: float = 1) -> None:
        """Discard."""

    set = set_max = observe = inc


class NullMetrics:
    """Registry stand-in whose instruments all discard their input.

    Hook points are expected to gate on ``tracer.enabled`` anyway; this
    makes an ungated ``tracer.metrics...`` call harmless rather than an
    AttributeError.
    """

    _instrument = _NullInstrument()

    strict = False
    empty = True

    def counter(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return self._instrument

    gauge = histogram = counter

    def to_dict(self) -> Dict[str, object]:
        """Empty versioned block."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


__all__ = [
    "Counter",
    "Gauge",
    "Log2Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "histogram_delta",
    "load_metrics_dict",
]
