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

import weakref
from collections import Counter as TallyCounter
from functools import reduce
from itertools import chain
from operator import add
from types import MethodType
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

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

    def set_max_all(self, values: Iterable[float]) -> None:
        """:meth:`set_max` each of ``values`` in turn (``max`` compares
        exactly as that loop does, so the same object is kept)."""
        self.value = max(chain((self.value,), values))

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

    def observe_all(self, values: Sequence[float]) -> None:
        """:meth:`observe` each of ``values`` in turn, bucketing each
        distinct value once when every value is a number >= 0.

        Exact, not approximate: buckets fill in the same first-seen order
        and ``total`` adds the same values in the same order (adding a
        zero leaves a float unchanged), so the result is bit-identical.
        """
        try:
            seen = TallyCounter(values)
            fast = min(seen) >= 0
            if fast:
                idx: Dict[int, int] = {}
                for v, n in seen.items():
                    i = int(v).bit_length()
                    idx[i] = idx.get(i, 0) + n
        except (TypeError, ValueError):  # None, NaN, no values: one by one
            fast = False
        if not fast:
            for v in values:
                self.observe(v)
            return
        buckets = self.buckets
        for i, n in idx.items():
            buckets[i] = buckets.get(i, 0) + n
        self.total = reduce(add, values, self.total)
        self.count += len(values)

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
    """Lazily created, name-validated instruments for one run.

    A tracer's registry is derived from the tracer's rows a chunk at a
    time (see :meth:`~repro.obs.tracer.Tracer.settle`): every reader —
    the instrument maps, the accessors, :attr:`empty`, :meth:`to_state`,
    :meth:`to_dict` — settles first, so what it reads is exact.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Log2Histogram] = {}
        self._source: Optional[weakref.WeakMethod] = None

    def derive_from(self, settle: MethodType) -> None:
        """Call the bound method ``settle`` before every read.

        Held weakly: the tracer owns its registry and a run's stats may
        keep the registry, so a strong reference back would pin the
        tracer's ring (and close a reference cycle).  A tracer settles
        its registry as it is freed.
        """
        self._source = weakref.WeakMethod(settle)

    def _settle(self) -> None:
        if self._source is not None:
            settle = self._source()
            if settle is not None:
                settle()

    @property
    def counters(self) -> Dict[str, Counter]:
        """Counter name -> counter, in creation order."""
        self._settle()
        return self._counters

    @property
    def gauges(self) -> Dict[str, Gauge]:
        """Gauge name -> gauge, in creation order."""
        self._settle()
        return self._gauges

    @property
    def histograms(self) -> Dict[str, Log2Histogram]:
        """Histogram name -> histogram, in creation order."""
        self._settle()
        return self._histograms

    def _get(self, table: Dict[str, Any], name: str, make: Any) -> Any:
        instrument = table.get(name)
        if instrument is None:
            if name not in METRICS:
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
        self._settle()
        return not (self._counters or self._gauges or self._histograms)

    def to_state(self) -> Dict[str, Any]:
        """Lossless snapshot for checkpoints (:meth:`to_dict` rounds).

        ``ckpt_*`` counters are harness activity, not simulation state,
        and are left out (see ``Tracer.to_state``).
        """
        self._settle()
        return {
            "counters": {
                name: c.value for name, c in self._counters.items()
                if not name.startswith("ckpt_")
            },
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: (dict(h.buckets), h.count, h.total)
                for name, h in self._histograms.items()
            },
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`to_state`, replacing every instrument."""
        self._settle()
        self._counters.clear()
        for name, value in state["counters"].items():
            self.counter(name).value = value
        self._gauges.clear()
        for name, value in state["gauges"].items():
            self.gauge(name).value = value
        self._histograms.clear()
        for name, (buckets, count, total) in state["histograms"].items():
            hist = self.histogram(name)
            hist.buckets = dict(buckets)
            hist.count = count
            hist.total = total

    def to_dict(self) -> Dict[str, object]:
        """Versioned JSON form (the ``metrics`` key of stats output)."""
        self._settle()
        return {
            "schema": METRICS_SCHEMA,
            "counters": {
                k: c.to_dict() for k, c in sorted(self._counters.items())
            },
            "gauges": {k: g.to_dict() for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
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
