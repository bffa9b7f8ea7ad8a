"""Simulation statistics: message counts, invalidation distributions, time.

Everything the paper's figures are drawn from:

* per-class message counts (Figures 7-10's stacked bars, Figures 13-14's
  traffic curves),
* the invalidation distribution — a histogram of invalidations sent per
  invalidation event, tagged by cause (Figures 3-6),
* execution time (Figures 7-12) and per-processor busy/stall breakdowns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.machine.faults import FaultKind
from repro.machine.messages import MSG_LABELS, MsgClass

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

#: version of the :meth:`SimStats.to_dict` record.  1 was the original
#: unversioned shape; 2 adds this field itself plus the optional
#: ``metrics`` block recorded when observability is enabled.  The
#: backward-compat loader lives in :mod:`repro.analysis.sweeps`.
STATS_SCHEMA = 2


class InvalCause(str, Enum):
    """Why an invalidation event happened — the paper discusses all three."""

    WRITE = "write"  # ordinary write to a clean/shared block
    NB_EVICT = "nb_evict"  # Dir_iNB pointer overflow on a read
    SPARSE_REPL = "sparse_repl"  # sparse-directory entry replacement


@dataclass
class ProcessorStats:
    """Cycle breakdown for one processor."""

    busy: float = 0.0  # Work ops + cache-hit service
    stall: float = 0.0  # waiting on the memory system
    sync: float = 0.0  # waiting on locks/barriers
    reads: int = 0
    writes: int = 0
    finish_time: float = 0.0

    @property
    def total(self) -> float:
        return self.busy + self.stall + self.sync


class SimStats:
    """Mutable statistics accumulator for one simulation run."""

    def __init__(self, num_processors: int) -> None:
        self.messages: Counter = Counter()  # MsgClass -> count
        self.inval_hist: Dict[InvalCause, Counter] = {
            cause: Counter() for cause in InvalCause
        }
        self.procs: List[ProcessorStats] = [
            ProcessorStats() for _ in range(num_processors)
        ]
        self.exec_time: float = 0.0
        self.l1_hits = 0
        self.l2_hits = 0
        self.local_misses = 0  # satisfied within the cluster (bus)
        self.remote_misses = 0  # required a directory transaction
        self.writebacks = 0
        self.sparse_replacements = 0
        self.nb_evictions = 0
        self.lock_acquires = 0
        self.barrier_waits = 0
        #: injected faults by kind (empty unless a FaultPlan is active)
        self.fault_counts: Counter = Counter()
        #: request retries forced by drops and NAKs
        self.fault_retries = 0
        #: coherence-invariant violations recorded by the checker
        self.invariant_violations = 0
        #: observability instruments, bound by DashSystem when a real
        #: tracer is attached; None on the (byte-identical) default path
        self.metrics: Optional["MetricsRegistry"] = None

    # -- recording --------------------------------------------------------

    def count_msg(self, msg_class: MsgClass, n: int = 1) -> None:
        """Add ``n`` messages of a class."""
        if n:
            self.messages[msg_class] += n

    def count_fault(self, kind: FaultKind, n: int = 1) -> None:
        """Record ``n`` injected faults of a kind."""
        if n:
            self.fault_counts[kind] += n

    def record_inval_event(self, cause: InvalCause, size: int) -> None:
        """Histogram one invalidation event of ``size`` messages."""
        self.inval_hist[cause][size] += 1

    # -- derived quantities -----------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    def msg(self, msg_class: MsgClass) -> int:
        """Count of one message class."""
        return self.messages.get(msg_class, 0)

    @property
    def requests(self) -> int:
        return self.msg(MsgClass.REQUEST)

    @property
    def replies(self) -> int:
        return self.msg(MsgClass.REPLY)

    @property
    def invalidations(self) -> int:
        return self.msg(MsgClass.INVALIDATION)

    @property
    def acknowledgements(self) -> int:
        return self.msg(MsgClass.ACKNOWLEDGEMENT)

    @property
    def inval_plus_ack(self) -> int:
        return self.invalidations + self.acknowledgements

    def invalidation_events(self, *causes: InvalCause) -> int:
        """Number of invalidation events (optionally filtered by cause)."""
        selected = causes or tuple(InvalCause)
        return sum(sum(self.inval_hist[c].values()) for c in selected)

    def invalidations_sent(self, *causes: InvalCause) -> int:
        """Total invalidations across events (optionally by cause)."""
        selected = causes or tuple(InvalCause)
        return sum(
            size * n for c in selected for size, n in self.inval_hist[c].items()
        )

    @property
    def avg_invals_per_event(self) -> float:
        events = self.invalidation_events()
        return self.invalidations_sent() / events if events else 0.0

    def inval_distribution(self) -> Dict[int, int]:
        """Merged histogram over all causes: size -> event count."""
        merged: Counter = Counter()
        for hist in self.inval_hist.values():
            merged.update(hist)
        return dict(sorted(merged.items()))

    def traffic_breakdown(self) -> Dict[str, int]:
        """The Figures 7-10 stack: requests / replies / inval+ack."""
        return {
            "requests": self.requests,
            "replies": self.replies,
            "inval_ack": self.inval_plus_ack,
        }

    # -- fault/robustness counters ------------------------------------------

    @property
    def faults_injected(self) -> int:
        return sum(self.fault_counts.values())

    @property
    def fault_drops(self) -> int:
        return self.fault_counts.get(FaultKind.DROP, 0)

    @property
    def fault_duplicates(self) -> int:
        return self.fault_counts.get(FaultKind.DUPLICATE, 0)

    @property
    def fault_delays(self) -> int:
        return self.fault_counts.get(FaultKind.DELAY, 0)

    @property
    def fault_naks(self) -> int:
        return self.fault_counts.get(FaultKind.NAK, 0)

    @property
    def fault_corruptions(self) -> int:
        return self.fault_counts.get(FaultKind.CORRUPT, 0)

    def fault_summary(self) -> Dict[str, int]:
        """Flat fault/robustness counters (reports, CLI, fault suite)."""
        return {
            "faults_injected": self.faults_injected,
            "fault_drops": self.fault_drops,
            "fault_duplicates": self.fault_duplicates,
            "fault_delays": self.fault_delays,
            "fault_naks": self.fault_naks,
            "fault_corruptions": self.fault_corruptions,
            "fault_retries": self.fault_retries,
            "invariant_violations": self.invariant_violations,
        }

    def to_dict(self) -> Dict[str, object]:
        """Flat summary for reports and benchmark output (schema 2)."""
        out: Dict[str, object] = {
            "schema": STATS_SCHEMA,
            "exec_time": self.exec_time,
            "total_messages": self.total_messages,
            **{MSG_LABELS[c]: self.messages.get(c, 0) for c in MsgClass},
            "invalidation_events": self.invalidation_events(),
            "invalidations_sent": self.invalidations_sent(),
            "avg_invals_per_event": round(self.avg_invals_per_event, 3),
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "local_misses": self.local_misses,
            "remote_misses": self.remote_misses,
            "writebacks": self.writebacks,
            "sparse_replacements": self.sparse_replacements,
            "nb_evictions": self.nb_evictions,
        }
        # Only present when the robustness layer actually did something,
        # so fault-free runs stay byte-identical to the historical format.
        if self.faults_injected or self.fault_retries or self.invariant_violations:
            out.update(self.fault_summary())
        # Only present when observability actually recorded something, so
        # untraced runs keep the historical shape (modulo the schema tag).
        if self.metrics is not None and not self.metrics.empty:
            out["metrics"] = self.metrics.to_dict()
        return out

    # -- lossless state round-trip (the result-cache payload) ---------------

    #: plain-int / plain-float attributes copied verbatim by the state
    #: round-trip below (everything except the enum-keyed structures)
    _SCALAR_FIELDS = (
        "exec_time", "l1_hits", "l2_hits", "local_misses", "remote_misses",
        "writebacks", "sparse_replacements", "nb_evictions", "lock_acquires",
        "barrier_waits", "fault_retries", "invariant_violations",
    )

    def to_state(self) -> Dict[str, object]:
        """Lossless JSON-safe snapshot of every recorded statistic.

        Unlike :meth:`to_dict` (a flat report that drops the per-cause
        invalidation histograms and per-processor breakdowns), this
        captures enough to rebuild an equivalent ``SimStats`` via
        :meth:`from_state` — it is what the content-addressed result
        cache (:mod:`repro.analysis.cache`) persists.  The live
        ``metrics`` registry is deliberately excluded: observability
        instruments belong to a particular traced run, not to the
        deterministic simulation outcome.
        """
        state: Dict[str, object] = {
            "num_processors": len(self.procs),
            "messages": {c.name: n for c, n in sorted(self.messages.items())},
            "inval_hist": {
                cause.value: {str(size): n for size, n in sorted(hist.items())}
                for cause, hist in self.inval_hist.items()
                if hist
            },
            "fault_counts": {
                k.value: n for k, n in sorted(self.fault_counts.items())
            },
            "procs": [vars(p).copy() for p in self.procs],
        }
        for name in self._SCALAR_FIELDS:
            state[name] = getattr(self, name)
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Apply a :meth:`to_state` snapshot *in place*.

        Directory controllers bind this object and its ``messages``
        counter at construction, and processors bind their
        ``ProcessorStats`` rows, so a checkpoint restore must mutate
        those objects, never rebind them.  Raises ``KeyError``/
        ``ValueError``/``TypeError`` on malformed input.
        """
        procs_state = state["procs"]
        if len(procs_state) != len(self.procs):  # type: ignore[arg-type]
            raise ValueError("processor count mismatch in stats state")
        self.messages.clear()
        for label, count in state["messages"].items():  # type: ignore[union-attr]
            self.messages[MsgClass[label]] = int(count)
        for counter in self.inval_hist.values():
            counter.clear()
        for cause_value, hist in state.get("inval_hist", {}).items():  # type: ignore[union-attr]
            counter = self.inval_hist[InvalCause(cause_value)]
            for size, n in hist.items():
                counter[int(size)] = int(n)
        self.fault_counts.clear()
        for kind_value, n in state.get("fault_counts", {}).items():  # type: ignore[union-attr]
            self.fault_counts[FaultKind(kind_value)] = int(n)
        for proc, pstate in zip(self.procs, procs_state):  # type: ignore[arg-type]
            for field_name in vars(proc):
                setattr(proc, field_name, pstate[field_name])
        for name in self._SCALAR_FIELDS:
            setattr(self, name, state[name])

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SimStats":
        """Rebuild a ``SimStats`` from a :meth:`to_state` snapshot.

        The result cache treats any :meth:`load_state` failure as a
        corrupted entry and falls back to simulation.
        """
        stats = cls(int(state["num_processors"]))  # type: ignore[arg-type]
        stats.load_state(state)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SimStats t={self.exec_time:.0f} msgs={self.total_messages} "
            f"(req={self.requests} rep={self.replies} "
            f"inv={self.invalidations} ack={self.acknowledgements})>"
        )
