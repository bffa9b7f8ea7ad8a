"""Static workload characterization — the Table 2 columns.

Streams are timing-oblivious (see :class:`~repro.trace.workload.Workload`),
so the totals are counted off the compiled streams without a machine
behind them — and a simulation of the same workload reuses the compile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.trace.event import READ, WORK, WRITE
from repro.trace.workload import Workload


@dataclass(frozen=True)
class TraceStats:
    """Aggregate reference counts for one workload instance."""

    name: str
    num_processors: int
    shared_refs: int
    shared_reads: int
    shared_writes: int
    sync_ops: int
    work_cycles: int
    shared_bytes: int

    @property
    def read_fraction(self) -> float:
        return self.shared_reads / self.shared_refs if self.shared_refs else 0.0


def characterize(workload: Workload) -> TraceStats:
    """Count every processor's compiled stream (Table 2)."""
    ops: Counter = Counter()
    work = 0
    for words in workload.compile():
        ops.update(word & 7 for word in words)
        work += sum(word >> 3 for word in words if word & 7 == WORK)
    reads, writes = ops[READ], ops[WRITE]
    sync = sum(ops.values()) - reads - writes - ops[WORK]
    return TraceStats(
        name=workload.name,
        num_processors=workload.num_processors,
        shared_refs=reads + writes,
        shared_reads=reads,
        shared_writes=writes,
        sync_ops=sync,
        work_cycles=work,
        shared_bytes=workload.shared_bytes,
    )
