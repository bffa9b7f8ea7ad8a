"""Tango substitute: reference streams with timing-feedback interleaving.

The paper drove its DASH simulator with Tango, which runs a parallel
application on one host and feeds its global events (shared references
and synchronization) to a memory-system simulator that returns timing, so
the interleaving stays valid.  We reproduce the same coupled-mode
semantics with per-processor streams — written as Python generators,
compiled once into packed arrays — whose cursor advances only when the
simulated memory system completes the processor's previous reference, so
the global order is determined by simulated time.
"""

from repro.trace.event import Barrier, Lock, Read, TraceOp, Unlock, Work, Write
from repro.trace.address_space import AddressSpace, SharedArray
from repro.trace.workload import Workload
from repro.trace.stats import TraceStats, characterize

__all__ = [
    "TraceOp",
    "Read",
    "Write",
    "Work",
    "Lock",
    "Unlock",
    "Barrier",
    "AddressSpace",
    "SharedArray",
    "Workload",
    "TraceStats",
    "characterize",
]
