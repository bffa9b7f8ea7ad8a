"""ScriptedWorkload: explicit per-processor op lists.

The smallest possible workload — ideal for unit tests, protocol
debugging, and teaching examples where you want to dictate the exact
reference sequence each processor issues.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.trace.event import TraceOp
from repro.trace.workload import Workload


class ScriptedWorkload(Workload):
    """A workload defined by literal op sequences.

    ``scripts[p]`` is the op list for processor ``p``.  Shared-space
    accounting is taken from an optional ``shared_bytes`` hint since the
    scripts address raw bytes directly.
    """

    name = "scripted"

    def __init__(
        self,
        scripts: Sequence[Sequence[TraceOp]],
        *,
        block_bytes: int = 16,
        shared_bytes_hint: int = 0,
        seed: int = 0,
    ) -> None:
        self._scripts = [list(s) for s in scripts]
        self._shared_hint = shared_bytes_hint
        super().__init__(len(self._scripts), block_bytes=block_bytes, seed=seed)

    def build(self) -> None:
        if self._shared_hint:
            self.space.alloc("scripted", self._shared_hint, 1)

    def stream(self, proc_id: int) -> Iterator[TraceOp]:
        return iter(self._scripts[proc_id])

    def compile(self):
        """From the scripts held, every time: mutable lists share nothing."""
        return self._compile_privately()
