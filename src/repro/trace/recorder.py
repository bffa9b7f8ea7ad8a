"""Trace capture and replay — the Tango *trace mode* (§5).

Tango could either couple to the memory simulator (our normal mode) or
emit standalone reference traces.  This module provides both artifacts:

* :func:`dump_trace` / :func:`load_trace` — serialize a workload's
  per-processor op streams to a portable text file, so a trace can be
  re-simulated later (or elsewhere) without the generating code;
* :class:`ReplayWorkload` — a workload backed by such a file;
* :class:`InterleavingRecorder` — hooks a :class:`DashSystem` to record
  the *global simulated interleaving* (time, processor, op), which is
  what a coupled Tango run observes.

Format: one line per op, prefixed by single-letter opcodes
(``R``ead, ``W``rite, wor``K``, ``L``ock, ``U``nlock, ``B``arrier),
with ``P <n>`` section headers per processor and a ``#``-comment header.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager, List, Sequence, TextIO, Tuple, Union

from repro.trace.event import OP_CLASSES, OPCODE, TraceOp
from repro.trace.scripted import ScriptedWorkload
from repro.trace.workload import Workload

#: the trace file's letter for each opcode, in ``OP_CLASSES`` order
_LETTERS = "RWKLUB"
_DECODE = dict(zip(_LETTERS, OP_CLASSES))


def encode_op(op: TraceOp) -> str:
    """One-line encoding of a trace op."""
    try:
        letter = _LETTERS[OPCODE[type(op)]]
    except KeyError:
        raise TypeError(f"cannot encode {op!r}") from None
    return f"{letter} {op[0]}"


def decode_op(line: str) -> TraceOp:
    """Inverse of :func:`encode_op`."""
    parts = line.split()
    if len(parts) != 2 or parts[0] not in _DECODE:
        raise ValueError(f"malformed trace line: {line!r}")
    return _DECODE[parts[0]](int(parts[1]))


def _opened(target: Union[str, Path, TextIO], mode: str) -> ContextManager[TextIO]:
    """A path is opened here and closed on exit; a file object is the caller's."""
    if isinstance(target, (str, Path)):
        return open(target, mode)
    return nullcontext(target)


def dump_trace(workload: Workload, target: Union[str, Path, TextIO]) -> int:
    """Write every processor's stream to ``target``; returns ops written."""
    streams = workload.compile()
    with _opened(target, "w") as fh:
        fh.write(f"# repro trace: {workload.name}\n")
        fh.write(f"# processors: {workload.num_processors}\n")
        fh.write(f"# block_bytes: {workload.block_bytes}\n")
        fh.write(f"# shared_bytes: {workload.shared_bytes}\n")
        for p, words in enumerate(streams):
            fh.write(f"P {p}\n")
            fh.writelines(f"{_LETTERS[w & 7]} {w >> 3}\n" for w in words)
    return sum(map(len, streams))


def load_trace(
    source: Union[str, Path, TextIO]
) -> Tuple[List[List[TraceOp]], dict]:
    """Read a trace file; returns (per-processor op lists, header metadata)."""
    meta: dict = {}
    scripts: List[List[TraceOp]] = []
    current: List[TraceOp] | None = None
    with _opened(source, "r") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if ":" in line:
                    key, _, value = line[1:].partition(":")
                    meta[key.strip()] = value.strip()
                continue
            if line.startswith("P "):
                index = int(line[2:])
                if index != len(scripts):
                    raise ValueError(
                        f"processor sections out of order: got {index}, "
                        f"expected {len(scripts)}"
                    )
                current = []
                scripts.append(current)
                continue
            if current is None:
                raise ValueError("trace op before any 'P <n>' section")
            current.append(decode_op(line))
    return scripts, meta


class ReplayWorkload(ScriptedWorkload):
    """A workload replayed from a trace file or pre-loaded scripts."""

    name = "replay"

    def __init__(
        self,
        source: Union[str, Path, TextIO, Sequence[Sequence[TraceOp]]],
        *,
        block_bytes: int | None = None,
        seed: int = 0,
    ) -> None:
        shared_hint = 0
        if isinstance(source, (str, Path)) or hasattr(source, "read"):
            source, meta = load_trace(source)  # type: ignore[arg-type]
            if block_bytes is None and "block_bytes" in meta:
                block_bytes = int(meta["block_bytes"])
            shared_hint = int(meta.get("shared_bytes", 0))
            if "repro trace" in meta:
                self.name = f"replay:{meta['repro trace']}"
        super().__init__(
            source,  # type: ignore[arg-type]
            block_bytes=block_bytes or 16,
            shared_bytes_hint=shared_hint,
            seed=seed,
        )


class InterleavingRecorder:
    """Records the global simulated interleaving of a run.

    Attach before ``run()``::

        system = DashSystem(cfg, workload)
        recorder = InterleavingRecorder.attach(system)
        system.run()
        for time, proc, op in recorder.events: ...

    This is the artifact a coupled Tango run produces: shared references
    and sync ops in simulated-time order.
    """

    def __init__(self) -> None:
        self.events: List[Tuple[float, int, TraceOp]] = []

    @classmethod
    def attach(cls, system) -> "InterleavingRecorder":
        recorder = cls()
        system.trace_hook = recorder._record
        return recorder

    def _record(self, proc_id: int, op: TraceOp, time: float) -> None:
        self.events.append((time, proc_id, op))

    def write(self, target: Union[str, Path, TextIO]) -> int:
        """Dump ``time proc op`` lines; returns events written."""
        with _opened(target, "w") as fh:
            fh.write("# repro interleaved trace\n")
            for time, proc, op in self.events:
                fh.write(f"{time:.0f} {proc} {encode_op(op)}\n")
        return len(self.events)
