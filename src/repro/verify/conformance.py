"""Model-based trace conformance: is a traced run a path in the model?

:mod:`repro.obs` records what the simulator *did* — request issues,
directory services, writebacks — and :mod:`repro.verify.model` defines
what the protocol *may* do.  This pass closes the loop (the BedRock
"validate the implementation against the verified model" idea): it
replays a JSONL/Chrome trace through the guarded-transition model and
reports the first traced event the model would not allow, with the set
of actions the model *did* allow at that point.

Per-address projection
----------------------
The model is per-line, so the trace is projected per block: every
relevant event (``txn.read``/``txn.write`` issues, ``wb.issue`` /
``hint.issue`` evictions, ``dir.service`` deliveries,
``dir.sparse_evict`` recalls) is bucketed by block and sorted by the
instant its state change took effect — issue events at their emission
time, services at ``args["t_start"]`` (the execution start the engine
records exactly for this purpose; ``ts`` = arrival is used for older
traces).  Issues order before services at equal timestamps, and the
original event index breaks remaining ties.  Each block's sequence is
then driven through a fresh single-line model instance.

Engine/model gap repairs (each counted in the result):

* **silent clean drops** — the simulator drops clean copies without a
  message; when a traced re-read arrives from a node the model still
  thinks is ``SHARED``, a ``drop`` action is inserted first;
* **cancelled writebacks** — the engine still *services* (and traces) a
  writeback obsoleted by a later ownership re-grant, while the model
  cancels the message at grant time; such services are matched against
  the model's cancellations and skipped;
* **still-shared writebacks** — a multi-processor cluster can keep a
  clean copy while writing back (``still_shared`` on the traced
  service); the model's nodes are one processor each, so the evicting
  node is filled ``SHARED`` again (the kernel's fill row) before the
  delivery, and the kernel's writeback row re-records it;
* **replacement hints** — pure optimizations outside the model's action
  set; ``hint.issue`` maps to a clean ``drop`` and the hint's service
  calls :func:`repro.core.protocol.hint`, as the engine does;
* **sparse recalls** — a single-line model cannot reproduce cross-block
  replacement pressure, so a ``dir.sparse_evict`` event is trusted: the
  kernel's recall row runs at the recorded victim nodes, as the
  controller runs it, and the line is torn down.

Traces whose ring buffer dropped events are rejected outright: a
conformance verdict on a hole-y trace would be meaningless.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import protocol
from repro.core.registry import make_scheme
from repro.core.sparse import Eviction
from repro.obs.export import read_trace
from repro.obs.tracer import TraceEvent
from repro.verify.explorer import describe_action
from repro.verify.model import (
    INVALID,
    MSG_READ,
    MSG_WB,
    MSG_WRITE,
    SHARED,
    Action,
    Message,
    ModelConfig,
    ModelState,
    apply_action,
    enabled_actions,
    initial_state,
    node_views,
    state_violations,
)

PathLike = Union[str, Path]

#: trace event names the conformance projection consumes
RELEVANT_EVENTS = (
    "txn.read",
    "txn.write",
    "wb.issue",
    "hint.issue",
    "dir.service",
    "dir.sparse_evict",
)

#: dir.service kind -> the model message its delivery consumes
_MSG_OF = {
    protocol.READ: MSG_READ, protocol.WRITE: MSG_WRITE,
    protocol.WRITEBACK: MSG_WB,
}
#: every dir.service kind machine.directory emits (hints have no message:
#: they are outside the model's action set)
_SERVICE_KINDS = (*_MSG_OF, protocol.HINT)


@dataclass(frozen=True)
class Divergence:
    """First point where a traced block sequence leaves the model."""

    block: int
    index: int  #: event index in the original trace file
    seq: int  #: position within the block's projected sequence
    name: str
    ts: float
    wanted: str  #: the action the traced event required
    allowed: Tuple[str, ...]  #: what the model allowed instead

    def format(self) -> str:
        """One-line diagnostic naming the event and what the model allowed."""
        allowed = ", ".join(self.allowed) if self.allowed else "(nothing)"
        return (
            f"block {self.block}: diverged at event {self.index} "
            f"({self.name} @ t={self.ts:g}, step {self.seq} of the block's "
            f"sequence): trace requires [{self.wanted}], "
            f"model allowed {{{allowed}}}"
        )


@dataclass
class ConformanceResult:
    """Outcome of checking one trace against the protocol model."""

    trace: str
    scheme: str
    num_nodes: int
    blocks: int = 0
    events: int = 0  #: relevant events checked
    drops_inserted: int = 0
    cancelled_wb_skipped: int = 0
    still_shared_wbs: int = 0
    hints_applied: int = 0
    sparse_recalls: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: model invariant violations raised while replaying (a conforming
    #: trace of a buggy protocol build would land here)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    def first_divergence(self) -> Optional[Divergence]:
        """Earliest divergence across all blocks (by time, then index)."""
        if not self.divergences:
            return None
        return min(self.divergences, key=lambda d: (d.ts, d.index))

    def stats_dict(self) -> Dict[str, object]:
        """JSON-ready summary (mirrors ExploreResult.stats_dict)."""
        first = self.first_divergence()
        return {
            "trace": self.trace,
            "scheme": self.scheme,
            "nodes": self.num_nodes,
            "blocks": self.blocks,
            "events": self.events,
            "drops_inserted": self.drops_inserted,
            "cancelled_wb_skipped": self.cancelled_wb_skipped,
            "still_shared_wbs": self.still_shared_wbs,
            "hints_applied": self.hints_applied,
            "sparse_recalls": self.sparse_recalls,
            "divergences": len(self.divergences),
            "violations": len(self.violations),
            "first_divergence": first.format() if first else None,
            "verdict": "ok" if self.ok else "diverged",
        }


def _sort_ts(ev: TraceEvent) -> float:
    """The instant the event's state change took effect."""
    if ev.name == "dir.service":
        t_start = (ev.args or {}).get("t_start")
        if isinstance(t_start, (int, float)):
            return float(t_start)
    return ev.ts


def project_by_block(
    events: Sequence[TraceEvent],
) -> Dict[int, List[Tuple[int, TraceEvent]]]:
    """Bucket relevant events by block, in state-change order.

    Returns ``block -> [(original_index, event), ...]``.  Equal
    timestamps are broken by original trace position: emission order is
    completion order, and a request whose issue was *caused* by a
    service at the same instant (say an NB forced eviction) necessarily
    completes after it.  The one pairing this gets wrong — a
    zero-latency service sorting before its own issue event, whose
    emission the completion span delays — is repaired by the checker's
    same-timestamp lookahead.
    """
    buckets: Dict[int, List[Tuple[int, TraceEvent]]] = defaultdict(list)
    for idx, ev in enumerate(events):
        if ev.name not in RELEVANT_EVENTS:
            continue
        block = (ev.args or {}).get("block")
        if not isinstance(block, int):
            raise ValueError(
                f"event {idx} ({ev.name}) carries no integer 'block' arg — "
                f"not a simulator trace?"
            )
        buckets[block].append((idx, ev))
    for seq in buckets.values():
        seq.sort(key=lambda pair: (_sort_ts(pair[1]), pair[0]))
    return dict(buckets)


def _matches_issue(ev: TraceEvent, kind: str, req: int) -> bool:
    """Is ``ev`` the issue event a ``kind`` (in ``_MSG_OF``) service from
    ``req`` consumes?"""
    if kind == protocol.WRITEBACK:
        return ev.name == "wb.issue" and ev.tid == req
    return ev.name == f"txn.{kind}" and (ev.args or {}).get("requester") == req


class _BlockChecker:
    """Drives one block's projected event sequence through the model."""

    def __init__(
        self, block: int, cfg: ModelConfig, result: ConformanceResult
    ) -> None:
        self.block = block
        self.cfg = cfg
        self.state: ModelState = initial_state(cfg)
        self.result = result
        #: node -> writebacks the model cancelled that the engine will
        #: still service (and trace) as stale
        self.cancelled: Dict[int, int] = defaultdict(int)

    # -- helpers ------------------------------------------------------------

    def _apply(self, action: Action, idx: int, ev: TraceEvent) -> None:
        """Apply a model action, folding violations into the result."""
        before_wbs = [m for m in self.state.msgs if m[0] == MSG_WB]
        self.state, violations = apply_action(self.state, action, self.cfg)
        for v in violations:
            self.result.violations.append(
                f"block {self.block} event {idx} ({ev.name} @ t={ev.ts:g}): "
                f"{v.invariant}: {v.message}"
            )
        if action[0] == "deliver" and action[1] in (MSG_READ, MSG_WRITE):
            # a grant can obsolete in-flight writebacks; the engine still
            # services (and traces) them, so remember to skip those
            after = list(self.state.msgs)
            for m in before_wbs:
                if m in after:
                    after.remove(m)
                else:
                    self.cancelled[m[2]] += 1
        for v in state_violations(self.state, self.cfg):
            self.result.violations.append(
                f"block {self.block} after event {idx} ({ev.name}): "
                f"{v.invariant}: {v.message}"
            )

    def _try(self, action: Action, idx: int, seq: int, ev: TraceEvent) -> bool:
        """Apply ``action`` if enabled; record a divergence otherwise."""
        if action in enabled_actions(self.state, self.cfg):
            self._apply(action, idx, ev)
            return True
        self._diverge(idx, seq, ev, describe_action(action))
        return False

    def _diverge(self, idx: int, seq: int, ev: TraceEvent, wanted: str) -> None:
        self.result.divergences.append(
            Divergence(
                block=self.block,
                index=idx,
                seq=seq,
                name=ev.name,
                ts=_sort_ts(ev),
                wanted=wanted,
                allowed=tuple(
                    describe_action(a)
                    for a in enabled_actions(self.state, self.cfg)
                ),
            )
        )

    # -- the block's sequence ------------------------------------------------

    def run(self, items: Sequence[Tuple[int, TraceEvent]]) -> None:
        """Drive the whole projected sequence, stopping at a divergence.

        Before a service whose message is missing, the *same-timestamp*
        tail is scanned for the matching issue event and that issue is
        consumed early: a zero-latency leg makes issue and service
        simultaneous, and emission order (completion order) then puts
        the service first.
        """
        consumed: set = set()
        for pos, (idx, ev) in enumerate(items):
            if pos in consumed:
                continue
            if ev.name == "dir.service":
                args = ev.args or {}
                kind, req = args.get("kind"), args.get("requester")
                if (
                    isinstance(req, int)
                    and isinstance(kind, str)
                    and kind in _MSG_OF
                    and (_MSG_OF[kind], 0, req) not in self.state.msgs
                ):
                    ts = _sort_ts(ev)
                    for ahead in range(pos + 1, len(items)):
                        a_idx, a_ev = items[ahead]
                        if _sort_ts(a_ev) != ts:
                            break
                        if ahead not in consumed and _matches_issue(
                            a_ev, kind, req
                        ):
                            consumed.add(ahead)
                            if not self.feed(a_idx, pos, a_ev):
                                return
                            break
            if not self.feed(idx, pos, ev):
                return

    # -- one event ----------------------------------------------------------

    def feed(self, idx: int, seq: int, ev: TraceEvent) -> bool:
        """Check one event; False on divergence (the block's replay stops)."""
        self.result.events += 1
        args = ev.args or {}
        name = ev.name

        if name in ("txn.read", "txn.write"):
            req = args.get("requester")
            if not isinstance(req, int) or not 0 <= req < self.cfg.num_nodes:
                self._diverge(idx, seq, ev, f"issue by requester {req!r}")
                return False
            kind = "read" if name == "txn.read" else "write"
            if kind == "read" and self.state.caches[req][0] == SHARED:
                # the engine dropped the clean copy silently; catch up
                self._apply(("drop", req, 0), idx, ev)
                self.result.drops_inserted += 1
            return self._try((kind, req, 0), idx, seq, ev)

        if name == "wb.issue":
            return self._try(("evict", ev.tid, 0), idx, seq, ev)

        if name == "hint.issue":
            st = self.state.caches[ev.tid][0] if 0 <= ev.tid < self.cfg.num_nodes else None
            if st == SHARED:
                self._apply(("drop", ev.tid, 0), idx, ev)
                self.result.hints_applied += 1
                return True
            if st == INVALID:
                # already recalled/invalidated in the model; nothing to drop
                return True
            self._diverge(idx, seq, ev, f"clean drop by node {ev.tid}")
            return False

        if name == "dir.sparse_evict":
            nodes = args.get("nodes")
            if not isinstance(nodes, list):
                raise ValueError(
                    f"event {idx}: dir.sparse_evict lacks the 'nodes' victim "
                    f"list — regenerate the trace with this build"
                )
            store = self.state.stores[self.cfg.home(0)]
            line = store.lookup(self.block)
            protocol.recall(  # row RC, as the controller runs it
                Eviction(self.block, tuple(map(int, nodes)), False, None),
                node_views(self.state, self.cfg),
            )
            if line is not None:
                # as SparseDirectory._evict: the slot is torn down whole —
                # release() alone would no-op on a non-empty line
                line.reset()
                store.release(self.block)
            self.result.sparse_recalls += 1
            return True

        # dir.service
        kind = args.get("kind")
        req = args.get("requester")
        if kind not in _SERVICE_KINDS or not isinstance(req, int):
            self._diverge(idx, seq, ev, f"service kind={kind!r} from {req!r}")
            return False
        if kind in (protocol.READ, protocol.WRITE):
            return self._try(("deliver", _MSG_OF[kind], 0, req), idx, seq, ev)
        if kind == protocol.WRITEBACK:
            wb: Message = (MSG_WB, 0, req)
            if wb not in self.state.msgs:
                if self.cancelled[req] > 0:
                    # obsoleted by a later re-grant; engine drops it too
                    self.cancelled[req] -= 1
                    self.result.cancelled_wb_skipped += 1
                    return True
                self._diverge(idx, seq, ev, describe_action(("deliver",) + wb))
                return False
            if args.get("still_shared") and self.state.caches[req][0] == INVALID:
                # the evicting cluster kept a clean copy (multi-processor
                # cluster); fill it back (row FL) so the delivery
                # re-records the node (protocol.writeback's CB branch)
                protocol.fill(
                    node_views(self.state, self.cfg)[req], 0, self.block, False
                )
                self.result.still_shared_wbs += 1
            return self._try(("deliver",) + wb, idx, seq, ev)
        # hint service: outside the model's actions, so call the kernel
        protocol.hint(self.state.stores[self.cfg.home(0)], self.block, req)
        self.result.hints_applied += 1
        return True


def check_trace(
    path: PathLike,
    *,
    scheme: Optional[str] = None,
    num_nodes: Optional[int] = None,
    max_divergences: int = 10,
) -> ConformanceResult:
    """Conformance-check one trace file against the protocol model.

    ``scheme``/``num_nodes`` override (or supply, for traces written by
    other tools) the trace header's ``scheme``/``procs`` metadata.
    Each diverging block stops at its first divergence; checking stops
    entirely once ``max_divergences`` blocks have diverged.
    """
    events, meta = _read_with_meta(path)
    dropped = meta.get("dropped")
    if isinstance(dropped, int) and dropped > 0:
        raise ValueError(
            f"{path}: trace dropped {dropped} events (ring buffer "
            f"wrapped); conformance needs a complete trace — re-record "
            f"with a larger --capacity"
        )
    scheme_name = scheme or meta.get("scheme")
    nodes = num_nodes if num_nodes is not None else meta.get("procs")
    if not isinstance(scheme_name, str) or not isinstance(nodes, int):
        raise ValueError(
            f"{path}: trace header lacks scheme/procs metadata — pass "
            f"--scheme and --nodes explicitly"
        )

    result = ConformanceResult(
        trace=str(path), scheme=scheme_name, num_nodes=nodes
    )
    buckets = project_by_block(events)
    result.blocks = len(buckets)
    base_scheme = make_scheme(scheme_name, nodes)
    for block in sorted(buckets):
        cfg = ModelConfig(
            scheme=base_scheme,
            num_nodes=nodes,
            blocks=(block,),
            # issue guards must never bite: bound in-flight messages by
            # what the engine itself can have outstanding
            max_inflight=4 * nodes + 8,
            symmetry=False,
        )
        checker = _BlockChecker(block, cfg, result)
        checker.run(buckets[block])
        if len(result.divergences) >= max_divergences:
            break
    return result


def _read_with_meta(
    path: PathLike,
) -> Tuple[List[TraceEvent], Dict[str, object]]:
    """Load a trace plus its header metadata (both on-disk formats)."""
    import json

    events = read_trace(path)
    meta: Dict[str, object] = {}
    with open(path) as fh:
        head = fh.readline()
    try:
        first = json.loads(head)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and first.get("kind") == "repro-trace":
        meta = dict(first)
    else:
        with open(path) as fh:
            data = json.load(fh)
        other = data.get("otherData") if isinstance(data, dict) else None
        if isinstance(other, dict):
            meta = dict(other)
    return events, meta


def format_conformance_report(result: ConformanceResult) -> str:
    """Human-readable verdict, diagnostics first."""
    lines = [
        f"trace {result.trace}: scheme {result.scheme}, "
        f"{result.num_nodes} nodes, {result.blocks} blocks, "
        f"{result.events} events checked",
        f"  repairs: {result.drops_inserted} silent drops, "
        f"{result.cancelled_wb_skipped} cancelled writebacks, "
        f"{result.still_shared_wbs} still-shared writebacks, "
        f"{result.hints_applied} hints, "
        f"{result.sparse_recalls} sparse recalls",
    ]
    for v in result.violations:
        lines.append(f"  model violation: {v}")
    first = result.first_divergence()
    if first is not None:
        lines.append(f"  {first.format()}")
        extra = len(result.divergences) - 1
        if extra:
            lines.append(f"  (+{extra} more diverging block(s))")
    lines.append(
        "verdict: conforms — every traced sequence is a model path"
        if result.ok
        else "verdict: DIVERGED — the trace is not a path in the model"
    )
    return "\n".join(lines)
