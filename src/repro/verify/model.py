"""Guarded-transition abstraction of the DASH directory protocol.

The simulator (:mod:`repro.machine.directory`) applies every directory
state effect **atomically at service time** — a block is busy from
service to completion and later arrivals queue.  That discipline is what
makes a small-model abstraction sound: a reachable protocol state is
fully described by

* each node's cache state per modeled line — ``I`` / ``S`` / ``M`` — a
  node being one processor (the writeback-buffer "ghost" of an evicted
  dirty line is represented by the in-flight writeback message itself),
* the multiset of in-flight messages — issued ``read`` / ``write``
  requests and ``wb`` writebacks that have not yet been serviced,
* the **real** directory store (:class:`~repro.core.sparse.FullMapDirectory`
  or :class:`~repro.core.sparse.SparseDirectory`) holding **real**
  :class:`~repro.core.base.DirectoryEntry` objects, so the checker
  exercises the same pointer-overflow / coarse-vector / forced-eviction /
  wide-store code the simulator runs.

Actions (one atomic step each):

``("read", p, l)`` / ``("write", p, l)``
    node ``p`` issues a miss for line ``l`` (guarded: kernel rows L1/L3
    miss, one outstanding request per node, bounded in-flight messages);
``("evict", p, l)``
    ``p`` evicts its dirty copy — the copy leaves the cache and a ``wb``
    message starts travelling home;
``("drop", p, l)``
    ``p`` silently drops a clean copy (no message, like the simulator);
``("deliver", kind, l, p)``
    the home services one in-flight message by *executing*
    :mod:`repro.core.protocol` — the same directory and node rows
    ``DirectoryController`` and ``DashSystem`` call — over the
    ``I``/``S``/``M`` rows (:func:`node_views`); a cancelled writeback is
    the removal of its ``wb`` message.

Timing, NAK-retries, and fault injection are deliberately outside the
model: they affect *when* transitions happen, not *which* directory state
transitions exist, and delivery order is explored exhaustively anyway.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import protocol
from repro.core.base import DirectoryScheme, nodes_mask
from repro.core.protocol import LineState
from repro.core.sparse import DirectoryStore, FullMapDirectory, SparseDirectory
from repro.machine.invariants import block_violations
from repro.trace.event import Read, TraceOp, Work, Write
from repro.trace.scripted import ScriptedWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.config import MachineConfig

INVALID = "I"
SHARED = "S"
MODIFIED = "M"

MSG_READ = "read"
MSG_WRITE = "write"
MSG_WB = "wb"

#: an in-flight message: (kind, line index, issuing node)
Message = Tuple[str, int, int]
#: one atomic step: ("read"|"write"|"evict"|"drop", node, line) or
#: ("deliver", kind, line, node)
Action = Tuple[object, ...]

#: cycles of ``Work`` padding per global step during counterexample
#: replay — large enough that each replayed transaction fully completes
#: (worst case is a broadcast invalidation round, a few hundred cycles)
#: before the next processor issues.
REPLAY_GAP = 5_000

#: replayed machines use tiny direct-mapped caches of this many blocks so
#: an ``evict``/``drop`` action can be forced with one conflicting read.
REPLAY_CACHE_BLOCKS = 8


@dataclass(frozen=True)
class ModelViolation:
    """One invariant breach in a model state or during a delivery."""

    invariant: str
    message: str


@dataclass
class ModelConfig:
    """Bounds and scheme for one exploration.

    ``blocks`` are real block addresses; ``home(b) = b % num_nodes`` as in
    the simulator.  With ``sparse_ways`` set, the home directory is a
    1-set :class:`SparseDirectory` with that many ways and *random*
    replacement — the LRU/LRA policies carry an unbounded tick counter
    that would make the state space infinite, and with the policy RNG
    re-seeded before every action "random" is a pure function of the
    layout, so states merge soundly.
    """

    scheme: DirectoryScheme
    num_nodes: int
    blocks: Tuple[int, ...] = (0,)
    max_inflight: int = 2
    sparse_ways: Optional[int] = None
    include_drop: bool = True
    symmetry: bool = True
    max_states: int = 250_000

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.scheme.num_nodes != self.num_nodes:
            raise ValueError(
                f"scheme tracks {self.scheme.num_nodes} nodes but the model "
                f"has {self.num_nodes}"
            )
        if not self.blocks:
            raise ValueError("need at least one modeled block")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("modeled blocks must be distinct")
        if len(set(b % REPLAY_CACHE_BLOCKS for b in self.blocks)) != len(
            self.blocks
        ):
            # replay forces evictions via conflicting reads; two modeled
            # blocks in one cache set would evict each other
            raise ValueError(
                f"modeled blocks must fall in distinct cache sets "
                f"(distinct mod {REPLAY_CACHE_BLOCKS}) for replayability"
            )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.sparse_ways is not None and self.sparse_ways < 1:
            raise ValueError("sparse_ways must be >= 1")

    def home(self, line: int) -> int:
        """Home node of modeled line ``line`` (block % N, as in DashSystem)."""
        return self.blocks[line] % self.num_nodes


#: every RNG as ``_reseed`` leaves it; a snapshot holds this, not a copy
PINNED_RNG = random.Random(0).getstate()


class Snapshot(NamedTuple):
    """A :class:`ModelState` in its stores' and scheme's ``to_state`` form."""

    caches: Tuple[Tuple[str, ...], ...]
    msgs: Tuple[Message, ...]
    stores: Tuple[Dict[str, Any], ...]
    scheme: Dict[str, Any]


@dataclass(eq=False, slots=True)
class ModelState:
    """One reachable protocol state; mutable, copied only as a
    :class:`Snapshot` through :meth:`to_state` / :meth:`load_state`."""

    caches: List[List[str]]
    #: in-flight messages, unordered (the network may reorder freely)
    msgs: List[Message]
    #: one directory store per node, as in the real machine (relevant
    #: for sparse configs, where each home has its own sets/ways)
    stores: List[DirectoryStore] = field(repr=False)

    def to_state(self) -> Snapshot:
        """Snapshot this state; every RNG is recorded as :data:`PINNED_RNG`
        (``_reseed`` pins it before each action, so it carries nothing)."""
        stores: List[Dict[str, Any]] = []
        for store in self.stores:
            store_state = store.to_state()
            if "policy" in store_state:
                store_state["policy"]["rng"] = PINNED_RNG
            stores.append(store_state)
        scheme = self.stores[0].scheme.to_state()
        scheme["rng"] = PINNED_RNG
        caches = tuple(map(tuple, self.caches))
        return Snapshot(caches, tuple(self.msgs), tuple(stores), scheme)

    def load_state(self, snapshot: Snapshot) -> None:
        """Become ``snapshot``: stores first, then the scheme they share
        (:meth:`DirectoryScheme.load_state` must come after its entries)."""
        self.caches = [list(row) for row in snapshot.caches]
        self.msgs = list(snapshot.msgs)
        for store, store_state in zip(self.stores, snapshot.stores):
            store.load_state(store_state)
        self.stores[0].scheme.load_state(snapshot.scheme)


def initial_state(cfg: ModelConfig) -> ModelState:
    """All caches invalid, no messages, empty directories."""
    caches = [[INVALID] * len(cfg.blocks) for _ in range(cfg.num_nodes)]
    scheme = copy.deepcopy(cfg.scheme)
    ways = cfg.sparse_ways
    stores: List[DirectoryStore] = [
        FullMapDirectory(scheme) if ways is None else SparseDirectory(
            scheme, ways, ways, policy="random", stride=cfg.num_nodes, offset=node
        )
        for node in range(cfg.num_nodes)
    ]
    return ModelState(caches, [], stores)


def _reseed(state: ModelState) -> None:
    """Pin every RNG before an action so identical states act identically.

    The scheme RNG (Dir_iNB victim choice) and any sparse replacement
    policy RNG are shared mutable objects; without re-seeding, two runs
    reaching the *same* canonical state could diverge, which would make
    merging states in the explorer unsound.
    """
    state.stores[0].scheme.rng.seed(0)
    for store in state.stores:
        policy = getattr(store, "policy", None)
        if policy is not None:
            policy.rng.seed(0)


# -- the kernel's processor view, over I/S/M rows -----------------------------

_STATE_OF = {INVALID: None, SHARED: LineState.SHARED, MODIFIED: LineState.DIRTY}
_LETTER_OF = {LineState.SHARED: SHARED, LineState.DIRTY: MODIFIED}


@dataclass
class _Lines:
    """One node's ``I``/``S``/``M`` letters as a kernel ``ProcView``.

    An unmodeled block is absent; a modeled line has its own slot, so a
    fill evicts nothing.  The ghost is the node's ``wb`` message, which
    ``cancel_wb`` or its own delivery removes (so releasing is a no-op)
    and which, being in flight, outlives an invalidation of the node.
    """

    row: List[str]
    index: Dict[int, int]
    node: int
    msgs: List[Message]

    def state(self, block: int) -> Optional[LineState]:
        i = self.index.get(block)
        return None if i is None else _STATE_OF[self.row[i]]

    def install(self, block: int, state: LineState) -> None:
        self.row[self.index[block]] = _LETTER_OF[state]

    def clean(self, block: int) -> None:
        self.row[self.index[block]] = SHARED

    def invalidate(self, block: int, txn_id: Optional[int] = None) -> bool:
        i = self.index.get(block)
        if i is None or self.row[i] == INVALID:
            return False
        self.row[i] = INVALID
        return True

    def has_ghost(self, block: int) -> bool:
        return (MSG_WB, self.index[block], self.node) in self.msgs

    def release_ghost(self, block: int) -> None:
        pass


def node_views(state: ModelState, cfg: ModelConfig) -> List[List[_Lines]]:
    """Each node's processors as the kernel's rows take them — one each."""
    index = {b: i for i, b in enumerate(cfg.blocks)}
    return [
        [_Lines(row, index, p, state.msgs)] for p, row in enumerate(state.caches)
    ]


def enabled_actions(state: ModelState, cfg: ModelConfig) -> List[Action]:
    """All actions whose guards hold in ``state``."""
    actions: List[Action] = []
    room = len(state.msgs) < cfg.max_inflight
    for p, (proc,) in enumerate(node_views(state, cfg)):
        outstanding = any(
            kind in (MSG_READ, MSG_WRITE) and node == p
            for kind, _line, node in state.msgs
        )
        for l, block in enumerate(cfg.blocks):
            if room and not outstanding:
                if not protocol.hit(proc, block, False):
                    actions.append(("read", p, l))
                if not protocol.hit(proc, block, True):
                    actions.append(("write", p, l))
            st = proc.state(block)
            if st is LineState.SHARED:
                if cfg.include_drop:
                    actions.append(("drop", p, l))
            elif st is LineState.DIRTY and room:
                actions.append(("evict", p, l))
    for msg in sorted(set(state.msgs)):
        actions.append(("deliver",) + msg)
    return actions


def apply_action(
    state: ModelState, action: Action, cfg: ModelConfig
) -> List[ModelViolation]:
    """Step ``state`` in place; the violations raised *during* the step."""
    _reseed(state)
    kind = action[0]
    if kind in ("read", "write"):
        _, p, l = action
        state.msgs.append((MSG_READ if kind == "read" else MSG_WRITE, l, p))
    elif kind in ("evict", "drop"):
        _, p, l = action
        node_views(state, cfg)[p][0].invalidate(cfg.blocks[l])
        if kind == "evict":
            state.msgs.append((MSG_WB, l, p))
    elif kind == "deliver":
        _, mkind, l, node = action
        state.msgs.remove((mkind, l, node))
        return _deliver(state, cfg, str(mkind), int(l), int(node))
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown model action {action!r}")
    return []


# -- delivery: repro.core.protocol, executed over I/S/M rows ----------------


def _deliver(
    ns: ModelState, cfg: ModelConfig, kind: str, l: int, node: int
) -> List[ModelViolation]:
    """The home services one message: allocate, kernel call, requester fill."""
    block = cfg.blocks[l]
    store = ns.stores[cfg.home(l)]
    nodes = node_views(ns, cfg)
    if kind == MSG_WB:
        protocol.writeback(store, block, node, False, nodes)
        return []

    def cancel_wb(block: int, owner: int) -> None:
        # the wb message is the writeback buffer: cancelling removes it
        if (MSG_WB, l, owner) in ns.msgs:
            ns.msgs.remove((MSG_WB, l, owner))

    # Deliveries are atomic, so nothing is busy and AllWaysBusy is
    # unreachable (avoid=frozenset()).
    line, evictions = store.get_or_allocate(block)
    for ev in evictions:
        # a copy the recall misses is left with no directory line, which
        # the successor state's directory-coverage check reports
        protocol.recall(ev, nodes)
    if kind == MSG_READ:
        protocol.read(
            line, block, node, nodes, cancel_wb,
            lambda line, n, b, _txn: protocol.record_sharer(line, n, b, nodes),
        )
        protocol.fill(nodes[node], 0, block, False)
        return []
    _owner, targets, _mates = protocol.write(line, block, node, nodes, cancel_wb)
    protocol.fill(nodes[node], 0, block, True)
    # inval/ack conservation: a live copy other than the writer's survived
    # the round, i.e. it received no invalidation (and will send no ack)
    missed = [
        q for q, row in enumerate(ns.caches) if q != node and row[l] != INVALID
    ]
    if not missed:
        return []
    return [
        ModelViolation(
            "inval-ack-conservation",
            f"write by node {node} on block {block}: live copies at "
            f"{missed} got no invalidation (targets={targets})",
        )
    ]


# -- per-state invariants ---------------------------------------------------


def state_violations(
    state: ModelState, cfg: ModelConfig
) -> List[ModelViolation]:
    """The state invariants, evaluated on one model state.

    Single-writer, directory coverage and the precision contract are
    :func:`repro.machine.invariants.block_violations` applied to each
    modeled line's view (the masks of the nodes MODIFIED / SHARED, the
    home's line).  The one rule stated here needs the message multiset
    that view does not carry: a line the home marks dirty must have a
    MODIFIED copy or its owner's writeback in flight (the model's
    stand-in for the writeback buffer).
    """
    out: List[ModelViolation] = []
    precision = state.stores[0].scheme.precision
    for l, block in enumerate(cfg.blocks):
        line = state.stores[cfg.home(l)].peek(block)
        modified = nodes_mask(p for p, row in enumerate(state.caches) if row[l] == MODIFIED)
        shared = nodes_mask(p for p, row in enumerate(state.caches) if row[l] == SHARED)
        if (
            not modified
            and line is not None
            and line.dirty
            and (MSG_WB, l, line.owner) not in state.msgs
        ):
            out.append(
                ModelViolation(
                    "directory-coverage",
                    f"home marks block {block} dirty (owner {line.owner}) "
                    f"but no MODIFIED copy or in-flight writeback exists",
                )
            )
        out.extend(
            ModelViolation(invariant, message)
            for invariant, message in block_violations(
                block, modified, shared, line, precision
            )
        )
    return out


def drain_violation(
    state: ModelState, cfg: ModelConfig
) -> Optional[ModelViolation]:
    """Transient-state termination: in-flight messages must drain.

    From any reachable state, repeatedly delivering the smallest pending
    message must strictly shrink the in-flight set to empty within
    ``len(msgs)`` steps (delivery consumes its message and never issues
    new ones).  A model whose delivery re-queued work would loop here —
    this is the checked guarantee that no transient state is sticky.
    The walk runs on ``state`` itself, which it leaves drained.
    """
    budget = len(state.msgs)
    steps = 0
    while state.msgs:
        if steps >= budget:
            return ModelViolation(
                "transient-termination",
                f"messages failed to drain within {budget} deliveries: "
                f"{sorted(state.msgs)} still pending",
            )
        apply_action(state, ("deliver",) + min(state.msgs), cfg)
        steps += 1
    return None


# -- counterexample replay --------------------------------------------------


def _issue_actions(actions: Sequence[Action]) -> List[Tuple[str, int, int]]:
    return [
        (str(a[0]), int(a[1]), int(a[2]))  # type: ignore[arg-type]
        for a in actions
        if a[0] in ("read", "write", "evict", "drop")
    ]


def counterexample_workload(
    actions: Sequence[Action], cfg: ModelConfig
) -> Tuple["MachineConfig", ScriptedWorkload]:
    """Turn an explorer trace into a (MachineConfig, ScriptedWorkload) pair.

    Only the *issue* actions matter — the simulator picks its own delivery
    timing, and the trace's interleaving is approximated by spacing issues
    ``REPLAY_GAP`` cycles apart (global serialization), which reproduces
    every counterexample our mutants produce because their violations are
    visible in quiescent states.  ``evict``/``drop`` actions are forced by
    reading a scratch block that conflicts in the replay machine's tiny
    direct-mapped cache.
    """
    from repro.machine.config import MachineConfig

    block_bytes = 16
    scripts: List[List[TraceOp]] = [[] for _ in range(cfg.num_nodes)]
    last_step = [0] * cfg.num_nodes
    for step, (kind, p, l) in enumerate(_issue_actions(actions), start=1):
        pad = (step - last_step[p]) * REPLAY_GAP
        scripts[p].append(Work(pad))
        block = cfg.blocks[l]
        if kind == "read":
            scripts[p].append(Read(block * block_bytes))
        elif kind == "write":
            scripts[p].append(Write(block * block_bytes))
        else:  # evict / drop: read a conflicting scratch block
            scratch = block + REPLAY_CACHE_BLOCKS
            scripts[p].append(Read(scratch * block_bytes))
        last_step[p] = step
    machine = MachineConfig(
        num_clusters=cfg.num_nodes,
        procs_per_cluster=1,
        block_bytes=block_bytes,
        l1_bytes=block_bytes * REPLAY_CACHE_BLOCKS,
        l2_bytes=block_bytes * REPLAY_CACHE_BLOCKS,
    )
    workload = ScriptedWorkload(scripts, block_bytes=block_bytes)
    return machine, workload


def replay_counterexample(
    actions: Sequence[Action],
    cfg: ModelConfig,
    scheme: DirectoryScheme,
) -> Optional[AssertionError]:
    """Replay a trace through the full simulator under strict invariants.

    Returns the :class:`~repro.machine.invariants.CoherenceViolation`
    (an ``AssertionError`` subclass) the replay triggered, or ``None`` if
    the simulator survived the trace.  ``scheme`` must be a fresh instance
    — the explorer's copy has mutated entries.
    """
    from repro.machine.system import DashSystem

    machine, workload = counterexample_workload(actions, cfg)
    system = DashSystem(
        machine, workload, scheme=scheme, strict=True, invariants="strict"
    )
    try:
        system.run()
        system.check_coherence()
    except AssertionError as violation:
        return violation
    return None
