"""Bounded BFS state-space exploration with symmetry and partial-order
reduction.

The explorer enumerates every state reachable from the all-invalid
initial state under the model's guarded actions (see
:mod:`repro.verify.model`), checking in each state

* the PR 1 invariant predicates (single-writer, directory coverage,
  precision contract) plus inval/ack conservation at write delivery,
* deadlock freedom (pending messages always deliverable, quiescent
  states always have enabled actions),
* transient-state termination (in-flight messages drain from every
  reachable state).

BFS guarantees the first violation found has a **minimal** trace (fewest
atomic actions), which :func:`repro.verify.model.replay_counterexample`
turns into a scripted simulator run.

Canonical hashing
-----------------
Node identity is interchangeable except where the protocol breaks the
symmetry: home nodes are pinned (block interleaving fixes them), and
each scheme declares its own ``relabelling`` group — ``"any"``
permutation, only ``"regions"``-preserving ones (coarse vector), or
``"none"`` (the superset scheme's binary composite encoding and the
overflow cache's shared-LRU store are not equivariant at all).  Each
state is keyed canonically over that group — symmetric states merge,
shrinking the explored space without losing violations (the invariants
themselves are permutation-invariant).  The explorer names no scheme: it
reads the traits ``DirectoryScheme`` declares and each entry's own
``covered()`` / ``encode(perm)``.

Two canonicalizers implement the same quotient:

* ``brute`` — minimum structural encoding over every group permutation;
  exact for any scheme but factorial in the movable-node count;
* ``signature`` — canonical labeling: movable nodes are sorted by a
  permutation-equivariant per-node signature (cache row, pending
  messages, ownership and presence-entry membership per line) and the
  derived permutation's encoding is the key.  Exact for schemes whose
  entries are node *sets* (full bit vector, Dir_iB, Dir_iCV_r — the
  ``"regions"`` group sorts within regions, then whole home-free
  regions), because equal-signature nodes are interchangeable in the
  encoding.  Schemes with ``ordered_entries`` (Dir_iNB victim slots,
  linked-list chains) keep the brute canonicalizer.

Partial-order reduction (``por=True``)
--------------------------------------
At a state where some modeled line is **quiet** — exactly one message
pending on the line, the home entry not dirty (or the message a
writeback), no victim-evicting pointer overflow possible, and full-map
homes (sparse stores couple lines through replacement) — delivering that
message commutes with every other enabled action and cannot disable or
be disabled by them, so the explorer expands *only* that delivery (a
singleton ample set).  All skipped interleavings reach the same states
after the delivery, and the skipped intermediate states cannot introduce
violations: the only other actions touching the quiet line are issues
(message appends) and silent drops, neither of which can create an
invariant breach.  Delivery strictly shrinks the in-flight multiset, so
no cycle consists of ample steps only and nothing is deferred forever.
``por_cross_check`` validates the reduction against plain BFS.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import DirectoryScheme
from repro.core.sparse import DirLine, SparseDirectory
from repro.verify.model import (
    MSG_READ,
    MSG_WB,
    Action,
    Message,
    ModelConfig,
    ModelState,
    ModelViolation,
    drain_violation,
    enabled_actions,
    apply_action,
    initial_state,
    state_violations,
)

Perm = Tuple[int, ...]
StateKey = Tuple[object, ...]


@dataclass(frozen=True)
class Counterexample:
    """A minimal action trace ending in an invariant violation."""

    actions: Tuple[Action, ...]
    invariant: str
    message: str

    def format(self) -> str:
        """Numbered, human-readable rendering of the trace."""
        lines = []
        for i, action in enumerate(self.actions, start=1):
            lines.append(f"  {i:2d}. {describe_action(action)}")
        lines.append(f"violated: {self.invariant} — {self.message}")
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """Outcome of one bounded exploration."""

    scheme: str
    num_nodes: int
    states: int = 0
    transitions: int = 0
    max_depth: int = 0
    merged: int = 0  #: transitions landing on an already-visited canonical key
    truncated: bool = False  #: hit cfg.max_states before exhausting the space
    violation: Optional[Counterexample] = None
    blocks: Tuple[int, ...] = field(default_factory=tuple)
    por: bool = False  #: partial-order reduction was enabled
    pruned: int = 0  #: enabled actions skipped by ample-set reduction
    ample_states: int = 0  #: states expanded through a singleton ample set
    canonicalizer: str = "brute"  #: "brute" | "signature" canonical keying

    @property
    def ok(self) -> bool:
        return self.violation is None and not self.truncated

    @property
    def verdict(self) -> str:
        """``ok`` / ``violation:<invariant>`` / ``truncated``."""
        if self.violation is not None:
            return f"violation:{self.violation.invariant}"
        if self.truncated:
            return "truncated"
        return "ok"

    def stats_dict(self) -> Dict[str, object]:
        """JSON-ready ``--stats`` payload for one exploration."""
        return {
            "scheme": self.scheme,
            "nodes": self.num_nodes,
            "blocks": list(self.blocks),
            "states": self.states,
            "transitions": self.transitions,
            "max_depth": self.max_depth,
            "merged": self.merged,
            "por": self.por,
            "pruned_actions": self.pruned,
            "ample_states": self.ample_states,
            "canonicalizer": self.canonicalizer,
            "verdict": self.verdict,
        }


def describe_action(action: Action) -> str:
    """Human-readable one-liner for a model action."""
    kind = action[0]
    if kind == "deliver":
        _, mkind, l, node = action
        what = {"read": "read request", "write": "write request",
                "wb": "writeback"}[str(mkind)]
        return f"home services {what} for line {l} from node {node}"
    _, p, l = action
    verb = {
        "read": "issues a read miss",
        "write": "issues a write miss",
        "evict": "evicts its dirty copy (writeback departs)",
        "drop": "silently drops its clean copy",
    }[str(kind)]
    return f"node {p} {verb} on line {l}"


# -- symmetry groups --------------------------------------------------------


def symmetry_permutations(cfg: ModelConfig) -> List[Perm]:
    """Node permutations under which the scheme's state encoding is stable.

    All groups fix the home nodes (block-to-home interleaving is part of
    the protocol, not a labeling choice).  On top of that the scheme's
    ``relabelling`` trait says which:

    * ``"any"`` (full vector / Dir_iB / Dir_iNB / linked list): any
      permutation of the non-home nodes (their entries are label-sets);
    * ``"regions"`` (Dir_iCV_r): only permutations that map regions onto
      regions — region membership is semantic once an entry degrades;
    * ``"none"`` (Dir_iX / overflow cache / the default): identity only
      (binary composite encodings and shared-LRU state are not
      equivariant under relabeling).
    """
    identity = tuple(range(cfg.num_nodes))
    scheme = cfg.scheme
    if not cfg.symmetry or scheme.relabelling == "none":
        return [identity]
    homes = sorted({b % cfg.num_nodes for b in cfg.blocks})
    movable = [p for p in range(cfg.num_nodes) if p not in homes]
    perms: List[Perm] = []
    for assignment in itertools.permutations(movable):
        perm = list(identity)
        for src, dst in zip(movable, assignment):
            perm[src] = dst
        candidate = tuple(perm)
        if scheme.relabelling == "regions" and not _region_preserving(
            candidate, scheme.region_size, cfg.num_nodes
        ):
            continue
        perms.append(candidate)
    return perms or [identity]


def _region_preserving(perm: Perm, region_size: int, num_nodes: int) -> bool:
    """True when ``perm`` maps every coarse region onto a single region."""
    if region_size == 1:
        return True
    mapped: Dict[int, int] = {}
    for node in range(num_nodes):
        src = node // region_size
        dst = perm[node] // region_size
        if mapped.setdefault(src, dst) != dst:
            return False
    return True


# -- canonical state encoding ----------------------------------------------


def encode_state(
    state: ModelState, cfg: ModelConfig, perm: Perm
) -> StateKey:
    """Total-order-comparable encoding of ``state`` under ``perm``."""
    n = cfg.num_nodes
    caches: List[Optional[Tuple[str, ...]]] = [None] * n
    for p in range(n):
        caches[perm[p]] = tuple(state.caches[p])
    msgs = tuple(sorted((kind, l, perm[p]) for kind, l, p in state.msgs))
    lines: List[object] = []
    for l, block in enumerate(cfg.blocks):
        line = state.stores[cfg.home(l)].peek(block)
        if line is None:
            lines.append(("absent",))
        else:
            owner = -1 if line.owner is None else perm[line.owner]
            lines.append(
                ("line", line.dirty, owner, line.entry.encode(perm))
            )
    layouts = tuple(
        store.layout() if isinstance(store, SparseDirectory) else ()
        for store in state.stores
    )
    shared = state.stores[0].scheme.encode_shared(
        (block, line.entry)
        for store in state.stores for block, line in store.lines()
    )
    return (tuple(caches), msgs, tuple(lines), layouts, shared)


def canonical_key(
    state: ModelState, cfg: ModelConfig, perms: Sequence[Perm]
) -> StateKey:
    """Minimum encoding over the scheme's symmetry group."""
    best: Optional[StateKey] = None
    for perm in perms:
        enc = encode_state(state, cfg, perm)
        if best is None or enc < best:  # type: ignore[operator]
            best = enc
    assert best is not None
    return best


# -- signature-based canonical labeling -------------------------------------

NodeSig = Tuple[object, ...]


def _line_views(
    state: ModelState, cfg: ModelConfig
) -> List[Tuple[Optional[DirLine], int]]:
    """Per modeled line: the home's directory line and its covered mask."""
    views: List[Tuple[Optional[DirLine], int]] = []
    for l, block in enumerate(cfg.blocks):
        line = state.stores[cfg.home(l)].peek(block)
        views.append((line, 0 if line is None else line.entry.covered()))
    return views


def _node_signatures(state: ModelState, cfg: ModelConfig) -> List[NodeSig]:
    """Permutation-equivariant per-node fingerprints.

    A signature captures everything the state encoding can see about one
    node: its cache row, its pending messages, and — per line — whether
    it owns the line or sits in the covered set (all that a set-encoded
    entry's ``encode`` says about a node).  Relabeling nodes permutes
    signatures identically, and (for set-encoded schemes) two nodes with
    equal signatures can be swapped without changing any encoding, so
    sorting movable nodes by signature yields a canonical representative
    of the symmetry orbit.
    """
    views = _line_views(state, cfg)
    sigs: List[NodeSig] = []
    for p in range(cfg.num_nodes):
        per_line: List[Tuple[object, ...]] = []
        for line, covered in views:
            if line is None:
                per_line.append((0,))
                continue
            per_line.append((1, line.owner == p, bool(covered >> p & 1)))
        msgs = tuple(sorted(
            (kind, l) for kind, l, q in state.msgs if q == p
        ))
        sigs.append((tuple(state.caches[p]), msgs, tuple(per_line)))
    return sigs


def signature_perm(state: ModelState, cfg: ModelConfig) -> Perm:
    """Derived canonical permutation: sort movable nodes by signature.

    For the ``"regions"`` group the sort is two-level — movable nodes
    sort within their region, then whole home-free full-size regions
    sort by their member-signature tuples — so the derived permutation
    stays region-preserving.
    """
    n = cfg.num_nodes
    sigs = _node_signatures(state, cfg)
    homes = {b % n for b in cfg.blocks}
    perm = list(range(n))
    scheme = cfg.scheme
    region_size = scheme.region_size if scheme.relabelling == "regions" else n
    regions: List[List[int]] = []
    for start in range(0, n, region_size):
        regions.append(list(range(start, min(start + region_size, n))))
    # within each region, movable members sorted by signature fill the
    # region's movable slots in ascending order
    for members in regions:
        movable = [p for p in members if p not in homes]
        for slot, p in zip(movable,
                           sorted(movable, key=lambda q: (sigs[q], q))):
            perm[p] = slot
    # home-free full-size regions may swap wholesale: order them by their
    # (already canonically ordered) member signatures
    free = [
        members for members in regions
        if len(members) == region_size and not any(p in homes
                                                   for p in members)
    ]
    if len(free) > 1:
        def region_sig(members: List[int]) -> Tuple[NodeSig, ...]:
            return tuple(sorted(sigs[p] for p in members))

        ordered = sorted(free, key=lambda m: (region_sig(m), m[0]))
        for target, members in zip(free, ordered):
            # node with within-region rank k lands at the k-th slot of
            # the target region (perm[p] currently holds its rank slot)
            base_src = members[0]
            base_dst = target[0]
            for p in members:
                perm[p] = perm[p] - base_src + base_dst
    return tuple(perm)


def pick_canonicalizer(cfg: ModelConfig) -> str:
    """``"signature"`` when exact for this scheme, else ``"brute"``."""
    scheme = cfg.scheme
    if not cfg.symmetry or scheme.relabelling == "none":
        return "brute"
    # entries that are pure node *sets* under the group make
    # equal-signature nodes interchangeable in the state encoding
    return "brute" if scheme.ordered_entries else "signature"


class Canonicalizer:
    """State-keying strategy: signature labeling or brute-force minimum."""

    def __init__(self, cfg: ModelConfig, mode: Optional[str] = None) -> None:
        self.cfg = cfg
        self.mode = pick_canonicalizer(cfg) if mode is None else mode
        self.perms: List[Perm] = (
            symmetry_permutations(cfg) if self.mode == "brute" else []
        )

    def key(self, state: ModelState) -> StateKey:
        """Canonical hashable key for *state* under the active mode."""
        if self.mode == "signature":
            return encode_state(
                state, self.cfg, signature_perm(state, self.cfg)
            )
        return canonical_key(state, self.cfg, self.perms)


# -- partial-order reduction ------------------------------------------------


def _record_has_room(
    scheme: DirectoryScheme, line: Optional[DirLine], node: int
) -> bool:
    """True when ``record_sharer(node)`` cannot evict a victim pointer.

    Only a scheme that ``evicts_on_overflow`` (Dir_iNB) invalidates a
    victim; every other degrades in place (broadcast bit, coarse regions,
    composite merge, chain append) without touching any cache.
    """
    if line is None or not scheme.evicts_on_overflow:
        return True
    covered = line.entry.covered()
    return bool(covered >> node & 1) or (
        covered.bit_count() < scheme.num_pointers
    )


def ample_action(state: ModelState, cfg: ModelConfig) -> Optional[Action]:
    """The quiet-line delivery to expand alone, or ``None`` (full expand).

    A line is *quiet* when exactly one message is pending on it and the
    delivery cannot race another enabled action: writebacks (sole on
    their line) always qualify — a genuine accept touches only the home
    line and a stale one only removes the message; read/write requests
    qualify when the home line is not dirty (no forward/transfer race
    with the owner's evict) and, for reads, recording the requester
    cannot evict a pointer victim.  Sparse stores couple lines through
    replacement, and the overflow cache couples them through the shared
    wide store, so both disable the reduction.
    """
    if cfg.sparse_ways is not None:
        return None
    if cfg.scheme.couples_entries:
        return None
    by_line: Dict[int, List[Message]] = {}
    for msg in state.msgs:
        by_line.setdefault(msg[1], []).append(msg)
    for l in sorted(by_line):
        pending = by_line[l]
        if len(pending) != 1:
            continue
        kind, _, node = pending[0]
        if kind == MSG_WB:
            return ("deliver", kind, l, node)
        line = state.stores[cfg.home(l)].peek(cfg.blocks[l])
        if line is not None and line.dirty:
            continue
        if kind == MSG_READ and not _record_has_room(cfg.scheme, line, node):
            continue
        return ("deliver", kind, l, node)
    return None


# -- the search -------------------------------------------------------------


def explore(cfg: ModelConfig, *, por: bool = False) -> ExploreResult:
    """Breadth-first exploration of every reachable state within bounds.

    With ``por=True`` the quiet-line ample rule (module docstring) expands
    a single delivery instead of the full enabled set wherever it applies,
    pruning interleavings without losing any reachable violation.
    """
    canon = Canonicalizer(cfg)
    result = ExploreResult(
        scheme=cfg.scheme.name, num_nodes=cfg.num_nodes, blocks=cfg.blocks,
        por=por, canonicalizer=canon.mode,
    )
    # one scratch state steps every transition; the queue holds snapshots
    scratch = initial_state(cfg)
    root_key = canon.key(scratch)
    initial = state_violations(scratch, cfg)
    if initial:  # pragma: no cover - an empty machine is always coherent
        result.violation = Counterexample(
            (), initial[0].invariant, initial[0].message
        )
        return result
    # parent chain for minimal-trace reconstruction
    parents: Dict[StateKey, Optional[Tuple[StateKey, Action]]] = {
        root_key: None
    }
    queue: deque = deque([(scratch.to_state(), root_key, 0)])
    result.states = 1
    while queue:
        snapshot, key, depth = queue.popleft()
        result.max_depth = max(result.max_depth, depth)
        scratch.load_state(snapshot)
        actions = enabled_actions(scratch, cfg)
        if scratch.msgs and not any(a[0] == "deliver" for a in actions):
            # unreachable by construction (deliver is always enabled for a
            # pending message), but checked: this *is* deadlock-freedom
            result.violation = _trace(parents, key, None, ModelViolation(
                "deadlock",
                f"messages {sorted(scratch.msgs)} pending but no delivery "
                f"action enabled",
            ))
            return result
        ample = ample_action(scratch, cfg) if por else None
        drain = drain_violation(scratch, cfg)
        if drain is not None:
            result.violation = _trace(parents, key, None, drain)
            return result
        if ample is not None:
            result.pruned += len(actions) - 1
            result.ample_states += 1
            actions = [ample]
        for action in actions:
            scratch.load_state(snapshot)
            violations = apply_action(scratch, action, cfg)
            result.transitions += 1
            if not violations:
                violations = state_violations(scratch, cfg)
            if violations:
                result.violation = _trace(parents, key, action, violations[0])
                return result
            successor_key = canon.key(scratch)
            if successor_key in parents:
                result.merged += 1
                continue
            parents[successor_key] = (key, action)
            result.states += 1
            if result.states > cfg.max_states:
                result.truncated = True
                return result
            queue.append((scratch.to_state(), successor_key, depth + 1))
    return result


def _trace(
    parents: Dict[StateKey, Optional[Tuple[StateKey, Action]]],
    key: StateKey,
    final_action: Optional[Action],
    violation: ModelViolation,
) -> Counterexample:
    """Reconstruct the action sequence from the root to the violation."""
    actions: List[Action] = [] if final_action is None else [final_action]
    cursor: Optional[StateKey] = key
    while cursor is not None:
        link = parents[cursor]
        if link is None:
            break
        parent_key, action = link
        actions.append(action)
        cursor = parent_key
    actions.reverse()
    return Counterexample(
        tuple(actions), violation.invariant, violation.message
    )


def por_cross_check(
    cfg: ModelConfig,
) -> Tuple[ExploreResult, ExploreResult, bool]:
    """Soundness check: explore with and without POR, compare verdicts.

    Returns ``(full, reduced, agree)`` where ``agree`` means both runs
    reached the same verdict (ok / truncated / violated invariant) —
    the reduction may legally find a *different* minimal counterexample
    for the same invariant, and always explores a subset of the states.
    """
    full = explore(cfg)
    reduced = explore(cfg, por=True)
    agree = full.verdict == reduced.verdict and (
        reduced.states <= full.states
    )
    return full, reduced, agree
