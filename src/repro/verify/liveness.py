"""Fairness-constrained liveness checking over the protocol model.

Safety (:mod:`repro.verify.explorer`) asks "is a bad state reachable?";
liveness asks "does every request eventually complete, and do transient
states always drain?".  A liveness violation is an infinite *fair*
execution that starves a node or never quiesces, and in a finite state
graph every infinite execution is a lasso: a stem from the initial state
into a strongly connected component (SCC) plus a cycle inside it.

Fairness
--------
We check **weak fairness**: an action continuously enabled must
eventually fire.  On the SCC quotient this has an exact decision: a fair
infinite run exists inside SCC ``S`` iff every action enabled in *all*
states of ``S`` labels at least one edge internal to ``S`` (a grand tour
of ``S``'s edges fires each of them infinitely often; conversely an
everywhere-enabled action with no internal edge is continuously enabled
but never taken on any run confined to ``S``).

Properties
----------
``request-completion``
    no fair cycle on which some node stays INVALID on a line while its
    read/write request for that line is pending somewhere on the cycle.
    Decided exactly by restricting the graph to the states where that
    node is INVALID on that line and examining the SCCs of the
    restriction.  In the healthy model a pending request can neither be
    cancelled nor delivered without granting (the grant leaves the
    restricted subgraph by changing the cache state), so its delivery is
    enabled in every state of such an SCC and fairness forces an
    internal delivery edge that cannot exist — the check fails only when
    the protocol can consume a request without granting it (a lost
    transaction) or re-queue it forever (a livelocking NAK loop).
``livelock-freedom``
    no fair cycle on which one specific in-flight message stays pending
    throughout — every transient eventually drains.  Same subgraph
    construction, restricted to the states carrying that message.  (A
    fair cycle whose states merely all have *some* message pending is
    not a livelock: an open system under continuous load never
    quiesces, yet every individual message is serviced promptly.)

The checker runs on the **concrete** state graph (symmetry disabled):
the starvation predicate names a specific node, which a symmetry
quotient erases.  Keep it to small configurations (N <= 4); safety at
scale is the explorer's job.

Counterexamples compile to :class:`~repro.trace.scripted.ScriptedWorkload`
replays exactly like safety violations — the stem's issue actions
followed by two unrollings of the cycle's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.verify.explorer import StateKey, describe_action, encode_state
from repro.verify.model import (
    INVALID,
    MSG_READ,
    MSG_WRITE,
    Action,
    ModelConfig,
    Snapshot,
    apply_action,
    enabled_actions,
    initial_state,
)


@dataclass(frozen=True)
class Lasso:
    """A fair infinite execution violating a liveness property."""

    stem: Tuple[Action, ...]
    cycle: Tuple[Action, ...]
    property: str  #: "request-completion" | "livelock-freedom"
    message: str

    def format(self) -> str:
        """Numbered stem + cycle rendering, like a safety counterexample."""
        lines = []
        for i, action in enumerate(self.stem, start=1):
            lines.append(f"  {i:2d}. {describe_action(action)}")
        lines.append("  -- cycle (repeats forever) --")
        offset = len(self.stem)
        for i, action in enumerate(self.cycle, start=offset + 1):
            lines.append(f"  {i:2d}. {describe_action(action)}")
        lines.append(f"violated: {self.property} — {self.message}")
        return "\n".join(lines)

    def replay_actions(self) -> Tuple[Action, ...]:
        """Stem plus two cycle unrollings, for scripted-workload replay."""
        return self.stem + self.cycle + self.cycle


@dataclass
class LivenessResult:
    """Outcome of one liveness check."""

    scheme: str
    num_nodes: int
    states: int = 0
    transitions: int = 0
    sccs: int = 0  #: non-trivial (cycle-carrying) SCCs examined
    fair_sccs: int = 0
    truncated: bool = False
    violation: Optional[Lasso] = None
    blocks: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.violation is None and not self.truncated


class _Graph:
    """Concrete bounded state graph: states, labeled edges, enabled sets."""

    def __init__(self) -> None:
        self.states: List[Snapshot] = []
        self.enabled: List[List[Action]] = []
        self.edges: List[List[Tuple[Action, int]]] = []
        self.parents: List[Optional[Tuple[int, Action]]] = []
        self.index: Dict[StateKey, int] = {}


def _build_graph(cfg: ModelConfig, limit: int) -> Tuple[_Graph, bool]:
    """BFS the concrete (identity-keyed) state graph up to ``limit``."""
    identity = tuple(range(cfg.num_nodes))
    graph = _Graph()
    scratch = initial_state(cfg)
    graph.index[encode_state(scratch, cfg, identity)] = 0
    graph.states.append(scratch.to_state())
    graph.parents.append(None)
    truncated = False
    # states are numbered in discovery order, so walking the growing list
    # is the BFS queue
    for u, snapshot in enumerate(graph.states):
        scratch.load_state(snapshot)
        actions = enabled_actions(scratch, cfg)
        graph.enabled.append(actions)
        graph.edges.append([])
        for action in actions:
            scratch.load_state(snapshot)
            apply_action(scratch, action, cfg)
            key = encode_state(scratch, cfg, identity)
            v = graph.index.get(key)
            if v is None:
                if len(graph.states) >= limit:
                    truncated = True
                    continue
                v = len(graph.states)
                graph.index[key] = v
                graph.states.append(scratch.to_state())
                graph.parents.append((u, action))
            graph.edges[u].append((action, v))
    return graph, truncated


def _sccs(graph: _Graph, members: Set[int]) -> List[List[int]]:
    """Tarjan's algorithm over the subgraph induced by ``members``.

    Iterative — state graphs overflow Python's recursion limit.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    out: List[List[int]] = []
    counter = 0
    for start in sorted(members):
        if start in index:
            continue
        work: List[Tuple[int, int]] = [(start, 0)]
        while work:
            u, ei = work.pop()
            if ei == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack.add(u)
            recurse = False
            while ei < len(graph.edges[u]):
                v = graph.edges[u][ei][1]
                ei += 1
                if v not in members:
                    continue
                if v not in index:
                    work.append((u, ei))
                    work.append((v, 0))
                    recurse = True
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            if recurse:
                continue
            if low[u] == index[u]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == u:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
    return out


def _is_fair(graph: _Graph, comp: List[int], members: Set[int]) -> bool:
    """True iff a weakly fair infinite run can stay inside ``comp``.

    Fairness constrains **deliveries only**: the memory system must
    eventually service a continuously pending message, but processors
    are never obligated to issue requests or evict lines — issue
    actions are environment moves and may idle forever.
    """
    always_enabled: Optional[Set[Action]] = None
    for u in comp:
        acts = {a for a in graph.enabled[u] if a[0] == "deliver"}
        always_enabled = (
            acts if always_enabled is None else always_enabled & acts
        )
        if not always_enabled:
            return True  # no delivery is continuously enabled
    assert always_enabled is not None
    internal = {
        action
        for u in comp
        for action, v in graph.edges[u]
        if v in members
    }
    return always_enabled <= internal


def _has_cycle(graph: _Graph, comp: List[int], members: Set[int]) -> bool:
    return len(comp) > 1 or any(
        v == comp[0] for _a, v in graph.edges[comp[0]] if v in members
    )


def _stem_to(graph: _Graph, target: int) -> Tuple[Action, ...]:
    actions: List[Action] = []
    cursor: Optional[int] = target
    while cursor is not None:
        link = graph.parents[cursor]
        if link is None:
            break
        parent, action = link
        actions.append(action)
        cursor = parent
    actions.reverse()
    return tuple(actions)


def _cycle_in(
    graph: _Graph, start: int, members: Set[int]
) -> Tuple[Action, ...]:
    """Shortest non-empty action cycle from ``start`` inside the SCC."""
    best: Optional[List[Action]] = None
    # one BFS per first edge keeps the cycle through `start` minimal
    for first_action, v in graph.edges[start]:
        if v not in members:
            continue
        if v == start:
            return (first_action,)
        prev: Dict[int, Tuple[int, Action]] = {v: (start, first_action)}
        queue = deque([v])
        found = False
        while queue and not found:
            u = queue.popleft()
            for action, w in graph.edges[u]:
                if w == start:
                    path = [action]
                    cursor = u
                    while cursor != start:
                        parent, act = prev[cursor]
                        path.append(act)
                        cursor = parent
                    path.reverse()
                    if best is None or len(path) < len(best):
                        best = path
                    found = True
                    break
                if w in members and w not in prev:
                    prev[w] = (u, action)
                    queue.append(w)
    assert best is not None, "SCC member without an internal cycle"
    return tuple(best)


def _fair_cyclic_sccs(
    graph: _Graph, members: Set[int], result: "LivenessResult"
) -> List[Tuple[List[int], Set[int]]]:
    """Cycle-carrying, weakly fair SCCs of the induced subgraph."""
    out = []
    for comp in _sccs(graph, members):
        comp_set = set(comp)
        if not _has_cycle(graph, comp, comp_set):
            continue
        result.sccs += 1
        if _is_fair(graph, comp, comp_set):
            result.fair_sccs += 1
            out.append((comp, comp_set))
    return out


def _lasso(graph: _Graph, comp: List[int], members: Set[int],
           prop: str, message: str) -> Lasso:
    entry = min(comp)  # BFS order: lowest index has the shortest stem
    return Lasso(
        _stem_to(graph, entry), _cycle_in(graph, entry, members),
        prop, message,
    )


def check_liveness(cfg: ModelConfig) -> LivenessResult:
    """Search the bounded concrete graph for fair starvation/livelock
    cycles."""
    result = LivenessResult(
        scheme=cfg.scheme.name, num_nodes=cfg.num_nodes, blocks=cfg.blocks
    )
    graph, truncated = _build_graph(cfg, cfg.max_states)
    result.states = len(graph.states)
    result.transitions = sum(len(e) for e in graph.edges)
    result.truncated = truncated

    # request-completion: per (node, line), SCCs of the invalid-restricted
    # subgraph with that node's request pending somewhere
    for p in range(cfg.num_nodes):
        for l in range(len(cfg.blocks)):
            members = {
                u for u, state in enumerate(graph.states)
                if state.caches[p][l] == INVALID
            }
            for comp, comp_set in _fair_cyclic_sccs(graph, members, result):
                pending = any(
                    (kind, l, p) in graph.states[u].msgs
                    for u in comp
                    for kind in (MSG_READ, MSG_WRITE)
                )
                if not pending:
                    continue
                result.violation = _lasso(
                    graph, comp, comp_set, "request-completion",
                    f"node {p} stays INVALID on line {l} around a fair "
                    f"cycle while its request is pending — the request "
                    f"never completes",
                )
                return result

    # livelock-freedom: per distinct in-flight message, SCCs of the
    # subgraph where that message stays pending
    messages = sorted({
        msg for state in graph.states for msg in state.msgs
    })
    for msg in messages:
        members = {
            u for u, state in enumerate(graph.states)
            if msg in state.msgs
        }
        for comp, comp_set in _fair_cyclic_sccs(graph, members, result):
            kind, l, node = msg
            result.violation = _lasso(
                graph, comp, comp_set, "livelock-freedom",
                f"{kind} message from node {node} on line {l} stays "
                f"pending around a fair cycle — the transient never "
                f"drains",
            )
            return result
    return result
