"""``repro.core.protocol``: the one statement of the protocol.

(a) every row of the kernel's two docstring tables — the home's and a
node's — driven with recording fake processor views: next state, exact
effect sequence, return value; (b) a bug planted once in the kernel is
seen by the model checker *and* by the simulator; (c) the
stale-writeback bug the model checker first found, re-planted, is found
again; (d) nothing outside the
kernel writes directory protocol state or a cache line's state, and no
second statement of a node row survives; (e) one function of the
controller books an invalidation round, one times its fan-out, and what
it books is what the checker independently expects; (f) an entry states
who it covers once, as ``covered()``, and the explorer asks it instead of
naming entry classes.
"""

import ast
import itertools
import re
from pathlib import Path

import pytest

import repro
from repro.core import SharedEntryDirectory, protocol
from repro.core.protocol import LineState
from repro.core.registry import make_scheme
from repro.core.sparse import AllWaysBusy, Eviction, FullMapDirectory
from repro.apps import MP3DWorkload
from repro.machine import DashSystem, MachineConfig
from repro.machine.cache import ProcessorCache
from repro.machine.invariants import CoherenceViolation
from repro.machine.messages import MsgClass
from repro.machine.stats import InvalCause
from repro.obs.tracer import Tracer
from repro.verify.explorer import explore
from repro.verify.model import ModelConfig, replay_counterexample

N = 4
BLOCK = 8  # homed at node 0, in group {8, 12} of the pooled store below
SHARED, DIRTY = LineState.SHARED, LineState.DIRTY


class _FakeProc:
    """A processor view holding ``lines`` and ``ghosts``; logs each effect."""

    def __init__(self, node, log, lines=None, ghosts=()):
        self.node, self.log = node, log
        self.lines, self.ghosts = dict(lines or {}), set(ghosts)

    def state(self, block):
        return self.lines.get(block)

    def install(self, block, state):
        self.log.append(("install", self.node, block, state.name))
        self.lines[block] = state

    def clean(self, block):
        self.log.append(("clean", self.node, block))
        self.lines[block] = SHARED

    def invalidate(self, block, txn_id=None):
        self.log.append(("inval", self.node, block, txn_id))
        self.lines.pop(block, None)
        self.ghosts.discard(block)

    def has_ghost(self, block):
        return block in self.ghosts

    def release_ghost(self, block):
        self.log.append(("release", self.node, block))
        self.ghosts.discard(block)


class Bench:
    """One line of scheme ``name`` plus one fake processor per node."""

    def __init__(self, name="full", *, pooled=False):
        self.log = []
        scheme = make_scheme(name, N)
        self.store = (
            SharedEntryDirectory(scheme, 2, stride=N, offset=0)
            if pooled else FullMapDirectory(scheme)
        )
        self.line, _ = self.store.get_or_allocate(BLOCK)
        self.nodes = [[_FakeProc(i, self.log)] for i in range(N)]

    def proc(self, node):
        return self.nodes[node][0]

    def cancel_wb(self, block, node):
        self.log.append(("cancel_wb", block, node))

    def record(self, line, node, block, txn_id):
        self.log.append(("record", node))
        protocol.record_sharer(line, node, block, self.nodes, txn_id)

    def in_flight(self, block, mates):
        self.log.append(("in_flight", block, tuple(mates)))

    def state(self):
        line = self.store.peek(BLOCK)
        if line is None:
            return "gone"
        return line.dirty, line.owner, sorted(line.entry.invalidation_targets())

    def read(self, req):
        return protocol.read(
            self.line, BLOCK, req, self.nodes, self.cancel_wb, self.record, 7
        )

    def write(self, req, *, pooled=False, serial=False, in_flight=None):
        return protocol.write(
            self.line, BLOCK, req, self.nodes, self.cancel_wb,
            self.store if pooled else None,
            (in_flight or self.in_flight) if pooled else None, serial, 7,
        )


def _dirty(bench, owner):
    bench.line.dirty, bench.line.owner = True, owner


ROWS = {}


def row(label):
    def register(case):
        ROWS[label] = case
        return case
    return register


@row("R1")
def _read_clean():
    b = Bench("Dir2CV2")
    b.line.entry.record_sharer(3)
    assert b.read(1) is None
    assert b.log == [("record", 1)]
    assert b.state() == (False, None, [1, 3])


@row("R2")
def _read_forwarded_with_a_pointer_eviction_inside():
    b = Bench("Dir1NB")
    _dirty(b, 2)
    b.proc(2).lines[BLOCK] = DIRTY
    assert b.read(1) == (2, True)
    # one pointer: recording the requester evicts the just-recorded owner
    assert b.log == [
        ("clean", 2, BLOCK), ("record", 2), ("record", 1),
        ("inval", 2, BLOCK, 7),
    ]
    assert b.state() == (False, None, [1])
    b = Bench()  # the owner kept nothing to supply the data with
    _dirty(b, 2)
    assert b.read(1) == (2, False)


@row("R3")
def _reread_during_own_writeback():
    b = Bench()
    _dirty(b, 1)
    b.proc(1).ghosts.add(BLOCK)
    assert b.read(1) is None
    assert b.log == [
        ("cancel_wb", BLOCK, 1), ("release", 1, BLOCK), ("record", 1),
    ]
    assert b.state() == (False, None, [1])
    assert not b.proc(1).ghosts


@row("W1")
def _write_clean_unravels_the_sci_chain_head_first():
    b = Bench("DirLL")
    for sharer in (2, 1, 3):
        b.line.entry.record_sharer(sharer)
    assert b.write(1, serial=True) == (None, [3, 2], ())
    assert b.log == [
        ("cancel_wb", BLOCK, 1), ("release", 1, BLOCK),
        ("inval", 3, BLOCK, 7), ("inval", 2, BLOCK, 7),
    ]
    assert b.state() == (True, 1, [])
    # without serial the same entry is walked in ascending node order
    b = Bench("DirLL")
    for sharer in (2, 1, 3):
        b.line.entry.record_sharer(sharer)
    assert b.write(1) == (None, [2, 3], ())


@row("W2")
def _ownership_transfer():
    b = Bench()
    _dirty(b, 3)
    assert b.write(1) == (3, None, ())
    assert b.log == [
        ("inval", 3, BLOCK, 7), ("cancel_wb", BLOCK, 1), ("release", 1, BLOCK),
    ]
    assert b.state() == (True, 1, [])


@row("W3")
def _regrant_on_a_pooled_store():
    b = Bench(pooled=True)
    _dirty(b, 1)
    b.line.entry.record_sharer(2)  # a sharer of group-mate 12
    assert b.write(1, pooled=True) == (None, [2], [12])
    assert b.log == [
        ("cancel_wb", BLOCK, 1), ("release", 1, BLOCK),
        ("in_flight", BLOCK, (12,)),
        ("inval", 2, BLOCK, 7), ("inval", 2, 12, 7),  # IC: 2's mate is clean
    ]
    # the writer is re-recorded after the reset: its mate copies survive
    assert b.state() == (True, 1, [1])


@row("B1")
def _writeback_accepted():
    b = Bench()
    _dirty(b, 2)
    assert protocol.writeback(b.store, BLOCK, 2, False, b.nodes) is False
    assert b.log == [("release", 2, BLOCK)]
    assert b.state() == "gone"
    b = Bench()
    _dirty(b, 2)
    b.proc(2).lines[BLOCK] = SHARED  # a sibling cache re-filled from the buffer
    assert protocol.writeback(b.store, BLOCK, 2, False, b.nodes) is True
    assert b.state() == (False, None, [2])
    b = Bench()
    _dirty(b, 2)
    assert protocol.writeback(b.store, BLOCK, 2, True, b.nodes) is True
    assert b.state() == (False, None, [2])


@row("B2")
def _writeback_stale():
    b = Bench()
    _dirty(b, 3)
    assert protocol.writeback(b.store, BLOCK, 2, False, b.nodes) is None
    assert b.log == [("release", 2, BLOCK)] and b.state() == (True, 3, [])
    b.line.reset()
    b.line.entry.record_sharer(2)
    assert protocol.writeback(b.store, BLOCK, 2, False, b.nodes) is None
    assert b.state() == (False, None, [2])


@row("H1")
def _hint_clean():
    b = Bench()
    b.line.entry.record_sharer(1)
    b.line.entry.record_sharer(2)
    protocol.hint(b.store, BLOCK, 1)
    assert b.state() == (False, None, [2])
    protocol.hint(b.store, BLOCK, 2)
    assert b.state() == "gone" and b.log == []


@row("H2")
def _hint_dirty():
    b = Bench()
    _dirty(b, 1)
    protocol.hint(b.store, BLOCK, 1)
    assert b.state() == (True, 1, []) and b.log == []


@row("NB")
def _pointer_overflow():
    b = Bench("Dir1NB")
    assert protocol.record_sharer(b.line, 2, BLOCK, b.nodes, 7) == ()
    assert protocol.record_sharer(b.line, 3, BLOCK, b.nodes, 7) == (2,)
    assert b.log == [("inval", 2, BLOCK, 7)]
    assert b.state() == (False, None, [3])


@row("RC")
def _sparse_recall():
    b = Bench()
    ev = Eviction(block=40, targets=(1, 3), was_dirty=False, owner=None)
    assert protocol.recall(ev, b.nodes, 7) is None
    assert b.log == [("inval", 1, 40, 7), ("inval", 3, 40, 7)]


# -- node rows: one node of three processors, requester i = 0 ---------------------


def _node(*holdings):
    """Fake processors holding ``{block: state}`` or ``"ghost"`` each."""
    log = []
    procs = [
        _FakeProc(i, log, ghosts=(BLOCK,)) if held == "ghost"
        else _FakeProc(i, log, lines=held)
        for i, held in enumerate(holdings)
    ]
    return procs, log


@row("L1")
def _read_hit():
    procs, log = _node({BLOCK: SHARED}, {})
    assert protocol.hit(procs[0], BLOCK, False)
    assert not protocol.hit(procs[1], BLOCK, False) and log == []


@row("L2")
def _sibling_supply():
    for sibling in ({BLOCK: SHARED}, {BLOCK: DIRTY}, "ghost"):
        procs, log = _node({}, sibling)
        assert protocol.bus(procs, 0, BLOCK, False) == (True, None)
        assert log == [("install", 0, BLOCK, "SHARED")]
        assert procs[1].state(BLOCK) == (
            None if sibling == "ghost" else sibling[BLOCK]
        )


@row("L3")
def _write_hit():
    procs, log = _node({BLOCK: DIRTY}, {BLOCK: SHARED})
    assert protocol.hit(procs[0], BLOCK, True)
    assert not protocol.hit(procs[1], BLOCK, True) and log == []


@row("L4")
def _bus_ownership_transfer():
    procs, log = _node({BLOCK: SHARED}, {BLOCK: DIRTY}, {BLOCK: SHARED})
    assert protocol.bus(procs, 0, BLOCK, True) == (True, None)
    assert log == [
        ("inval", 1, BLOCK, None), ("inval", 2, BLOCK, None),
        ("install", 0, BLOCK, "DIRTY"),
    ]


@row("L5")
def _miss():
    cases = [
        ({}, {}, False),  # nothing on the bus
        ({BLOCK: SHARED}, {BLOCK: SHARED}, True),  # a write needs the home
        ({}, "ghost", True),  # a ghost is not ownership
    ]
    for mine, sibling, write in cases:
        procs, log = _node(mine, sibling)
        assert protocol.bus(procs, 0, BLOCK, write) == (False, None)
        assert log == []


@row("FL")
def _fill():
    procs, log = _node({}, {})
    assert protocol.fill(procs, 1, BLOCK, True) is None
    assert protocol.fill(procs, 0, BLOCK, False) is None
    assert log == [("install", 1, BLOCK, "DIRTY"), ("install", 0, BLOCK, "SHARED")]
    # the machine's view parks a DIRTY victim as the filler's ghost
    cache = ProcessorCache(16, 16, 1, 16, 1)
    protocol.fill([cache], 0, 0, True)
    assert protocol.fill([cache], 0, 1, False) == (0, True)
    assert protocol.holds_dirty([cache], 0)


@row("IV")
def _invalidate():
    procs, log = _node({BLOCK: DIRTY}, "ghost", {})
    assert protocol.invalidate(procs, BLOCK, 7) is None
    assert log == [("inval", i, BLOCK, 7) for i in range(3)]
    assert not protocol.holds_dirty(procs, BLOCK)


@row("IC")
def _invalidate_if_clean():
    for dirty in ({BLOCK: DIRTY}, "ghost"):
        procs, log = _node({BLOCK: SHARED}, dirty)
        protocol.invalidate_if_clean(procs, BLOCK, 7)
        assert log == []
    procs, log = _node({BLOCK: SHARED}, {})
    protocol.invalidate_if_clean(procs, BLOCK, 7)
    assert log == [("inval", 0, BLOCK, 7), ("inval", 1, BLOCK, 7)]


@row("DG")
def _downgrade():
    procs, log = _node({BLOCK: DIRTY}, {BLOCK: SHARED}, "ghost")
    assert protocol.downgrade(procs, BLOCK) is True
    assert log == [("clean", 0, BLOCK)]
    assert procs[2].ghosts == {BLOCK}  # the buffer supplied the data, and stays
    procs, log = _node("ghost", {})
    assert protocol.downgrade(procs, BLOCK) is True and log == []
    procs, log = _node({BLOCK: SHARED}, {})
    assert protocol.downgrade(procs, BLOCK) is False and log == []


@row("WD")
def _writeback_done():
    procs, log = _node("ghost", {BLOCK: SHARED})
    assert protocol.writeback_done(procs, BLOCK) is None
    assert log == [("release", 0, BLOCK), ("release", 1, BLOCK)]
    assert not protocol.holds_dirty(procs, BLOCK)


@row("CB")
def _copies_besides_wb():
    assert protocol.copies_besides_wb(_node("ghost", {BLOCK: SHARED})[0], BLOCK)
    assert not protocol.copies_besides_wb(_node("ghost", {})[0], BLOCK)


@row("HD")
def _holds_dirty():
    assert protocol.holds_dirty(_node({}, {BLOCK: DIRTY})[0], BLOCK)
    assert protocol.holds_dirty(_node({}, "ghost")[0], BLOCK)
    assert not protocol.holds_dirty(_node({BLOCK: SHARED}, {})[0], BLOCK)


def test_the_cache_probes_price_the_hit_rows():
    """``ProcessorCache``'s probes are L1/L3 with a price: same verdicts."""
    for state in (None, SHARED, DIRTY):
        cache = ProcessorCache(16, 64, 1, 256, 1)
        if state is not None:
            cache.install(BLOCK, state)
        assert (cache.probe_read(BLOCK) is not None) == protocol.hit(cache, BLOCK, False)
        assert cache.probe_write(BLOCK) == protocol.hit(cache, BLOCK, True)


TABLE_ROWS = re.findall(r"^([A-Z][A-Z0-9])\s{2,}\w", protocol.__doc__, re.M)


def test_every_row_of_the_docstring_table_has_a_case():
    # twelve directory rows, twelve node rows
    assert len(TABLE_ROWS) == 24 and set(TABLE_ROWS) == set(ROWS)


@pytest.mark.parametrize("label", TABLE_ROWS)
def test_row(label):
    ROWS[label]()


def test_docs_carry_the_same_rows():
    doc = (Path(repro.__file__).parents[2] / "docs" / "protocol.md").read_text()
    assert re.findall(r"^\| ([A-Z][A-Z0-9]) \|", doc, re.M) == TABLE_ROWS


def test_in_flight_nak_leaves_every_cache_untouched():
    b = Bench(pooled=True)
    b.line.entry.record_sharer(2)

    def busy(block, mates):
        raise AllWaysBusy("group-mate busy")

    with pytest.raises(AllWaysBusy):
        b.write(1, pooled=True, in_flight=busy)
    # the regrant precedes the guard; no copy anywhere is invalidated
    assert b.log == [("cancel_wb", BLOCK, 1), ("release", 1, BLOCK)]
    assert b.state() == (False, None, [2])


def _model(max_inflight=2):
    return ModelConfig(
        scheme=make_scheme("full", 3), num_nodes=3, max_inflight=max_inflight
    )


def test_one_planted_bug_is_seen_by_both_engines(monkeypatch):
    real = protocol.read

    def forgets_the_old_owner(line, block, req, nodes, cancel_wb, record, txn_id=None):
        def record_requester_only(line, node, block, txn_id):
            if node == req:
                record(line, node, block, txn_id)
        return real(
            line, block, req, nodes, cancel_wb, record_requester_only, txn_id
        )

    monkeypatch.setattr(protocol, "read", forgets_the_old_owner)
    # one message at a time: replay serialises issues, so the trace must
    # not depend on the home servicing two requests out of issue order
    cfg = _model(max_inflight=1)
    violation = explore(cfg).violation
    assert violation is not None and violation.invariant == "directory-coverage"
    caught = replay_counterexample(violation.actions, cfg, make_scheme("full", 3))
    assert isinstance(caught, CoherenceViolation)
    assert caught.invariant == "directory-coverage"


def test_pr2_stale_writeback_bug_is_found_when_replanted(monkeypatch):
    assert explore(_model()).ok
    real = protocol.write

    def no_clean_row_cancel(line, block, req, nodes, cancel_wb, *rest):
        if not line.dirty:
            cancel_wb = lambda block, node: None  # noqa: E731
        return real(line, block, req, nodes, cancel_wb, *rest)

    monkeypatch.setattr(protocol, "write", no_clean_row_cancel)
    violation = explore(_model()).violation
    # evict; forwarded read eats the ghost; re-write; the stale wb lands
    assert violation is not None and len(violation.actions) == 8
    assert violation.invariant == "directory-coverage"
    assert ("evict", 1, 0) in violation.actions
    assert violation.actions[-1] == ("deliver", "wb", 0, 1)


SRC = Path(repro.__file__).parent


#: what a processor view does to a line: only the kernel's node rows ask it
LINE_WRITERS = {"install", "invalidate", "set_state", "clean", "release_ghost"}
#: the modules that price the node rows and must not apply them themselves
PRICERS = {"machine/cluster.py", "machine/system.py"}


def _protocol_state_writers(sources):
    """Writes of protocol state outside the kernel, over ``{path: source}``
    of ``machine/`` and ``verify/``: a directory line's ``dirty``/``owner``
    or entry, a model node's cache letter, and — in the pricing modules —
    any processor-view write or writeback-buffer access."""
    offenders = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            targets = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr in ("dirty", "owner"):
                        offenders.append(f"{name}:{leaf.lineno} .{leaf.attr} =")
                    if (
                        isinstance(leaf, ast.Subscript)
                        and isinstance(leaf.value, ast.Subscript)
                        and isinstance(leaf.value.value, ast.Attribute)
                        and leaf.value.value.attr == "caches"
                    ):
                        offenders.append(f"{name}:{leaf.lineno} .caches[..][..] =")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr, owner = node.func.attr, node.func.value
                if (
                    attr in ("reset", "record_sharer", "remove_sharer")
                    and isinstance(owner, ast.Attribute) and owner.attr == "entry"
                ):
                    offenders.append(f"{name}:{node.lineno} entry.{attr}()")
                if name in PRICERS and attr in LINE_WRITERS:
                    offenders.append(f"{name}:{node.lineno} .{attr}()")
            if name in PRICERS and isinstance(node, ast.Attribute) and node.attr == "wb_buffer":
                offenders.append(f"{name}:{node.lineno} .wb_buffer")
    return offenders


def test_only_the_kernel_writes_directory_protocol_state():
    sources = {
        str(path.relative_to(SRC)): path.read_text()
        for path in [*SRC.glob("machine/*.py"), *SRC.glob("verify/*.py")]
    }
    assert _protocol_state_writers(sources) == []
    # the walk would see a second site writing a cache line's state
    planted = {
        "machine/cluster.py": sources["machine/cluster.py"] + (
            "\ndef _owns(self, block):\n"
            "    self.caches[0].install(block, LineState.DIRTY)\n"
            "    self.caches[1].wb_buffer.add(block)\n"
        ),
        "verify/conformance.py": sources["verify/conformance.py"] + (
            "\ndef _surgery(self):\n"
            "    self.state.caches[1][0] = INVALID\n"
        ),
    }
    c = sources["machine/cluster.py"].count("\n")
    v = sources["verify/conformance.py"].count("\n")
    assert _protocol_state_writers(planted) == [
        f"machine/cluster.py:{c + 3} .install()",
        f"machine/cluster.py:{c + 4} .wb_buffer",
        f"verify/conformance.py:{v + 3} .caches[..][..] =",
    ]


#: the deleted second statement of the node rows, by where it lived
GONE = {
    "verify/model.py": {"_Row"},
    "core/protocol.py": {"Node"},
    "machine/cluster.py": {
        "invalidate_block", "invalidate_if_clean", "downgrade_block",
        "has_copy", "holds_dirty", "copies_besides_wb", "writeback_done",
        "install_from_directory", "_sibling_with_copy", "_owns_live",
    },
}
NODE_ROWS = {
    "hit", "bus", "fill", "invalidate_if_clean", "downgrade", "writeback_done",
    "copies_besides_wb", "holds_dirty",
}


def test_the_node_rows_are_stated_once():
    defined = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(str(path.relative_to(SRC)), set()).add(node.name)
    for name, gone in GONE.items():
        assert not gone & defined[name], (name, gone & defined[name])
    elsewhere = {
        name: rows & NODE_ROWS for name, rows in defined.items()
        if rows & NODE_ROWS and name != "core/protocol.py"
    }
    assert elsewhere == {} and NODE_ROWS <= defined["core/protocol.py"]
    cluster = next(
        node for node in ast.parse((SRC / "machine/cluster.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "Cluster"
    )
    methods = {f.name for f in cluster.body if isinstance(f, ast.FunctionDef)}
    assert methods == {"__init__", "try_local"}  # pricing only


def test_the_kernel_imports_no_engine():
    tree = ast.parse((SRC / "core" / "protocol.py").read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [
        m for m in imported
        if m.startswith(("repro.machine", "repro.obs", "repro.verify"))
    ]


# -- an entry states who it covers once --------------------------------------------

DERIVED_VIEWS = {"targets_sorted", "invalidation_targets", "is_empty", "might_share"}
#: not a view of an entry: "not dirty and ``entry.is_empty()``", one level up
LINE_LEVEL = "sparse.py:DirLine.is_empty"


def _covered_statements(sources):
    """``(view definitions outside base.py, entry classes lacking covered)``
    over ``{file name: source}`` of ``core/``."""
    overrides, entries = [], {}
    for name, source in sorted(sources.items()):
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            defined = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
            if name != "base.py":
                overrides += [f"{name}:{cls.name}.{v}" for v in sorted(defined & DERIVED_VIEWS)]
            if cls.name.endswith("Entry") and "record_sharer" in defined:
                entries[cls.name] = "covered" in defined  # a concrete entry
    return (
        [site for site in overrides if site != LINE_LEVEL],
        sorted(cls for cls, has in entries.items() if not has),
    )


def test_only_base_derives_the_views_of_covered():
    sources = {p.name: p.read_text() for p in SRC.glob("core/*.py")}
    overrides, uncovered = _covered_statements(sources)
    assert not overrides and not uncovered
    base = [
        f.name for cls in ast.parse(sources["base.py"]).body
        if isinstance(cls, ast.ClassDef) for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name in DERIVED_VIEWS
    ]
    assert sorted(base) == sorted(DERIVED_VIEWS)  # one definition each
    # the walk would see a scheme stating its set a second time, or not at all
    sources["planted.py"] = (
        "class PlantedEntry(DirectoryEntry):\n"
        "    def record_sharer(self, node): return ()\n"
        "    def is_empty(self): return not self.pointers\n"
    )
    assert _covered_statements(sources) == (
        ["planted.py:PlantedEntry.is_empty"], ["PlantedEntry"]
    )


def test_the_explorer_names_no_entry_or_scheme_class():
    tree = ast.parse((SRC / "verify" / "explorer.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro.core")
        for alias in node.names
    }
    assert imported == {"DirectoryScheme", "DirLine", "SparseDirectory"}


# -- the invalidation round is booked once ------------------------------------------

#: what states the paper's accounting -> the one controller function naming it
ROUND_SITES = {
    "INVALIDATION": "_book_round",
    "ACKNOWLEDGEMENT": "_book_round",
    "record_inval_event": "_book_round",
    "dir.inval_round": "_book_round",
    "on_inval_round": "_book_round",
    "inval_issue_cycles": "_fanout_cycles",
}


def _round_sites(source):
    """marker -> the functions of ``source`` whose code names it."""
    found = {marker: set() for marker in ROUND_SITES}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                name = (
                    node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant)
                    else None
                )
                if isinstance(name, str) and name in found:
                    found[name].add(func.name)
    return found


def test_one_function_books_a_round_and_one_times_its_fanout():
    source = (SRC / "machine" / "directory.py").read_text()
    expected = {marker: {func} for marker, func in ROUND_SITES.items()}
    assert _round_sites(source) == expected
    # the walk would see a second counting site
    second = source + (
        "\ndef _eager(self):\n"
        "    self._messages[MsgClass.ACKNOWLEDGEMENT] += 1\n"
        "    self._stats.record_inval_event(cause, 1)\n"
    )
    found = _round_sites(second)
    assert found["ACKNOWLEDGEMENT"] == {"_book_round", "_eager"}
    assert found["record_inval_event"] == {"_book_round", "_eager"}


HOME = 0


@pytest.mark.parametrize(
    "cause, recipient, targets",
    itertools.product(
        InvalCause,
        (HOME, 2),  # the home's RAC / a remote writer
        ((), (1, 3), (HOME, 1, 3), (1, 2, 3), (HOME, 1, 2, 3)),
    ),
)
def test_book_round_counts_what_the_checker_expects(cause, recipient, targets):
    tracer = Tracer()
    system = DashSystem(
        MachineConfig(num_clusters=N), MP3DWorkload(N, num_particles=8, steps=1),
        strict=True, invariants="strict", obs=tracer,
    )
    stats = system.stats
    # the checker's own statement of conservation; strict, so a controller
    # that counted anything else would raise out of _book_round
    invals = len(targets) - (HOME in targets)
    acks = len(targets) - (recipient in targets)
    booked = system.directories[HOME]._book_round(
        cause, BLOCK, targets, recipient, (BLOCK,), 7
    )
    assert booked == invals
    assert stats.msg(MsgClass.INVALIDATION) == invals
    assert stats.msg(MsgClass.ACKNOWLEDGEMENT) == acks
    assert stats.total_messages == invals + acks
    # one event, even an empty one: whether an empty round *is* an event is
    # the calling handler's rule (a write's is, an empty sparse entry's not)
    assert stats.inval_hist == {
        c: ({invals: 1} if c is cause else {}) for c in InvalCause
    }
    (event,) = tracer.events()
    assert event.name == "dir.inval_round"
    assert event.args == {
        "cause": cause.value, "block": BLOCK, "invals": invals, "txn_id": 7
    }
    checker = system.invariants
    assert (checker.inval_rounds, checker.blocks_checked) == (1, 1)
    assert checker.violations == []
