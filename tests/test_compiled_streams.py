"""Compiled op streams: one packed array per processor, shared by identity.

``Workload.compile()`` drains each ``stream(p)`` once into packed words
and shares the result between instances with one fingerprint.  This file
holds the equivalence property (compiled == generated, for every exported
application), the sharing rules, the memo's bound, the operand contract,
the fixed points (Table 2, a dumped trace) and the ``ast`` gates that
keep the compiled form the only thing the machine reads.
"""

import ast
import hashlib
import io
import json
from pathlib import Path

import pytest

import repro
import repro.apps
from repro.analysis.supervisor import fork_context
from repro.apps import (
    DWFWorkload,
    FrequentReadWritePattern,
    LocusRouteWorkload,
    LUWorkload,
    MigratoryPattern,
    MostlyReadPattern,
    MP3DWorkload,
    MultiprogrammedWorkload,
    ReadOnlyPattern,
    SharingDegreeWorkload,
    SynchronizationPattern,
    UniformRandomWorkload,
)
from repro.machine import MachineConfig, run_workload
from repro.trace import Workload, characterize, workload
from repro.trace.event import OP_CLASSES, OPCODE, Lock, Read, Work, Write, unpack
from repro.trace.recorder import ReplayWorkload, dump_trace, load_trace
from repro.trace.scripted import ScriptedWorkload

#: constructor arguments at two sizes for every exported application
SIZES = {
    LUWorkload: (dict(matrix_n=6), dict(matrix_n=11)),
    DWFWorkload: (
        dict(pattern_len=4, library_len=16, col_block=4),
        dict(pattern_len=8, library_len=40, col_block=8),
    ),
    MP3DWorkload: (
        dict(num_particles=24, steps=1),
        dict(num_particles=80, space_cells=12, steps=3),
    ),
    LocusRouteWorkload: (
        dict(grid_cols=16, grid_rows=4, num_regions=2, wires_per_region=3),
        dict(grid_cols=32, grid_rows=6, num_regions=4, wires_per_region=7),
    ),
    SharingDegreeWorkload: (
        dict(sharers=2, num_blocks=4, rounds=2),
        dict(sharers=3, num_blocks=9, rounds=3, write_fraction=0.5),
    ),
    UniformRandomWorkload: (
        dict(refs_per_proc=10, heap_blocks=4),
        dict(refs_per_proc=60, heap_blocks=32),
    ),
    MultiprogrammedWorkload: (
        dict(partitions=2, sharers=2, blocks_per_partition=2, rounds=1),
        dict(partitions=2, scatter=True, blocks_per_partition=5, rounds=3),
    ),
    ReadOnlyPattern: (dict(num_blocks=2, rounds=1), dict(num_blocks=7, rounds=3)),
    MigratoryPattern: (dict(num_objects=1, rounds=1), dict(num_objects=3, rounds=2)),
    MostlyReadPattern: (
        dict(num_blocks=2, rounds=1),
        dict(num_blocks=5, rounds=3, writes_per_round=2),
    ),
    FrequentReadWritePattern: (dict(updates_per_proc=1), dict(updates_per_proc=4)),
    SynchronizationPattern: (dict(num_locks=1, rounds=1), dict(num_locks=3, rounds=4)),
}


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts with no shared streams and leaves none behind."""
    monkeypatch.setattr(workload, "_MEMO", {})


def _typed(ops):
    """Ops with their classes: ``Read(16) == Write(16)`` as bare tuples."""
    return [(type(op), *op) for op in ops]


def test_the_size_table_covers_every_exported_application():
    exported = {
        obj for name in repro.apps.__all__
        if isinstance(obj := getattr(repro.apps, name), type)
        and issubclass(obj, Workload)
    }
    assert exported == set(SIZES)


@pytest.mark.parametrize("cls", SIZES, ids=lambda cls: cls.__name__)
def test_compiled_streams_decode_to_the_generated_ops(cls):
    for kwargs in SIZES[cls]:
        for seed in (0, 5):
            wl = cls(4, seed=seed, **kwargs)
            for p in range(wl.num_processors):
                generated = list(wl.stream(p))
                assert generated, (kwargs, p)
                words = wl.compiled(p)
                assert words.typecode == "I"
                assert _typed(map(unpack, words)) == _typed(generated)


def test_wide_operands_promote_one_stream_to_64_bit_words():
    wide = 1 << 40
    narrow, promoted = ScriptedWorkload(
        [[Read(16), Work(3)], [Read(16), Write(wide), Lock(2)]]
    ).compile()
    assert (narrow.typecode, promoted.typecode) == ("I", "Q")
    assert _typed(map(unpack, promoted)) == _typed(
        [Read(16), Write(wide), Lock(2)]
    )


def test_opcodes_are_the_class_order_and_fit_three_bits():
    assert [OPCODE[cls] for cls in OP_CLASSES] == list(range(len(OP_CLASSES)))
    assert len(OP_CLASSES) < 8


# -- the operand contract ---------------------------------------------------


@pytest.mark.parametrize(
    "op, error, names",
    [
        (Work(2.5), TypeError, "Work(cycles=2.5)"),
        (Read("16"), TypeError, "Read(addr='16')"),
        (Read(-16), ValueError, "Read(addr=-16)"),
        (("R", 16), TypeError, "('R', 16)"),
    ],
)
def test_compile_rejects_what_a_trace_file_cannot_hold(op, error, names):
    """``Work(2.5)`` used to simulate and dump as ``K 2.5``, which
    ``load_trace`` cannot read back; now it stops where streams enter."""
    wl = ScriptedWorkload([[Read(0)], [Read(0), Work(1), op]])
    with pytest.raises(error) as caught:
        wl.compile()
    message = str(caught.value)
    assert "processor 1 op 2" in message and names in message
    with pytest.raises(error):
        run_workload(MachineConfig(num_clusters=2), wl)
    with pytest.raises(error):
        dump_trace(wl, io.StringIO())


# -- sharing ------------------------------------------------------------------


def _lu(**overrides):
    return LUWorkload(4, **{"matrix_n": 6, **overrides})


def test_equal_instances_share_one_compile():
    first, second = _lu().compile(), _lu().compile()
    assert first is second
    assert all(a is b for a, b in zip(first, second))
    assert _lu().compiled(2) is first[2]


class _LUSubclass(LUWorkload):
    pass


@pytest.mark.parametrize(
    "other",
    [
        lambda: _lu(matrix_n=7),
        lambda: _lu(update_work_cycles=9),
        lambda: _lu(seed=1),
        lambda: _LUSubclass(4, matrix_n=6),
    ],
    ids=["size", "parameter", "seed", "subclass"],
)
def test_a_different_identity_compiles_its_own(other):
    assert other().compile() is not _lu().compile()
    assert other().compile() is other().compile()


def test_an_attribute_changed_after_construction_changes_the_identity():
    shared = _lu().compile()
    changed = _lu()
    changed.update_work_cycles = 9
    streams = changed.compile()
    assert streams is not shared
    assert _typed(map(unpack, streams[0])) == _typed(changed.stream(0))
    assert _lu().compile() is shared


def test_scripts_and_replays_never_share():
    script = [[Read(16), Write(32)], [Work(4)]]
    for make in (ScriptedWorkload, ReplayWorkload):
        a, b = make(script), make(script)
        assert a.compile() is not b.compile()
        assert a.compile() is not a.compile()
        assert a.compile() == b.compile()
    assert workload._MEMO == {}
    # the scripts are live lists: an edit shows in the next compile
    edited = ScriptedWorkload(script)
    edited._scripts[1].append(Read(48))
    assert len(edited.compiled(1)) == 2


class _OpaqueAttribute(LUWorkload):
    def build(self):
        super().build()
        self.lookup = {"anything": object()}


def test_an_attribute_the_fingerprint_cannot_represent_compiles_privately():
    a, b = _OpaqueAttribute(4, matrix_n=6), _OpaqueAttribute(4, matrix_n=6)
    assert a.fingerprint()["opaque"] == ["lookup"]
    assert a.compile() is not b.compile()
    assert workload._MEMO == {}
    assert a.compile() == _lu().compile()
    # the base class's own address space is not such an attribute
    assert _lu().fingerprint()["opaque"] == []


def test_the_fingerprint_is_not_computed_at_construction(monkeypatch):
    def explode(self):
        raise AssertionError("fingerprint() during construction")

    monkeypatch.setattr(Workload, "fingerprint", explode)
    from repro.machine.system import DashSystem

    DashSystem(MachineConfig(num_clusters=4), _lu())


@pytest.mark.skipif(fork_context() is None, reason="requires fork start method")
def test_a_forked_child_reads_the_parents_entry(monkeypatch):
    shared = _lu().compile()

    def child():
        def refuse(wl, proc_id):
            raise AssertionError("the child recompiled an inherited identity")

        workload.compile_stream = refuse
        raise SystemExit(0 if _lu().compile() is shared else 3)

    proc = fork_context().Process(target=child)
    proc.start()
    proc.join(30)
    assert proc.exitcode == 0


def test_the_memo_is_bounded_by_resident_ops(monkeypatch):
    monkeypatch.setattr(workload, "MEMO_MAX_OPS", 3000)

    def resident():
        return sum(len(s) for entry in workload._MEMO.values() for s in entry)

    newest = None
    for n in range(4, 11):
        newest = _lu(matrix_n=n).compile()
        assert resident() <= 3000
        assert list(workload._MEMO.values())[-1] is newest
    assert 1 < len(workload._MEMO) < 8  # several fit; the oldest went
    assert _lu(matrix_n=4).compile() is not None  # evicted, so recompiled
    # one identity larger than the whole bound is still kept, alone
    big = _lu(matrix_n=24).compile()
    assert sum(map(len, big)) > 3000
    assert list(workload._MEMO.values()) == [big]


# -- the suite-order regression -------------------------------------------------


def test_scripts_differing_only_in_op_class_simulate_differently():
    """Keyed on the old fingerprint these two shared one compiled stream
    whenever they ran in the same process, in either order."""
    cfg = MachineConfig(num_clusters=2)
    reads = ScriptedWorkload([[Read(16)], [Work(16)]])
    writes = ScriptedWorkload([[Write(16)], [Lock(16)]])
    for first, second in ((reads, writes), (writes, reads)):
        a, b = run_workload(cfg, first), run_workload(cfg, second)
        assert a.to_dict() != b.to_dict()
    stats = run_workload(cfg, writes)
    assert stats.procs[0].writes == 1 and stats.procs[0].reads == 0


# -- fixed points -------------------------------------------------------------


def test_table2_is_unchanged():
    from benchmarks.paperconfig import APPS

    committed = json.loads(
        (Path(repro.__file__).parents[2] / "results" / "table2.json").read_text()
    )
    committed.pop("schema")
    assert {
        name: vars(characterize(build())) for name, build in APPS.items()
    } == committed


#: sha256 of ``dump_trace`` output, recorded from the generator-walking parent
DUMPED = {
    "LU": (
        lambda: LUWorkload(8, matrix_n=16), 5815,
        "c74ed1b576ace9f0cfccbe1e2870f4ce72a4176c67cf4b5eab361efe3ff0baf3",
    ),
    "MP3D": (
        lambda: MP3DWorkload(4, num_particles=64, steps=2, seed=3), 931,
        "311cde1dfc2e8eb30c7b1e95a634bd463939f995fa88246fde36fbf8df29704d",
    ),
    "LocusRoute": (
        lambda: LocusRouteWorkload(4, seed=1), 4773,
        "2c35594ee98ced886a0756d08de898893f63340b7921e5d672450116837f3ad9",
    ),
}


@pytest.mark.parametrize("make, ops, sha", DUMPED.values(), ids=DUMPED.keys())
def test_dumped_traces_are_byte_identical(make, ops, sha):
    buf = io.StringIO()
    assert dump_trace(make(), buf) == ops
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha
    buf.seek(0)
    scripts, _meta = load_trace(buf)
    assert _typed(scripts[1]) == _typed(make().stream(1))


def test_characterize_then_simulate_compiles_once(monkeypatch):
    """The ``Workload`` docstring's own example: Table 2, then a run."""
    compiles = []
    real = workload.compile_stream

    def counting(wl, proc_id):
        compiles.append(proc_id)
        return real(wl, proc_id)

    monkeypatch.setattr(workload, "compile_stream", counting)
    wl = _lu()
    characterize(wl)
    run_workload(MachineConfig(num_clusters=4), wl)
    dump_trace(_lu(), io.StringIO())
    assert compiles == [0, 1, 2, 3]


# -- one walker, enforced ---------------------------------------------------------

SRC = Path(repro.__file__).parent


def test_the_machine_and_analysis_layers_never_walk_a_generator():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for package in ("machine", "analysis")
        for path in sorted((SRC / package).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "stream"
    ]
    assert offenders == []


def test_the_processor_dispatches_on_opcodes_not_op_classes():
    source = (SRC / "machine" / "processor.py").read_text()
    op_classes = {cls.__name__ for cls in OP_CLASSES} | {"TraceOp", "OP_CLASSES"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("type", "isinstance"), node.lineno
        if isinstance(node, ast.ImportFrom):
            assert not op_classes & {a.name for a in node.names}, node.lineno
    for gone in ("islice", "_END", "_FENCE_OPS", "_stream"):
        assert gone not in source, gone


def test_the_opcode_numbering_is_declared_once():
    """``READ, WRITE, ... = range(6)`` lives in ``trace/event.py``; no
    other module assigns those names, and the trace file's letter table
    is positional over the same declaration."""
    names = {"READ", "WRITE", "WORK", "LOCK", "UNLOCK", "BARRIER", "OPCODE",
             "OP_CLASSES"}
    assigners = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        # machine/directory.py has transaction kinds READ/WRITE
                        if isinstance(leaf, ast.Name) and leaf.id in names:
                            assigners.add((str(path.relative_to(SRC)), leaf.id))
    assert {a for a in assigners if a[0].startswith("trace/")} == {
        ("trace/event.py", name) for name in names
    }
    from repro.trace import recorder

    assert recorder._DECODE == dict(zip("RWKLUB", OP_CLASSES))
    assert [recorder.encode_op(cls(1))[0] for cls in OP_CLASSES] == list("RWKLUB")
