"""Property-based tests on the whole machine.

Random scripted workloads (reads/writes/work over a small heap) are run
under randomly chosen directory schemes and directory organizations; the
invariants from DESIGN.md §6 must hold for every execution:

* machine-wide coherence (single writer, directory covers sharers);
* message conservation: every reply answers a request, every
  invalidation is acknowledged;
* determinism: replaying the identical configuration reproduces the
  statistics bit for bit;
* the full bit vector's invalidation traffic lower-bounds every
  conservative scheme's on the same reference stream.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import DashSystem, MachineConfig
from repro.trace.event import Read, Work, Write
from repro.trace.scripted import ScriptedWorkload

NUM_CLUSTERS = 4
HEAP_BLOCKS = 12

ops = st.one_of(
    st.builds(Read, st.integers(0, HEAP_BLOCKS - 1).map(lambda b: b * 16)),
    st.builds(Write, st.integers(0, HEAP_BLOCKS - 1).map(lambda b: b * 16)),
    st.builds(Work, st.integers(1, 30)),
)

scripts = st.lists(
    st.lists(ops, max_size=25), min_size=NUM_CLUSTERS, max_size=NUM_CLUSTERS
)

schemes = st.sampled_from(
    ["full", "Dir1B", "Dir1NB", "Dir2X", "Dir1CV2", "DirLL", "Dir1OF2"]
)

sparse_opts = st.sampled_from(
    [None, (0.5, 1, "lru"), (0.25, 2, "random"), (0.25, 1, "lra")]
)


def run(script_lists, scheme, sparse, *, seed=0):
    overrides = {}
    if sparse is not None:
        factor, assoc, policy = sparse
        overrides = dict(
            sparse_size_factor=factor, sparse_assoc=assoc, sparse_policy=policy
        )
    cfg = MachineConfig(
        num_clusters=NUM_CLUSTERS,
        scheme=scheme,
        l1_bytes=32,
        l2_bytes=64,  # 4 blocks: forces evictions and writebacks
        seed=seed,
        **overrides,
    )
    system = DashSystem(cfg, ScriptedWorkload(script_lists, block_bytes=16))
    stats = system.run()
    return system, stats


common = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common
@given(script_lists=scripts, scheme=schemes, sparse=sparse_opts)
def test_coherence_invariants(script_lists, scheme, sparse):
    system, _ = run(script_lists, scheme, sparse)
    system.check_coherence()


@common
@given(script_lists=scripts, scheme=schemes, sparse=sparse_opts)
def test_message_conservation(script_lists, scheme, sparse):
    _, stats = run(script_lists, scheme, sparse)
    # every reply answers exactly one request (requests also include
    # writebacks, which get no reply)
    assert stats.replies <= stats.requests
    # each network invalidation is acknowledged; local (home-bus)
    # invalidations may add acks without a message
    assert stats.invalidations <= stats.acknowledgements + 1e-9 or (
        stats.acknowledgements == 0 and stats.invalidations == 0
    )
    # histograms are consistent with the counters
    assert stats.invalidations_sent() <= stats.invalidations + stats.acknowledgements


@common
@given(script_lists=scripts, scheme=schemes, sparse=sparse_opts)
def test_determinism(script_lists, scheme, sparse):
    _, a = run(script_lists, scheme, sparse, seed=3)
    _, b = run(script_lists, scheme, sparse, seed=3)
    assert a.to_dict() == b.to_dict()
    assert [p.finish_time for p in a.procs] == [p.finish_time for p in b.procs]


@common
@given(script_lists=scripts)
def test_full_vector_minimizes_write_invalidations(script_lists):
    from repro.machine.stats import InvalCause

    def write_invals(scheme):
        _, stats = run(script_lists, scheme, None)
        return stats.invalidations_sent(InvalCause.WRITE)

    base = write_invals("full")
    for scheme in ("Dir1B", "Dir1CV2", "Dir2X"):
        assert write_invals(scheme) >= base


@common
@given(script_lists=scripts, scheme=schemes)
def test_all_processors_finish(script_lists, scheme):
    system, stats = run(script_lists, scheme, None)
    assert all(p.done for p in system.processors)
    total_refs = sum(
        1 for s in script_lists for op in s if not isinstance(op, Work)
    )
    assert sum(p.reads + p.writes for p in stats.procs) == total_refs


@common
@given(script_lists=scripts, scheme=schemes)
def test_exec_time_is_max_finish(script_lists, scheme):
    _, stats = run(script_lists, scheme, None)
    assert stats.exec_time == max(
        (p.finish_time for p in stats.procs), default=0.0
    )
