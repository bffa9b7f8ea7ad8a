"""SimStats accounting unit tests."""

import json
import pickle

import pytest

from repro.apps import MP3DWorkload
from repro.machine import DashSystem, MachineConfig
from repro.machine.messages import MsgClass
from repro.machine.stats import InvalCause, ProcessorStats, SimStats


class TestMessageCounting:
    def test_counts_by_class(self):
        s = SimStats(4)
        s.count_msg(MsgClass.REQUEST, 3)
        s.count_msg(MsgClass.REPLY)
        s.count_msg(MsgClass.INVALIDATION, 2)
        s.count_msg(MsgClass.ACKNOWLEDGEMENT, 2)
        assert s.requests == 3
        assert s.replies == 1
        assert s.invalidations == 2
        assert s.acknowledgements == 2
        assert s.total_messages == 8
        assert s.inval_plus_ack == 4

    def test_zero_count_is_noop(self):
        s = SimStats(1)
        s.count_msg(MsgClass.REQUEST, 0)
        assert s.total_messages == 0

    def test_traffic_breakdown_keys(self):
        s = SimStats(1)
        assert set(s.traffic_breakdown()) == {"requests", "replies", "inval_ack"}


class TestInvalidationHistogram:
    def test_events_by_cause(self):
        s = SimStats(2)
        s.record_inval_event(InvalCause.WRITE, 0)
        s.record_inval_event(InvalCause.WRITE, 3)
        s.record_inval_event(InvalCause.NB_EVICT, 1)
        s.record_inval_event(InvalCause.SPARSE_REPL, 5)
        assert s.invalidation_events() == 4
        assert s.invalidation_events(InvalCause.WRITE) == 2
        assert s.invalidations_sent() == 9
        assert s.invalidations_sent(InvalCause.WRITE) == 3
        assert s.avg_invals_per_event == pytest.approx(2.25)

    def test_merged_distribution_sorted(self):
        s = SimStats(2)
        s.record_inval_event(InvalCause.WRITE, 5)
        s.record_inval_event(InvalCause.NB_EVICT, 1)
        s.record_inval_event(InvalCause.WRITE, 1)
        dist = s.inval_distribution()
        assert list(dist) == [1, 5]
        assert dist[1] == 2

    def test_empty_average_is_zero(self):
        assert SimStats(1).avg_invals_per_event == 0.0


class TestProcessorStats:
    def test_total(self):
        p = ProcessorStats(busy=10.0, stall=5.0, sync=2.5)
        assert p.total == 17.5

    def test_per_processor_slots(self):
        s = SimStats(3)
        s.procs[1].reads = 7
        assert s.procs[0].reads == 0
        assert len(s.procs) == 3


class TestToDict:
    def test_contains_headline_fields(self):
        s = SimStats(1)
        s.exec_time = 100.0
        d = s.to_dict()
        for key in ("exec_time", "total_messages", "requests", "replies",
                    "invalidations", "acknowledgements",
                    "invalidation_events", "avg_invals_per_event",
                    "sparse_replacements", "nb_evictions"):
            assert key in d, key

    def test_repr_is_compact(self):
        s = SimStats(1)
        s.exec_time = 12.0
        assert "msgs=0" in repr(s)


# -- every counter is declared: a slot ------------------------------------------


def _controller_stats():
    """What a live directory controller counts into (its own alias)."""
    system = DashSystem(
        MachineConfig(num_clusters=4), MP3DWorkload(4, num_particles=16, steps=1)
    )
    return system.directories[0]._stats


class TestDeclaredCounters:
    @pytest.mark.parametrize("owner", [
        lambda: SimStats(1),
        ProcessorStats,
        _controller_stats,
    ], ids=["sim-stats", "processor-stats", "controller-alias"])
    def test_undeclared_counter_raises(self, owner):
        stats = owner()
        with pytest.raises(AttributeError):
            stats.bogus = 0
        with pytest.raises(AttributeError):
            stats.bogus += 1

    def test_a_finished_run_round_trips(self):
        # the sweep pipes pickle a run's stats; the result cache stores
        # its to_state() as JSON
        system = DashSystem(
            MachineConfig(num_clusters=4),
            MP3DWorkload(4, num_particles=64, steps=1),
        )
        stats = system.run()
        assert stats.remote_misses and stats.procs[3].reads
        state = stats.to_state()
        assert list(state["procs"][0]) == [
            "busy", "stall", "sync", "reads", "writes", "finish_time"]
        for clone in (
            pickle.loads(pickle.dumps(stats)),
            SimStats.from_state(json.loads(json.dumps(state))),
        ):
            assert clone.to_state() == state
            assert clone.to_dict() == stats.to_dict()
            assert clone.procs == stats.procs
