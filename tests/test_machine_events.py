"""Event kernel and network model tests."""

import pytest

from repro.machine.events import EventQueue
from repro.machine.network import MeshNetwork, UniformNetwork, make_network


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        out = []
        q.at(5, lambda: out.append("b"))
        q.at(1, lambda: out.append("a"))
        q.at(9, lambda: out.append("c"))
        q.run()
        assert out == ["a", "b", "c"]
        assert q.now == 9

    def test_ties_break_in_schedule_order(self):
        q = EventQueue()
        out = []
        for i in range(5):
            q.at(3, lambda i=i: out.append(i))
        q.run()
        assert out == [0, 1, 2, 3, 4]

    def test_after_is_relative(self):
        q = EventQueue()
        times = []
        q.at(10, lambda: q.after(5, lambda: times.append(q.now)))
        q.run()
        assert times == [15]

    def test_events_scheduled_during_run(self):
        q = EventQueue()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                q.after(1, lambda: chain(n + 1))

        q.at(0, lambda: chain(0))
        q.run()
        assert out == [0, 1, 2, 3]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.at(5, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.at(2, lambda: None)

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.after(-1, lambda: None)

    def test_max_events_cap(self):
        q = EventQueue()
        out = []
        for i in range(10):
            q.at(i, lambda i=i: out.append(i))
        q.run(max_events=4)
        assert out == [0, 1, 2, 3]
        assert len(q) == 6


class TestNetworks:
    def test_uniform_zero_within_cluster(self):
        net = UniformNetwork(8, 20)
        assert net.leg(3, 3) == 0
        assert net.leg(0, 7) == 20

    def test_uniform_symmetric(self):
        net = UniformNetwork(8, 17.5)
        assert net.leg(2, 5) == net.leg(5, 2)

    def test_mesh_hops_xy(self):
        net = MeshNetwork(16, width=4, base_cycles=10, hop_cycles=2)
        assert net.hops(0, 0) == 0
        assert net.hops(0, 3) == 3  # same row
        assert net.hops(0, 15) == 6  # corner to corner on 4x4
        assert net.leg(0, 15) == 10 + 12

    def test_mesh_zero_same_cluster(self):
        net = MeshNetwork(16, width=4)
        assert net.leg(5, 5) == 0

    def test_mesh_default_width_square(self):
        net = MeshNetwork(16)
        assert net.width == 4 and net.height == 4

    def test_mesh_non_square(self):
        net = MeshNetwork(6, width=3)
        assert net.height == 2
        assert net.coords(5) == (2, 1)

    def test_out_of_range(self):
        net = UniformNetwork(4)
        with pytest.raises(ValueError):
            net.leg(0, 4)

    def test_factory(self):
        assert isinstance(make_network("uniform", 4), UniformNetwork)
        assert isinstance(make_network("mesh", 4), MeshNetwork)
        with pytest.raises(ValueError):
            make_network("torus", 4)


class TestLegTable:
    """``system.legs`` — the one leg lookup, at every machine size."""

    @pytest.mark.parametrize("network", ["uniform", "mesh"])
    @pytest.mark.parametrize("faults", [None, 7])
    def test_1024_clusters_build_fast_and_rows_fill_on_use(
        self, network, faults
    ):
        import random
        import time

        from repro.apps import UniformRandomWorkload
        from repro.machine import DashSystem, MachineConfig

        n = 1024
        config = MachineConfig(num_clusters=n, network=network)
        workload = UniformRandomWorkload(n, refs_per_proc=1, heap_blocks=8)
        t0 = time.perf_counter()
        system = DashSystem(config, workload, faults=faults)
        assert time.perf_counter() - t0 < 1.0
        assert len(system.legs) == 0  # no row until a source sends
        rng = random.Random(5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        pairs += [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0)]
        for src, dst in pairs:
            assert system.legs[src][dst] == system.network.leg(src, dst)
        assert len(system.legs) == len({src for src, _ in pairs})
        assert all(len(row) == n for row in system.legs.values())
        with pytest.raises(ValueError):
            system.legs[n]
