"""Causal transaction analytics: chains, the phase-sum identity, CLI.

The load-bearing guarantee: for every reconstructed transaction the
phase breakdown sums exactly (within RESIDUAL_TOLERANCE) to the
``txn.*`` span duration, on every scheme the simulator supports.
"""

import json

import pytest

from repro.apps import MP3DWorkload, UniformRandomWorkload
from repro.machine.config import MachineConfig
from repro.machine.system import run_workload
from repro.obs.causal import (
    PHASE_ORDER,
    ChainSet,
    TxnChain,
    reconstruct,
    verify_chain_sums,
)
from repro.obs.tracer import TraceEvent, Tracer


def _trace(scheme="Dir2B", workload=None, capacity=1 << 20):
    tracer = Tracer(capacity)
    config = MachineConfig(num_clusters=4, scheme=scheme)
    workload = workload or MP3DWorkload(4, num_particles=16, steps=1, seed=0)
    run_workload(config, workload, obs=tracer)
    return tracer.events()


def _synthetic_chain(txn_id=7, *, t_issue=100.0, svc_ts=110.0,
                     t_start=115.0, phases=None, dur=None):
    phases = phases if phases is not None else {"memory": 20.0,
                                                "net_reply": 5.0}
    if dur is None:
        dur = (svc_ts - t_issue) + (t_start - svc_ts) + sum(phases.values())
    return [
        TraceEvent("txn.read", t_issue, kind="span", dur=dur, comp="cache",
                   tid=2, args={"txn_id": txn_id, "block": 33,
                                "requester": 1}),
        TraceEvent("dir.service", svc_ts, kind="span", dur=dur - 10.0,
                   comp="directory", tid=2,
                   args={"txn_id": txn_id, "t_start": t_start,
                         "phases": phases}),
    ]


class TestReconstructSynthetic:
    def test_single_chain_fields(self):
        cs = reconstruct(_synthetic_chain())
        assert cs.incomplete == 0 and cs.untagged == 0
        (chain,) = cs.chains
        assert chain.txn_id == 7
        assert chain.kind == "read"
        assert chain.block == 33
        assert chain.requester == 1
        assert chain.home == 2  # the span's tid lane
        assert chain.t_issue == 100.0
        assert chain.phases["net_request"] == 10.0
        assert chain.phases["dir_queue"] == 5.0
        assert chain.phases["memory"] == 20.0
        assert abs(chain.residual) < 1e-9

    def test_zero_cycle_phases_are_omitted(self):
        # local-home request: no wire leg, no queueing
        cs = reconstruct(
            _synthetic_chain(t_issue=100.0, svc_ts=100.0, t_start=100.0)
        )
        (chain,) = cs.chains
        assert "net_request" not in chain.phases
        assert "dir_queue" not in chain.phases

    def test_side_events_accumulate_onto_the_chain(self):
        events = _synthetic_chain(txn_id=9)
        extra = [
            TraceEvent("dir.inval_round", 120.0, comp="directory",
                       args={"txn_id": 9, "invals": 3}),
            TraceEvent("cache.inval", 121.0, comp="cache",
                       args={"txn_id": 9}),
            TraceEvent("cache.inval", 122.0, comp="cache",
                       args={"txn_id": 9}),
            TraceEvent("txn.retry", 101.0, comp="network",
                       args={"txn_id": 9}),
            TraceEvent("net.fault", 101.0, comp="network",
                       args={"txn_id": 9}),
        ]
        (chain,) = reconstruct(events + extra).chains
        assert chain.invals == 3
        assert chain.cache_invals == 2
        assert chain.retries == 1
        assert chain.faults == 1

    def test_dropped_span_counts_as_incomplete(self):
        # dir.service survived the ring; its txn.* span did not
        events = _synthetic_chain(txn_id=5)[1:]
        cs = reconstruct(events)
        assert cs.chains == []
        assert cs.incomplete == 1

    def test_untagged_span_counts_as_untagged(self):
        ev = TraceEvent("txn.read", 0.0, kind="span", dur=30.0, comp="cache")
        cs = reconstruct([ev])
        assert cs.chains == []
        assert cs.untagged == 1

    def test_top_slowest_orders_by_latency_then_id(self):
        events = (
            _synthetic_chain(txn_id=1, phases={"memory": 50.0})
            + _synthetic_chain(txn_id=2, phases={"memory": 90.0})
            + _synthetic_chain(txn_id=3, phases={"memory": 90.0})
        )
        cs = reconstruct(events)
        assert [c.txn_id for c in cs.top_slowest(2)] == [2, 3]

    def test_verify_flags_a_broken_identity(self):
        good = reconstruct(_synthetic_chain())
        assert verify_chain_sums(good) == []
        bad = reconstruct(_synthetic_chain(dur=999.0))
        assert [c.txn_id for c in verify_chain_sums(bad)] == [7]


class TestRealTraces:
    @pytest.mark.parametrize(
        "scheme", ["full", "Dir2B", "Dir2NB", "Dir2CV2", "DirLL"]
    )
    def test_phase_sums_are_exact_on_every_scheme(self, scheme):
        cs = reconstruct(_trace(scheme=scheme))
        assert cs.chains, "traced run produced no transactions"
        assert cs.incomplete == 0
        assert cs.untagged == 0
        assert verify_chain_sums(cs) == []
        assert set(cs.phase_totals()) <= set(PHASE_ORDER)

    def test_write_transactions_record_their_invalidations(self):
        workload = UniformRandomWorkload(
            4, refs_per_proc=120, heap_blocks=8, write_fraction=0.6
        )
        cs = reconstruct(_trace(scheme="full", workload=workload))
        writes = [c for c in cs.chains if c.kind == "write"]
        assert writes
        assert any(c.invals > 0 for c in writes)
        fanned = [c for c in writes if c.invals]
        assert any("inval_fanout" in c.phases for c in fanned)

    def test_wrapped_trace_degrades_gracefully(self):
        full = reconstruct(_trace())
        wrapped = reconstruct(_trace(capacity=64))
        assert verify_chain_sums(wrapped) == []  # survivors still exact
        assert len(wrapped.chains) < len(full.chains)  # drops, not garbage

    def test_histograms_cover_each_phase(self):
        cs = reconstruct(_trace())
        totals = cs.phase_totals()
        assert set(cs.histograms) == set(totals)
        for phase, hist in cs.histograms.items():
            d = hist.to_dict()
            assert d["count"] >= 1


class TestReportFormatting:
    def test_format_critical_path_sections(self):
        from repro.analysis.report import format_critical_path

        cs = reconstruct(_trace())
        text = format_critical_path(cs, top=3)
        assert "transactions" in text
        assert "net_request" in text or "memory" in text
        assert "slowest transactions:" in text
        assert text.count("  #") >= 1  # per-transaction chain lines

    def test_format_handles_empty_chain_set(self):
        from repro.analysis.report import format_critical_path

        text = format_critical_path(ChainSet(chains=[]))
        assert "no causal chains" in text


class TestCli:
    def _write_trace(self, tmp_path, compress=False):
        from repro.obs.export import write_jsonl

        path = tmp_path / ("t.jsonl.gz" if compress else "t.jsonl")
        write_jsonl(_trace(), path, compress=compress)
        return path

    def test_critical_path_command(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(tmp_path)
        assert main(["obs", "critical-path", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest" in out

    def test_critical_path_reads_gzipped_traces(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(tmp_path, compress=True)
        assert main(["obs", "critical-path", str(path)]) == 0
        assert "slowest" in capsys.readouterr().out

    def test_critical_path_fails_on_chainless_trace(self, tmp_path):
        from repro.cli import main
        from repro.obs.export import write_jsonl

        path = tmp_path / "empty.jsonl"
        write_jsonl(
            [TraceEvent("sweep.point", 0.0, comp="sweep")], path
        )
        assert main(["obs", "critical-path", str(path)]) == 1


class TestChainDataclass:
    def test_ordered_phases_follow_chain_order(self):
        chain = TxnChain(
            txn_id=1, kind="read", block=0, requester=0, home=0,
            t_issue=0.0, latency=10.0,
            phases={"net_reply": 2.0, "zz_custom": 1.0, "net_request": 7.0},
        )
        assert chain.ordered_phases() == [
            ("net_request", 7.0), ("net_reply", 2.0), ("zz_custom", 1.0)
        ]

    def test_round_trips_through_json(self):
        (chain,) = reconstruct(_synthetic_chain()).chains
        blob = json.dumps(chain.phases, sort_keys=True)
        assert json.loads(blob) == chain.phases


class TestMergedTraces:
    """Causal reconstruction works on sweep-merged traces too."""

    def _merged_chain_set(self, tmp_path, jobs):
        from repro.analysis.sweeps import PointSpec, run_points
        from repro.obs.aggregate import SweepAggregator
        from repro.obs.export import read_trace

        base = MachineConfig(num_clusters=4)
        factory = lambda: MP3DWorkload(4, num_particles=16, steps=1,
                                       seed=0)  # noqa: E731
        specs = [
            PointSpec(config=base.with_(scheme=s), workload_factory=factory,
                      label=f"scheme={s}")
            for s in ("full", "Dir2B")
        ]
        agg = SweepAggregator()
        run_points(specs, jobs=jobs, aggregate=agg)
        paths = agg.write(tmp_path / f"jobs{jobs}")
        return reconstruct(read_trace(paths["trace"]))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_point_scoped_txn_ids_never_collide(self, tmp_path, jobs):
        per_point = len(reconstruct(_trace(
            scheme="full",
            workload=MP3DWorkload(4, num_particles=16, steps=1, seed=0),
        )).chains)
        cs = self._merged_chain_set(tmp_path, jobs)
        # both points contribute all their chains — txn_id 1 of point 0
        # and txn_id 1 of point 1 are distinct transactions
        assert len(cs.chains) == 2 * per_point
        assert cs.incomplete == 0 and cs.untagged == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_phase_identity_survives_lane_offsets(self, tmp_path, jobs):
        # two points on one lane are laid out end-to-end: ts shifts by
        # the lane base, and so must in-args timestamps like t_start
        cs = self._merged_chain_set(tmp_path, jobs)
        assert verify_chain_sums(cs) == []
