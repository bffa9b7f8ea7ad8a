"""Inter-cluster interconnect models.

Two models share one interface — ``leg(src, dst)`` gives the one-way
message latency in processor cycles (0 within a cluster):

* :class:`UniformNetwork` — a fixed per-message cost calibrated so that
  composed transaction latencies match the DASH prototype numbers quoted
  in §5 (local ≈ 23 cycles, 2-cluster remote ≈ 60, 3-cluster ≈ 80);
* :class:`MeshNetwork` — the 2-D wormhole mesh of Figure 1, with XY
  routing and per-hop cost, for studies where placement/locality matters
  (e.g. the multiprogramming ablation).

:class:`FaultyNetwork` wraps either model with a
:class:`~repro.machine.faults.FaultPlan`: latency still comes from the
inner model, and the ``deliver`` hook turns one logical send into zero,
one, or two arrival times plus an optional busy NAK.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.machine.faults import Delivery, FaultKind, FaultPlan
from repro.obs.tracer import NULL_TRACER


class Network(ABC):
    """One-way message latency between clusters."""

    def __init__(self, num_clusters: int) -> None:
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        self.num_clusters = num_clusters
        #: observability sink; DashSystem rebinds this to its tracer
        self.tracer = NULL_TRACER

    @abstractmethod
    def leg(self, src: int, dst: int) -> float:
        """Latency of one message from cluster ``src`` to ``dst``."""

    def _check(self, src: int, dst: int) -> None:
        if not (0 <= src < self.num_clusters and 0 <= dst < self.num_clusters):
            raise ValueError(
                f"cluster out of range: {src}->{dst} with {self.num_clusters}"
            )


class UniformNetwork(Network):
    """Distance-independent message latency (the calibrated default)."""

    def __init__(self, num_clusters: int, msg_cycles: float = 20.0) -> None:
        super().__init__(num_clusters)
        if msg_cycles < 0:
            raise ValueError("msg_cycles must be >= 0")
        self.msg_cycles = msg_cycles

    def leg(self, src: int, dst: int) -> float:
        self._check(src, dst)
        return 0.0 if src == dst else self.msg_cycles


class MeshNetwork(Network):
    """2-D mesh with XY (dimension-ordered) routing.

    Latency = ``base_cycles + hops * hop_cycles``.  Cluster ``c`` sits at
    ``(c % width, c // width)``.  Defaults keep the *average* leg close to
    the uniform model so results are comparable.
    """

    def __init__(
        self,
        num_clusters: int,
        width: int | None = None,
        *,
        base_cycles: float = 12.0,
        hop_cycles: float = 2.0,
    ) -> None:
        super().__init__(num_clusters)
        if width is None:
            width = max(1, int(math.sqrt(num_clusters)))
        if isinstance(width, bool) or not isinstance(width, int):
            raise ValueError(f"width must be an integer, got {width!r}")
        if width <= 0:
            raise ValueError(f"width must be >= 1, got {width}")
        if width > num_clusters:
            raise ValueError(
                f"width {width} exceeds num_clusters {num_clusters}: the "
                f"mesh would have empty columns"
            )
        self.width = width
        self.height = math.ceil(num_clusters / width)
        if self.width * self.height < num_clusters:  # pragma: no cover
            raise ValueError(
                f"{self.width}x{self.height} mesh cannot hold "
                f"{num_clusters} clusters"
            )
        self.base_cycles = base_cycles
        self.hop_cycles = hop_cycles

    def coords(self, cluster: int) -> tuple[int, int]:
        """Mesh (x, y) position of a cluster."""
        return cluster % self.width, cluster // self.width

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under XY routing."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def leg(self, src: int, dst: int) -> float:
        self._check(src, dst)
        if src == dst:
            return 0.0
        return self.base_cycles + self.hops(src, dst) * self.hop_cycles


class FaultyNetwork(Network):
    """Fault-injecting wrapper around any latency model.

    ``leg`` delegates to the inner network unchanged; ``deliver`` rolls
    the plan for one request message and returns its arrival schedule.
    Intra-cluster sends (``src == dst``) ride the local bus and are never
    faulted.
    """

    def __init__(self, inner: Network, plan: FaultPlan) -> None:
        super().__init__(inner.num_clusters)
        self.inner = inner
        self.plan = plan

    def leg(self, src: int, dst: int) -> float:
        return self.inner.leg(src, dst)

    def deliver(
        self, src: int, dst: int, now: float, *, reorderable: bool = True,
        txn_id: int | None = None,
    ) -> Delivery:
        """Arrival schedule for one request message sent at ``now``.

        ``txn_id`` tags the traced ``net.fault`` event with the faulted
        transaction (causal chain reconstruction).
        """
        leg = self.inner.leg(src, dst)
        if src == dst:
            return Delivery(arrivals=(now + leg,))
        kind = self.plan.message_fault(reorderable=reorderable)
        if kind is None:
            return Delivery(arrivals=(now + leg,))
        if self.tracer.enabled:
            self.tracer.record(
                "net.fault", now, None, src, kind.value, src, dst, txn_id
            )
        if kind is FaultKind.DROP:
            return Delivery(arrivals=(), fault=kind)
        if kind is FaultKind.DUPLICATE:
            # the echoed copy trails the original by one extra leg
            return Delivery(arrivals=(now + leg, now + 2 * leg), fault=kind)
        if kind is FaultKind.DELAY:
            held = leg * self.plan.delay_legs()
            return Delivery(arrivals=(now + leg + held,), fault=kind)
        # NAK: the message arrives, but the home refuses to service it
        return Delivery(arrivals=(now + leg,), nak=True, fault=kind)


class LegTable(dict):
    """``legs[src][dst] == network.leg(src, dst)`` without the call.

    Latency models are pure, so a row is exact once built.  A source's
    row is filled on its first use: construction is O(1) at any machine
    size, and only clusters that send ever cost a row.
    """

    __slots__ = ("_leg", "_dsts")

    def __init__(self, network: Network) -> None:
        self._leg = network.leg
        self._dsts = range(network.num_clusters)

    def __missing__(self, src: int) -> list[float]:
        leg = self._leg
        row = self[src] = [leg(src, dst) for dst in self._dsts]
        return row


def make_network(kind: str, num_clusters: int, **kwargs) -> Network:
    """Build a network by name (``"uniform"`` or ``"mesh"``)."""
    kind = kind.lower()
    if kind == "uniform":
        return UniformNetwork(num_clusters, **kwargs)
    if kind == "mesh":
        return MeshNetwork(num_clusters, **kwargs)
    raise ValueError(f"unknown network kind {kind!r} (use 'uniform' or 'mesh')")
