"""The RDMA control plane: QP setup, MR lifecycle, pre-warming.

Swift (arXiv 2501.19051) measures that for elastic RDMA computing the
*control plane* — QP creation and the ``ibv_modify_qp`` ladder, CM
round-trips, MR registration — is the bottleneck, not the data plane.
This module makes those costs first-class instead of scattering them
across call sites:

* :class:`RdmaControlPlane` is the **single place simulated time is
  charged** for RC setup and ``ibv_reg_mr`` (the dataplane lint bans
  ``cost.rc_setup_us`` / ``cost.mr_register_time`` elsewhere).  One
  instance per fabric endpoint, shared by every connection manager on
  that node, so the per-node ops/sec ceiling is global to the node.
* One RC handshake is one admission of four verbs commands (create +
  three modifies) to the node's command queue, then one
  ``rc_setup_us`` charge (§3.3: "tens of milliseconds").  With no
  ceiling set the admission yields no event.
* MR registration is charged per MTT entry; hugepage-backed regions
  (the default page size, :data:`HUGEPAGE_BYTES`) need ~512x fewer
  entries than 4 KB pages, which is both cheaper to register and
  kinder to the on-NIC translation cache.
* :class:`FixedFloorPrewarm` and :class:`DemandPredictivePrewarm`
  decide how many shadow QPs a connection manager keeps pre-established
  per (peer, tenant) pool: a fixed floor, or a target sized from the
  recent cold-connect rate.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Union

from ..config import CostModel
from ..sim import Environment

from .mr import MemoryRegion
from .qp import QPState, QueuePair

__all__ = [
    "DemandPredictivePrewarm",
    "FixedFloorPrewarm",
    "HUGEPAGE_BYTES",
    "PrewarmPolicy",
    "RdmaControlPlane",
]

#: default MR page size: hugepage MTT compaction (§3.4), one MTT entry
#: per 2 MB instead of per 4 KB
HUGEPAGE_BYTES = 2 * 1024 * 1024


# -- pre-warming policies ----------------------------------------------------

class FixedFloorPrewarm:
    """Keep at least ``floor`` shadow QPs established per pool."""

    def __init__(self, floor: int):
        if floor < 0:
            raise ValueError("floor must be >= 0")
        self.floor = floor

    def target(self, now_us: float, pool_size: int,
               demand_times: List[float]) -> int:
        return self.floor


#: trailing window, headroom factor and ``[floor, ceiling]`` clamp of
#: :class:`DemandPredictivePrewarm`
PREDICTIVE_WINDOW_US = 250_000.0
PREDICTIVE_HEADROOM = 1.5
PREDICTIVE_FLOOR = 1
PREDICTIVE_CEILING = 32


class DemandPredictivePrewarm:
    """Size the pool from the recent cold-connect rate.

    Counts cold connects observed in the trailing window, scales by a
    headroom factor, and clamps to ``[floor, ceiling]`` — a stand-in
    for the predictive pre-provisioning knee autoscalers chase.
    """

    def __init__(self):
        self.window_us = PREDICTIVE_WINDOW_US
        self.headroom = PREDICTIVE_HEADROOM
        self.floor = PREDICTIVE_FLOOR
        self.ceiling = PREDICTIVE_CEILING

    def target(self, now_us: float, pool_size: int,
               demand_times: List[float]) -> int:
        horizon = now_us - self.window_us
        recent = sum(1 for t in demand_times if t >= horizon)
        want = int(recent * self.headroom + 0.999999) if recent else self.floor
        return max(self.floor, min(want, self.ceiling))


#: what decides the pre-established shadow-pool floor per (peer,
#: tenant): ``target(now_us, pool_size, demand_times)`` shadow QPs
PrewarmPolicy = Union[FixedFloorPrewarm, DemandPredictivePrewarm]


# -- the control plane -------------------------------------------------------

class RdmaControlPlane:
    """Per-node RDMA control plane: the only charger of setup costs.

    One instance per fabric endpoint (see
    :meth:`repro.rdma.fabric.RdmaFabric.control_plane`); every
    connection manager and provisioning path on that node shares it,
    so the ops/sec ceiling and the setup ledgers are node-global.
    """

    def __init__(self, env: Environment, fabric, node: str, cost: CostModel):
        self.env = env
        self.fabric = fabric
        self.node = node
        self.cost = cost
        #: per-node verbs ops/sec ceiling (None = unlimited).  Real RNIC
        #: firmware serializes QP/MR commands; past the ceiling, setup
        #: requests queue FIFO and latency grows with load.
        self.ops_per_sec: Optional[float] = None
        #: virtual-time FIFO server for the verbs-command ceiling
        self._free_at = 0.0
        # -- ledgers -------------------------------------------------------
        self.ops_admitted = 0
        self.throttle_wait_us = 0.0
        self.connect_failures = 0
        self.setup_time_spent = 0.0
        #: bytes registered as standalone memory regions, by tenant
        self.mr_bytes: Dict[str, int] = Counter()
        self.mr_regions_registered = 0

    # -- ops/sec ceiling ---------------------------------------------------
    def set_ceiling(self, ops_per_sec: Optional[float]) -> None:
        """Change the verbs-command ceiling (None lifts it)."""
        self.ops_per_sec = ops_per_sec

    def _admit(self, ops: int = 1):
        """Generator: wait for ``ops`` slots of the node's command queue.

        Models RNIC firmware serializing QP/MR commands as a
        deterministic virtual-time FIFO: each op books ``1e6/rate`` µs
        of server time starting at ``max(now, free_at)``.  An unlimited
        ceiling (the default) yields no event at all.
        """
        self.ops_admitted += ops
        rate = self.ops_per_sec
        if not rate:
            return 0.0
        service = ops * 1e6 / rate
        start = self._free_at if self._free_at > self.env.now else self.env.now
        queued = start - self.env.now
        self._free_at = start + service
        wait = self._free_at - self.env.now
        self.throttle_wait_us += queued
        if wait > 0:
            yield self.env.timeout(wait)
        return queued

    # -- QP establishment --------------------------------------------------
    def connect(self, remote_node: str, tenant: str,
                peer_alive: Optional[Callable[[str], bool]] = None):
        """Generator: one full RC handshake; returns the local QP.

        All four verbs commands are admitted to the command queue up
        front — one handshake is one FIFO admission, so a backlog
        delays whole handshakes instead of starving in-flight ones of
        their later rungs — and the handshake then costs one
        ``rc_setup_us``.  The QP comes back RTS and INACTIVE (a shadow
        QP, §3.3), with its remote end wired, or in ERROR when the peer
        is dead — the handshake toward a dead peer still burns the full
        setup time (the CM retries its REQ until the timeout budget is
        spent), and posting on the errored QP flushes, surfacing the
        failure.
        """
        alive = peer_alive if peer_alive is not None else (lambda remote: True)
        t0 = self.env.now
        yield from self._admit(4)  # create + three ibv_modify_qp
        yield self.env.timeout(self.cost.rc_setup_us)
        local = QueuePair(self.env, self.node, remote_node, tenant)
        local.transition(QPState.INIT)
        local.transition(QPState.RTR)
        local.setup_us = self.env.now - t0
        self.setup_time_spent += local.setup_us
        if not alive(remote_node):
            local.fail(f"connect to {remote_node} failed")
            self.connect_failures += 1
            self.fabric.count_edges(local)
            self._observe_setup(local, outcome="error")
            return local
        local.transition(QPState.RTS)
        peer = QueuePair(self.env, remote_node, self.node, tenant)
        peer.transition(QPState.INIT)
        peer.transition(QPState.RTR)
        peer.transition(QPState.RTS)
        peer.setup_us = local.setup_us
        local.peer, peer.peer = peer, local
        self.fabric.count_edges(local)
        self.fabric.count_edges(peer)
        self._observe_setup(local, outcome="ok")
        return local

    def bootstrap(self):
        """Generator: one CM bootstrap round (ring/credit setup).

        Baseline engines (e.g. Fuyao's ring setup) pay one full
        connection-setup round before exchanging credits; routing the
        charge through the control plane keeps the cost model in one
        place without changing the amount charged.
        """
        yield self.env.timeout(self.cost.rc_setup_us)
        self.setup_time_spent += self.cost.rc_setup_us

    def _observe_setup(self, qp: QueuePair, outcome: str) -> None:
        tel = self.env.telemetry
        if tel is None:
            return
        tel.metrics.histogram(
            "cp_setup_latency_us", "RC handshake wall-clock, with QP-id "
            "exemplars.", labels=("node", "outcome"),
            low=1.0, high=10_000_000.0).labels(
                self.node, outcome).observe(qp.setup_us, trace_id=qp.qp_id)

    # -- MR lifecycle ------------------------------------------------------
    @staticmethod
    def entries_for(nbytes: int, page_bytes: int = HUGEPAGE_BYTES) -> int:
        """MTT entries a region of ``nbytes`` needs at ``page_bytes``
        pages: hugepages (the default) divide the count by ~512."""
        return max(1, -(-int(nbytes) // page_bytes))

    def register_region(self, tenant: str, nbytes: int, cpu=None,
                        page_bytes: int = HUGEPAGE_BYTES):
        """Generator: charge one ``ibv_reg_mr`` and install the region.

        The time cost is proportional to the MTT entry count (pinning
        + translation-table writes); ``cpu`` optionally binds the
        charge to a host core (the registration is a syscall on the
        caller's CPU) instead of a bare timeout.  Returns the
        :class:`MemoryRegion`, whose entries count toward the MTT
        cache thrash model like any pool's; release it with
        :meth:`deregister_region`.
        """
        entries = self.entries_for(nbytes, page_bytes)
        yield from self._admit(1)
        register_us = self.cost.mr_register_time(entries)
        if cpu is not None:
            yield cpu.run(("descriptor", register_us))
        else:
            yield self.env.timeout(register_us)
        region = self.fabric.rnic(self.node).mrt.register_region(
            tenant, entries)
        self.mr_bytes[tenant] += int(nbytes)
        self.mr_regions_registered += 1
        return region

    @property
    def mr_registered_bytes(self) -> int:
        return sum(self.mr_bytes.values())

    def deregister_region(self, region: MemoryRegion) -> None:
        """Release a standalone region (dereg is cheap: no MTT writes)."""
        self.fabric.rnic(self.node).mrt.deregister_region(region)
