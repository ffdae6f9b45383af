"""RC connection management with pooling and shadow QPs (§3.3).

Establishing an RC connection costs tens of milliseconds, so the DNE
keeps a pool of pre-established connections per (remote node, tenant)
and only *activates* them when they carry work.  Inactive (shadow) QPs
consume no RNIC resources; the node-wide count of active QPs is what
the RNIC's thrash model watches.  Activation needs no cross-node state
synchronization (RoGUE's scheme), only a small local cost.

All simulated *time* for establishment and MR registration is charged
by the node's :class:`~repro.rdma.controlplane.RdmaControlPlane` — the
manager here owns pooling, pre-warm policy, and fault recovery, never
the raw costs.  Every function of a tenant multiplexes the same pooled
QPs through the DNE proxy.

Failure handling: a QP that errors out (peer crash, injected QP error)
is *terminal* — it is evicted from the pool on the next touch and never
handed to a caller again.  Re-establishment happens off the critical
path via :meth:`schedule_reconnect`, which retries with capped
exponential backoff.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..config import CostModel
from ..sim import AllOf, Environment

from .controlplane import PrewarmPolicy
from .fabric import RdmaFabric
from .qp import QPState, QueuePair

__all__ = ["ConnectionManager"]

#: cold-connect timestamps kept per pool for the predictive policy
_DEMAND_HISTORY = 64
#: pooled connections :meth:`ConnectionManager.warm_up` targets per peer
CONNS_PER_PEER = 4
#: first reconnect backoff, doubled per failed attempt up to the cap
RECONNECT_BASE_US = 1_000.0
RECONNECT_CAP_US = 64_000.0


class ConnectionManager:
    """Per-node manager of the pooled RC connections (lives in the DNE)."""

    def __init__(
        self,
        env: Environment,
        fabric: RdmaFabric,
        node: str,
        cost: CostModel,
        prewarm: Optional[PrewarmPolicy] = None,
    ):
        self.env = env
        self.fabric = fabric
        self.node = node
        self.cost = cost
        #: the node-global control plane charging all setup costs
        self.cp = fabric.control_plane(node)
        #: shadow-pool pre-warm policy for :meth:`maintain_pools`
        #: (None: no pre-warming)
        self.prewarm = prewarm
        self.conns_per_peer = CONNS_PER_PEER
        #: liveness oracle for handshake targets; the platform wires
        #: this to the remote node runtime's ``alive`` flag.  A
        #: handshake toward a dead peer still pays the full RC setup
        #: time (the timeout) but yields an errored QP.
        self.peer_alive: Callable[[str], bool] = lambda remote: True
        self.reconnect_base_us = RECONNECT_BASE_US
        self.reconnect_cap_us = RECONNECT_CAP_US
        self._reconnecting: set = set()
        #: backoff delays actually slept per (peer, tenant) reconnect
        #: loop, in order — the cap-saturation tests read this
        self.backoff_delays: Dict[Tuple[str, str], List[float]] = {}
        self._pool: Dict[Tuple[str, str], List[QueuePair]] = {}
        #: cold-connect timestamps per pool key (predictive pre-warm)
        self._demand: Dict[Tuple[str, str], List[float]] = {}
        self.connections_established = 0
        self.connect_failures = 0
        self.evicted_qps = 0
        self.reconnects_scheduled = 0
        self.reconnects_succeeded = 0
        #: shadow QPs promoted to ACTIVE
        self.qp_activations = 0
        if env.telemetry is not None:
            collect = env.telemetry.metrics.collect
            collect("rc_connects_total", "RC handshakes by outcome.", ("node", "ok"),
                    lambda: {(node, "false"): self.connect_failures,
                             (node, "true"): self.connections_established})
            collect("qp_activations_total", "Shadow QPs promoted to active.", ("node",),
                    lambda: {node: self.qp_activations})
            collect("rc_reconnects_scheduled_total", "Background reconnect loops "
                    "started.", ("node",), lambda: {node: self.reconnects_scheduled})

    def _establish(self, remote_node: str, tenant: str):
        """Generator: full RC handshake (tens of milliseconds, §3.3).

        Delegates all timing to the control plane; this layer only
        keeps the manager's ledgers.  Toward a dead peer the handshake
        burns the full setup time and returns a QP already in the
        ERROR state — posting on it flushes immediately, surfacing the
        failure to the caller.
        """
        local = yield from self.cp.connect(remote_node, tenant,
                                           self.peer_alive)
        if local.is_errored:
            self.connect_failures += 1
            return local
        self.connections_established += 1
        return local

    def _prune(self, key: Tuple[str, str]) -> List[QueuePair]:
        """Evict errored QPs from one pool; returns the live remainder."""
        pool = self._pool.setdefault(key, [])
        if any(qp.is_errored for qp in pool):
            kept = [qp for qp in pool if not qp.is_errored]
            self.evicted_qps += len(pool) - len(kept)
            self._pool[key] = pool = kept
        return pool

    def _note_demand(self, key: Tuple[str, str]) -> None:
        history = self._demand.setdefault(key, [])
        history.append(self.env.now)
        if len(history) > _DEMAND_HISTORY:
            del history[:len(history) - _DEMAND_HISTORY]

    def warm_up(self, remote_node: str, tenant: str, count: int = 0):
        """Generator: pre-establish the connection pool to a peer.

        Palladium does this off the critical path so data transfers
        never pay the RC handshake.  The handshakes proceed in
        parallel (they are independent QPs).
        """
        key = (remote_node, tenant)
        pool = self._prune(key)
        target = count or self.conns_per_peer
        needed = target - len(pool)
        if needed <= 0:
            return list(pool)
        procs = [
            self.env.process(self._establish(remote_node, tenant),
                             name=f"rc-setup:{self.node}->{remote_node}")
            for _ in range(needed)
        ]
        yield AllOf(self.env, procs)
        pool.extend(proc.value for proc in procs
                    if not proc.value.is_errored)
        return list(pool)

    def maintain_pools(self):
        """Generator: top pools up to the pre-warm policy's target.

        Called from a periodic maintenance loop; re-establishes shadow
        QPs ahead of demand, off the critical path.  Without a policy
        it does nothing.
        """
        if self.prewarm is None:
            return 0
        warmed = 0
        keys = set(self._pool) | set(self._demand)
        for key in sorted(keys):
            remote_node, tenant = key
            target = self.prewarm.target(
                self.env.now, len(self._pool.get(key, [])),
                self._demand.get(key, []))
            if target <= 0:
                continue
            pool = self._prune(key)
            if len(pool) >= target:
                continue
            if not self.peer_alive(remote_node):
                continue
            procs = [
                self.env.process(self._establish(remote_node, tenant),
                                 name=f"rc-prewarm:{self.node}->{remote_node}")
                for _ in range(target - len(pool))
            ]
            yield AllOf(self.env, procs)
            fresh = [p.value for p in procs if not p.value.is_errored]
            pool.extend(fresh)
            warmed += len(fresh)
        return warmed

    def get_connection(self, remote_node: str, tenant: str):
        """Generator: return the least-congested usable QP to a peer.

        Prefers active QPs (no activation cost); activates a shadow QP
        when all active ones are loaded; establishes a brand-new
        connection only when the pool is empty (cold start).  Errored
        QPs are evicted first and never handed out from the pool.
        """
        key = (remote_node, tenant)
        pool = self._prune(key)
        if not pool:
            self._note_demand(key)
            qp = yield from self._establish(remote_node, tenant)
            if qp.is_errored:
                # Cold connect toward a dead peer: hand the errored QP
                # to the caller (posting on it flushes) but keep the
                # pool clean for the next attempt.
                return qp
            pool.append(qp)
        active = [qp for qp in pool if qp.is_active]
        if active:
            best = min(active, key=lambda qp: qp.pending_wrs)
            # Activate another shadow QP when existing ones are congested.
            if best.pending_wrs > 8:
                inactive = [qp for qp in pool if not qp.is_active]
                if inactive:
                    best = inactive[0]
                    yield from self._activate(best)
            return best
        best = pool[0]
        yield from self._activate(best)
        return best

    def ensure_active(self, remote_node: str, tenant: str):
        """Generator: guarantee one ACTIVE QP toward a peer; returns it.

        The live-migration restore path: a migrated instance's traffic
        must flow the moment routes flip, so the target node promotes a
        pooled shadow QP up front (activation only, no cross-node sync,
        §3.3).  Falls back to a full RC handshake only when the pool is
        empty — the cold-start cost migration exists to avoid.
        """
        key = (remote_node, tenant)
        pool = self._prune(key)
        for qp in pool:
            if qp.is_active:
                return qp
        if pool:
            qp = pool[0]
            yield from self._activate(qp)
            return qp
        self._note_demand(key)
        qp = yield from self._establish(remote_node, tenant)
        if qp.is_errored:
            return qp
        pool.append(qp)
        yield from self._activate(qp)
        return qp

    def _activate(self, qp: QueuePair):
        """Generator: promote a shadow QP to active (local-only, cheap).

        An errored QP is never resurrected — it is returned untouched
        so the poster observes the flush.
        """
        if qp.state == QPState.INACTIVE:
            yield self.env.timeout(self.cost.qp_activate_us)
            if qp.state == QPState.INACTIVE:  # may have errored meanwhile
                qp.state = QPState.ACTIVE
                self.fabric.rnic(self.node).active_qps += 1
                self.qp_activations += 1
        return qp

    def deactivate_idle(self) -> int:
        """Demote QPs with no pending work back to shadow state.

        Called periodically by the DNE core thread; returns the number
        of QPs deactivated.  Errored QPs are evicted as a side effect
        so the shadow pool never retains fault-torn connections.
        """
        demoted = 0
        rnic = self.fabric.rnic(self.node)
        for key in list(self._pool):
            for qp in self._prune(key):
                if qp.is_active and qp.pending_wrs == 0:
                    qp.state = QPState.INACTIVE
                    rnic.active_qps -= 1
                    demoted += 1
        return demoted

    # -- fault injection & recovery ---------------------------------------------
    def _fail_qp(self, qp: QueuePair, cause: str) -> None:
        self.fabric.rnic(qp.local_node).flush_qp(qp, cause)
        if qp.peer is not None:
            self.fabric.rnic(qp.remote_node).flush_qp(qp.peer, cause)

    def fail_connections(
        self,
        remote: Optional[str] = None,
        tenant: Optional[str] = None,
        count: Optional[int] = None,
        cause: str = "qp-error",
    ) -> int:
        """Force QPs into the ERROR state (both ends); returns the count.

        ``remote``/``tenant`` filter which pools are hit; ``count``
        bounds how many QPs error out (None = all matching).
        """
        failed = 0
        for (peer, owner), pool in self._pool.items():
            if remote is not None and peer != remote:
                continue
            if tenant is not None and owner != tenant:
                continue
            for qp in pool:
                if qp.is_errored:
                    continue
                if count is not None and failed >= count:
                    return failed
                self._fail_qp(qp, cause)
                failed += 1
        return failed

    def fail_peer(self, remote_node: str, cause: str = "peer-died") -> int:
        """Error every pooled QP toward one (crashed) peer node."""
        return self.fail_connections(remote=remote_node, cause=cause)

    def fail_all(self, cause: str = "engine-crash") -> int:
        """Error every pooled QP (local engine crash tears all state)."""
        return self.fail_connections(cause=cause)

    def evict_errored(self) -> int:
        """Drop all errored QPs from every pool; returns the count."""
        before = self.evicted_qps
        for key in list(self._pool):
            self._prune(key)
        return self.evicted_qps - before

    def schedule_reconnect(self, remote_node: str, tenant: str):
        """Start (at most one) background reconnect toward a peer.

        Returns the reconnect :class:`Process`, or None when one is
        already running for this (peer, tenant).
        """
        key = (remote_node, tenant)
        if key in self._reconnecting:
            return None
        self._reconnecting.add(key)
        self.reconnects_scheduled += 1
        return self.env.process(
            self._reconnect(remote_node, tenant),
            name=f"rc-reconnect:{self.node}->{remote_node}",
        )

    def _reconnect(self, remote_node: str, tenant: str):
        """Generator: capped-exponential-backoff reconnect loop."""
        key = (remote_node, tenant)
        delay = self.reconnect_base_us
        history = self.backoff_delays.setdefault(key, [])
        try:
            while True:
                history.append(delay)
                yield self.env.timeout(delay)
                if self.peer_alive(remote_node):
                    pool = yield from self.warm_up(remote_node, tenant, count=1)
                    if pool:
                        self.reconnects_succeeded += 1
                        return True
                delay = min(delay * 2.0, self.reconnect_cap_us)
        finally:
            self._reconnecting.discard(key)

    def active_count(self) -> int:
        return sum(
            1 for pool in self._pool.values() for qp in pool if qp.is_active
        )

    def pooled_count(self) -> int:
        return sum(len(pool) for pool in self._pool.values())
