"""Cross-processor (host CPU <-> DPU) descriptor channels (§3.5.4, Fig. 9).

The DNE runs as a single Comch *server*; each host function is a Comch
*client* exchanging 16-byte buffer descriptors with it.  Three channel
implementations are compared in Fig. 9 and reproduced here:

* :class:`ComchE` — DOCA Comch event-driven send/receive over blocking
  epoll.  Moderate latency, no dedicated cores, scales with function
  density.  **This is what Palladium uses.**
* :class:`ComchP` — DOCA Comch producer/consumer ring with busy
  polling.  Lowest latency, but each function endpoint ties up a DPU
  core for its ring; past the core budget the "busy" polling (which
  DOCA implements with non-blocking ``epoll_wait``) thrashes and the
  channel overloads — the collapse beyond 6 functions in Fig. 9.
* :class:`TcpChannel` — descriptors over kernel TCP between host and
  DPU: the baseline, paying full kernel protocol cost.

All variants share one interface:

* Function side: ``function_send`` (descriptor to the DNE) and an
  endpoint ``inbox`` the function blocks on.
* DNE side: descriptors arrive in ``server_inbox``; ``dne_send``
  pushes a descriptor back to a function; ``ingest_cost_us`` /
  ``egress_cost_us`` are the per-message CPU charges the engine loop
  pays (in host-core units — the engine scales them for its core).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..config import CostModel
from ..hw import CorePool, PinnedCore
from ..memory import BufferDescriptor
from ..sim import Environment, Store

__all__ = [
    "ComchE",
    "ComchEndpoint",
    "ComchP",
    "DescriptorChannel",
    "SkMsgChannel",
    "TcpChannel",
]


class ComchEndpoint:
    """Function-side endpoint: where the DNE's descriptors arrive.

    ``inbox`` may be supplied by the function runtime so Comch and
    SK_MSG deliveries land in the same unified receive queue.
    """

    def __init__(self, env: Environment, fn_id: str, channel: "DescriptorChannel",
                 inbox: Optional[Store] = None):
        self.env = env
        self.fn_id = fn_id
        self.channel = channel
        self.inbox: Store = inbox if inbox is not None else Store(env, name=f"comch:{fn_id}")

    def recv(self):
        """Event yielding the next descriptor from the DNE (epoll wait)."""
        return self.inbox.get()


class DescriptorChannel:
    """Common machinery for the three channel variants."""

    #: subclasses set these (host-core microseconds / one-way latency)
    oneway_us: float = 0.0
    dne_cpu_us: float = 0.0
    fn_cpu_us: float = 0.0
    kind: str = "base"

    def __init__(self, env: Environment, cost: CostModel, name: str = ""):
        self.env = env
        self.cost = cost
        self.name = name or self.kind
        #: descriptors from functions waiting for the DNE loop; items
        #: are ``(fn_id, descriptor)``
        self.server_inbox: Store = Store(env, name=f"{self.name}-server")
        self.endpoints: Dict[str, ComchEndpoint] = {}
        self.to_dne_count = 0
        self.to_fn_count = 0

    # -- connection management ------------------------------------------------
    def attach(self, fn_id: str, inbox: Optional[Store] = None) -> ComchEndpoint:
        """Register a function as a client of the DNE's Comch server."""
        if fn_id not in self.endpoints:
            self.endpoints[fn_id] = ComchEndpoint(self.env, fn_id, self, inbox)
        return self.endpoints[fn_id]

    def detach(self, fn_id: str) -> None:
        """Disconnect a (possibly misbehaving) tenant function (§3.5.4)."""
        self.endpoints.pop(fn_id, None)

    # -- latency model ------------------------------------------------------------
    def _delivery_delay(self) -> float:
        """One-way host<->DPU delivery latency for one descriptor."""
        return self.oneway_us

    def _deliver_later(self, store: Store, item: object, delay: float) -> None:
        self.env.defer(delay, lambda: store.put_nowait(item))

    # -- function side ---------------------------------------------------------------
    def function_send(
        self,
        compute: Union[PinnedCore, CorePool],
        fn_id: str,
        descriptor: BufferDescriptor,
    ):
        """Generator: a host function hands a descriptor to the DNE."""
        if fn_id not in self.endpoints:
            raise KeyError(f"function {fn_id!r} is not attached to {self.name!r}")
        yield compute.run(("descriptor", self.fn_cpu_us))
        self.post_from_function(fn_id, descriptor)

    def post_from_function(self, fn_id: str, descriptor: BufferDescriptor) -> None:
        """Deliver a descriptor to the DNE without charging CPU here
        (the caller batches the host-side charge)."""
        self._deliver_later(self.server_inbox, (fn_id, descriptor), self._delivery_delay())
        self.to_dne_count += 1

    def function_recv_cost_us(self) -> float:
        """Host-core cost the function pays per received descriptor."""
        return self.fn_cpu_us

    # -- DNE side ---------------------------------------------------------------------
    def ingest_cost_us(self) -> float:
        """Host-core-equivalent cost the DNE loop pays per arriving descriptor."""
        return self.dne_cpu_us

    def dne_send(self, fn_id: str, descriptor: BufferDescriptor) -> None:
        """DNE pushes a descriptor to a function (CPU cost paid by caller)."""
        endpoint = self.endpoints.get(fn_id)
        if endpoint is None:
            raise KeyError(f"function {fn_id!r} is not attached to {self.name!r}")
        self._deliver_later(endpoint.inbox, descriptor, self._delivery_delay())
        self.to_fn_count += 1


class ComchE(DescriptorChannel):
    """Event-driven DOCA Comch (epoll-based) — Palladium's choice."""

    kind = "comch-e"

    def __init__(self, env: Environment, cost: CostModel, name: str = ""):
        super().__init__(env, cost, name)
        self.oneway_us = cost.comch_e_oneway_us
        self.dne_cpu_us = cost.comch_e_cpu_us
        self.fn_cpu_us = cost.comch_e_fn_cpu_us


class ComchP(DescriptorChannel):
    """Producer/consumer-ring DOCA Comch with per-function busy polling.

    Each attached function requires a dedicated DPU core for its ring.
    We model the Fig. 9 collapse: when attached endpoints exceed the
    DPU's spare-core budget, the rings time-share cores through DOCA's
    epoll-based progress engine and per-descriptor latency balloons.
    """

    kind = "comch-p"

    #: extra one-way delay per endpoint beyond the core budget
    #: (time-slicing of "busy" polling rings across too few cores).
    oversubscription_penalty_us = 55.0

    def __init__(self, env: Environment, cost: CostModel, name: str = ""):
        super().__init__(env, cost, name)
        self.oneway_us = cost.comch_p_oneway_us
        self.dne_cpu_us = cost.comch_p_cpu_us
        self.fn_cpu_us = cost.comch_p_cpu_us

    def _delivery_delay(self) -> float:
        excess = len(self.endpoints) - self.cost.comch_p_core_budget
        if excess <= 0:
            return self.oneway_us
        return self.oneway_us + excess * self.oversubscription_penalty_us


class TcpChannel(DescriptorChannel):
    """Kernel-TCP descriptor exchange between host and DPU (baseline)."""

    kind = "comch-tcp"

    def __init__(self, env: Environment, cost: CostModel, name: str = ""):
        super().__init__(env, cost, name)
        self.oneway_us = cost.comch_tcp_rtt_us / 2.0
        self.dne_cpu_us = cost.comch_tcp_cpu_us
        self.fn_cpu_us = cost.comch_tcp_cpu_us


class SkMsgChannel(DescriptorChannel):
    """SK_MSG descriptor IPC for the *CPU-hosted* engine (CNE, §4.3).

    Not a cross-processor channel at all: the engine and the functions
    share the host, so delivery latency is just the sockmap redirect.
    The CNE's interrupt-driven receive costs are charged by the engine
    itself (see :class:`~repro.dne.engine.CpuNetworkEngine`), not here.
    """

    kind = "sk-msg"

    def __init__(self, env: Environment, cost: CostModel, name: str = ""):
        super().__init__(env, cost, name)
        self.oneway_us = 0.4  # socket wakeup on the same host
        self.dne_cpu_us = 0.0  # charged via the CNE's interrupt model
        self.fn_cpu_us = cost.sk_msg_us
