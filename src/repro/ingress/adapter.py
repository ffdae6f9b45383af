"""Worker-side TCP termination adapter (the *deferred* conversion).

The baseline data planes (Fig. 4 (1)) terminate the external HTTP/TCP
connection *again* on the worker node: the proxied request is processed
by the worker's own protocol stack (kernel TCP for FUYAO-K/NightCore,
F-stack for SPRIGHT/FUYAO-F) before the payload finally enters the
shared-memory data plane.  This adapter is that component: a
pseudo-function registered on the node that bridges proxied TCP traffic
to the local entry function and relays responses back to the ingress.

Palladium has no adapter — that is precisely its point (§3.6).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..config import CostModel
from ..dataplane import KIND_REQUEST, VIA_SKMSG, Message
from ..memory import BufferDescriptor, PoolExhausted
from ..net import FStack, HttpProcessor, HttpRequest, KernelTcpStack
from ..platform.iolib import NodeRuntime
from ..sim import Environment, Store

__all__ = ["TcpWorkerAdapter"]

_rids = itertools.count(5_000_000)


class TcpWorkerAdapter:
    """Terminates proxied TCP on a worker and injects into shared memory."""

    KERNEL = "kernel"
    FSTACK = "fstack"

    def __init__(
        self,
        env: Environment,
        runtime: NodeRuntime,
        cost: CostModel,
        stack_kind: str = FSTACK,
        name: str = "",
    ):
        if stack_kind not in (self.KERNEL, self.FSTACK):
            raise ValueError(f"unknown adapter stack {stack_kind!r}")
        self.env = env
        self.runtime = runtime
        self.cost = cost
        self.stack_kind = stack_kind
        self.node = runtime.node
        self.adapter_id = name or f"_tcpgw:{self.node.name}"
        self.agent = f"fn:{self.adapter_id}"
        self.inbox: Store = Store(env, name=f"{self.adapter_id}-inbox")
        #: rid -> (ingress context, complete callback)
        self._pending: Dict[int, Tuple[object, object]] = {}
        self.requests = 0
        self.responses = 0
        self._running = False
        if stack_kind == self.FSTACK:
            core = self.node.cpu.allocate_pinned(f"{self.adapter_id}-core")
            self._compute = core
            self.stack = FStack(env, core, cost, name=f"{self.adapter_id}-fstack")
        else:
            self._compute = self.node.cpu
            self.stack = KernelTcpStack(env, self.node.cpu, cost,
                                        name=f"{self.adapter_id}-ktcp")
        self.http = HttpProcessor(self._compute, cost)
        # Make the adapter addressable as a local function so entry
        # functions can reply_to it over the intra-node data plane.
        runtime.register_endpoint(self.adapter_id, self.inbox)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.env.process(self._loop(), name=self.adapter_id)

    # -- ingress-facing API -------------------------------------------------
    def deliver_request(self, request: HttpRequest, tenant: str, entry_fn: str,
                        ctx: object, complete) -> None:
        """A proxied request frame arrived from the cluster ingress.

        ``complete(ctx, body, length)`` is invoked (as a new process)
        when the matching response is ready to travel back.
        """
        self.inbox.put_nowait(
            ("request", (request, tenant, entry_fn, ctx, complete)))

    # -- data-plane loop -----------------------------------------------------------
    def _loop(self):
        while self._running:
            event = yield self.inbox.get()
            if isinstance(event, BufferDescriptor):
                yield from self._handle_response(event)
            else:
                _kind, payload = event
                yield from self._handle_request(*payload)

    def _handle_request(self, request: HttpRequest, tenant: str, entry_fn: str,
                        ctx: object, complete):
        # Worker-side protocol termination: the duplicate processing
        # the paper's Fig. 4 (1) identifies.
        resolve = self.runtime.resolve_service
        if resolve is not None:
            entry_fn = resolve(entry_fn)
        yield from self.stack.rx(request.wire_bytes)
        yield from self.http.parse(request.wire_bytes)
        pool = self.runtime.pool_for(tenant)
        try:
            buffer = pool.get(self.agent)
        except PoolExhausted:
            buffer = yield from pool.get_wait(self.agent)
        rid = next(_rids)
        self._pending[rid] = (ctx, complete)
        message = Message(
            kind=KIND_REQUEST,
            rid=rid,
            src=self.adapter_id,
            dst=entry_fn,
            reply_to=self.adapter_id,
            tenant=tenant,
            via=VIA_SKMSG,
            owner=self.agent,
        )
        buffer.write(self.agent, request.body, request.body_bytes)
        descriptor = BufferDescriptor(buffer=buffer, length=request.body_bytes,
                                      message=message)
        buffer.transfer(self.agent, f"fn:{entry_fn}")
        message.transfer(self.agent, f"fn:{entry_fn}")
        yield from self.runtime.sockmap.send(self._compute, entry_fn, descriptor)
        self.requests += 1

    def _handle_response(self, descriptor: BufferDescriptor):
        entry = self._pending.pop(descriptor.message.rid, None)
        buffer = descriptor.buffer
        body = buffer.read(self.agent)
        length = descriptor.length
        descriptor.message.retire(self.agent)
        buffer.pool.put(buffer, self.agent)
        if entry is None:
            return
        ctx, complete = entry
        yield from self.http.serialize(length + 180)
        yield from self.stack.tx(length + 180)
        self.responses += 1
        # Hand back to the ingress (runs as its own process so the
        # adapter loop is not blocked by ingress-side queueing).
        self.env.process(complete(ctx, body, length), name=f"{self.adapter_id}-resp")
