"""Slotted message and descriptor-chain types with single-owner handoff.

See the package docstring for the design rationale.  The protocol:

* a message is created owned by its producer (``owner=<agent>``);
* each hop hands it off with ``transfer(from_agent, to_agent)`` —
  by-ownership, never by copy;
* exactly one agent finally ``retire()``\\ s it (after the handler ran,
  after a drop, after a flushed CQE is reclaimed);
* ``transfer`` after retirement, ``transfer`` by a non-owner, and a
  second ``retire`` all raise :class:`OwnershipViolation`.

Field reads and writes are *not* ownership-checked — they are on the
simulator's hottest path and the protocol calls are where the invariant
is enforced (the same trade the buffer layer makes: ``payload`` access
goes through ``read``/``write``, plain attributes are free).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Message",
    "DescriptorChain",
    "OwnershipViolation",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "VIA_SKMSG",
    "VIA_ENGINE",
    "VIA_TCP",
]

#: transports a message can record as its last hop
VIA_SKMSG = "skmsg"
VIA_ENGINE = "engine"
VIA_TCP = "tcp"

KIND_REQUEST = "request"
KIND_RESPONSE = "response"


class OwnershipViolation(RuntimeError):
    """An agent touched a message it does not own (or that is retired)."""


class Message:
    """The typed header that rides a request end-to-end.

    One instance travels the whole path — ingress to entry function to
    downstream functions and back — by ownership handoff, never copied
    per hop.  ``clone`` exists only for *re*-transmission, where the
    original instance is genuinely gone (retired by a drop path).
    """

    __slots__ = ("kind", "rid", "src", "dst", "reply_to", "tenant", "via",
                 "ack", "retries_left", "trace", "crossed_domain",
                 "_owner", "_retired")

    def __init__(
        self,
        kind: str = KIND_REQUEST,
        rid: Optional[int] = None,
        src: str = "",
        dst: str = "",
        reply_to: str = "",
        tenant: str = "default",
        via: str = "",
        ack=None,
        retries_left: int = 0,
        trace: Optional[Tuple[int, int]] = None,
        crossed_domain: bool = False,
        owner: Optional[str] = None,
    ):
        self.kind = kind
        self.rid = rid
        self.src = src
        self.dst = dst
        self.reply_to = reply_to
        self.tenant = tenant
        #: transport of the last hop (skmsg / engine / tcp)
        self.via = via
        #: reliability ack event; settled (ok/not-ok) by the transport
        self.ack = ack
        #: remaining retransmissions a reliable sender may spend
        self.retries_left = retries_left
        #: telemetry (trace_id, span_id) context, re-stamped per hop
        self.trace = trace
        #: True once the payload was CPU-copied across a tenant boundary
        self.crossed_domain = crossed_domain
        self._owner = owner
        self._retired = False

    # -- introspection -------------------------------------------------------
    @property
    def owner(self) -> Optional[str]:
        return self._owner

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def is_response(self) -> bool:
        return self.kind == KIND_RESPONSE

    # -- ownership protocol --------------------------------------------------
    def check_owner(self, agent: Optional[str]) -> None:
        """Raise unless ``agent`` currently owns this (live) message."""
        if self._retired:
            raise OwnershipViolation(
                f"message rid={self.rid}: use after retire (by {agent!r})"
            )
        if self._owner != agent:
            raise OwnershipViolation(
                f"message rid={self.rid}: agent {agent!r} is not the owner "
                f"(owner={self._owner!r})"
            )

    def transfer(self, from_agent: Optional[str], to_agent: str) -> None:
        """Hand the message off; the previous owner must not touch it.

        A message that never entered the protocol (``owner=None``, e.g.
        one built by a driver outside the runtime) is adopted by its
        first transfer; once owned, only the owner may hand it off.
        """
        if self._owner is None and not self._retired:
            self._owner = to_agent
            return
        self.check_owner(from_agent)
        self._owner = to_agent

    def retire(self, agent: Optional[str]) -> None:
        """End of life: the final owner consumes the message exactly once."""
        if self._retired:
            raise OwnershipViolation(
                f"message rid={self.rid}: double retire (by {agent!r})"
            )
        if self._owner is not None:
            self.check_owner(agent)
        self._retired = True

    # -- reliability ---------------------------------------------------------
    def settle(self, ok: bool) -> None:
        """Succeed the reliability ack, if one is riding and still open.

        Deliberately owner-agnostic: the ack is *sender-side* state that
        a remote transport settles on delivery, long after ownership
        moved on.
        """
        ack = self.ack
        if ack is not None and not ack.triggered:
            ack.succeed(ok)

    # -- retransmission ------------------------------------------------------
    def clone(self, owner: Optional[str] = None, **overrides: Any) -> "Message":
        """Fresh instance with the same routing/trace fields, no ack.

        Used when a reliable sender retransmits: the original instance
        was consumed by whatever path dropped it, so the retry gets a
        pristine copy under a new owner.
        """
        msg = Message(
            kind=self.kind, rid=self.rid, src=self.src, dst=self.dst,
            reply_to=self.reply_to, tenant=self.tenant, via=self.via,
            retries_left=self.retries_left, trace=self.trace,
            crossed_domain=self.crossed_domain, owner=owner,
        )
        for key, value in overrides.items():
            setattr(msg, key, value)
        return msg


class DescriptorChain:
    """An ordered scatter-gather chain of descriptors under one message.

    Models a multi-buffer payload (a response body spanning several
    pool buffers) travelling as a single unit: one :class:`Message`
    header, one ownership handoff moving the header *and* every chained
    buffer together.
    """

    __slots__ = ("message", "_descriptors")

    def __init__(self, message: Message, descriptors: Iterable = ()):
        self.message = message
        self._descriptors: List = list(descriptors)

    def append(self, descriptor) -> None:
        self._descriptors.append(descriptor)

    @property
    def total_length(self) -> int:
        return sum(d.length for d in self._descriptors)

    @property
    def wire_bytes(self) -> int:
        """Chain descriptors travel back-to-back on a channel."""
        return sum(d.wire_bytes for d in self._descriptors)

    def __len__(self) -> int:
        return len(self._descriptors)

    def __iter__(self) -> Iterator:
        return iter(self._descriptors)

    def __getitem__(self, index: int):
        return self._descriptors[index]

    def transfer(self, from_agent: Optional[str], to_agent: str) -> None:
        """Hand off the header and every chained buffer atomically."""
        self.message.transfer(from_agent, to_agent)
        for descriptor in self._descriptors:
            descriptor.buffer.transfer(from_agent, to_agent)

    def retire(self, agent: Optional[str]) -> None:
        """Consume the chain: retire the header, recycle the buffers."""
        self.message.retire(agent)
        for descriptor in self._descriptors:
            buffer = descriptor.buffer
            if buffer.pool is not None:
                buffer.pool.put(buffer, agent)
