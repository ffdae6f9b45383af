"""The typed zero-copy dataplane core: messages and descriptor chains.

Every request that travels Palladium's data plane is *one* object: a
:class:`Message` rides the buffer descriptor end-to-end, exactly as one
buffer does in the paper (§3.5).  Historically this state was an
untyped ``meta: Dict`` blob with magic underscore keys, defensively
``dict()``-copied at every hop — the simulator copied on every hop
while modeling a zero-copy system.  This package replaces that with
slotted, typed classes and a checked ownership protocol:

* **routing** — ``kind``/``rid``/``src``/``dst``/``reply_to``/
  ``tenant`` plus ``via``, the transport that carried the last hop;
* **reliability** — an ``ack`` event settled by whichever transport
  delivers (or drops) the message, plus a retry budget;
* **trace context** — the telemetry ``(trace_id, span_id)`` tuple each
  hop re-stamps so receive spans chain off send spans;
* **ownership** — :meth:`Message.transfer` / :meth:`Message.retire`
  mirror the buffer token-passing protocol.  A message has exactly one
  owner at any sim instant; use-after-transfer and double-retire raise
  :class:`OwnershipViolation` at sim time, which is what a use-after-
  free would have been on real hardware.
"""

from .message import (
    KIND_REQUEST,
    KIND_RESPONSE,
    VIA_ENGINE,
    VIA_SKMSG,
    VIA_TCP,
    DescriptorChain,
    Message,
    OwnershipViolation,
)

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
