"""eBPF SK_MSG / sockmap intra-node IPC (§3.5.3, Fig. 8).

Co-located Palladium functions exchange 16-byte buffer descriptors over
``SK_MSG`` redirection: the source's ``send()`` triggers the eBPF
program, which looks up the destination socket in the *sockmap* and
splices the descriptor straight across, bypassing the kernel protocol
stack entirely.

The delivery is event-driven (the destination sleeps in ``recv`` and is
woken), so each message charges:

* ``sk_msg_us`` on the **sender's** compute context (the SK_MSG program
  plus sockmap lookup run in the sender's send() syscall), and
* ``sk_msg_interrupt_us`` on the **receiver's** compute context when it
  is woken — the interrupt-driven cost that throttles the CNE at high
  concurrency (§4.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..config import CostModel
from ..hw import CorePool, PinnedCore
from ..memory import BufferDescriptor
from ..sim import Environment, Store

__all__ = ["SockMap", "SkMsgSocket"]


class SkMsgSocket:
    """One registered socket endpoint in the sockmap.

    ``inbox`` may be supplied by the function runtime so SK_MSG and
    Comch deliveries land in the same unified receive queue.
    """

    def __init__(self, env: Environment, fn_id: str, inbox: Optional[Store] = None):
        self.env = env
        self.fn_id = fn_id
        self.inbox: Store = inbox if inbox is not None else Store(env, name=f"skmsg:{fn_id}")

    def recv(self):
        """Event yielding the next delivered descriptor."""
        return self.inbox.get()

    @property
    def backlog(self) -> int:
        return len(self.inbox.items)


class SockMap:
    """The BPF_MAP_TYPE_SOCKMAP: function id -> registered socket."""

    def __init__(self, env: Environment, cost: CostModel, name: str = "sockmap"):
        self.env = env
        self.cost = cost
        self.name = name
        self._sockets: Dict[str, SkMsgSocket] = {}
        self.messages = 0

    def register(self, fn_id: str, inbox: Optional[Store] = None) -> SkMsgSocket:
        """Add a socket for ``fn_id`` (idempotent)."""
        if fn_id not in self._sockets:
            self._sockets[fn_id] = SkMsgSocket(self.env, fn_id, inbox)
        return self._sockets[fn_id]

    def unregister(self, fn_id: str) -> None:
        """Remove a socket (endpoint moved away or was torn down)."""
        self._sockets.pop(fn_id, None)

    def lookup(self, fn_id: str) -> SkMsgSocket:
        try:
            return self._sockets[fn_id]
        except KeyError:
            raise KeyError(f"function {fn_id!r} not in sockmap {self.name!r}") from None

    def send(
        self,
        sender_compute: Union[PinnedCore, CorePool],
        dst_fn: str,
        descriptor: BufferDescriptor,
    ):
        """Generator: redirect ``descriptor`` to ``dst_fn``'s socket.

        The SK_MSG program + sockmap lookup run in the sender's
        context; delivery wakes the receiver.
        """
        yield sender_compute.run(("descriptor", self.cost.sk_msg_us))
        self.redirect(dst_fn, descriptor)

    def redirect(self, dst_fn: str, descriptor: BufferDescriptor) -> None:
        """Deliver without charging CPU (caller batches the charge)."""
        socket = self.lookup(dst_fn)
        socket.inbox.put_nowait(descriptor)
        self.messages += 1
