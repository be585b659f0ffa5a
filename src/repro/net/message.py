"""The unit of communication on the simulated fabric.

Payloads travel by reference: the fabric copies nothing on the wire, so
a receiver holds the very objects the sender put in the payload. A
receiver must therefore not mutate what it was sent; a protocol that
ships immutable values (Dynamo's versions and frontiers, operations,
the txn layer's frozen log entries, the cart's ops inside a blob) gets
the sharing for free.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.sim.scheduler import register_fresh_run_hook

_msg_ids = itertools.count(1)


def _reset_msg_ids() -> None:
    # Restart numbering per simulator run so traces that mention messages
    # replay bit-for-bit; ids only need to be unique within one run.
    global _msg_ids
    _msg_ids = itertools.count(1)


register_fresh_run_hook(_reset_msg_ids)


class Message:
    """A message in flight between two named endpoints.

    ``kind`` is the protocol verb (e.g. ``"WRITE"``, ``"CHECKPOINT"``,
    ``"GOSSIP"``); ``payload`` is free-form protocol data. ``reply_to``
    carries the request's message id on responses so RPC can correlate.
    ``msg_id`` is drawn at construction, in construction order.

    Written by hand rather than as a dataclass: two are built per RPC,
    and a generated ``__init__`` plus a default factory per field is
    three calls where this is one.
    """

    __slots__ = ("src", "dst", "kind", "payload", "msg_id", "reply_to")

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        reply_to: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload: Dict[str, Any] = {} if payload is None else payload
        self.msg_id: int = next(_msg_ids)
        self.reply_to = reply_to

    def reply(self, kind: str, **payload: Any) -> "Message":
        """Build the response message for this request."""
        return Message(self.dst, self.src, kind, payload, self.msg_id)

    def __repr__(self) -> str:
        # What a drop record holds (and renders) in place of the message.
        tail = f" re:{self.reply_to}" if self.reply_to else ""
        return f"<Msg#{self.msg_id} {self.src}->{self.dst} {self.kind}{tail}>"
