"""HTTP message model and processing costs.

External clients speak HTTP over TCP (§1, §3.6).  We model a request /
response as a small structured object plus an NGINX-grade parse /
serialize CPU cost; the *content* only matters for correctness checks
(echo tests assert payload integrity end to end).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from ..config import CostModel
from ..hw import CorePool, PinnedCore

__all__ = ["HttpRequest", "HttpResponse", "HttpProcessor", "HTTP_REQUEST_OVERHEAD"]

#: header bytes added to every HTTP message on the wire
HTTP_REQUEST_OVERHEAD = 180

_request_ids = itertools.count(1)


@dataclass
class HttpRequest:
    """One client HTTP request entering the serverless cloud."""

    path: str
    body: Any = None
    body_bytes: int = 0
    connection_id: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return HTTP_REQUEST_OVERHEAD + self.body_bytes


@dataclass
class HttpResponse:
    """The response traveling back to the external client."""

    status: int
    body: Any = None
    body_bytes: int = 0
    request_id: int = 0

    @property
    def wire_bytes(self) -> int:
        return HTTP_REQUEST_OVERHEAD + self.body_bytes


class HttpProcessor:
    """NGINX-style HTTP parsing/serialization on a compute context."""

    def __init__(self, core: Union[PinnedCore, CorePool], cost: CostModel):
        self.core = core
        self.cost = cost
        self.parsed = 0
        self.serialized = 0

    def parse(self, nbytes: int):
        """Generator: parse one HTTP message."""
        work = self.cost.http_parse_us + nbytes * 0.00002
        yield self.core.run(("protocol", work))
        self.parsed += 1

    def serialize(self, nbytes: int):
        """Generator: build one HTTP message."""
        work = self.cost.http_parse_us * 0.6 + nbytes * 0.00002
        yield self.core.run(("protocol", work))
        self.serialized += 1
