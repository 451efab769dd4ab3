"""repro.service — the async ranked-query service layer.

A network front-end over one :class:`~repro.engine.QueryEngine`:
clients submit queries and page through ranked answers via server-side
**cursors** that park live enumerator state, so fetching answers
1000–1100 costs ~100 enumeration delays — never a re-run.  The layer
adds what serving needs on top of the engine: session/cursor lifecycle
with TTL expiry and LRU eviction (evicted cursors resume via
``(query, offset)`` replay), per-tenant fair admission control with
load shedding, exact per-request kernel/score counters under
concurrency, and graceful cursor-draining shutdown.

Module map — each is the single home of one concern:

* :mod:`.protocol` — line-JSON wire shapes, error codes, answer codecs.
* :mod:`.cursors`  — :class:`Cursor` / :class:`CursorTable` lifecycle.
* :mod:`.admission` — :class:`FairGate` bounded fair scheduling.
* :mod:`.server`   — :class:`ReproServer` (asyncio), :class:`ServerThread`,
  the blocking :func:`serve` behind ``repro serve``.
* :mod:`.client`   — :class:`ServiceClient` / :class:`RemoteCursor`,
  ``repro query --connect``'s transport.

This package depends only on the engine's public surface (enforced by
``tools/check_layering.py`` rule 3); see ``docs/service.md`` for the
protocol and operational contracts.
"""

from .admission import FairGate
from .client import RemoteCursor, ServiceClient, connect
from .cursors import Cursor, CursorTable
from .protocol import (
    PROTOCOL_VERSION,
    OverloadedError,
    ServiceError,
    StaleCursorError,
    UnknownCursorError,
)
from .server import DEFAULT_PORT, ReproServer, ServerThread, serve

__all__ = [
    "ReproServer",
    "ServerThread",
    "serve",
    "ServiceClient",
    "RemoteCursor",
    "connect",
    "Cursor",
    "CursorTable",
    "FairGate",
    "ServiceError",
    "UnknownCursorError",
    "StaleCursorError",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
]
