"""Wire protocol of the ranked-query service: line-delimited JSON.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Requests are JSON objects with an ``"op"`` field; responses carry
``"ok": true`` plus the op's payload, or ``"ok": false`` plus an
``"error": {"code", "message"}`` object.  A client-supplied ``"id"``
field is echoed back verbatim for correlation.  The full op reference
lives in ``docs/service.md``; the shapes here are the single source of
truth both sides (``server.py`` / ``client.py``) build on.

Answers travel as ``[values, score]`` pairs.  JSON has no tuples, so
values and composite (LEX) scores arrive as lists; :func:`tupled`
restores the library's tuple form on the client so that a decoded
answer compares equal to the same answer serialised from a local
:meth:`~repro.engine.QueryEngine.execute` run — the identity checks in
``benchmarks/bench_service_load.py`` depend on exactly this round-trip.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ServiceError",
    "UnknownCursorError",
    "StaleCursorError",
    "OverloadedError",
    "DeadlineExceededError",
    "BadOffsetError",
    "jsonable",
    "tupled",
    "encode_answers",
    "decode_answers",
    "dump_message",
    "parse_message",
    "error_response",
]

PROTOCOL_VERSION = 1

#: Framing bound: requests and responses beyond this are protocol errors
#: (the server passes it to ``asyncio.start_server(limit=...)``).  Large
#: result sets are meant to be paged through cursors, not shipped as one
#: giant line.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ServiceError(ReproError):
    """A request-level failure with a machine-readable ``code``.

    The server turns these into ``"ok": false`` responses without
    dropping the connection; the client raises them back to the caller.
    """

    code = "bad-request"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class UnknownCursorError(ServiceError):
    """The cursor id is not (or no longer) known to the server."""

    code = "unknown-cursor"


class StaleCursorError(ServiceError):
    """An evicted cursor could not replay: the data changed underneath it."""

    code = "stale-cursor"


class OverloadedError(ServiceError):
    """Admission control refused the request (queue bound exceeded)."""

    code = "overloaded"


class DeadlineExceededError(ServiceError):
    """The request's ``deadline`` elapsed before the server finished.

    The work is abandoned server-side (a fetch's page is pushed back so
    no answers are skipped); the client may retry with a longer deadline.
    """

    code = "deadline-exceeded"


class BadOffsetError(ServiceError):
    """A fetch's ``at`` offset does not match any servable position.

    Exact-or-refuse paging: the server re-serves its buffered last page
    or fast-forwards a replayable cursor, but never guesses across an
    unservable gap — the client re-runs the query instead.
    """

    code = "bad-offset"


def jsonable(value: Any) -> Any:
    """A JSON-safe view of an answer component (tuples become lists)."""
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def tupled(value: Any) -> Any:
    """Undo :func:`jsonable`'s tuple flattening (lists become tuples)."""
    if isinstance(value, list):
        return tuple(tupled(v) for v in value)
    return value


def encode_answers(answers) -> list:
    """``RankedAnswer``-likes -> the wire form ``[[values, score], ...]``."""
    return [[jsonable(a.values), jsonable(a.score)] for a in answers]


def decode_answers(payload: list) -> list[tuple[tuple, Any]]:
    """Wire form -> ``[(values_tuple, score), ...]`` (client side)."""
    return [(tupled(values), tupled(score)) for values, score in payload]


def dump_message(message: dict) -> bytes:
    """Serialise one protocol message to its wire line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def parse_message(line: bytes) -> dict:
    """Parse one wire line; :class:`ServiceError` on malformed input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed message: {exc}", code="parse-error") from exc
    if not isinstance(message, dict):
        raise ServiceError("message must be a JSON object", code="parse-error")
    return message


def error_response(exc: ServiceError, *, op: str | None = None, id: Any = None) -> dict:
    """The ``"ok": false`` wire form of a :class:`ServiceError`."""
    response: dict = {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
    if op is not None:
        response["op"] = op
    if id is not None:
        response["id"] = id
    return response
