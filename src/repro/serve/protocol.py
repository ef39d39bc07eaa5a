"""Wire format of the diff service: JSON payloads and HTTP status mapping.

The service speaks plain HTTP/1.1 with JSON bodies, all of it stdlib. Trees
travel in the dict format of :mod:`repro.core.serialization` (or as
s-expression strings, which parse through the same front door as the CLI),
and every response body is a JSON object serialized deterministically
(``sort_keys=True``) so clients, tests, and logs see byte-stable output.

Errors are modelled as :class:`HttpError` — raised anywhere while handling
a request, rendered once into a JSON error body by :func:`error_response`.
Overload responses (429/503) carry a ``Retry-After`` header that
:class:`repro.serve.client.DiffServiceClient` honors.

:class:`HttpFront` is the one HTTP/1.1 connection loop and response
writer; :class:`~repro.serve.app.DiffServer` and
:class:`~repro.serve.router.Router` both serve through it.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ParseError
from ..core.serialization import tree_from_dict, tree_from_sexpr
from ..core.tree import Tree
from ..obs.trace import (  # noqa: F401  (re-exported wire-level helpers)
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    extract_trace_context,
    inject_trace_headers,
)

#: Protocol identifier echoed in every response and checked by the client.
PROTOCOL = "repro-serve/1"

#: Reason phrases for the status codes the service emits.
STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Status codes the client treats as transient and retries.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class HttpError(Exception):
    """A request failure with an HTTP status, JSON-rendered by the app.

    ``retry_after`` (seconds) becomes a ``Retry-After`` header — the
    admission layer sets it on 429/503 so well-behaved clients back off by
    the server's own estimate instead of guessing.
    """

    def __init__(
        self,
        status: int,
        reason: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
        self.retry_after = retry_after

    def body(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "error": self.reason,
            "message": self.message,
            "protocol": PROTOCOL,
        }
        if self.retry_after is not None:
            out["retry_after_s"] = round(self.retry_after, 3)
        return out


def dumps(payload: Any) -> bytes:
    """Deterministic JSON encoding used for every response body."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


#: One answer: ``(status, JSON payload or raw body bytes, extra headers)``.
Response = Tuple[int, Any, Dict[str, str]]


def error_response(exc: HttpError) -> Response:
    """Render an :class:`HttpError`; ``Retry-After`` is whole seconds, >= 1."""
    headers: Dict[str, str] = {}
    if exc.retry_after is not None:
        headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
    return exc.status, exc.body(), headers


def require_method(method: str, expected: str, path: str) -> None:
    """405 unless *method* is the one *path* accepts."""
    if method != expected:
        raise HttpError(405, "method_not_allowed", f"{path} only accepts {expected}")


def encode_response(
    status: int, payload: Any, headers: Dict[str, str], keep_alive: bool
) -> bytes:
    """The full HTTP/1.1 response: status line, headers, JSON body."""
    body = payload if isinstance(payload, bytes) else dumps(payload)
    head = [
        f"HTTP/1.1 {status} {STATUS_PHRASES.get(status, 'Unknown')}",
        f"Server: {PROTOCOL}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


# ---------------------------------------------------------------------------
# Low-level HTTP/1.1 framing, shared by the app, the cluster router, and the
# supervisor's health checks. Everything raises HttpError so callers answer
# protocol violations uniformly.
# ---------------------------------------------------------------------------

#: Upper bound on header lines per request (anti-abuse, not a real limit).
MAX_HEADERS = 100


def parse_request_line(raw: bytes) -> Tuple[str, str, str]:
    """Split ``b"POST /v1/diff HTTP/1.1\\r\\n"`` into (method, path, version)."""
    try:
        text = raw.decode("latin-1").rstrip("\r\n")
        method, target, version = text.split(" ")
    except ValueError:
        raise HttpError(400, "bad_request_line", f"malformed request line: {raw!r}")
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, "bad_request_line", f"unsupported version {version}")
    return method.upper(), target.split("?", 1)[0], version


def parse_status_line(raw: bytes) -> int:
    """Extract the status code from ``b"HTTP/1.1 200 OK\\r\\n"``."""
    parts = raw.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError(502, "bad_upstream", f"malformed status line: {raw!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise HttpError(502, "bad_upstream", f"malformed status code in {raw!r}")


async def read_headers(
    reader: asyncio.StreamReader, max_headers: int = MAX_HEADERS
) -> Dict[str, str]:
    """Read header lines up to the blank separator into a lowercased dict."""
    headers: Dict[str, str] = {}
    for _ in range(max_headers):
        try:
            line = await reader.readline()
        except ValueError:  # longer than the stream's line limit
            raise HttpError(400, "bad_headers", "header line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    raise HttpError(400, "bad_headers", f"more than {max_headers} header lines")


async def read_content_length_body(
    reader: asyncio.StreamReader, headers: Dict[str, str], max_body_bytes: int
) -> bytes:
    """Read a Content-Length-framed body (411/400/413/501 on bad framing)."""
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked_unsupported", "send Content-Length, not chunked")
    raw_length = headers.get("content-length")
    if raw_length is None:
        raise HttpError(411, "length_required", "POST requires Content-Length")
    try:
        length = int(raw_length)
        if length < 0:
            raise ValueError
    except ValueError:
        raise HttpError(400, "bad_length", f"invalid Content-Length {raw_length!r}")
    if length > max_body_bytes:
        raise HttpError(
            413,
            "too_large",
            f"body of {length} bytes exceeds the {max_body_bytes}-byte limit",
        )
    return await reader.readexactly(length) if length else b""


class NoResponse(asyncio.IncompleteReadError):
    """The upstream connection ended before the first byte of a response.

    EOF or a reset while the request was sent or its status line awaited.
    On a reused keep-alive connection this is what a socket the worker
    closed while it sat idle looks like.
    """

    def __init__(self) -> None:
        super().__init__(b"", None)


def encode_request(
    host: str,
    port: int,
    method: str,
    path: str,
    headers: Dict[str, str],
    body: bytes,
    keep_alive: bool,
) -> bytes:
    """One upstream HTTP/1.1 request.

    *headers* follow ``Host``, ``Connection`` and the body's
    ``Content-Length``.
    """
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        f"Content-Length: {len(body)}",
    ]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def roundtrip(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> Tuple[int, Dict[str, str], bytes]:
    """Send one encoded request and read its Content-Length-framed response.

    Returns ``(status, lowercased headers, body)``. Raises
    :class:`NoResponse` when the connection ends before the status line,
    ``asyncio.IncompleteReadError`` when it ends inside the headers or
    the body, and ``OSError`` on other socket failures. Every response
    of the service carries a ``Content-Length``, so headers without one
    were cut off.
    """
    try:
        writer.write(request)
        await writer.drain()
        status_line = await reader.readline()
    except ConnectionError as exc:
        raise NoResponse() from exc
    if not status_line:
        raise NoResponse()
    status = parse_status_line(status_line)
    headers = await read_headers(reader)
    if "content-length" not in headers:
        raise asyncio.IncompleteReadError(b"", None)
    return status, headers, await reader.readexactly(int(headers["content-length"]))


async def exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    headers: Dict[str, str],
    body: bytes,
    timeout: float,
) -> Tuple[int, bytes]:
    """One request on a fresh connection that closes after the response.

    Connect, send and read all fall under one deadline of *timeout*
    seconds. Returns ``(status, body)``; failures propagate as
    ``OSError`` / ``asyncio.TimeoutError``, and as
    ``asyncio.IncompleteReadError`` when the peer closes without
    answering.
    """
    return await asyncio.wait_for(
        _exchange(host, port, method, path, headers, body), timeout
    )


async def _exchange(
    host: str, port: int, method: str, path: str, headers: Dict[str, str], body: bytes
) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request = encode_request(
            host, port, method, path, headers, body, keep_alive=False
        )
        status, _, resp_body = await roundtrip(reader, writer, request)
        return status, resp_body
    finally:
        await close_quietly(writer)


async def close_quietly(writer: asyncio.StreamWriter) -> None:
    """Close a stream and wait for it, ignoring a peer that already left."""
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def fetch_json(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, Dict[str, Any]]:
    """One GET against a backend through :func:`exchange`: ``(status, decoded body)``.

    For use on the serving loop (supervisor health checks, router fan-in).
    Each call opens its own connection: a health check has to prove the
    worker still accepts one.
    """
    status, raw = await exchange(
        host, port, "GET", path, {"Accept": "application/json"}, b"", timeout
    )
    try:
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:
        decoded = {}
    if not isinstance(decoded, dict):
        decoded = {"value": decoded}
    return status, decoded


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON value")


#: Request bodies are strict JSON: the ``NaN``/``Infinity``/``-Infinity``
#: literals Python's decoder accepts are refused: a NaN leaf value is
#: unequal to itself, so the verify oracles would reject a correct diff.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object (400 on anything else)."""
    try:
        data = _DECODER.decode(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack allows.
        raise HttpError(400, "bad_json", f"request body is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise HttpError(400, "bad_json", "request body must be a JSON object")
    return data


def tree_from_payload(spec: Any, field: str) -> Tree:
    """Materialize the ``old``/``new`` field of a request into a Tree.

    Accepts the nested-dict format (JSON snapshots) or an s-expression
    string (the compact text form used by fixtures and the CLI).
    """
    try:
        if isinstance(spec, dict):
            return tree_from_dict(spec)
        if isinstance(spec, str):
            return tree_from_sexpr(spec)
    except (ParseError, KeyError, TypeError, ValueError) as exc:
        raise HttpError(400, "bad_tree", f"field {field!r} does not parse: {exc}")
    raise HttpError(
        400, "bad_tree", f"field {field!r} must be a tree dict or s-expression string"
    )


def require_pair(data: Dict[str, Any]) -> Tuple[Tree, Tree]:
    """Extract and parse the mandatory ``old``/``new`` snapshot pair."""
    missing = [field for field in ("old", "new") if field not in data]
    if missing:
        raise HttpError(
            400, "missing_field", f"missing required field(s): {', '.join(missing)}"
        )
    return (
        tree_from_payload(data["old"], "old"),
        tree_from_payload(data["new"], "new"),
    )


def job_result_to_dict(result: Any, include_script: bool = True) -> Dict[str, Any]:
    """JSON-friendly view of a :class:`repro.service.engine.JobResult`."""
    out: Dict[str, Any] = {
        "job_id": result.job_id,
        "status": result.status,
        "source": result.source,
        "operations": result.operations,
        "cost": result.cost,
        "wall_ms": round(result.wall_ms, 3),
        "attempts": result.attempts,
        "old_digest": result.old_digest,
        "new_digest": result.new_digest,
        "summary": dict(result.summary),
        "stage_ms": {stage: round(ms, 3) for stage, ms in result.stage_ms.items()},
        "error": result.error,
        "verified": result.verified,
        "protocol": PROTOCOL,
    }
    trace_id = getattr(result, "trace_id", None)
    if trace_id is not None:
        out["trace_id"] = trace_id
    if include_script and result.script is not None:
        out["script"] = {
            "records": result.script.to_dicts(),
            "wrapped": result.wrapped,
        }
    return out


def pairs_from_batch(data: Dict[str, Any], max_pairs: int) -> List[Tuple[Tree, Tree, str]]:
    """Extract the ``pairs`` list of a ``/v1/batch`` request."""
    pairs = data.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise HttpError(
            400, "missing_field", "batch body needs a non-empty 'pairs' array"
        )
    if len(pairs) > max_pairs:
        raise HttpError(
            413,
            "batch_too_large",
            f"batch of {len(pairs)} pairs exceeds the per-request cap of {max_pairs}",
        )
    out: List[Tuple[Tree, Tree, str]] = []
    for index, entry in enumerate(pairs):
        if not isinstance(entry, dict):
            raise HttpError(400, "bad_pair", f"pairs[{index}] must be an object")
        old, new = require_pair(entry)
        out.append((old, new, str(entry.get("id", f"pair-{index}"))))
    return out


# ---------------------------------------------------------------------------
# The shared HTTP/1.1 front
# ---------------------------------------------------------------------------
class HttpFront:
    """The keep-alive connection loop shared by DiffServer and Router.

    A subclass supplies :meth:`dispatch` (route and answer one framed
    request), :meth:`count`, and ``clock``/``lifecycle`` attributes.
    :meth:`handle` is the sans-IO entry point: one framed request in, one
    :data:`Response` out. The socket loop here runs it in production;
    the simulator drives :meth:`handle` directly, without a socket.
    """

    clock: Any
    lifecycle: Any

    def __init__(self, max_body_bytes: int) -> None:
        self.max_body_bytes = max_body_bytes
        #: Requests between first byte and last byte (drain waits on this).
        self.active_requests = 0
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None  #: actual bound port once listening
        self._conn_tasks: set = set()
        self._idle: set = set()  #: connection tasks waiting for a request line

    async def dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes, peer: str
    ) -> Response:
        raise NotImplementedError

    def count(self, name: str) -> None:
        raise NotImplementedError

    def observe(self, status: int, elapsed_ms: float) -> None:
        """Account one answered request (subclasses may record timing)."""
        self.count(f"responses_{status // 100}xx")

    async def handle(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        peer: str = "unknown",
    ) -> Response:
        """Answer one framed request; an :class:`HttpError` becomes its response."""
        try:
            return await self.dispatch(method, path, headers, body, peer)
        except HttpError as exc:
            return error_response(exc)

    # ------------------------------------------------------------------
    # The socket loop
    # ------------------------------------------------------------------
    async def listen(self, host: str, port: int) -> None:
        """Bind the listening socket (resolving port 0 to the real port)."""
        self.server = await asyncio.start_server(self._serve_connection, host, port)
        sockets = self.server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    def close_idle_connections(self) -> None:
        """Close the keep-alive connections waiting for a request line.

        The drain calls this: a busy connection closes by itself after
        its response, which says ``Connection: close`` while draining.
        """
        for task in self._idle:
            task.cancel()

    async def close_connections(self) -> None:
        """Cancel every connection left open (post-drain cleanup)."""
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "unknown"
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                self._idle.add(task)
                try:
                    request_line = await reader.readline()
                finally:
                    self._idle.discard(task)
                if not await self._serve_one(request_line, reader, writer, peer_id):
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # the drain closed this socket while it was idle
        finally:
            self._conn_tasks.discard(task)
            await close_quietly(writer)

    async def _serve_one(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: str,
    ) -> bool:
        """Answer and write the request *request_line* opens; True to keep the socket."""
        if not request_line.strip():
            return False
        started = self.clock.monotonic()
        self.count("requests")
        self.active_requests += 1
        try:
            try:
                method, path, version = parse_request_line(request_line)
                headers = await read_headers(reader)
                wants_close = headers.get("connection", "").lower() == "close"
                keep_alive = version == "HTTP/1.1" and not wants_close
                body = b""
                if method in ("POST", "PUT"):
                    body = await read_content_length_body(
                        reader, headers, self.max_body_bytes
                    )
            except HttpError as exc:
                # Bad framing: the body was never consumed, so the socket
                # is mid-stream and cannot be reused.
                if exc.status == 413:
                    self.count("rejected_too_large")
                keep_alive = False
                response = error_response(exc)
            else:
                try:
                    response = await self.handle(method, path, headers, body, peer)
                except Exception as exc:  # never let a handler bug kill the server
                    self.count("internal_errors")
                    response = error_response(
                        HttpError(500, "internal", f"{type(exc).__name__}: {exc}")
                    )
            if self.lifecycle.draining:
                keep_alive = False
            status, payload, extra = response
            self.observe(status, (self.clock.monotonic() - started) * 1000.0)
            writer.write(encode_response(status, payload, extra, keep_alive))
            await writer.drain()
            return keep_alive
        finally:
            self.active_requests -= 1
