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


async def exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    headers: Dict[str, str],
    body: bytes,
    timeout: float,
    connect_timeout: Optional[float] = None,
) -> Tuple[int, bytes]:
    """One fully-framed upstream request on a fresh connection.

    Sends *headers* after ``Host``, ``Connection: close`` and the body's
    ``Content-Length``; returns ``(status, body)`` of the
    Content-Length-framed response. Each read waits at most *timeout*, the
    connect at most *connect_timeout* (default *timeout*). Failures
    propagate as ``OSError`` / ``asyncio.TimeoutError``, and as
    ``asyncio.IncompleteReadError`` when the peer closes without answering.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port),
        timeout if connect_timeout is None else connect_timeout,
    )
    try:
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: close",
            f"Content-Length: {len(body)}",
        ]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        status = parse_status_line(status_line)
        resp_headers = await asyncio.wait_for(read_headers(reader), timeout)
        length = int(resp_headers.get("content-length", "0"))
        return status, await asyncio.wait_for(reader.readexactly(length), timeout)
    finally:
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


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object (400 on anything else)."""
    try:
        data = json.loads(raw.decode("utf-8"))
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

    async def close_connections(self) -> None:
        """Cancel idle keep-alive connections (post-drain cleanup)."""
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
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while await self._serve_one(reader, writer, peer_id):
                pass
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # post-drain cleanup of an idle keep-alive socket
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, peer: str
    ) -> bool:
        """Read, answer and write one request; True to keep the socket."""
        request_line = await reader.readline()
        if not request_line.strip():
            return False
        started = self.clock.perf_counter()
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
            self.observe(status, (self.clock.perf_counter() - started) * 1000.0)
            writer.write(encode_response(status, payload, extra, keep_alive))
            await writer.drain()
            return keep_alive
        finally:
            self.active_requests -= 1
