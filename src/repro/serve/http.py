"""Minimal stdlib HTTP/JSON front end for :class:`AuditService`.

No web framework: a :class:`http.server.ThreadingHTTPServer` serving
four routes, so ``repro serve`` carries zero new dependencies.

Routes
------
``GET /healthz``
    ``{"status": "ok", "fingerprint": ...}`` — liveness probe.
``GET /manifest``
    The bundle's serving metadata (column roles, audit knobs).
``POST /audit-one-row``
    Body ``{"row": {column: value, ...}}`` → one verdict object.
``POST /audit-batch``
    Body ``{"rows": [{...}, ...]}`` → ``{"results": [...]}``.

Every error response has a JSON ``{"error": ...}`` body: 400 for
malformed JSON and :class:`AuditRequestError`, 404 for unknown routes,
500 for unexpected failures, and the stdlib's own errors (a malformed
request line, 501 for an unsupported method, ...) alike.  Each error
counts once on the ``serve.errors`` counter, requests on
``serve.requests`` (via the service).

Keep-alive framing
------------------
Connections are HTTP/1.1 keep-alive.  A response is buffered and
flushed in one write (a body past the 8 KiB buffer follows its headers
in a second) on a socket with ``TCP_NODELAY`` set, so no part of it
waits for the client's delayed ACK.  A request's body is read in full,
exactly ``Content-Length`` bytes (none without the header), before its
route is chosen, so the next request on the connection starts where
this one ended whatever this one's status.  A body the server cannot
frame — sent with ``Transfer-Encoding`` (411), or with a
``Content-Length`` that is not a non-negative integer (400) — is
answered and its connection closed, as after every stdlib error.  So
is a body longer than :data:`MAX_BODY_BYTES` (413), unread: the
client's header never sets the size of the server's read.  Every read
on a connection has a deadline, :data:`READ_TIMEOUT_S`: a body that
stalls past it is answered with 408 and its connection closed, and an
idle keep-alive connection past it is closed without a reply, so a
silent client cannot hold a handler thread.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import obs
from .service import AuditRequestError, AuditService

__all__ = ["AuditHTTPServer", "serve_forever"]

log = logging.getLogger("repro.serve")

#: Largest request body the server reads, in bytes: over a thousand
#: times a 64-row ``/audit-batch`` body (about 12 KB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a read on a connection may wait for the client (the socket
#: timeout of :class:`socketserver.StreamRequestHandler`).
READ_TIMEOUT_S = 30.0

#: Seconds a closing connection keeps reading what the client still
#: sends (see :meth:`AuditHTTPServer.shutdown_request`).
LINGER_S = 1.0


class AuditHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one :class:`AuditService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: AuditService,
                 max_requests: int | None = None):
        super().__init__(address, _Handler)
        self.service = service
        self.max_requests = max_requests
        self.requests_handled = 0
        self._lock = threading.Lock()

    def count_request(self) -> None:
        """Track handled requests; trigger shutdown past the cap.

        ``shutdown()`` must come from a thread other than the one
        running ``serve_forever`` — the handler threads qualify.
        """
        with self._lock:
            self.requests_handled += 1
            if (self.max_requests is not None
                    and self.requests_handled >= self.max_requests):
                threading.Thread(target=self.shutdown,
                                 daemon=True).start()

    def shutdown_request(self, request) -> None:
        """Close a connection without resetting it: stop writing, then
        read and drop what the client still sends until it closes or
        :data:`LINGER_S` passes.  Closed with unread bytes, a socket
        sends a reset, and a client still sending a body the server
        answered unread (411, 413) fails mid-send or loses the reply."""
        try:
            request.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + LINGER_S
            while (left := deadline - time.monotonic()) > 0:
                request.settimeout(left)
                if not request.recv(65536):
                    break
        except OSError:
            pass
        self.close_request(request)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Buffer each response and flush it once, with Nagle off: sent as
    # two small writes, the body would wait behind the headers for a
    # keep-alive client's ~40 ms delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = READ_TIMEOUT_S
    server: AuditHTTPServer

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict,
                   close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        # Flush before counting: the request that reaches max_requests
        # shuts the server down, and the process may exit before the
        # stdlib flushes after the handler returns.
        self.wfile.flush()
        self.server.count_request()

    def _fail(self, status: int, message: str, close: bool = False) -> None:
        obs.add("serve.errors")
        self._send_json(status, {"error": message}, close)

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own errors (a malformed request line, an
        unsupported method, oversized headers) with the JSON body every
        other error has; the connection closes after them, as the
        stdlib's own error page closes it."""
        self._fail(code, message or self.responses[code][0], close=True)

    def handle_expect_100(self):
        """Send ``100 Continue`` now: the client holds the body back
        until it arrives, so it must not wait in the write buffer for
        the final response."""
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _read_body(self) -> bytes | None:
        """The request body: exactly ``Content-Length`` bytes, none
        without the header.  A body that cannot be framed, or that
        stalls past the read deadline, is answered here, with the
        connection closed, and gives ``None``."""
        if "Transfer-Encoding" in self.headers:
            self._fail(411, "Transfer-Encoding is not supported; send the "
                            "body with a Content-Length header", close=True)
            return None
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            self._fail(400, "Content-Length header must be a non-negative "
                            f"integer, got {length!r}", close=True)
            return None
        size = int(length)
        if size > MAX_BODY_BYTES:
            self._fail(413, f"request body of {size} bytes exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit", close=True)
            return None
        try:
            return self.rfile.read(size)
        except TimeoutError:
            self._fail(408, f"request body not received within "
                            f"{self.timeout:g} s", close=True)
            return None

    # -- routes --------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        if self._read_body() is None:
            return
        if self.path == "/healthz":
            meta = self.server.service.components.meta
            self._send_json(200, {
                "status": "ok",
                "fingerprint": meta.get("fingerprint", ""),
                "dataset": meta.get("dataset", ""),
            })
        elif self.path == "/manifest":
            self._send_json(200, dict(self.server.service.components.meta))
        else:
            self._fail(404, f"unknown path {self.path!r}; routes: "
                            "/healthz /manifest /audit-one-row "
                            "/audit-batch")

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        raw = self._read_body()
        if raw is None:
            return
        service = self.server.service
        try:
            if self.path == "/audit-one-row":
                payload = _json_object(raw)
                if "row" not in payload:
                    raise AuditRequestError(
                        'audit-one-row body must be {"row": {...}}')
                with obs.span("serve.request", route="audit-one-row"):
                    result = service.audit_row(payload["row"])
                self._send_json(200, result)
            elif self.path == "/audit-batch":
                payload = _json_object(raw)
                if "rows" not in payload:
                    raise AuditRequestError(
                        'audit-batch body must be {"rows": [{...}, ...]}')
                with obs.span("serve.request", route="audit-batch"):
                    results = service.audit_batch(payload["rows"])
                self._send_json(200, {"results": results})
            else:
                self._fail(404, f"unknown path {self.path!r}")
        except AuditRequestError as exc:
            # Already counted on serve.errors when raised inside the
            # service; body/shape errors raised here are not, so count
            # uniformly through _fail only for the latter.
            if self.path in ("/audit-one-row", "/audit-batch") \
                    and _counted_by_service(exc):
                self._send_json(400, {"error": str(exc)})
            else:
                self._fail(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unhandled error serving %s", self.path)
            self._fail(500, f"internal error: {type(exc).__name__}: {exc}")


def _json_object(raw: bytes) -> dict:
    try:
        payload = json.loads(raw or b"null")
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise AuditRequestError(f"request body is not JSON: {exc}") \
            from None
    if not isinstance(payload, dict):
        raise AuditRequestError("request body must be a JSON object")
    return payload


def _counted_by_service(exc: AuditRequestError) -> bool:
    """Whether the service already counted this error on serve.errors."""
    return getattr(exc, "_counted", False)


def serve_forever(service: AuditService, host: str = "127.0.0.1",
                  port: int = 0, max_requests: int | None = None,
                  ready: threading.Event | None = None) -> AuditHTTPServer:
    """Run the HTTP server until shutdown (or ``max_requests``).

    Blocks; returns the server object after the loop ends.  When
    launched on a helper thread with ``port=0``, pass ``ready``: the
    bound server is stashed on the event as ``ready.server`` before
    the event is set, so the launching thread can read the chosen
    address (and call ``shutdown()``) while the loop runs.
    """
    server = AuditHTTPServer((host, port), service,
                             max_requests=max_requests)
    if ready is not None:
        ready.server = server
        ready.set()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return server
