"""HTTP front end: routes, parity with the in-process service,
error mapping, request-cap shutdown, keep-alive framing."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import obs
from repro.serve import AuditService, serve_forever
from repro.serve import http as serve_http
from repro.serve.http import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def service(serving_components):
    return AuditService(serving_components)


@pytest.fixture
def live_server(service):
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever, args=(service,),
        kwargs={"port": 0, "ready": ready}, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not bind"
    server = ready.server
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    thread.join(10)


def get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def canonical(value):
    return json.dumps(value, sort_keys=True)


def connect(url):
    """One keep-alive connection to the server at ``url``."""
    return http.client.HTTPConnection(urllib.parse.urlsplit(url).netloc,
                                      timeout=30)


def exchange(conn, method, path, body=None):
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def raw_reply(url, request: bytes) -> bytes:
    """Send raw request bytes on a fresh socket and read until the
    server closes it."""
    split = urllib.parse.urlsplit(url)
    with socket.create_connection((split.hostname, split.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def raw_exchange(url, request: bytes) -> tuple[int | None, dict]:
    """:func:`raw_reply`'s status (``None`` for a status-less HTTP/0.9
    reply) and JSON body."""
    reply = raw_reply(url, request)
    if not reply.startswith(b"HTTP/"):
        return None, json.loads(reply)
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestRoutes:
    def test_healthz(self, live_server, serving_job):
        status, body = get(live_server + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["fingerprint"] == serving_job.fingerprint
        assert body["dataset"] == "german"

    def test_manifest(self, live_server, serving_components):
        status, body = get(live_server + "/manifest")
        assert status == 200
        assert body["nodes"] == serving_components.meta["nodes"]

    def test_unknown_route_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(live_server + "/nope")
        assert excinfo.value.code == 404

    def test_unknown_post_route_404(self, live_server):
        status, body = post(live_server + "/nope", {})
        assert status == 404
        assert "unknown path" in body["error"]


class TestAuditParity:
    def test_http_matches_in_process(self, live_server, service,
                                     audit_rows):
        expected = service.audit_batch(audit_rows)
        status, one = post(live_server + "/audit-one-row",
                           {"row": audit_rows[0]})
        assert status == 200
        assert json.dumps(one, sort_keys=True) == \
            json.dumps(expected[0], sort_keys=True)
        status, batch = post(live_server + "/audit-batch",
                             {"rows": audit_rows})
        assert status == 200
        assert json.dumps(batch["results"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)


class TestErrors:
    def test_malformed_json_400(self, live_server):
        request = urllib.request.Request(
            live_server + "/audit-one-row", data=b"{not json")
        with obs.recording() as rec:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "not JSON" in body["error"]
        assert rec.counters["serve.errors"] == 1

    def test_missing_row_key_400(self, live_server):
        status, body = post(live_server + "/audit-one-row", {"x": 1})
        assert status == 400
        assert '"row"' in body["error"]

    def test_bad_row_400_counted_once(self, live_server):
        with obs.recording() as rec:
            status, body = post(live_server + "/audit-one-row",
                                {"row": {"bogus": 1}})
        assert status == 400
        assert "missing required columns" in body["error"]
        assert rec.counters["serve.errors"] == 1


class TestMaxRequests:
    def test_shuts_down_after_cap(self, service):
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever, args=(service,),
            kwargs={"port": 0, "max_requests": 2, "ready": ready},
            daemon=True)
        thread.start()
        assert ready.wait(10)
        host, port = ready.server.server_address[:2]
        base = f"http://{host}:{port}"
        get(base + "/healthz")
        get(base + "/manifest")
        thread.join(10)
        assert not thread.is_alive()
        assert ready.server.requests_handled == 2

    def test_last_keep_alive_reply_arrives_whole(self, service,
                                                 audit_rows):
        # The reply that reaches the cap starts the shutdown, so it
        # must be on the wire before it counts.
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever, args=(service,),
            kwargs={"port": 0, "max_requests": 2, "ready": ready},
            daemon=True)
        thread.start()
        assert ready.wait(10)
        host, port = ready.server.server_address[:2]
        conn = connect(f"http://{host}:{port}")
        assert exchange(conn, "GET", "/healthz")[0] == 200
        status, verdict = exchange(conn, "POST", "/audit-one-row",
                                   json.dumps({"row": audit_rows[0]}))
        conn.close()
        assert status == 200
        assert canonical(verdict) == \
            canonical(service.audit_batch(audit_rows[:1])[0])
        thread.join(10)
        assert not thread.is_alive()
        assert ready.server.requests_handled == 2


class TestKeepAlive:
    def test_round_trips_do_not_wait_for_delayed_ack(self, live_server):
        # A response sent as two small writes with Nagle on waits ~40 ms
        # for the client's delayed ACK; one flush with TCP_NODELAY does
        # not wait at all.
        conn = connect(live_server)
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            status, _ = exchange(conn, "GET", "/healthz")
            latencies.append(time.perf_counter() - start)
            assert status == 200
        conn.close()
        assert statistics.median(latencies) < 0.020

    def test_one_connection_stays_framed(self, live_server, service,
                                         audit_rows):
        goldens = service.audit_batch(audit_rows)
        one_row = json.dumps({"row": audit_rows[0]})
        sequence = [
            ("GET", "/healthz", None, 200),
            ("POST", "/audit-one-row", one_row, 200),
            ("POST", "/audit-batch", json.dumps({"rows": audit_rows}), 200),
            ("POST", "/audit-one-row", "{not json", 400),
            ("POST", "/nope", one_row, 404),
            ("POST", "/audit-one-row", one_row, 200),
            ("POST", "/audit-one-row", b"\xc3\x28", 400),  # not UTF-8
            ("GET", "/healthz", "a body nobody reads", 200),
            ("POST", "/audit-one-row", one_row, 200),
        ]
        conn = connect(live_server)
        conn.connect()
        sock = conn.sock
        for method, path, body, want in sequence:
            status, reply = exchange(conn, method, path, body)
            assert status == want, (method, path, reply)
            assert conn.sock is sock, f"{method} {path} closed the connection"
            if path == "/audit-one-row" and status == 200:
                assert canonical(reply) == canonical(goldens[0])
            elif path == "/audit-batch":
                assert canonical(reply["results"]) == canonical(goldens)
            elif status != 200:
                assert "error" in reply
        conn.close()

    def test_expect_100_continue_is_not_buffered(self, live_server,
                                                 audit_rows):
        # The client sends no body until the interim 100 arrives, so it
        # must leave at once rather than with the final response.
        split = urllib.parse.urlsplit(live_server)
        body = json.dumps({"row": audit_rows[0]}).encode()
        with socket.create_connection((split.hostname, split.port),
                                      timeout=10) as sock, \
                sock.makefile("rb") as reply:
            sock.sendall(b"POST /audit-one-row HTTP/1.1\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert reply.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reply.readline() == b"\r\n"
            sock.sendall(body)
            assert reply.readline() == b"HTTP/1.1 200 OK\r\n"


ONE_ROW = b"POST /audit-one-row HTTP/1.1\r\n"
HUGE = 10 ** 15


def oversized(length: int) -> bytes:
    """A one-row request whose header announces ``length`` body bytes
    (none follow: the server must answer without reading them)."""
    return ONE_ROW + f"Content-Length: {length}\r\n\r\n".encode()


class TestFraming:
    @pytest.mark.parametrize("request_bytes, status, message", [
        (ONE_ROW + b"Content-Length: abc\r\n\r\n{}", 400,
         "Content-Length header must be a non-negative integer, "
         "got 'abc'"),
        (ONE_ROW + b"Content-Length: -5\r\n\r\n{}", 400,
         "Content-Length header must be a non-negative integer, "
         "got '-5'"),
        (ONE_ROW + b"Transfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", 411,
         "Transfer-Encoding is not supported; send the body with a "
         "Content-Length header"),
        (b"PUT /audit-one-row HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
         501, "Unsupported method ('PUT')"),
        (b"GET /healthz HTTP/x\r\n\r\n", None,
         "Bad request version ('HTTP/x')"),
        (oversized(HUGE), 413, f"request body of {HUGE} bytes exceeds "
                               f"the {MAX_BODY_BYTES}-byte limit"),
        (oversized(MAX_BODY_BYTES + 1), 413,
         f"request body of {MAX_BODY_BYTES + 1} bytes exceeds the "
         f"{MAX_BODY_BYTES}-byte limit"),
    ], ids=["length-not-integer", "length-negative", "chunked",
            "unsupported-method", "bad-request-line", "length-huge",
            "length-over-cap"])
    def test_unframeable_request_fails_by_name_and_closes(
            self, live_server, request_bytes, status, message):
        with obs.recording() as rec:
            # raw_exchange returns only once the server has closed.
            got_status, body = raw_exchange(live_server, request_bytes)
        assert got_status == status
        assert body == {"error": message}
        assert rec.counters["serve.errors"] == 1
        assert get(live_server + "/healthz")[0] == 200

    def test_stalled_body_gets_408_and_closes(self, live_server,
                                              monkeypatch):
        monkeypatch.setattr(serve_http._Handler, "timeout", 0.3)
        with obs.recording() as rec:
            # 10 of the 100 announced bytes, then silence; raw_exchange
            # returns only once the server has closed.
            status, body = raw_exchange(
                live_server, ONE_ROW + b"Content-Length: 100\r\n\r\n"
                + b"0123456789")
        assert status == 408
        assert body == {"error": "request body not received within 0.3 s"}
        assert rec.counters["serve.errors"] == 1
        assert get(live_server + "/healthz")[0] == 200

    def test_idle_keep_alive_connection_is_closed(self, live_server,
                                                  monkeypatch):
        monkeypatch.setattr(serve_http._Handler, "timeout", 0.3)
        conn = connect(live_server)
        assert exchange(conn, "GET", "/healthz")[0] == 200
        # Past the deadline the server closes the idle connection.
        assert conn.sock.recv(1) == b""
        conn.close()

    def test_head_reply_has_no_body(self, live_server):
        reply = raw_reply(live_server, b"HEAD /healthz HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert reply.endswith(b"\r\n\r\n")

    def test_client_may_finish_an_unread_body(self, live_server):
        # The 411 goes out with 64 KiB of a chunked body unread.  The
        # server drains it rather than resetting the connection, so a
        # client that reads the reply first can still send the rest.
        split = urllib.parse.urlsplit(live_server)
        with socket.create_connection((split.hostname, split.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /audit-one-row HTTP/1.1\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         b"10000\r\n" + b"x" * 0x10000)
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
            time.sleep(0.1)  # past the close of a server that resets
            sock.sendall(b"\r\n0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 411 ")

    def test_chunked_body_does_not_garble_the_next_reply(self,
                                                         live_server):
        conn = connect(live_server)
        conn.request("POST", "/audit-one-row", body=iter([b"{}"]),
                     encode_chunked=True)
        response = conn.getresponse()
        assert response.status == 411
        assert "Content-Length" in json.loads(response.read())["error"]
        assert exchange(conn, "GET", "/healthz")[0] == 200
        conn.close()
