"""End-to-end smoke of the online audit path (``repro serve``).

Loads a packed serving bundle, computes golden verdicts with the
in-process :class:`~repro.serve.AuditService`, then starts the HTTP
front end on an ephemeral port and replays the same rows over the
wire — both request shapes — on one keep-alive connection, as an
auditor's client sends them.  The smoke passes only if:

1. every ``/audit-one-row`` response is byte-identical (as canonical
   JSON) to the corresponding entry of the batch goldens;
2. the ``/audit-batch`` response matches the goldens as a whole;
3. a malformed request is rejected with HTTP 400;
4. a POST with a body to an unknown route gets 404, and the next
   request on the connection still gets its verdict;
5. the median of 20 ``/healthz`` round trips stays under 20 ms (a
   response held back by the client's delayed ACK takes ~40 ms);
6. the ``serve.requests`` / ``serve.errors`` telemetry counters account
   for exactly the traffic sent.

Any mismatch exits non-zero, so CI can gate on it directly.

Run:  PYTHONPATH=src python examples/serve_smoke.py BUNDLE_DIR
      (pack BUNDLE_DIR first: ``repro pack --store ... --out ...``)
"""

import http.client
import json
import statistics
import sys
import threading
import time

from repro import obs
from repro.datasets import train_test_split
from repro.registry import DATASETS
from repro.serve import AuditService, serve_forever

N_ROWS = 3
HEALTHZ_ROUND_TRIPS = 20
MAX_HEALTHZ_MEDIAN_MS = 20.0


def request_rows(service: AuditService) -> list[dict]:
    """Synthesize valid request rows from the bundle's own dataset
    (fresh draw — these rows were never seen at fit time)."""
    dataset = DATASETS.build(service.components.meta["dataset"],
                             n=400, seed=1)
    table = train_test_split(dataset, seed=1).test.table
    return [{name: float(table[name][i]) for name in service.required}
            for i in range(N_ROWS)]


def exchange(conn: http.client.HTTPConnection, method: str, path: str,
             payload: bytes | None = None) -> tuple[int, dict]:
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = response.read()
    if response.headers.get_content_type() != "application/json":
        return response.status, {}  # e.g. an HTML error page
    return response.status, json.loads(body)


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} BUNDLE_DIR", file=sys.stderr)
        return 2
    service = AuditService.from_bundle(sys.argv[1])
    print(f"loaded bundle {sys.argv[1]} "
          f"(cell {service.components.meta.get('job_label', '?')}, "
          f"{service.n_particles} particles)")
    rows = request_rows(service)
    goldens = service.audit_batch(rows)

    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever, args=(service,),
        kwargs={"port": 0, "ready": ready}, daemon=True)
    thread.start()
    if not ready.wait(10):
        print("FAIL: server did not bind", file=sys.stderr)
        return 1
    server = ready.server
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}")
    conn = http.client.HTTPConnection(host, port, timeout=60)

    def one_row_matches(i: int) -> bool:
        status, body = exchange(conn, "POST", "/audit-one-row",
                                json.dumps({"row": rows[i]}).encode())
        return status == 200 and (json.dumps(body, sort_keys=True)
                                  == json.dumps(goldens[i], sort_keys=True))

    failures = 0
    with obs.recording() as rec:
        for i in range(N_ROWS):
            if not one_row_matches(i):
                print(f"FAIL: one-row verdict {i} diverged from golden",
                      file=sys.stderr)
                failures += 1
        status, body = exchange(conn, "POST", "/audit-batch",
                                json.dumps({"rows": rows}).encode())
        if status != 200 or (
                json.dumps(body.get("results"), sort_keys=True)
                != json.dumps(goldens, sort_keys=True)):
            print("FAIL: batch verdicts diverged from goldens",
                  file=sys.stderr)
            failures += 1
        status, body = exchange(conn, "POST", "/audit-one-row", b"{not json")
        if status != 400:
            print(f"FAIL: malformed request got {status}, want 400",
                  file=sys.stderr)
            failures += 1
        # The 404's body must be read off the connection, or the next
        # request is parsed from the middle of it.
        status, body = exchange(conn, "POST", "/nope",
                                json.dumps({"row": rows[0]}).encode())
        if status != 404:
            print(f"FAIL: unknown route got {status}, want 404",
                  file=sys.stderr)
            failures += 1
        if not one_row_matches(0):
            print("FAIL: the verdict after the 404 diverged from golden",
                  file=sys.stderr)
            failures += 1
        round_trips = []
        for _ in range(HEALTHZ_ROUND_TRIPS):
            start = time.perf_counter()
            status, _ = exchange(conn, "GET", "/healthz")
            round_trips.append((time.perf_counter() - start) * 1e3)
            if status != 200:
                print(f"FAIL: /healthz got {status}", file=sys.stderr)
                failures += 1
        median_ms = statistics.median(round_trips)
        if median_ms > MAX_HEALTHZ_MEDIAN_MS:
            print(f"FAIL: keep-alive /healthz median {median_ms:.1f}ms, "
                  f"want <= {MAX_HEALTHZ_MEDIAN_MS:g}ms", file=sys.stderr)
            failures += 1
    conn.close()
    server.shutdown()
    thread.join(10)

    requests = rec.counters.get("serve.requests", 0)
    errors = rec.counters.get("serve.errors", 0)
    # The malformed request and the 404 fail before reaching the
    # service, so they show up on serve.errors only, not
    # serve.requests.
    expected_requests = N_ROWS + 2  # one-rows + batch + one after the 404
    if requests < expected_requests:
        print(f"FAIL: serve.requests = {requests}, "
              f"want >= {expected_requests}", file=sys.stderr)
        failures += 1
    if errors != 2:
        print(f"FAIL: serve.errors = {errors}, want 2 "
              "(the malformed request and the 404, once each)",
              file=sys.stderr)
        failures += 1

    if failures:
        print(f"serve smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"serve smoke OK: {N_ROWS + 1} one-row + 1 batch verdicts match "
          f"goldens on one keep-alive connection, 400 on malformed input, "
          f"404 keeps the connection framed, /healthz median "
          f"{median_ms:.2f}ms, counters requests={requests} "
          f"errors={errors}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
