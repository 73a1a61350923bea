"""Perf benchmark: the online audit path (``repro serve``).

Packs a serving bundle for one german-credit cell, loads it back
through :class:`repro.serve.AuditService`, and measures the two
request shapes the HTTP front end exposes, first in-process and then
over HTTP:

* **audit-one-row** — single-row requests in a tight loop; reported as
  req/s plus p50/p95/p99 latency in milliseconds.  This is the
  serving hot path: one situation-testing k-NN probe against the
  frozen reference plus one ``2 × n_particles + 1``-world pipeline
  call per request.
* **audit-batch** — fixed-size batches; reported as rows/s.  The
  batch path amortises request decoding and the k-NN probe, so its
  per-row rate bounds the one-row rate from above.

The in-process timings (``results.one_row``/``results.batch``) call
the service directly with telemetry disabled, so they isolate the
audit arithmetic from socket and JSON-framing costs.  The HTTP stage
(``results.http``) runs ``serve_forever`` on a thread and sends the
same requests over one keep-alive ``http.client`` connection, as an
auditor's client does.  There each one-row request is also audited in
process just before it is sent; ``transport_p50_ms`` is the HTTP
one-row p50 minus that interleaved ``in_process_p50_ms``.  The
recorded ``serve.requests``/``serve.rows`` counters from a short
traced pass are embedded for the CI counter gate.  Results are
written to ``BENCH_serve.json`` — the repo's perf-trajectory record
for this path.

Run:  PYTHONPATH=src python benchmarks/bench_serve.py
      (--one-row-requests 300 --out BENCH_serve.ci.json for the CI
      smoke variant)

``--assert-no-regression BASELINE.json`` holds one-row req/s and
batch rows/s to ``--regression-slack`` of the committed baseline's,
gated on matching knobs (rows / particles / batch size) so a
configuration drift is skipped loudly rather than compared
meaninglessly.  It also holds the HTTP one-row p50 to at most
:data:`MAX_HTTP_RATIO` times the interleaved in-process p50 of the
same run, which needs no comparable baseline.  A violation exits
non-zero so CI fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np
from common import (comparable, exit_on_regression, floors, machine_block,
                    timed)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"
#: How many times the in-process one-row p50 the HTTP one may take.
#: HTTP adds well under a millisecond to a ~1.5 ms audit; a response
#: held back by the client's ~40 ms delayed ACK reads as about 30×.
MAX_HTTP_RATIO = 3.0


def build_service(rows: int, n_particles: int, seed: int = 0):
    """Pack a bundle for one cell and load the service from it, so the
    benchmark exercises the exact object a ``repro serve`` process
    runs."""
    import tempfile

    from repro.artifacts import build_serving_components, pack_bundle
    from repro.engine import Job
    from repro.serve import AuditService

    job = Job(dataset="german", approach="Hardt-eo", model="lr",
              seed=seed, rows=rows, causal_samples=300,
              audit_params={"n_particles": n_particles})
    pack_s, components = timed(lambda: build_serving_components(job))
    with tempfile.TemporaryDirectory() as tmp:
        bundle = pack_bundle(job, pathlib.Path(tmp) / "bundle",
                             components=components)
        load_s, service = timed(
            lambda: AuditService.from_bundle(bundle))
    return service, round(pack_s, 4), round(load_s, 4)


def request_rows(service, count: int, seed: int = 1) -> list[dict]:
    """Synthesize ``count`` valid request rows from the dataset's own
    distribution (fresh draw, not the training split)."""
    from repro.datasets import train_test_split
    from repro.registry import DATASETS

    dataset = DATASETS.build("german", n=max(2 * count, 400), seed=seed)
    split = train_test_split(dataset, seed=seed)
    table = split.test.table
    n = min(count, split.test.n_rows)
    rows = [{name: float(table[name][i]) for name in service.required}
            for i in range(n)]
    while len(rows) < count:
        rows.extend(rows[:count - len(rows)])
    return rows


def latency_stats(latencies: list[float], seconds: float) -> dict:
    ms = np.sort(np.asarray(latencies)) * 1e3
    return {
        "requests": len(latencies),
        "req_per_s": round(len(latencies) / seconds, 1),
        "p50_ms": round(float(np.percentile(ms, 50)), 3),
        "p95_ms": round(float(np.percentile(ms, 95)), 3),
        "p99_ms": round(float(np.percentile(ms, 99)), 3),
        "max_ms": round(float(ms[-1]), 3),
    }


def bench_one_row(service, rows: list[dict], warmup: int) -> dict:
    for row in rows[:warmup]:
        service.audit_row(row)
    latencies = []
    start = time.perf_counter()
    for row in rows:
        t0 = time.perf_counter()
        service.audit_row(row)
        latencies.append(time.perf_counter() - t0)
    return latency_stats(latencies, time.perf_counter() - start)


def bench_batch(audit_batch, rows: list[dict], batch_size: int) -> dict:
    batches = [rows[i:i + batch_size]
               for i in range(0, len(rows) - batch_size + 1, batch_size)]
    audit_batch(batches[0])  # warmup
    start = time.perf_counter()
    audited = 0
    for batch in batches:
        audit_batch(batch)
        audited += len(batch)
    total = time.perf_counter() - start
    return {
        "batch_size": batch_size,
        "batches": len(batches),
        "rows_per_s": round(audited / total, 1),
        "batch_p50_ms": round(total / len(batches) * 1e3, 3),
    }


def bench_http(service, rows: list[dict], warmup: int,
               batch_size: int) -> dict:
    """The one-row and batch loops over HTTP: ``serve_forever`` on a
    thread, driven over one keep-alive ``http.client`` connection.

    Each one-row request is also audited in process just before it is
    sent, so ``in_process_p50_ms`` and the HTTP p50 come from the same
    seconds: on a shared box the p50 drifts by more than the transport
    between two loops run one after the other."""
    import http.client
    import threading

    from repro.serve import serve_forever

    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever, args=(service,),
        kwargs={"port": 0, "ready": ready}, daemon=True)
    thread.start()
    if not ready.wait(10):
        raise SystemExit("the HTTP server did not bind")
    host, port = ready.server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)

    def post(path: str, payload: dict) -> bytes:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise SystemExit(f"{path} answered {response.status}: "
                             f"{body[:200]!r}")
        return body

    try:
        for row in rows[:warmup]:
            post("/audit-one-row", {"row": row})
        local, remote = [], []
        for row in rows:
            t0 = time.perf_counter()
            service.audit_row(row)
            t1 = time.perf_counter()
            post("/audit-one-row", {"row": row})
            local.append(t1 - t0)
            remote.append(time.perf_counter() - t1)
        batch = bench_batch(
            lambda batch: post("/audit-batch", {"rows": batch}),
            rows, batch_size)
    finally:
        conn.close()
        ready.server.shutdown()
        thread.join(10)
    one_row = latency_stats(remote, sum(remote))
    in_process = round(float(np.median(local)) * 1e3, 3)
    return {"one_row": one_row, "batch": batch,
            "in_process_p50_ms": in_process,
            "transport_p50_ms": round(one_row["p50_ms"] - in_process, 3)}


def traced_counters(service, rows: list[dict]) -> dict:
    """A short instrumented pass; returns the serve.* counters (the CI
    gate checks these, not the headline timings)."""
    from repro import obs

    with obs.recording() as rec:
        service.audit_batch(rows[:8])
        for row in rows[:4]:
            service.audit_row(row)
    return {name: value for name, value in rec.counters.items()
            if name.startswith("serve.")}


def check_http_ratio(payload: dict) -> list[str]:
    """The HTTP one-row p50 against the in-process one, measured on the
    same rows in the same seconds."""
    http = payload["results"]["http"]
    local = http["in_process_p50_ms"]
    remote = http["one_row"]["p50_ms"]
    if remote <= MAX_HTTP_RATIO * local:
        return []
    return [f"http: one-row p50 {remote:.2f}ms is over "
            f"{MAX_HTTP_RATIO:g}x the in-process p50 {local:.2f}ms"]


def check_regression(payload: dict, baseline_path: pathlib.Path,
                     slack: float) -> list[str]:
    """Throughput floors vs a baseline record, knob-gated.

    One-row req/s and batch rows/s must each stay at or above
    ``baseline * slack``.  Latency percentiles are recorded but not
    gated — they follow 1/throughput and double-gating them only adds
    noise sensitivity.
    """
    baseline = json.loads(baseline_path.read_text())
    knobs = ("rows", "n_particles", "batch_size")
    if not comparable(payload, baseline, knobs,
                      "note: serve throughput checks skipped — "
                      "run/baseline configs differ ("
                      + ", ".join(f"{k}: run {payload.get(k)} vs "
                                  f"baseline {baseline.get(k)}"
                                  for k in knobs) + ")"):
        return []
    return floors(payload, baseline, (("one_row", "req_per_s"),
                                      ("batch", "rows_per_s")), slack)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=2000,
                        help="training rows for the packed cell")
    parser.add_argument("--particles", type=int, default=25,
                        help="counterfactual particles per request")
    parser.add_argument("--one-row-requests", type=int, default=2000,
                        help="measured audit-one-row requests")
    parser.add_argument("--warmup", type=int, default=50,
                        help="unmeasured warmup requests")
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--assert-no-regression", type=pathlib.Path,
                        default=None, metavar="BASELINE",
                        help="fail if throughput falls below "
                             "--regression-slack of this record's, or "
                             "HTTP one-row p50 exceeds "
                             f"{MAX_HTTP_RATIO:g}x the in-process p50")
    parser.add_argument("--regression-slack", type=float, default=0.5,
                        help="fraction of the baseline throughput that "
                             "must be retained (default 0.5)")
    args = parser.parse_args(argv)

    print(f"packing german cell (rows={args.rows}, "
          f"particles={args.particles}) ...", flush=True)
    service, pack_s, load_s = build_service(args.rows, args.particles)
    rows = request_rows(service, args.one_row_requests)
    print(f"  pack {pack_s:.2f}s  bundle load {load_s:.3f}s  "
          f"({len(rows)} request rows)", flush=True)

    one_row = bench_one_row(service, rows, args.warmup)
    print(f"  audit-one-row: {one_row['req_per_s']:.0f} req/s  "
          f"p50 {one_row['p50_ms']:.2f}ms  p95 {one_row['p95_ms']:.2f}ms"
          f"  p99 {one_row['p99_ms']:.2f}ms", flush=True)

    batch = bench_batch(service.audit_batch, rows, args.batch_size)
    print(f"  audit-batch(x{args.batch_size}): "
          f"{batch['rows_per_s']:.0f} rows/s  "
          f"batch p50 {batch['batch_p50_ms']:.1f}ms", flush=True)

    http = bench_http(service, rows, args.warmup, args.batch_size)
    print(f"  over HTTP (one keep-alive connection): one-row "
          f"p50 {http['one_row']['p50_ms']:.2f}ms  "
          f"p95 {http['one_row']['p95_ms']:.2f}ms  (in process "
          f"{http['in_process_p50_ms']:.2f}ms, transport "
          f"{http['transport_p50_ms']:.2f}ms)  "
          f"batch {http['batch']['rows_per_s']:.0f} rows/s", flush=True)

    counters = traced_counters(service, rows)
    payload = {
        "bench": "serve_audit",
        "schema": 2,
        "dataset": "german (synthetic generator)",
        "rows": args.rows,
        "n_particles": args.particles,
        "batch_size": args.batch_size,
        "pack_s": pack_s,
        "bundle_load_s": load_s,
        "machine": machine_block(),
        "results": {"one_row": one_row, "batch": batch, "http": http},
        "traced_counters": counters,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.assert_no_regression is not None:
        problems = check_http_ratio(payload) + check_regression(
            payload, args.assert_no_regression, args.regression_slack)
        exit_on_regression(problems, args.assert_no_regression,
                           args.regression_slack)


if __name__ == "__main__":
    main()
