"""``serve_http``: ``python -m repro serve`` over HTTP.

One client drives the server in a closed loop over one keep-alive
connection: a run of one-row ``/audit-one-row`` requests, then a run of
32-row ``/audit-batch`` requests.  One connection, because an auditor
waits for each verdict, and because on 2 CPUs a second connection would
measure contention between the client and the handler threads rather
than the server.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import signal
import subprocess
import sys
import time

from measure import digest, layer_metrics, median, p50_ms, tail

from repro import obs
from repro.artifacts import build_serving_components, pack_bundle
from repro.datasets import train_test_split
from repro.engine import Job
from repro.registry import DATASETS
from repro.serve import AuditService

#: The packed cell, as ``benchmarks/bench_serve.py`` packs it.
CELL = {"dataset": "german", "approach": "Hardt-eo", "rows": 2000,
        "causal_samples": 300, "audit_params": {"n_particles": 25}}
BATCH = 32
#: Distinct request rows, drawn fresh at the workload seed and cycled.
POOL = 512
#: One-row requests in a run, at least: the p95 then has 10 samples
#: beyond it.
MIN_ONE_ROW = 200
MIN_BATCHES = 20
#: Shares of the run's seconds given to the one-row and the batch run;
#: both are steady well within them, and set-up takes the rest.
ONE_ROW_SHARE = 0.5
BATCH_SHARE = 0.25
HEADERS = {"Content-Type": "application/json"}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


class ServeHTTP:
    def __init__(self, seed: int, work):
        self.seed = seed
        self.work = work
        self.server: subprocess.Popen | None = None
        self.conn: http.client.HTTPConnection | None = None

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        job = Job(seed=self.seed, **CELL)
        start = time.perf_counter()
        components = build_serving_components(job)
        self.bundle = pack_bundle(job, self.work / "bundle",
                                  components=components)
        self.pack_s = time.perf_counter() - start
        required = AuditService(components).required
        dataset = DATASETS.build("german", n=2000, seed=self.seed + 1)
        table = train_test_split(dataset, seed=self.seed + 1).test.table
        self.pool = [{name: float(table[name][i]) for name in required}
                     for i in range(POOL)]
        self.ready_s = self._start_server()

    def _start_server(self, *extra: str) -> float:
        """Start ``repro serve`` on a free port; returns the seconds
        until ``/healthz`` answered."""
        start = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.bundle),
             "--port", "0", *extra], stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        address = re.search(r"http://([\d.]+):(\d+)/", line)
        if address is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.conn = http.client.HTTPConnection(address[1], int(address[2]),
                                               timeout=60)
        self.conn.request("GET", "/healthz")
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}: "
                               f"{body!r}")
        return time.perf_counter() - start

    def _stop_server(self, interrupt: bool = True) -> None:
        """Interrupt the server (it exits on Ctrl-C), or with
        ``interrupt=False`` wait for it to stop by itself, and reap it
        so its peak RSS reaches ``RUSAGE_CHILDREN``."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is None:
            return
        if interrupt and self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
        try:
            self.server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server = None

    def close(self) -> None:
        self._stop_server()

    # -- the closed loop -------------------------------------------------
    def _post(self, path: str, payload: dict):
        body = json.dumps(payload)
        start = time.perf_counter()
        try:
            self.conn.request("POST", path, body=body, headers=HEADERS)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()  # the next request reconnects
            return None, repr(exc).encode(), math.inf
        return response.status, data, time.perf_counter() - start

    def _loop(self, count: int | None, seconds: float, minimum: int,
              request) -> tuple[list, float]:
        """Closed loop of ``request(k)`` until ``count`` requests, or
        until ``seconds`` have passed and at least ``minimum`` ran."""
        records = []
        start = time.perf_counter()
        while True:
            records.append(request(len(records)))
            n = len(records)
            if (n >= count if count is not None else
                    n >= minimum and time.perf_counter() - start >= seconds):
                return records, time.perf_counter() - start

    def _one_row(self, k: int):
        index = k % POOL
        return (index, *self._post("/audit-one-row",
                                   {"row": self.pool[index]}))

    def _batch(self, k: int):
        indices = [(k * BATCH + j) % POOL for j in range(BATCH)]
        return (indices, *self._post(
            "/audit-batch", {"rows": [self.pool[i] for i in indices]}))

    def _drive(self, fixed: bool, seconds: float):
        """The one-row run, then the batch run: each for its share of
        ``seconds``, or with ``fixed`` exactly its minimum count."""
        one, one_s = self._loop(MIN_ONE_ROW if fixed else None,
                                seconds * ONE_ROW_SHARE, MIN_ONE_ROW,
                                self._one_row)
        batches, batch_s = self._loop(MIN_BATCHES if fixed else None,
                                      seconds * BATCH_SHARE, MIN_BATCHES,
                                      self._batch)
        return one, one_s, batches, batch_s

    # -- checks ----------------------------------------------------------
    def _check(self, service: AuditService, one, batches):
        """Every response must equal, as canonical JSON, the in-process
        ``audit_batch`` verdicts for its rows; a wrong or failed
        one-row response counts as an infinite latency."""
        goldens = [canonical(v) for v in service.audit_batch(self.pool)]
        problems, latencies, batch_ok = [], [], 0

        def decoded(data):
            try:
                return json.loads(data)
            except ValueError:
                return None

        for index, status, data, rtt in one:
            if status == 200 and canonical(decoded(data)) == goldens[index]:
                latencies.append(rtt)
            else:
                latencies.append(math.inf)
                problems.append(f"one-row row {index}: status {status} "
                                f"{data[:200]!r}")
        for indices, status, data, _ in batches:
            body = decoded(data) if status == 200 else None
            results = body.get("results") if isinstance(body, dict) else None
            if (isinstance(results, list) and [canonical(r) for r in results]
                    == [goldens[i] for i in indices]):
                batch_ok += 1
            else:
                problems.append(f"batch at row {indices[0]}: status "
                                f"{status} {data[:200]!r}")
        return latencies, batch_ok, problems, digest(goldens)

    # -- runs ------------------------------------------------------------
    def run(self, seconds: float) -> dict:
        one, one_s, batches, batch_s = self._drive(False, seconds)
        self._stop_server()
        service = AuditService.from_bundle(self.bundle)
        latencies, batch_ok, problems, verdicts = self._check(service, one,
                                                              batches)
        p50 = median(latencies) * 1e3
        p95, beyond = tail(latencies, 0.95)
        rows_per_s = batch_ok * BATCH / batch_s
        return {
            "detail": [
                ["req_p50_ms", p50, "ms", len(latencies), "op_p50_ms"],
                ["req_p95_ms", p95 * 1e3, "ms",
                 f"{len(latencies)}, {beyond} beyond", None],
                ["batch_rows_per_s", rows_per_s, "1/s", len(batches),
                 "throughput_per_s"]],
            "attempted": len(one) + len(batches),
            "failed": len(problems),
            "problems": problems,
            "digest": verdicts,
            "plan": {"one_row_s": one_s / len(one),
                     "batch_s": batch_s / len(batches), "req_p50_ms": p50},
        }

    def trace(self, plan: dict) -> dict:
        self._stop_server()
        trace_dir = self.work / "server-trace"
        # A fixed request count, so the server's counters repeat
        # exactly; /healthz counts as one request.
        requests = 1 + MIN_ONE_ROW + MIN_BATCHES
        self._start_server("--trace", str(trace_dir), "--max-requests",
                           str(requests))
        one, one_s, batches, batch_s = self._drive(True, 0.0)
        self._stop_server(interrupt=False)
        served, = (scope for scope in obs.load_trace(trace_dir)["scopes"]
                   if scope["name"] == "serve")
        spans = served["spans"]

        start = time.perf_counter()
        service = AuditService.from_bundle(self.bundle)
        load_s = time.perf_counter() - start
        _, _, problems, _ = self._check(service, one, batches)
        row_times = []
        for index, *_ in one:
            start = time.perf_counter()
            service.audit_row(self.pool[index])
            row_times.append(time.perf_counter() - start)
        batch_times = []
        for indices, *_ in batches:
            rows = [self.pool[i] for i in indices]
            start = time.perf_counter()
            service.audit_batch(rows)
            batch_times.append(time.perf_counter() - start)

        wall = one_s + batch_s
        # The timed run's seconds per request, for the same requests.
        untraced = (plan["one_row_s"] * len(one)
                    + plan["batch_s"] * len(batches))
        round_trips = sum(r[-1] for r in one + batches)
        layers = layer_metrics(spans, served["counters"])
        layers.update({
            "serve.audit_row_ms": median(row_times) * 1e3,
            "serve.audit_batch_ms": median(batch_times) * 1e3,
            "serve.transport_ms": plan["req_p50_ms"]
            - median(row_times) * 1e3,
            "serve.decode_ms": p50_ms(spans, "serve.decode", rows=1),
            "serve.situation_ms": p50_ms(spans, "serve.situation", rows=1),
            "serve.counterfactual_ms": p50_ms(spans, "serve.counterfactual",
                                              rows=1),
            "artifacts.pack_s": self.pack_s,
            "artifacts.bundle_load_s": load_s,
            "serve.ready_s": self.ready_s,
            # A round trip is the handler's service time plus HTTP and
            # TCP; what is left is the client's own loop.
            "unattributed_share": 1 - round_trips / wall,
            "obs.trace_overhead_pct": (wall / untraced - 1) * 100,
        })
        return {"layers": layers, "attempted": len(one) + len(batches),
                "failed": len(problems), "problems": problems}
