"""``store_report``: about 3,000 synthetic cells written to a ``file:``
and a ``sqlite:`` store, then a fixed report mix rendered from each by
``repro report``.

The results come from ``synth_result`` in ``benchmarks/bench_report.py``,
which derives them from each cell's fingerprint, so no model is fitted
and the store and report layers do nearly all the work.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from pathlib import Path

from measure import (instrument_layers, layer_metrics, layer_seconds,
                     median, total_s)

from repro import cli, obs
from repro.engine import ResultCache, ScenarioGrid
from repro.registry import APPROACHES

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_report import synth_result  # noqa: E402

DATASETS = ("adult", "compas", "german")
ROWS = (1000, 2000, 4000, 8000)
#: Grid seeds per workload seed: 3 datasets x 19 approaches x 4 row
#: counts x 13 seeds = 2,964 cells, about the paper grid's size.
SEEDS = 13
#: The report mix, as ``repro report`` arguments after ``--store URI``:
#: the default tables, an approach x rows pivot and the Fig. 8 overhead
#: series; then the same pivot alone, filtered with ``--where``.
MIX = (["--pivot", "approach", "rows", "accuracy", "--overhead", "rows"],
       ["--where", "dataset=compas", "--no-tables",
        "--pivot", "approach", "rows", "accuracy"])
#: A run is rounds of: a fresh store per backend filled, then this many
#: report mixes on each.  Rounds repeat for the run's seconds, so fills
#: and mixes are sampled across all of it, and a slow stretch of the
#: machine sets few of the samples.
ROUND_MIXES = 2
MIN_ROUNDS = 2
#: Puts per timed chunk of a fill; a backend's fill rate is the median
#: over its chunks.
FILL_CHUNK = 247


def report_mix(cache: ResultCache) -> tuple[str, list[int]]:
    """Run the mix through ``repro report``; returns what it printed,
    with the store's location masked so that both backends must print
    the same text, and the exit codes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [cli.main(["report", "--store", cache.uri, *args])
                 for args in MIX]
    return out.getvalue().replace(cache.location, "STORE"), codes


class StoreReport:
    def __init__(self, seed: int, work):
        self.seed = seed
        self.work = work
        self.caches: list[ResultCache] = []

    def setup(self) -> None:
        grid = ScenarioGrid(
            datasets=list(DATASETS),
            approaches=[None, *APPROACHES.keys(group="main")],
            seeds=[self.seed * SEEDS + i for i in range(SEEDS)],
            rows=list(ROWS), causal_samples=4000)
        self.jobs = grid.expand()
        self.results = [synth_result(job) for job in self.jobs]

    def close(self) -> None:
        for cache in self.caches:
            cache.close()

    def _round(self) -> dict:
        """Fill a fresh store per backend, then render the report mix
        from each :data:`ROUND_MIXES` times.  The wall time is that of
        the timed fills and mixes."""
        tag = len(self.caches)
        stores = {"file": ResultCache(self.work / f"file-{tag}"),
                  "sqlite": ResultCache(f"sqlite:{self.work}/s-{tag}.db")}
        self.caches += stores.values()
        wall = 0.0
        fill = {kind: [] for kind in stores}
        for kind, cache in stores.items():
            for first in range(0, len(self.jobs), FILL_CHUNK):
                chunk = range(first, min(first + FILL_CHUNK, len(self.jobs)))
                t = time.perf_counter()
                for i in chunk:
                    cache.put(self.jobs[i], self.results[i])
                took = time.perf_counter() - t
                fill[kind].append(len(chunk) / took)
                wall += took
            # Write this fill back now, untimed, or sqlite's checkpoint
            # fsyncs flush it inside the next fill or the mixes.
            os.sync()
        times = {kind: [] for kind in stores}
        problems = []
        for _ in range(ROUND_MIXES):
            texts = {}
            for kind, cache in stores.items():
                t = time.perf_counter()
                texts[kind], codes = report_mix(cache)
                times[kind].append(time.perf_counter() - t)
                wall += times[kind][-1]
                if any(codes):
                    problems.append(f"repro report on the {kind} store "
                                    f"exited with {codes}")
            if texts["file"] != texts["sqlite"]:
                problems.append("file and sqlite stores render the report "
                                "mix differently")
        for kind, cache in stores.items():
            if len(cache) != len(self.jobs):
                problems.append(f"{kind} store holds {len(cache)} cells, "
                                f"{len(self.jobs)} written")
        return {"fill": fill, "times": times, "wall": wall,
                "problems": problems,
                # puts, mixes and one row count check per backend
                "attempted": 2 * (len(self.jobs) + ROUND_MIXES + 1)}

    def run(self, seconds: float) -> dict:
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(self._round())
            if (len(rounds) >= MIN_ROUNDS and time.perf_counter() - start
                    + median(r["wall"] for r in rounds) > seconds):
                break
        fill = {kind: [rate for r in rounds for rate in r["fill"][kind]]
                for kind in ("file", "sqlite")}
        times = {kind: [t for r in rounds for t in r["times"][kind]]
                 for kind in ("file", "sqlite")}
        pairs = [f + s for f, s in zip(times["file"], times["sqlite"])]
        chunks, n = len(fill["sqlite"]), len(pairs)
        problems = [m for r in rounds for m in r["problems"]]
        return {
            "detail": [
                ["fill_sqlite_cells_per_s", median(fill["sqlite"]), "1/s",
                 chunks, "throughput_per_s"],
                ["report_ms", median(pairs) * 1e3, "ms", n, "op_p50_ms"],
                # Not gated: on the checkout's disk the file fill swung
                # by up to 3x between runs.
                ["fill_file_cells_per_s", median(fill["file"]), "1/s",
                 chunks, None],
                ["report_file_ms", median(times["file"]) * 1e3, "ms", n,
                 None],
                ["report_sqlite_ms", median(times["sqlite"]) * 1e3, "ms",
                 n, None]],
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": len(problems),
            "problems": problems,
            "digest": None,
            "plan": {"round_wall": median(r["wall"] for r in rounds)},
        }

    def trace(self, plan: dict) -> dict:
        """One round with tracing on: a fixed amount of work, so the
        store counters repeat exactly."""
        instrument_layers()
        with obs.recording() as rec:
            out = self._round()
        layers = layer_metrics(rec.spans, rec.counters)
        layers.update({
            # Per report mix on one backend.
            "report.render_ms": total_s(rec.spans, "bench.report.render")
            * 1e3 / (2 * ROUND_MIXES),
            # What the store calls and the table rendering leave of the
            # timed fills and mixes is the CLI's own work (argument
            # parsing, opening the store, counting its cells) and the
            # put loops.
            "unattributed_share": 1 - layer_seconds(rec.spans) / out["wall"],
            "obs.trace_overhead_pct": (out["wall"] / plan["round_wall"] - 1)
            * 100,
        })
        problems = list(out["problems"])
        if layers["store.rows"] != 2 * len(self.jobs):
            problems.append(f"store.rows {layers['store.rows']} != "
                            f"{2 * len(self.jobs)} cells written")
        return {"layers": layers, "attempted": out["attempted"] + 1,
                "failed": len(problems), "problems": problems}
