"""Sweep engine demo: declare a grid, run it in parallel, hit the cache.

Declares a small (dataset × approach × seed) scenario as a
``SweepSpec`` — the same mapping could live in a JSON/YAML file and
run via ``python -m repro sweep --config`` — executes it over two
worker processes with a content-addressed result cache, prints the
seed-averaged Figure-7-style table, and then re-runs the identical
spec to show that every cell is served from the cache with no
pipeline refits.

Run:  python examples/sweep_demo.py
"""

import dataclasses
import tempfile

from repro.api import SweepSpec
from repro.engine import grid_table


def main() -> None:
    spec = SweepSpec.from_config({
        "sweep": {
            "datasets": ["german"],
            "approaches": [None, "KamCal-dp", "Hardt-eo"],
            "seeds": 2,          # seeds 0..1
            "rows": [600],
            "causal_samples": 500,
        },
        "engine": {"jobs": 2},
    })
    jobs = spec.expand()
    print(f"declared {spec.describe()}")
    print(f"first cell fingerprint: {jobs[0].fingerprint[:16]}…")

    with tempfile.TemporaryDirectory() as store:
        spec = dataclasses.replace(spec, store=store)

        print("\ncold cache, 2 workers:")
        report = spec.run(progress=lambda p: print(f"  {p.line()}"))
        print(f"  -> {report.summary()}")

        print()
        print(grid_table(report.outcomes, dataset="german",
                         title="german, seed-averaged over 2 seeds"))

        print("\nsame spec again, warm cache:")
        rerun = spec.run(progress=lambda p: print(f"  {p.line()}"))
        print(f"  -> {rerun.summary()}")
        assert rerun.cached_count == len(jobs), "expected all cache hits"
        print("every cell was a cache hit — nothing was refit")


if __name__ == "__main__":
    main()
