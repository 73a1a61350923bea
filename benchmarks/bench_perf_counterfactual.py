"""Perf benchmark: the vectorized rung-3 audit vs the loop reference.

Times the counterfactual-fairness audit (batched abduction, two
predict calls per chunk) and the situation-testing audit (shared
block-matmul top-k kernel, ``repro.metrics.pairwise``) against the
retained loop references in ``repro.causal.reference`` /
``repro.metrics.reference``, at n ∈ {1k, 5k, 20k} rows of the
synthetic COMPAS dataset, and writes the result as
``BENCH_counterfactual.json`` — the repo's perf-trajectory record for
this hot path.

The headline timings run with telemetry *disabled* — exactly the
configuration ``--assert-no-regression`` guards — so a hold against
the committed baseline doubles as the proof that the instrumented
kernels' disabled-mode overhead stays under the noise floor.  A
separate traced pass (skippable with ``--no-phases``) then re-runs
both audits under ``repro.obs.recording`` and embeds the per-phase
span durations and kernel counters (``abduction.chunks``,
``pairwise.blocks``, ...) into each size's record.

The loop reference is skipped above ``--loop-max`` rows (it is the
point of this benchmark that the loop does not scale; the dense
situation-testing matrix alone is 3.2 GB at n=20k).

Run:  PYTHONPATH=src python benchmarks/bench_perf_counterfactual.py
      (--sizes 1000 20000 --particles 25 --out
      BENCH_counterfactual.ci.json for the CI smoke variant)

``--assert-no-regression BASELINE.json`` compares the run against a
committed baseline record: at every common size, the vectorized-path
speedup over the loop reference must stay within ``--regression-slack``
of the baseline's (ratios absorb machine differences better than raw
seconds do), and at sizes where the loop was skipped on both sides
(n=20k) the vectorized wall times themselves may not exceed
``baseline / slack`` — so the large-n paths are guarded even without
a loop to ratio against.  Checks are gated on the knobs the numbers
depend on (``cf_*`` needs matching particle counts, ``st_*`` matching
``k``/``block_size``) and skipped with a printed note otherwise — the
CI smoke runs reduced particles, so only its situation-testing
numbers are compared.  A violation exits non-zero so CI fails.
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
DEFAULT_OUT = REPO_ROOT / "BENCH_counterfactual.json"


def build_audit(size: int, seed: int = 0):
    """Dataset, SCM, and a fixed linear predictor mirroring the
    ``evaluate_counterfactual`` pipeline setup."""
    from repro.causal import CounterfactualSCM
    from repro.datasets import discretize_dataset, load_compas

    ds = discretize_dataset(load_compas(n=size, seed=seed), n_bins=4)
    nodes = ds.causal_graph.nodes
    cols = {n: ds.table[n].astype(float) for n in nodes}
    fit_start = time.perf_counter()
    scm = CounterfactualSCM.fit(cols, ds.causal_graph)
    fit_s = time.perf_counter() - fit_start

    features = [n for n in nodes if n != ds.label]
    weights = np.random.default_rng(7).normal(size=len(features))

    def predict(values: dict) -> np.ndarray:
        score = np.zeros_like(np.asarray(values[features[0]], dtype=float))
        for w, name in zip(weights, features):
            score = score + w * np.asarray(values[name], dtype=float)
        return (score > 0).astype(float)

    return ds, scm, cols, predict, fit_s


def traced_phases(ds, scm, cols, predict, n_particles: int, k: int,
                  block_size: int | None) -> tuple[dict, dict]:
    """Re-run both audits under a recorder; per-phase seconds and the
    merged kernel counters (not comparable to the untraced headline
    timings — this pass pays the instrumentation)."""
    from repro import obs
    from repro.metrics import counterfactual_fairness, situation_testing

    rng = np.random.default_rng
    with obs.recording() as rec:
        with obs.span("cf_audit"):
            counterfactual_fairness(
                scm, cols, ds.sensitive, ds.label, predict, rng(1),
                n_particles=n_particles, max_rows=None)
        with obs.span("situation_testing"):
            situation_testing(ds.X, ds.s, predict(cols), k=k,
                              block_size=block_size)
    snapshot = rec.snapshot()
    phases = {s["name"]: round(s["dur"], 4)
              for s in snapshot["spans"] if s["depth"] == 0}
    return phases, snapshot["counters"]


def bench_size(size: int, n_particles: int, k: int,
               run_loop: bool, block_size: int | None = None,
               collect_phases: bool = True) -> dict:
    from repro.metrics import counterfactual_fairness, situation_testing
    from repro.metrics.reference import (counterfactual_fairness_loop,
                                         situation_testing_loop)

    ds, scm, cols, predict, fit_s = build_audit(size)
    rng = np.random.default_rng
    entry: dict = {"rows": size, "fit_s": round(fit_s, 4)}

    cf_vec_s, cf_vec = timed(lambda: counterfactual_fairness(
        scm, cols, ds.sensitive, ds.label, predict, rng(1),
        n_particles=n_particles, max_rows=None))
    entry["cf_vectorized_s"] = round(cf_vec_s, 4)
    entry["cf_mean_gap"] = round(cf_vec.mean_gap, 6)

    y_hat = predict(cols)
    st_vec_s, st_vec = timed(lambda: situation_testing(
        ds.X, ds.s, y_hat, k=k, block_size=block_size))
    entry["st_vectorized_s"] = round(st_vec_s, 4)
    entry["st_mean_gap"] = round(st_vec.mean_gap, 6)

    if run_loop:
        cf_loop_s, cf_loop = timed(lambda: counterfactual_fairness_loop(
            scm, cols, ds.sensitive, ds.label, predict, rng(2),
            n_particles=n_particles, max_rows=None))
        entry["cf_loop_s"] = round(cf_loop_s, 4)
        entry["cf_loop_mean_gap"] = round(cf_loop.mean_gap, 6)
        entry["cf_speedup"] = round(cf_loop_s / cf_vec_s, 2)

        st_loop_s, st_loop = timed(lambda: situation_testing_loop(
            ds.X, ds.s, y_hat, k=k))
        entry["st_loop_s"] = round(st_loop_s, 4)
        entry["st_speedup"] = round(st_loop_s / st_vec_s, 2)
        # Discretized features produce tied distances, which top-k
        # selection and stable argsort break differently; the audits
        # agree up to that tie noise (exact parity is asserted on
        # tie-free data in the test-suite).
        assert abs(st_loop.mean_gap - st_vec.mean_gap) < 0.05, \
            "situation-testing parity violated beyond tie noise"

    if collect_phases:
        entry["phases"], entry["counters"] = traced_phases(
            ds, scm, cols, predict, n_particles, k, block_size)
    return entry


def check_regression(payload: dict, baseline_path: pathlib.Path,
                     slack: float) -> list[str]:
    """Regressions of a run ``payload`` vs a baseline record.

    Comparisons are gated on the knobs each number actually depends
    on, so a configuration drift between the run and the baseline is
    skipped loudly instead of producing a meaningless 50%-slack pass:

    * counterfactual-audit checks require matching ``n_particles``;
    * situation-testing checks require matching ``k`` and
      ``block_size``.

    Where both runs timed the loop reference, the speedup *ratio*
    must stay within ``slack`` of the baseline's (ratios absorb
    machine differences).  At sizes where neither did (above
    ``--loop-max``, e.g. the n=20k smoke), the vectorized wall time
    itself is held to ``baseline / slack``.
    """
    baseline_payload = json.loads(baseline_path.read_text())
    baseline = baseline_payload["results"]
    note = ("configs differ "
            f"(run {payload.get('n_particles')} particles / "
            f"k={payload.get('k')} / "
            f"block_size={payload.get('block_size')}, baseline "
            f"{baseline_payload.get('n_particles')} / "
            f"k={baseline_payload.get('k')} / "
            f"block_size={baseline_payload.get('block_size')})")
    groups = [prefix for prefix, knobs in
              (("cf", ("n_particles",)),
               ("st", ("k", "block_size")))
              if comparable(payload, baseline_payload, knobs,
                            f"note: {prefix}_* checks skipped — "
                            f"run/baseline {note}")]
    ratios = [(size, f"{prefix}_speedup")
              for size in payload["results"] if size in baseline
              for prefix in groups]
    # Speedup ratios where both runs timed the loop reference ...
    problems = floors(payload, baseline_payload,
                      [(size, ratio) for size, ratio in ratios
                       if ratio in payload["results"][size]
                       and ratio in baseline[size]],
                      slack, label="n={0}: {1}", digits=2, unit="x")
    # ... and the vectorized wall time itself where neither did.
    for size, ratio in ratios:
        entry, reference = payload["results"][size], baseline[size]
        if ratio in entry or ratio in reference:
            continue
        seconds = ratio.replace("_speedup", "_vectorized_s")
        if seconds not in entry or seconds not in reference:
            continue
        ceiling = reference[seconds] / slack
        if entry[seconds] > ceiling:
            problems.append(
                f"n={size}: {seconds} {entry[seconds]:.2f}s "
                f"exceeds {ceiling:.2f}s (baseline "
                f"{reference[seconds]:.2f}s / {slack:.0%} "
                "slack)")
    return problems


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1000, 5000, 20000])
    parser.add_argument("--particles", type=int, default=100)
    parser.add_argument("--k", type=int, default=10,
                        help="situation-testing neighbourhood size")
    parser.add_argument("--loop-max", type=int, default=5000,
                        help="largest size at which the loop reference "
                             "is also timed")
    parser.add_argument("--block-size", type=int, default=None,
                        metavar="N",
                        help="pairwise-kernel query rows per block for "
                             "situation testing (default: kernel "
                             "default)")
    parser.add_argument("--no-phases", action="store_true",
                        help="skip the traced pass that embeds "
                             "per-phase durations and kernel counters")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--assert-no-regression", type=pathlib.Path,
                        default=None, metavar="BASELINE",
                        help="fail if any speedup falls below "
                             "--regression-slack of this record's")
    parser.add_argument("--regression-slack", type=float, default=0.5,
                        help="fraction of the baseline speedup that "
                             "must be retained (default 0.5)")
    args = parser.parse_args(argv)

    results = {}
    for size in args.sizes:
        run_loop = size <= args.loop_max
        print(f"n={size}: benchmarking "
              f"({'with' if run_loop else 'without'} loop reference) ...",
              flush=True)
        results[str(size)] = bench_size(size, args.particles, args.k,
                                        run_loop,
                                        block_size=args.block_size,
                                        collect_phases=not args.no_phases)
        entry = results[str(size)]
        line = (f"  cf audit {entry['cf_vectorized_s']:.3f}s"
                f"  situation testing {entry['st_vectorized_s']:.3f}s")
        if run_loop:
            line += (f"  (loop: {entry['cf_loop_s']:.3f}s / "
                     f"{entry['st_loop_s']:.3f}s — "
                     f"{entry['cf_speedup']:.1f}x / "
                     f"{entry['st_speedup']:.1f}x)")
        print(line, flush=True)
        if "phases" in entry:
            print("  traced phases: "
                  + "  ".join(f"{name} {secs:.3f}s" for name, secs
                              in entry["phases"].items()), flush=True)

    payload = {
        "bench": "counterfactual_audit",
        "schema": 5,
        "dataset": "compas (synthetic generator, 4-bin discretized)",
        "n_particles": args.particles,
        "k": args.k,
        "block_size": args.block_size,
        "machine": machine_block(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.assert_no_regression is not None:
        problems = check_regression(payload, args.assert_no_regression,
                                    args.regression_slack)
        exit_on_regression(problems, args.assert_no_regression,
                           args.regression_slack)


if __name__ == "__main__":
    main()
