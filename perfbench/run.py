"""The repository benchmark: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` (or with ``--workload all``) every workload runs
in turn, each printing its own report.  Run from the root of a
checkout.  The command compiles ``src/`` to bytecode first, so no
timed number pays for it.  A workload's run then starts fresh
interpreters (``child.py``) with ``PYTHONPATH=src``: two that only set
the workload up, and one that sets it up and measures it for about
``S`` seconds with tracing off.  With ``--trace 1`` the set-up-only
interpreters are skipped, and a further interpreter replays the
measured run's work with tracing on and reports the per-layer metrics
instead.  Stores, bundles and traces live in a scratch directory under
``.perfbench/`` that is removed at the end.

The last line of a workload's report is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding every
metric ``BENCHMARK.json`` declares for the mode; the lines above it
give every metric the workload measures with its unit and sample
count, the machine, and any failed check.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters per run that only set up; ``setup_s`` is the
#: median over them and the measured interpreter's own set-up.
SETUP_PROBES = 2
#: Seconds a workload's run may take beyond its interpreters' share of
#: ``--seconds``: set-up, checks and a traced replay, on a slow stretch.
#: Every child must have finished by then, or the run fails.
MARGIN_S = 90


def deadline_s(seconds: float) -> float:
    """How long one workload's run may take: ``seconds`` for each of
    its interpreters (the set-up probes, the measured run and a traced
    replay), plus :data:`MARGIN_S`."""
    return (SETUP_PROBES + 2) * seconds + MARGIN_S


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its JSON line.

    The child leads its own process group, so the pool workers and the
    server it starts go down with it if it overruns the ``deadline``
    (a monotonic time)."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [path])]),
           "PERFBENCH_T0": repr(time.monotonic())}
    child = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                             stdout=subprocess.PIPE, text=True, env=env,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline
                                               - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"perfbench: {' '.join(args[:2])} overran the "
                         "run's deadline")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise SystemExit(f"perfbench: child {' '.join(args)} exited "
                         f"with {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload and print its report, ending in the JSON line."""
    deadline = time.monotonic() + deadline_s(seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    # Flush writeback left by earlier runs (their deleted stores), so
    # it does not land inside this run's store fills.
    os.sync()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    try:
        setups = [spawn([*common, "--work", str(work / f"setup-{i}"),
                         "--setup-only"], deadline)["setup_s"]
                  for i in range(0 if trace else SETUP_PROBES)]
        run = spawn([*common, "--work", str(work / "run")], deadline)
        setups.append(run["setup_s"])
        traced = (spawn([*common, "--work", str(work / "trace"), "--plan",
                         json.dumps(run["plan"])], deadline)
                  if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("machine: " + " ".join(f"{key}={value}" for key, value
                                 in run["machine"].items()))
    rows = [["setup_s", statistics.median(setups), "s",
             f"{len(setups)} fresh interpreters", "setup_s"],
            ["peak_rss_mb", run["peak_rss_mb"], "MiB", 1, "peak_rss_mb"],
            *run["detail"]]
    for row_name, value, unit, samples, gate in rows:
        alias = f"  -> {gate}" if gate and gate != row_name else ""
        print(f"  {row_name:<26} {value:>14.4f} {unit:<6} "
              f"(n={samples}){alias}")
    if run.get("digest"):
        print(f"results digest: sha256:{run['digest']}")

    parts = [run] + ([traced] if traced else [])
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    for part in parts:
        for problem in part["problems"][:20]:
            print(f"  FAILED: {problem}")
    print(f"operations: attempted {attempted}, failed {failed}")

    if traced is not None:
        values = traced["layers"]
        unknown = set(values) - {m["name"] for m in metrics}
        if unknown:
            raise SystemExit(f"perfbench: undeclared layer metrics "
                             f"{sorted(unknown)}")
        # A layer the workload does not reach did no work: 0.
        values = {m["name"]: values.get(m["name"], 0.0) for m in metrics}
        for metric in metrics:
            print(f"  {metric['name']:<26} {values[metric['name']]:>14.4f} "
                  f"{metric['unit']}")
    else:
        values = {gate: value for _, value, _, _, gate in rows if gate}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in metrics},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn "
                             "(default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
