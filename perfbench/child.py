"""One workload in a fresh interpreter (started by ``run.py``).

Prints one JSON line: the set-up time, measured from the moment the
parent spawned this interpreter (``PERFBENCH_T0``, a monotonic clock
reading) to the first timed operation, and then either nothing more
(``--setup-only``), the timed run (tracing off), or the traced replay
of a finished run's plan (``--plan``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

T0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

#: Workload name -> (module, class) in this directory.
WORKLOADS = {
    "sweep_fig7": ("sweeps", "Fig7Sweep"),
    "audit_kernel": ("sweeps", "AuditKernel"),
    "serve_http": ("serving", "ServeHTTP"),
    "store_report": ("reports", "StoreReport"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plan", default=None,
                        help="JSON plan of a finished run to replay "
                             "with tracing on")
    args = parser.parse_args(argv)

    start = time.monotonic()
    import repro  # noqa: F401  (timed: import.repro_s)
    import_s = time.monotonic() - start

    from pathlib import Path

    import measure

    module, name = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = getattr(importlib.import_module(module), name)(args.seed,
                                                              work)
    try:
        workload.setup()
        out = {"setup_s": time.monotonic() - T0, "import_s": import_s}
        if args.plan is not None:
            out.update(workload.trace(json.loads(args.plan)))
            out["layers"]["import.repro_s"] = import_s
        elif not args.setup_only:
            out.update(workload.run(args.seconds))
            out["machine"] = measure.machine_stamp(work)
    finally:
        workload.close()
    out["peak_rss_mb"] = measure.peak_rss_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
