"""End-to-end ``POST /query`` benchmark through ``python -m repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf-hot --seed 1 --seconds 28 --trace 0

``--workload all`` runs every workload in turn and prints each one's
report and result line.

The corpus is generated through the library and written as an arena;
``--seed`` draws the requests.  The server is started as a separate
process on an ephemeral port and driven over HTTP/1.1 keep-alive
connections.  ``--trace 1`` runs the server under the tracing launcher
(``traced_serve.py``) and reports per-layer metrics instead of end-to-end
ones.  The last line of standard output is
the JSON result; ``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import CAPACITY_REQUESTS, CAPACITY_RPS_PLAN, run_workload
    from workloads import WORKLOADS

    if args.seconds <= 2 * CAPACITY_REQUESTS / CAPACITY_RPS_PLAN:
        print("perfbench: --seconds must leave the latency phase at least "
              "as long as the capacity phase", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    for name in names:
        work = ROOT / ".perfbench" / f"{name}-{args.seed}-{time.time_ns()}"
        work.mkdir(parents=True)
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for line in result.pop("report"):
            print(line)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
