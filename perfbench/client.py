"""The timed client: one process that runs a workload's operation in a loop.

run.py starts it before set-up, while run.py is still small, and sends it a
line on stdin when set-up has ended; so its peak RSS covers only the timed
part. It repeats whole operations until ``--seconds`` have passed (at least one)
and writes each operation's figures, the count of failed operations and its
peak RSS as JSON to ``--result``.

    python3 perfbench/client.py --workload W --seconds S --run-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import paths  # noqa: F401  (puts the checkout's src first on sys.path)
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    if not sys.stdin.readline():
        return 1                      # run.py gave up before set-up ended
    inputs = workload.load(Path(args.run_dir))
    results, failed = [], 0
    started = time.perf_counter()
    while True:
        try:
            results.append(workload.run_op(inputs))
        except Exception:  # a failing operation is counted, the loop goes on
            traceback.print_exc()
            failed += 1
        if time.perf_counter() - started >= args.seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(
        {"results": results, "failed": failed, "peak_rss_mb": peak_mib}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
