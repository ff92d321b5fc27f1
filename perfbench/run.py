"""Benchmark pctl end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload train-p3 --seed 0 --seconds 15 --trace 0

Untraced, the run starts client.py, sets the workload up in this process at
least MIN_SETUPS times and for at least MIN_SETUP_S (the median is setup_s),
then lets the client repeat the timed operation for --seconds, and checks
the outputs of the last operation. Traced, it sets up and repeats the
operation untraced for --seconds, then sets up once and runs as many
operations again with every pctl layer wrapped, each under its own tracer;
the checks run untraced after that, and every operation must write
byte-identical files.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import paths
import workloads
from tracing import Tracer

# setup_s is the median of at least MIN_SETUPS set-ups taking MIN_SETUP_S in all
MIN_SETUPS = 5
MIN_SETUP_S = 3.0
CLIENT_TIMEOUT_S = 120.0  # leaves set-up and checks inside 180 s per run


def checked(workload, run_dir: Path, results: list):
    """(figures, True) when the outputs pass every check, else (reason, False)."""
    try:
        return workload.check(run_dir, results), True
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"check_failed": str(exc)}, False


def machine_probe() -> dict:
    """Median milliseconds of three fixed kernels that time the machine, not pctl.

    An interpreter loop, a GEMM that fits in cache, and a copy between two
    existing 128 MB buffers, which is bound by memory bandwidth as pctl's
    im2col is. Printed with every untraced run, so that a shift in the
    metrics can be told from a shift in the machine.
    """
    import numpy as np

    a = np.random.default_rng(0).random((400, 400))
    src = np.ones(16 * 2**20)
    dst = np.empty_like(src)

    def loop():
        total = 0
        for i in range(200_000):
            total += i

    def median_ms(fn):
        times = []
        for _ in range(5):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return 1000.0 * statistics.median(times)

    return {"probe_loop_ms": median_ms(loop), "probe_gemm_ms": median_ms(lambda: a @ a),
            "probe_copy_ms": median_ms(lambda: np.copyto(dst, src))}


def untraced(workload, run_dir: Path, args) -> dict:
    # The client starts before set-up and waits for a line on stdin: a new
    # process inherits its parent's peak RSS, which set-up would raise.
    result_file = run_dir / "client.json"
    client_proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("client.py")),
         "--workload", args.workload, "--seconds", str(args.seconds),
         "--run-dir", str(run_dir), "--result", str(result_file)],
        stdin=subprocess.PIPE, stdout=sys.stderr, text=True)
    try:
        setup_s = []
        while len(setup_s) < MIN_SETUPS or sum(setup_s) < MIN_SETUP_S:
            started = time.perf_counter()
            workload.setup(run_dir, args.seed)
            setup_s.append(time.perf_counter() - started)
        probe = machine_probe()
        client_proc.communicate("go\n", timeout=CLIENT_TIMEOUT_S)
    finally:
        if client_proc.poll() is None:
            client_proc.kill()
        client_proc.wait()
    if client_proc.returncode != 0:
        raise RuntimeError(f"the client exited with {client_proc.returncode}")
    client = json.loads(result_file.read_text())
    results = client["results"]
    if not results:
        raise RuntimeError("every operation failed")
    info, correct = checked(workload, run_dir, results)
    steps = [s for r in results for s in r["steps_ms"]]
    info.update(operations=len(results), step_samples=len(steps), setups=len(setup_s),
                **probe)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "step_ms_p50": (statistics.median(steps), "ms"),
        "infer_px_per_s": (statistics.median(x for r in results for x in r["infer_rates"]),
                           "px/s"),
        "peak_rss_mb": (client["peak_rss_mb"], "MiB"),
    }
    return {"correct": correct, "attempted": len(results) + client["failed"],
            "failed": client["failed"], "metrics": metrics, "info": info}


def repeat(workload, inputs: dict, seconds: float) -> list:
    """Whole operations until ``seconds`` have passed, at least one."""
    ops, started = [], time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        ops.append(workload.run_op(inputs))
    return ops


def traced(workload, run_dir: Path, args) -> dict:
    workload.setup(run_dir, args.seed)
    plain = repeat(workload, workload.load(run_dir), args.seconds)
    with Tracer() as setup_tracer:
        workload.setup(run_dir, args.seed)
    inputs = workload.load(run_dir)
    with Tracer() as op_tracer:
        traced_ops = [workload.run_op(inputs) for _ in plain]
    info, correct = checked(workload, run_dir, traced_ops)
    for key in ("digest", "checkpoint_digest"):
        if len({op.get(key) for op in plain + traced_ops}) != 1:
            info[f"{key}_differs"] = "the traced run wrote a different file"
            correct = False
    # train workloads report per training step, predict-p5 per operation
    per = sum(op.get("steps", 1) for op in traced_ops)
    metrics = {name: (m["value"], m["unit"])
               for name, m in op_tracer.layer_metrics(per, setup_tracer).items()}
    untraced_s = statistics.median(op["wall_s"] for op in plain)
    traced_s = statistics.median(op["wall_s"] for op in traced_ops)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    paths.OUT.mkdir(parents=True, exist_ok=True)
    meta = {"workload": args.workload, "seed": args.seed, "threads": paths.THREADS}
    op_tracer.write(paths.OUT / f"trace-{args.workload}.jsonl.gz",
                    {**meta, "phase": "operations", "operations": len(traced_ops),
                     "divisor": per})
    setup_tracer.write(paths.OUT / f"trace-{args.workload}-setup.jsonl.gz",
                       {**meta, "phase": "set-up"})
    info.update(operations=len(traced_ops), spans=len(op_tracer.spans), divisor=per)
    return {"correct": correct, "attempted": 2 * len(plain), "failed": 0,
            "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    run_dir = paths.OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        report = (traced if args.trace else untraced)(workload, run_dir, args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, PCTL_THREADS={paths.THREADS}")
    for key, value in report["info"].items():
        print(f"info {key} = {value}")
    for name, (value, unit) in report["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
