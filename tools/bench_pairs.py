"""Compare two commits with perfbench in interleaved pairs; write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent 4814eb9 --change HEAD --pairs 10 \\
        --bench 2 --subject "..." --out BENCH_2.json \\
        [--traced train-pixel --traced-pairs 5] [--patch11]

Each side is a fresh `git archive` of its revision in a scratch directory, so
each runs perfbench from its own committed files. Pair i runs every workload
of BENCHMARK.json for its run_seconds on seed i, parent and change back to
back; the side that runs first alternates (parent first on even seeds).
Quartiles are numpy's
linear-interpolation percentiles over the runs of one side; a spread is
(q3 - q1) / median; median_change is (change - parent) / parent of the
medians; change_wins counts the pairs in which the change is better (ties
count for neither side); within_bound says whether the change's median is no
worse than the parent's by more than the bound in BENCHMARK.json.

Each metric also gets a verdict, the first of these that holds, and the tool
prints one line per workload and metric at the end:
- gain: the change wins at least 9 in 10 pairs, and its median is better
  than the parent's by more than the parent's q3 - q1;
- unresolved: the change's median is worse, a side's spread is above the
  bound, and not every change run beats every parent run;
- worse: the change's median is worse than the bound allows;
- within_bound: none of the above.

--traced W runs --traced-pairs traced perfbench runs (--trace 1) of workload
W per side after the pairs, alternating as the pairs do; a failed traced run
is counted and left out of the medians. --patch11 times
`pctl predict` at the default model.patch_size=11 on each side, parent
first: a one-epoch `pctl train` on a gen-synth scene of 64 pixels per class,
then the predict of its 256-pixel target cube, all through cli.main in one
process with PCTL_THREADS=1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PROBES = ("probe_loop_ms", "probe_gemm_ms", "probe_copy_ms")

PATCH11 = r"""
import json, resource, sys, time
from pathlib import Path
from pctl import cli
out = Path(sys.argv[1])
out.mkdir(parents=True)
(out / "synth.cfg").write_text("synth.pixels_per_class = 64\n")
assert cli.main(["gen-synth", "--spec", str(out / "synth.cfg"), "--out", str(out / "scene")]) == 0
started = time.perf_counter()
assert cli.main(["train", "--source", str(out / "scene/source.hsic"),
                 "--target", str(out / "scene/target.hsic"), "--out", str(out / "run"),
                 "--set", "train.epochs=1"]) == 0
trained = time.perf_counter()
train_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert cli.main(["predict", "--checkpoint", str(out / "run/model.pctl"),
                 "--cube", str(out / "scene/target.hsic"), "--out", str(out / "pred.hsil")]) == 0
ended = time.perf_counter()
print(json.dumps({"train_s": round(trained - started, 2),
                  "predict_s": round(ended - trained, 2),
                  "train_peak_rss_mib": round(train_rss / 1024),
                  "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)}))
"""

PATCH11_WHAT = ("pctl train at the default model.patch_size=11 for train.epochs=1 on a "
                "gen-synth scene with synth.pixels_per_class=64 (256 pixels per domain), "
                "then pctl predict on its 256-pixel target cube, through cli.main in one "
                "process with PCTL_THREADS=1; predict_px_per_s is 256 / predict_s; "
                "train_peak_rss_mib is the process peak RSS read after train and before "
                "predict, peak_rss_mib the one read at the end")


def checkout(rev: str, dest: Path) -> str:
    """Extract the committed files of ``rev`` into ``dest``; returns the short hash."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of perfbench/run.py; its result line, info lines and duration."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    run_s = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "info": {},
                "run_s": run_s, "exit": proc.returncode}
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("info "):
            key, _, value = line[len("info "):].partition(" = ")
            info[key] = value
    return {**result, "info": info, "run_s": run_s}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6)}


def summarize(runs: dict, metric: dict) -> dict:
    """The BENCH entry of one end-to-end metric over the paired runs."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    stats = {side: quartiles(values[side]) for side in SIDES}
    parent, change = stats["parent"]["median"], stats["change"]["median"]

    def beats(c, p):
        return c < p if lower else c > p

    wins = sum(beats(c, p) for p, c in zip(values["parent"], values["change"]))
    gained = parent - change if lower else change - parent
    worse = -gained / parent
    spreads = {side: (stats[side]["q3"] - stats[side]["q1"]) / stats[side]["median"]
               for side in SIDES}
    if 10 * wins >= 9 * len(values["parent"]) and \
            gained > stats["parent"]["q3"] - stats["parent"]["q1"]:
        verdict = "gain"
    elif worse > 0 and max(spreads.values()) > metric["bound"] and \
            not all(beats(c, p) for p in values["parent"] for c in values["change"]):
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "worse"
    else:
        verdict = "within_bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": stats["parent"], "change": stats["change"],
            **{f"{side}_spread": round(spreads[side], 4) for side in SIDES},
            "median_change": round((change - parent) / parent, 4),
            "change_wins": f"{wins}/{len(values['parent'])}",
            "within_bound": bool(worse <= metric["bound"]), "verdict": verdict,
            "runs": {side: [round(v, 6) for v in values[side]] for side in SIDES}}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    with open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), platform.machine())
    return {"cpu": f"{os.cpu_count()}-vCPU {model}",
            "memory": f"{mem_kb / 2**20:.1f} GiB",
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", default="", help="comma-separated workloads")
    parser.add_argument("--traced-pairs", type=int, default=1)
    parser.add_argument("--patch11", action="store_true")
    parser.add_argument("--bench", type=int, required=True)
    parser.add_argument("--subject", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: scratch / side for side in SIDES}
        revs = {side: checkout(rev, trees[side])
                for side, rev in (("parent", args.parent), ("change", args.change))}
        runs = {w: {side: [] for side in SIDES} for w in names}
        for seed in range(args.pairs):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for w in names:
                for side in order:
                    result = perfbench(trees[side], w, seed, seconds, 0)
                    runs[w][side].append(result)
                    print(f"pair {seed} {w} {side}: correct={result['correct']} "
                          + " ".join(f"{k}={v['value']:.4g}"
                                     for k, v in result["metrics"].items()), flush=True)

        report = {
            "bench": args.bench, "subject": args.subject,
            "parent": revs["parent"], "change": revs["change"],
            "command": f"python3 perfbench/run.py --workload <w> --seed <pair index> "
                       f"--seconds {seconds:g} --trace 0",
            "protocol": __doc__.split("\n\n")[2].replace("\n", " "),
            "threads": "PCTL_THREADS=1", "seconds": seconds, "machine": machine(),
            "workloads": {}}
        for w in names:
            ok = {side: [r for r in runs[w][side] if r["metrics"]] for side in SIDES}
            entry = {
                "pairs": args.pairs, "seeds": list(range(args.pairs)),
                "first_in_pair": {str(s): "parent" if s % 2 == 0 else "change"
                                  for s in range(args.pairs)},
                "correct_runs": {side: f"{sum(r['correct'] for r in runs[w][side])}/"
                                       f"{args.pairs}" for side in SIDES},
                "operations_failed": {side: f"{sum(r['failed'] for r in ok[side])}/"
                                            f"{sum(r['attempted'] for r in ok[side])}"
                                      for side in SIDES}}
            if all(len(ok[side]) == args.pairs for side in SIDES):
                entry["metrics"] = {m["name"]: summarize(ok, m) for m in spec["end_to_end"]}
            entry["probes"] = {side: {p: {**quartiles([float(r["info"][p]) for r in ok[side]]),
                                          "runs": [float(r["info"][p]) for r in ok[side]]}
                                      for p in PROBES if all(p in r["info"] for r in ok[side])}
                               for side in SIDES}
            entry["run_s"] = {side: quartiles([r["run_s"] for r in runs[w][side]])
                              for side in SIDES}
            report["workloads"][w] = entry

        for w in filter(None, args.traced.split(",")):
            traced = {side: [] for side in SIDES}
            for seed in range(args.traced_pairs):
                for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                    traced[side].append(perfbench(trees[side], w, seed, seconds, 1))
            sides = {}
            for side, results in traced.items():
                ok = [r for r in results if r["metrics"]]
                keys = sorted({k for r in ok for k in r["metrics"]})
                sides[side] = {
                    "correct_runs": f"{sum(r['correct'] for r in results)}/{len(results)}",
                    "failed_runs": len(results) - len(ok),
                    **{k: {"median": round(float(np.median([r["metrics"][k]["value"]
                                                            for r in ok])), 4),
                           "runs": [round(r["metrics"][k]["value"], 4) for r in ok]}
                       for k in keys}}
            report[f"traced_{w}"] = {
                "command": f"python3 perfbench/run.py --workload {w} --seed <pair index> "
                           f"--seconds {seconds:g} --trace 1",
                "note": f"{args.traced_pairs} traced runs per side after the interleaved "
                        f"runs, alternating which side runs first (parent first on even "
                        f"seeds); each figure is the median over a side's runs",
                "sides": sides}

        if args.patch11:
            sides = {}
            for side in SIDES:
                out = scratch / f"p11-{side}"
                env = {**os.environ, "PCTL_THREADS": "1", "PYTHONPATH": str(trees[side] / "src")}
                proc = subprocess.run([sys.executable, "-c", PATCH11, str(out)], env=env,
                                      capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sides[side] = {"exit": proc.returncode}
                    continue
                figures = json.loads(proc.stdout.strip().splitlines()[-1])
                sides[side] = {**figures, "predict_px_per_s": round(256 / figures["predict_s"], 2)}
            report["patch_11"] = {"what": PATCH11_WHAT, "sides": sides}

        args.out.write_text(json.dumps(report, indent=1) + "\n")
        for w, entry in report["workloads"].items():
            for name, m in entry.get("metrics", {}).items():
                print(f"{w} {name}: {m['verdict']} (median {m['median_change']:+.1%}, "
                      f"change wins {m['change_wins']})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
