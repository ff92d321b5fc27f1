"""Check that two revisions write byte-identical outputs; exit 1 if they do not.

    python3 tools/same_outputs.py PARENT CHANGE

Each revision is a fresh `git archive` (bench_pairs.checkout) in a scratch
directory. The same pctl commands run against each, one process per command
with PCTL_THREADS=1, from a work directory of their own and with relative
paths, so that what they print does not name the side:

- gen-synth for the default spec, scenes/bump.txt and scenes/ramp.txt (each
  side's own copy);
- on a default scene of 36 pixels per class, at model.patch_size=3 for 30
  epochs: train, predict with and without --probs-csv, evaluate --report, a
  train --resume from that checkpoint for 10 more epochs and a predict from
  the resumed checkpoint, an ablate of all five variants, inspect-decoder and
  project2d;
- predict --probs-csv from the parent side's run/model.pctl, so that
  inference is compared on one checkpoint even when training differs. A
  checkpoint loads only with exactly the records its reader writes, so this
  command fails on the change side whenever the change drops or adds a
  checkpoint record;
- gradcheck --seeds 2.

Every file the commands write is compared, and so is each command's exit code
and standard output. The script names each file that differs or that only one
side wrote, and each command that failed on either side; for a command whose
output differs, it also prints the differing lines, "-" for the parent's and
"+" for the change's. It exits 0 only when there is none.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, checkout

SCENE = ["--source", "scene/source.hsic", "--target", "scene/target.hsic"]
# the parent side's checkpoint, by the same relative path from either work directory
PARENT_MODEL = f"../../{SIDES[0]}/work/run/model.pctl"
SETTINGS = [f"--set={item}" for item in (
    "model.patch_size=3", "train.epochs=30", "train.eval_every=5",
    "train.learning_rate=5e-3", "train.batch_recon=64", "train.batch_class=16",
    "train.label_fraction=0.25")]
# (name, pctl arguments), run in this order from the work directory
COMMANDS = [
    ("gen-synth-default", ["gen-synth", "--spec", "default.cfg", "--out", "default"]),
    ("gen-synth-bump", ["gen-synth", "--spec", "../tree/scenes/bump.txt", "--out", "bump"]),
    ("gen-synth-ramp", ["gen-synth", "--spec", "../tree/scenes/ramp.txt", "--out", "ramp"]),
    ("gen-synth-small", ["gen-synth", "--spec", "small.cfg", "--out", "scene"]),
    ("train", ["train", *SCENE, "--out", "run", *SETTINGS]),
    ("predict", ["predict", "--checkpoint", "run/model.pctl", "--cube", "scene/target.hsic",
                 "--out", "pred.hsil"]),
    ("predict-probs", ["predict", "--checkpoint", "run/model.pctl",
                       "--cube", "scene/target.hsic", "--out", "pred-probs.hsil",
                       "--probs-csv", "probs.csv"]),
    ("predict-parent-model", ["predict", "--checkpoint", PARENT_MODEL,
                              "--cube", "scene/target.hsic", "--out", "pred-parent-model.hsil",
                              "--probs-csv", "probs-parent-model.csv"]),
    ("evaluate", ["evaluate", "--truth", "scene/target.hsil", "--pred", "pred.hsil",
                  "--report", "report.json"]),
    ("resume", ["train", *SCENE, "--out", "resumed", "--resume", "run/model.pctl",
                "--set=train.epochs=10"]),
    ("predict-resumed", ["predict", "--checkpoint", "resumed/model.pctl",
                         "--cube", "scene/target.hsic", "--out", "pred-resumed.hsil"]),
    ("ablate", ["ablate", *SCENE, "--out", "ablate", *SETTINGS]),
    ("inspect-decoder", ["inspect-decoder", "--checkpoint", "run/model.pctl",
                         "--out", "affine.csv"]),
    ("project2d", ["project2d", "--checkpoint", "run/model.pctl", *SCENE, "--out", "proj"]),
    ("gradcheck", ["gradcheck", "--seeds", "2"]),
]
INPUTS = {"default.cfg": "", "small.cfg": "synth.pixels_per_class = 36\n"}


def run_side(side: Path) -> list[str]:
    """Run COMMANDS against the checkout in ``side/tree`` from ``side/work``;
    each command's exit code and stdout go to ``work/log/<name>.out``.
    Returns the names of the commands that failed."""
    work = side / "work"
    (work / "log").mkdir(parents=True)
    for name, text in INPUTS.items():
        (work / name).write_text(text)
    env = {**os.environ, "PCTL_THREADS": "1", "PYTHONPATH": str(side / "tree" / "src")}
    failed = []
    for name, args in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "pctl.cli", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        (work / "log" / f"{name}.out").write_text(f"exit {proc.returncode}\n{proc.stdout}")
        if proc.returncode != 0:
            sys.stderr.write(f"{side.name}: {name} exited {proc.returncode}\n{proc.stderr}")
            failed.append(name)
    return failed


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        outputs, problems = {}, []
        for side, rev in zip(SIDES, (args.parent, args.change)):
            short = checkout(rev, scratch / side / "tree")
            print(f"{side} {short}: running {len(COMMANDS)} commands", flush=True)
            problems += [f"{name} failed on the {side} side" for name in run_side(scratch / side)]
            outputs[side] = files(scratch / side / "work")
        parent, change = outputs["parent"], outputs["change"]
        for path in sorted(parent.keys() | change.keys()):
            if path not in change or path not in parent:
                problems.append(f"{path} written by the {'parent' if path in parent else 'change'} only")
            elif parent[path] != change[path]:
                problems.append(f"{path} differs")
                if path.startswith("log/"):
                    diff = difflib.unified_diff(parent[path].decode().splitlines(),
                                                change[path].decode().splitlines(),
                                                lineterm="", n=0)
                    # past the two file headers, every line but a hunk header
                    problems += [f"  {line}" for line in list(diff)[2:]
                                 if not line.startswith("@@")]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"all {len(parent)} output files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
