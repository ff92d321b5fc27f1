"""Command-line surface.

Subcommands cover the whole workflow: synthetic data generation, training,
prediction, evaluation, ablation, 2-D projection export, decoder inspection,
and the gradient verification sweep. Exit codes: 0 success, 2 usage or
configuration problem, 3 numerical divergence, 4 data incompatibility.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, resolved_text
from .data import generate_synthetic_pair, read_cube, read_labels, write_cube, write_labels
from .errors import ConfigError, ContractError, DataMismatchError, DivergenceError, ParseError
from .gradcheck import run_all
from .metrics import confusion, domain_overlap_score, oa_aa_kappa, svd_project_2d
from .trainer import (
    ABLATION_VARIANTS,
    ModelState,
    evaluate,
    format_metrics_csv,
    load_checkpoint,
    predict,
    run_ablation,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_DATA = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pctl",
        description="Cross-domain hyperspectral classification through a "
                    "shared abundance space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a paired synthetic scene")
    p.add_argument("--spec", required=True, help="synth.* key=value file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train on a labeled source and unlabeled target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("predict", help="write a label raster for a cube")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out", required=True, help="output .hsil path")
    p.add_argument("--probs-csv", default=None,
                   help="also dump per-pixel class probabilities")

    p = sub.add_parser("evaluate", help="compare predicted labels to ground truth")
    p.add_argument("--truth", required=True, help=".hsil ground truth")
    p.add_argument("--pred", required=True, help=".hsil predictions")
    p.add_argument("--report", default=None, help="optional JSON report path")

    p = sub.add_parser("ablate", help="train and compare model variants")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", nargs="+", default=list(ABLATION_VARIANTS))
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("project2d", help="export 2-D projections of both domains")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-per-class", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inspect-decoder", help="dump learned affine pairs as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference verification sweep")
    p.add_argument("--seeds", type=int, default=10)
    return parser


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path


def cmd_gen_synth(args) -> int:
    spec_path = _require_file(args.spec, "spec file")
    cfg = RunConfig(spec_path, sections=("synth",))
    spec = cfg.synth_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target, truth = generate_synthetic_pair(spec)
    write_cube(source, out / "source.hsic")
    write_cube(target, out / "target.hsic")
    c = spec.abundance_dim
    header = "domain,row,col,label," + ",".join(f"a{i}" for i in range(c))
    lines = [header]
    for domain, cube, key in (("source", source, "source"), ("target", target, "target")):
        abund = truth[key]
        for r in range(cube.height):
            for col in range(cube.width):
                vec = ",".join(repr(float(v)) for v in abund[r, col])
                lines.append(f"{domain},{r},{col},{cube.labels[r, col]},{vec}")
    (out / "abund.csv").write_text("\n".join(lines) + "\n")
    (out / "resolved-config.txt").write_text(resolved_text(spec))
    print(f"wrote source/target cubes ({source.height}x{source.width}x{source.bands}) "
          f"and abundance truth to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    source = read_cube(_require_file(args.source, "source cube"))
    target = read_cube(_require_file(args.target, "target cube"))
    if source.labels is None:
        raise ConfigError(f"source cube {args.source} has no sibling label file")
    cfg = RunConfig(args.config, args.set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.resume:
        # settings start from the checkpoint's; the keys given override them
        state = load_checkpoint(_require_file(args.resume, "checkpoint"))
        if state.model_cfg.bands != source.bands:
            raise DataMismatchError(
                f"checkpoint expects {state.model_cfg.bands} bands, "
                f"source has {source.bands}")
        cfg.check_model(state.model_cfg)
        train_cfg = cfg.train_config(state.train_cfg)
    else:
        train_cfg = cfg.train_config()
        model_cfg = cfg.model_config(bands=source.bands,
                                     num_classes=source.num_classes())
        state = ModelState(model_cfg, train_cfg, seed=train_cfg.seed)
    (out / "resolved-config.txt").write_text(resolved_text(state.model_cfg, train_cfg))
    rows = train(state, source, target, train_cfg)
    save_checkpoint(state, out / "model.pctl")
    (out / "metrics.csv").write_text(format_metrics_csv(rows))
    if rows:
        last = rows[-1]
        summary = f"epoch {last['epoch']}: source OA {last.get('source_oa', float('nan')):.4f}"
        if "target_oa" in last:
            summary += f", target OA {last['target_oa']:.4f}"
        print(summary)
    print(f"checkpoint and metrics written to {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    state = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    cube = read_cube(_require_file(args.cube, "cube"))
    if args.probs_csv:
        raster, probas = predict(state, cube, return_proba=True)
    else:
        raster = predict(state, cube)
    write_labels(raster, args.out)
    if args.probs_csv:
        k = probas.shape[2]
        lines = ["row,col," + ",".join(f"p{i + 1}" for i in range(k))]
        for r in range(raster.shape[0]):
            for c in range(raster.shape[1]):
                lines.append(f"{r},{c}," +
                             ",".join(repr(float(p)) for p in probas[r, c]))
        Path(args.probs_csv).write_text("\n".join(lines) + "\n")
    print(f"label raster written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    truth = read_labels(_require_file(args.truth, "truth labels"))
    pred = read_labels(_require_file(args.pred, "predicted labels"))
    if truth.shape != pred.shape:
        raise DataMismatchError(
            f"truth {truth.shape} and prediction {pred.shape} differ")
    k = int(truth.max())
    cm = confusion(truth.reshape(-1), pred.reshape(-1), k)
    oa, aa, kappa = oa_aa_kappa(cm)
    print(f"OA {100 * oa:.2f} AA {100 * aa:.2f} Kappa {100 * kappa:.2f}")
    if args.report:
        recalls = {}
        for cls in range(1, k + 1):
            row = cm.counts[cls - 1]
            recalls[str(cls)] = (float(row[cls - 1] / row.sum())
                                 if row.sum() else None)
        import json
        Path(args.report).write_text(json.dumps(
            {"oa": oa, "aa": aa, "kappa": kappa, "per_class_recall": recalls,
             "confusion": cm.counts.tolist()}, indent=2) + "\n")
    return EXIT_OK


def cmd_ablate(args) -> int:
    source = read_cube(_require_file(args.source, "source cube"))
    target = read_cube(_require_file(args.target, "target cube"))
    cfg = RunConfig(args.config, args.set)
    train_cfg = cfg.train_config()
    model_cfg = cfg.model_config(bands=source.bands, num_classes=source.num_classes())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved-config.txt").write_text(resolved_text(model_cfg, train_cfg))
    rows = run_ablation(model_cfg, train_cfg, source, target, variants=args.variants)
    header = ("variant,source_oa,source_aa,source_kappa,"
              "target_oa,target_aa,target_kappa")
    lines = [header]
    print(f"{'variant':16s} {'src OA':>8s} {'tgt OA':>8s} {'tgt AA':>8s} {'tgt K':>8s}")
    for row in rows:
        lines.append(",".join([row["variant"]] +
                              [repr(float(row[k])) for k in header.split(",")[1:]]))
        print(f"{row['variant']:16s} {100 * row['source_oa']:8.2f} "
              f"{100 * row['target_oa']:8.2f} {100 * row['target_aa']:8.2f} "
              f"{100 * row['target_kappa']:8.2f}")
        save_checkpoint(row["state"], out / f"model-{row['variant']}.pctl")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _labeled_subsample(cube, cap: int, rng):
    centers = np.argwhere(cube.labels > 0)
    labels = cube.labels[centers[:, 0], centers[:, 1]]
    keep = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) > cap:
            idx = np.sort(rng.choice(idx, cap, replace=False))
        keep.append(idx)
    keep = np.concatenate(keep)
    return centers[keep], labels[keep]


def cmd_project2d(args) -> int:
    from .trainer import abundance_map

    state = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    source = read_cube(_require_file(args.source, "source cube"))
    target = read_cube(_require_file(args.target, "target cube"))
    for cube, name in ((source, "source"), (target, "target")):
        if cube.labels is None:
            raise ConfigError(f"{name} cube needs labels for class-wise export")
        if cube.bands != state.model_cfg.bands:
            raise DataMismatchError(
                f"{name} cube has {cube.bands} bands, model expects "
                f"{state.model_cfg.bands}")
    rng = np.random.default_rng(args.seed)
    src_centers, src_labels = _labeled_subsample(source, args.max_per_class, rng)
    tgt_centers, tgt_labels = _labeled_subsample(target, args.max_per_class, rng)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spaces = {}
    raw_src = source.reflectance[src_centers[:, 0], src_centers[:, 1]]
    raw_tgt = target.reflectance[tgt_centers[:, 0], tgt_centers[:, 1]]
    spaces["raw"] = (raw_src, raw_tgt)
    amap_src = abundance_map(state, source)
    amap_tgt = abundance_map(state, target)
    spaces["abundance"] = (amap_src[src_centers[:, 0], src_centers[:, 1]],
                           amap_tgt[tgt_centers[:, 0], tgt_centers[:, 1]])

    for space, (vs, vt) in spaces.items():
        proj = svd_project_2d(np.vstack([vs, vt]))
        ps, pt = proj[:len(vs)], proj[len(vs):]
        lines = ["domain,class,x,y"]
        for dom, pts, labs in (("source", ps, src_labels), ("target", pt, tgt_labels)):
            for (x, y), lab in zip(pts, labs):
                lines.append(f"{dom},{lab},{float(x)!r},{float(y)!r}")
        (out / f"{space}.csv").write_text("\n".join(lines) + "\n")
        scores = domain_overlap_score(ps, src_labels, pt, tgt_labels)
        summary = " ".join(f"class{cls}={score:.3f}"
                           for cls, score in sorted(scores.items()))
        print(f"{space:9s} overlap scores (lower is better): {summary}")
    return EXIT_OK


def cmd_inspect_decoder(args) -> int:
    state = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    if state.decoder is None or not hasattr(state.decoder, "affine_pairs"):
        raise ConfigError("checkpoint has no affine decoder to inspect")
    pairs = state.decoder.affine_pairs()
    n = len(pairs["src_scale"])
    lines = ["band,src_scale,src_offset,tgt_scale,tgt_offset"]
    for band in range(n):
        lines.append(f"{band}," + ",".join(
            repr(float(pairs[key][band])) for key in
            ("src_scale", "src_offset", "tgt_scale", "tgt_offset")))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"affine transfer pairs written to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results, ok = run_all(seeds=range(args.seeds))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:28s} max_rel_err {r.max_rel_err:.3e} tol {r.tol:g}")
    print("gradcheck:", "all checks passed" if ok else "VIOLATIONS FOUND")
    return EXIT_OK if ok else 1


COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "project2d": cmd_project2d,
    "inspect-decoder": cmd_inspect_decoder,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ParseError, ContractError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
