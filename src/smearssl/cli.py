"""Command-line entry point.

`main` builds each command's config once, from the config file, then each
`--set`, then each shortcut flag (parsed as `--set` text). Every subcommand is
then a thin adapter: call the module operation, write artifacts. Exit codes:
0 success, 1 validation error, 2 runtime error. Logs go to stderr; data goes
to files only.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .config import DEFAULTS, RunConfig, apply_overrides, load_config, write_resolved
from .data import (ManifestRecord, SmearImage, extract_cells, load_images,
                   load_manifest, patchify, save_manifest)
from .embeddings import embed, read_embeddings, write_embeddings
from .errors import SmearSslError, ValidationError
from .netpbm import read_pgm, read_ppm, write_ppm
from .pca import pca_map
from .protocols import (EvalReport, format_report, kfold, leave_one_source_out,
                        write_report_csv)
from .synthetic import gen_synthetic, write_dataset
from .trainer import load_encoder, train

log = logging.getLogger("smearssl")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=100)


def _key_flag(p: argparse.ArgumentParser, flag: str, key: str, help=None,
              choices=None) -> None:
    """A flag that sets one key: its dest is the key, its text is parsed as
    `--set` text, and its metavar is the one argparse derives from the flag."""
    p.add_argument(flag, dest=key, help=help, choices=choices,
                   metavar=None if choices else flag[2:].replace("-", "_").upper())


def _emit_report(report: EvalReport, path: str | None) -> None:
    print(format_report(report), file=sys.stderr)
    if path:
        write_report_csv(path, report)
        log.info("report written to %s", path)


# --- command handlers -------------------------------------------------------

def cmd_gen_synthetic(args, cfg: RunConfig) -> int:
    samples = gen_synthetic(cfg.synth_config())
    manifest = write_dataset(args.out, samples, with_masks=not args.no_masks)
    write_resolved(cfg, os.path.join(args.out, "config.resolved"))
    log.info("wrote %d images (+masks) and %s", len(samples), manifest)
    return 0


def _read_smear(args) -> SmearImage:
    return SmearImage(pixels=read_ppm(args.image), source_id=args.source_id,
                      image_id=os.path.splitext(os.path.basename(args.image))[0])


def _write_crops(args, cfg: RunConfig, image_id: str, crops, kind: str) -> None:
    """Writes crop i as `<image_id>_<kind[0]><i:04d>.ppm` in `args.out`, then
    the crops' manifest and `config.resolved`."""
    os.makedirs(args.out, exist_ok=True)
    names = [f"{image_id}_{kind[0]}{i:04d}.ppm" for i in range(len(crops))]
    for name, crop in zip(names, crops):
        write_ppm(os.path.join(args.out, name), crop)
    save_manifest(os.path.join(args.out, "manifest.csv"),
                  [ManifestRecord(path=name, kind=kind, source_id=args.source_id,
                                  label=args.label) for name in names])
    write_resolved(cfg, os.path.join(args.out, "config.resolved"))


def cmd_patchify(args, cfg: RunConfig) -> int:
    img = _read_smear(args)
    patches = patchify(img, cfg.get("data.patch_size"))
    _write_crops(args, cfg, img.image_id, patches, "patch")
    log.info("wrote %d patches to %s", len(patches), args.out)
    return 0


def cmd_extract_cells(args, cfg: RunConfig) -> int:
    img = _read_smear(args)
    crops, skipped = extract_cells(img, read_pgm(args.mask), cfg.get("data.cell_size"))
    _write_crops(args, cfg, img.image_id, crops, "cell")
    log.info("wrote %d cell crops (%d skipped) to %s", len(crops), skipped, args.out)
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    records = load_manifest(args.manifest)
    images = load_images(records)
    state = train(images, cfg.vit_config(), cfg.ssl_config(), cfg.train_config(),
                  cfg.crop_spec(), args.out, resume=args.resume)
    write_resolved(cfg, os.path.join(args.out, "config.resolved"))
    log.info("finished at iteration %d; checkpoint in %s", state.iteration, args.out)
    return 0


def cmd_embed(args, cfg: RunConfig) -> int:
    records = load_manifest(args.manifest)
    emb = embed(args.checkpoint, records, batch_size=cfg.get("embed.batch_size"))
    write_embeddings(args.out, emb)
    write_resolved(cfg, args.out + ".config")
    log.info("wrote %d x %d embeddings to %s", len(emb), emb.dim, args.out)
    return 0


def cmd_eval_pair(args, cfg: RunConfig) -> int:
    report = EvalReport(protocol=cfg.get("eval.classifier"))
    report.add_split(cfg.classifier_spec(), args.train_emb, read_embeddings(args.train_emb),
                     args.test_emb, read_embeddings(args.test_emb))
    _emit_report(report, args.report)
    return 0


def cmd_eval_loso(args, cfg: RunConfig) -> int:
    emb = read_embeddings(args.emb)
    report = leave_one_source_out(emb, cfg.classifier_spec())
    _emit_report(report, args.report)
    return 0


def cmd_eval_kfold(args, cfg: RunConfig) -> int:
    emb = read_embeddings(args.emb)
    report = kfold(emb, cfg.classifier_spec(), k=cfg.get("eval.folds"),
                   seed=cfg.get("run.seed"))
    _emit_report(report, args.report)
    return 0


def cmd_pca_map(args, cfg: RunConfig) -> int:
    encoder = load_encoder(args.checkpoint)
    image = read_ppm(args.image)
    rgb, _, variances = pca_map(encoder, image)
    write_ppm(args.out, rgb)
    write_resolved(cfg, args.out + ".config")
    log.info("explained variances: %s", np.array2string(variances, precision=4))
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smearssl", formatter_class=_formatter,
                     description="Self-supervised red-blood-cell representation "
                                 "pipeline: synthetic data, training, embedding, "
                                 "and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=_formatter)
        p.add_argument("--config", metavar="FILE",
                       help="config file (section.key = value lines)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="overrides", help="override one config key (repeatable)")
        p.set_defaults(func=func)
        return p

    p = add("gen-synthetic", cmd_gen_synthetic,
            "render a deterministic synthetic smear dataset with manifest")
    p.add_argument("--out", required=True, help="output directory")
    _key_flag(p, "--n-images", "synth.n_images", "number of images")
    _key_flag(p, "--sources", "synth.sources", "number of acquisition sources")
    _key_flag(p, "--classes", "synth.classes", "number of cell classes (<= 8)")
    _key_flag(p, "--seed", "run.seed", "run seed")
    p.add_argument("--no-masks", action="store_true", help="skip writing label masks")

    p = add("patchify", cmd_patchify, "tile one smear image into patches")
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--out", required=True, help="output directory")
    _key_flag(p, "--patch", "data.patch_size", "patch side length")
    p.add_argument("--source-id", default="src0", dest="source_id")
    p.add_argument("--label", default=None, help="optional class label")

    p = add("extract-cells", cmd_extract_cells,
            "crop one image into per-cell squares along a label mask")
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--mask", required=True, help="PGM label mask")
    p.add_argument("--out", required=True, help="output directory")
    _key_flag(p, "--cell-size", "data.cell_size", "crop side length")
    p.add_argument("--source-id", default="src0", dest="source_id")
    p.add_argument("--label", default=None, help="optional class label")

    p = add("train", cmd_train, "run self-distillation training on a manifest")
    p.add_argument("--manifest", required=True, help="training manifest CSV")
    p.add_argument("--out", required=True, help="output directory")
    _key_flag(p, "--iterations", "train.iterations", "optimization steps")
    _key_flag(p, "--batch-size", "train.batch_size")
    _key_flag(p, "--seed", "run.seed", "run seed")
    p.add_argument("--resume", action="store_true",
                   help="continue from state.rdck in the output directory")

    p = add("embed", cmd_embed, "extract teacher-encoder embeddings")
    p.add_argument("--checkpoint", required=True, help="encoder checkpoint (.rdck)")
    p.add_argument("--manifest", required=True, help="manifest CSV")
    p.add_argument("--out", required=True, help="output embedding file (.emb1)")
    _key_flag(p, "--batch-size", "embed.batch_size")

    p = add("eval-linear", cmd_eval_pair, "linear probe: train/test embedding pair")
    p.set_defaults(**{"eval.classifier": "linear"})  # beats --set eval.classifier
    p.add_argument("--train-emb", required=True, dest="train_emb")
    p.add_argument("--test-emb", required=True, dest="test_emb")
    _key_flag(p, "--reg-lambda", "eval.reg_lambda")
    p.add_argument("--report", help="write per-split CSV here")

    p = add("eval-knn", cmd_eval_pair, "k-NN classifier: train/test embedding pair")
    p.set_defaults(**{"eval.classifier": "knn"})  # beats --set eval.classifier
    p.add_argument("--train-emb", required=True, dest="train_emb")
    p.add_argument("--test-emb", required=True, dest="test_emb")
    _key_flag(p, "--k", "eval.k", "neighbor count")
    _key_flag(p, "--metric", "eval.metric", choices=["cosine", "euclidean"])
    p.add_argument("--report", help="write per-split CSV here")

    p = add("eval-loso", cmd_eval_loso, "leave-one-source-out over one embedding set")
    p.add_argument("--emb", required=True, help="embedding file (.emb1)")
    _key_flag(p, "--classifier", "eval.classifier", choices=["knn", "linear"])
    _key_flag(p, "--k", "eval.k", "neighbor count for knn")
    p.add_argument("--report", help="write per-split CSV here")

    p = add("eval-kfold", cmd_eval_kfold, "stratified k-fold over one embedding set")
    p.add_argument("--emb", required=True, help="embedding file (.emb1)")
    _key_flag(p, "--classifier", "eval.classifier", choices=["knn", "linear"])
    _key_flag(p, "--k", "eval.k", "neighbor count for knn")
    _key_flag(p, "--folds", "eval.folds", "fold count")
    _key_flag(p, "--seed", "run.seed", "run seed")
    p.add_argument("--report", help="write per-split CSV here")

    p = add("pca-map", cmd_pca_map, "render patch-token principal components as RGB")
    p.add_argument("--checkpoint", required=True, help="encoder checkpoint (.rdck)")
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--out", required=True, help="output PPM feature map")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        apply_overrides(cfg, args.overrides)
        for key, raw in vars(args).items():  # the flags whose dest is a key
            if key in DEFAULTS and raw is not None:
                cfg.set(key, raw)
        return args.func(args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SmearSslError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
