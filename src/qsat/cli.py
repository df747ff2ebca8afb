"""Command-line entry point: train, eval, diagnose, study, fold.

stdout carries exactly one machine-readable JSON summary line per
invocation; progress and warnings go to stderr.  Exit codes are stable:

  0  success (diagnose: all rules pass)
  1  diagnose found WARN/FAIL verdicts
  2  config/checkpoint/argument problems
  3  dataset problems
  4  numerical divergence (last per-epoch checkpoint is retained)
  5  batch-norm folding not applicable to the model

``QSAT_THREADS`` caps kernel parallelism; it must be set before numpy is
imported, which is why the heavy imports happen inside main().
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path


def _setup_threads() -> None:
    threads = os.environ.get("QSAT_THREADS")
    if threads:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def _resolve_out_dir(out: str, force: bool) -> Path:
    """Never silently overwrite an existing run: suffix unless --force."""
    base = Path(out)
    if force or not base.exists() or not any(base.iterdir()):
        base.mkdir(parents=True, exist_ok=True)
        return base
    i = 1
    while True:
        candidate = Path(f"{out}-{i}")
        if not candidate.exists() or not any(candidate.iterdir()):
            candidate.mkdir(parents=True, exist_ok=True)
            print(
                f"output directory {base} is not empty; writing to {candidate}",
                file=sys.stderr,
            )
            return candidate
        i += 1


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsat",
        description="Quantization-aware training with scale-adjusted weights, "
        "calibrated clipping gradients, and folded integer inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run config file")
        p.add_argument("--init", help="checkpoint to initialize from")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dataset", help="override the dataset path")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")

    common(sub.add_parser("train", help="train a model per the config"))
    common(sub.add_parser("eval", help="evaluate a checkpoint"))
    common(sub.add_parser("diagnose", help="check the training rules on a checkpoint"))
    fold = sub.add_parser("fold", help="fold batch norms into integer inference")
    common(fold)
    study = sub.add_parser("study", help="run a variance study")
    study.add_argument("name", choices=["clamp-var", "quant-var"])
    study.add_argument("--out", required=True)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--force", action="store_true")
    return parser


def _load_config(args):
    from .training import parse_config_file

    cfg = parse_config_file(args.config)
    if args.seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.dataset:
        import dataclasses

        cfg = dataclasses.replace(cfg, dataset_path=args.dataset)
    return cfg


def _build_with_checkpoint(args):
    """Model from config with tensors from --init (schemes from config)."""
    from . import deployment, training
    from .data import load_dataset

    cfg = _load_config(args)
    train_set, val_set = load_dataset(
        cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
        train_size=cfg.train_size, val_size=cfg.val_size,
    )
    model = training.build_model_from_config(
        cfg, train_set.image_shape, training.class_count(train_set, val_set)
    )
    if args.init:
        deployment.load_model_checkpoint(
            args.init, model, expect_hash=training.config_hash(cfg)
        )
    return cfg, model


def cmd_train(args) -> int:
    from . import deployment, training

    cfg = _load_config(args)
    out_dir = _resolve_out_dir(args.out or "run", args.force)
    cfg_digest = training.config_hash(cfg)
    init_state = None
    if args.init:
        ckpt = deployment.load_checkpoint(args.init)
        if ckpt.kind != "model":
            raise deployment.CheckpointError(
                f"{args.init}: cannot initialize training from a folded model"
            )
        if ckpt.config_hash and ckpt.config_hash != cfg_digest:
            logging.getLogger("qsat").warning(
                "initializing from a checkpoint written under a different config"
            )
        init_state = ckpt.tensors

    def save_fn(model, path):
        deployment.save_checkpoint(model, path, config_hash=cfg_digest)

    try:
        result = training.train(
            cfg, out_dir=out_dir, init_state=init_state, save_checkpoint_fn=save_fn
        )
    except training.DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        _emit({"command": "train", "status": "diverged", "out": str(out_dir)})
        return 4
    save_fn(result.model, out_dir / "checkpoint.ckpt")
    _emit(
        {
            "command": "train",
            "status": "ok",
            "out": str(out_dir),
            "checkpoint": str(out_dir / "checkpoint.ckpt"),
            "final_top1": result.final_top1,
            "final_top5": result.final_top5,
        }
    )
    return 0


def cmd_eval(args) -> int:
    from . import deployment, training
    from .data import load_dataset
    import numpy as np

    if not args.init:
        raise training.ConfigError("eval requires --init with a checkpoint")
    cfg = _load_config(args)
    _, val_set = load_dataset(
        cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
        train_size=cfg.train_size, val_size=cfg.val_size,
    )
    ckpt = deployment.load_checkpoint(args.init)
    if ckpt.kind == "folded":
        folded = deployment.load_folded(args.init)
        folded.check_input(val_set.image_shape)
        hits1 = hits5 = 0
        for start in range(0, len(val_set), cfg.batch_size):
            images = val_set.images[start : start + cfg.batch_size]
            labels = val_set.labels[start : start + cfg.batch_size]
            logits = folded.forward_int(images)
            hits1 += int(np.sum(logits.argmax(axis=1) == labels))
            hits5 += training._topk_hits(logits, labels, 5)
        top1, top5v = hits1 / len(val_set), hits5 / len(val_set)
        path_kind = "folded"
    else:
        _, model = _build_with_checkpoint(args)
        top1, top5v = training.evaluate(model, val_set, batch_size=cfg.batch_size)
        path_kind = "float"
    _emit(
        {
            "command": "eval",
            "status": "ok",
            "path": path_kind,
            "top1": top1,
            "top5": top5v,
        }
    )
    return 0


def cmd_diagnose(args) -> int:
    from . import diagnostics, training

    if not args.init:
        raise training.ConfigError("diagnose requires --init with a checkpoint")
    cfg, model = _build_with_checkpoint(args)
    records = diagnostics.collect_records(model, 0, None)
    report = diagnostics.etr_check(model, records)
    print(report.table(), file=sys.stderr)
    kappa0 = next((r.kappa0 for r in records if r.kappa0 is not None), None)
    _emit(
        {
            "command": "diagnose",
            "status": "ok",
            "kappa0": kappa0,
            "rule1": report.verdict("ETR-I"),
            "rule2": report.verdict("ETR-II"),
            "passed": report.passed,
        }
    )
    return 0 if report.passed else 1


def cmd_study(args) -> int:
    from . import diagnostics

    out_dir = _resolve_out_dir(args.out, args.force)
    if args.name == "clamp-var":
        rows = diagnostics.clamp_variance_study(
            (10, 100, 1000, 10000), seed=args.seed
        )
        header = "n,ratio"
        path = out_dir / "clamp_var.csv"
    else:
        rows = diagnostics.quant_variance_study(
            range(1, 9), seed=args.seed
        )
        header = "bits,ratio"
        path = out_dir / "quant_var.csv"
    lines = [header] + [f"{x},{ratio!r}" for x, ratio in rows]
    path.write_text("\n".join(lines) + "\n")
    _emit({"command": "study", "status": "ok", "name": args.name, "csv": str(path)})
    return 0


def cmd_fold(args) -> int:
    from . import deployment, training

    if not args.init:
        raise training.ConfigError("fold requires --init with a checkpoint")
    cfg, model = _build_with_checkpoint(args)
    out_dir = _resolve_out_dir(args.out or "folded", args.force)
    folded = deployment.fold_bn(model)
    path = out_dir / "folded.ckpt"
    deployment.save_folded(folded, path, config_hash=training.config_hash(cfg))
    _emit({"command": "fold", "status": "ok", "out": str(path)})
    return 0


def main(argv=None) -> int:
    _setup_threads()
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)

    from .data import DatasetError
    from .deployment import CheckpointError, FoldError
    from .training import ConfigError

    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "diagnose": cmd_diagnose,
        "study": cmd_study,
        "fold": cmd_fold,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    except FoldError as exc:
        print(f"fold error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
