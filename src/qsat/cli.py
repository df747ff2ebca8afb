"""Command-line entry point: train, eval, diagnose, study, fold.

stdout carries exactly one machine-readable JSON summary line per
invocation; progress and warnings go to stderr.  Exit codes are stable:

  0  success (diagnose: all rules pass)
  1  diagnose found WARN/FAIL verdicts
  2  config/checkpoint/argument problems
  3  dataset problems
  4  numerical divergence: a non-finite loss, or non-finite model state at an
     epoch's end (the last per-epoch checkpoint with finite state is retained)
  5  batch-norm folding not applicable to the model

``QSAT_THREADS`` caps kernel parallelism; it must be set before numpy is
imported, which is why the heavy imports happen inside main().
"""

from __future__ import annotations

import argparse
import dataclasses
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
    """The output directory, which the caller makes once its inputs have
    loaded.  Never silently overwrite an existing run: suffix unless --force.
    """
    from .training import ConfigError

    base = Path(out)
    # the path itself, or the nearest of its parents that exists, must be a
    # directory: mkdir fails beneath a file
    nearest = next(p for p in (base, *base.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output path {base}: {nearest} exists and is not a directory")
    if force or not base.exists() or not any(base.iterdir()):
        return base
    i = 1
    while True:
        candidate = Path(f"{out}-{i}")
        if not candidate.exists() or (candidate.is_dir() and not any(candidate.iterdir())):
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

    def common(p):
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--init", help="checkpoint to initialize from")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dataset", help="override the dataset path")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")

    common(sub.add_parser("train", help="train a model per the config"))
    common(sub.add_parser("eval", help="evaluate a checkpoint"))
    common(sub.add_parser("diagnose", help="check the training rules on a checkpoint"))
    common(sub.add_parser("fold", help="fold batch norms into integer inference"))
    study = sub.add_parser("study", help="run a variance study")
    study.add_argument("name", choices=["clamp-var", "quant-var"])
    study.add_argument("--out", required=True)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--force", action="store_true")
    return parser


def _open_run(args):
    """The config, with ``--seed`` and ``--dataset`` applied, and the
    ``--init`` checkpoint, each read once.

    Only ``train`` runs without ``--init`` (the checkpoint is then None), and
    only ``eval`` takes a folded file; any other checkpoint must hold a model.
    """
    from . import deployment, training

    cfg = training.parse_config_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.dataset:
        cfg = dataclasses.replace(cfg, dataset_path=args.dataset)
    if not args.init:
        if args.command != "train":
            raise training.ConfigError(f"{args.command} requires --init with a checkpoint")
        return cfg, None
    ckpt = deployment.load_checkpoint(args.init)
    if not (args.command == "eval" and ckpt.kind == "folded"):
        deployment.check_model_checkpoint(args.init, ckpt, training.config_hash(cfg))
    return cfg, ckpt


def cmd_train(args) -> int:
    from . import deployment, training

    cfg, ckpt = _open_run(args)
    out_dir = _resolve_out_dir(args.out or "run", args.force)
    cfg_digest = training.config_hash(cfg)

    def save_fn(model, path):
        deployment.save_checkpoint(model, path, config_hash=cfg_digest)

    try:
        result = training.train(
            cfg, out_dir=out_dir, init_state=None if ckpt is None else ckpt.tensors,
            save_checkpoint_fn=save_fn,
        )
    except training.DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        _emit({"command": "train", "status": "diverged", "out": str(out_dir)})
        return 4
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

    cfg, ckpt = _open_run(args)
    if ckpt.kind == "folded":
        folded = deployment.folded_from_checkpoint(args.init, ckpt)
        _, val_set = training.load_splits(cfg)
        folded.check_input(val_set.image_shape)
        top1, top5 = training.accuracy(folded.forward_int, val_set, cfg.batch_size)
    else:
        _, val_set, model = training.open_model(cfg, ckpt.tensors)
        top1, top5 = training.evaluate(model, val_set, batch_size=cfg.batch_size)
    _emit(
        {
            "command": "eval",
            "status": "ok",
            "path": "folded" if ckpt.kind == "folded" else "float",
            "top1": top1,
            "top5": top5,
        }
    )
    return 0


def cmd_diagnose(args) -> int:
    from . import diagnostics, training

    cfg, ckpt = _open_run(args)
    _, _, model = training.open_model(cfg, ckpt.tensors)
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
    from .training import ConfigError

    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
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
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    _emit({"command": "study", "status": "ok", "name": args.name, "csv": str(path)})
    return 0


def cmd_fold(args) -> int:
    from . import deployment, training

    cfg, ckpt = _open_run(args)
    _, _, model = training.open_model(cfg, ckpt.tensors)
    out_dir = _resolve_out_dir(args.out or "folded", args.force)
    folded = deployment.fold_bn(model)
    out_dir.mkdir(parents=True, exist_ok=True)
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
