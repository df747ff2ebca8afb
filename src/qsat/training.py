"""Training recipe: Nesterov SGD with weight decay, per-iteration cosine
schedule with linear warmup, cross-entropy on raw uint8 inputs, and the
full-precision-pretrain -> quantized-finetune workflow at desk scale.

Quantized runs reuse the full-precision hyperparameters unchanged and must
start from a pretrained checkpoint.  Under a fixed seed the data order is
identical across configurations: the quantization scheme never touches the
data RNG stream.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import DomainError, Tensor, _record
from .quant import PactBackward, RescaleMode
from .network import build_preset, PRESETS
from .data import DATASETS, ArrayDataset, Batch, DatasetError, load_dataset
from . import deployment, diagnostics

__all__ = [
    "ConfigError",
    "DivergenceError",
    "TrainConfig",
    "parse_config",
    "parse_config_file",
    "config_hash",
    "cross_entropy",
    "SGD",
    "sgd_step",
    "lr_schedule",
    "train",
    "evaluate",
    "accuracy",
    "TrainResult",
    "load_splits",
    "open_model",
    "build_model_from_config",
    "METRICS_COLUMNS",
]

log = logging.getLogger("qsat.training")

METRICS_COLUMNS = ("epoch", "split", "top1", "top5", "loss", "lr")


class ConfigError(ValueError):
    """Run configuration is missing keys, has unknown keys, or bad values."""


class DivergenceError(RuntimeError):
    """Loss, or the model state at an epoch's end, became non-finite."""


@dataclass
class TrainConfig:
    """All knobs of one run; parsed from flat key=value config files.

    Every value is checked when the config is made.  A ``layer<i>`` index
    is checked against the length of the preset's layer table, built with
    raw weights (no scheme, no warning); that length does not depend on
    the dataset, so a bad index fails before any dataset is read.
    """

    preset: str
    dataset: str
    epochs: int
    batch_size: int
    bits: str                      # "raw" | "fp" | "1".."16" (weights)
    act_bits: str = "fp"           # "fp" | "1".."16"
    rescale: str = "none"          # none | constant | stddev
    pact_mode: str = "cg"          # cg | legacy
    first_last_bits: str = "8"     # minimum edge bit-width, or "uniform"
    base_lr: float = 0.05
    warmup_epochs: int = 2
    momentum: float = 0.9
    weight_decay: float = 4e-5
    seed: int = 1
    diag_every: int = 50
    train_size: int = 1280
    val_size: int = 320
    dataset_path: str | None = None
    layer_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset '{self.preset}'")
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset '{self.dataset}'; expected one of {DATASETS}")
        if self.dataset_path is not None and self.dataset.startswith("blobs"):
            raise ConfigError(f"dataset '{self.dataset}' is generated and reads no dataset_path")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if not self.base_lr > 0:
            raise ConfigError("base_lr must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError("warmup_epochs must satisfy 0 <= warmup < epochs")
        if not _valid_bits(self.bits, ("raw", "fp")):
            raise ConfigError("bits must be 'raw', 'fp', or an integer 1..16")
        if not _valid_bits(self.act_bits, ("fp",)):
            raise ConfigError("act_bits must be 'fp' or an integer 1..16")
        if not _valid_bits(self.first_last_bits, ("uniform",)):
            raise ConfigError("first_last_bits must be 'uniform' or an integer 1..16")
        n_linear = len(build_preset(self.preset, weight_bits="raw").layer_table)
        for idx, override in self.layer_overrides.items():
            if not 0 <= idx < n_linear:
                raise ConfigError(f"layer{idx}: preset '{self.preset}' has linear "
                                  f"layers 0..{n_linear - 1}")
            if "bits" in override and not _valid_bits(override["bits"], ("raw", "fp")):
                raise ConfigError(f"layer{idx}.bits must be 'raw', 'fp', or an integer 1..16")
        if self.rescale not in ("none", "constant", "stddev"):
            raise ConfigError("rescale must be none, constant, or stddev")
        if self.pact_mode not in ("cg", "legacy"):
            raise ConfigError("pact_mode must be cg or legacy")
        if not math.isfinite(self.base_lr):
            raise ConfigError("base_lr must be finite")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must satisfy 0 <= momentum < 1")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.diag_every < 1:
            raise ConfigError("diag_every must be >= 1")
        if self.train_size < 1 or self.val_size < 1:
            raise ConfigError("train_size and val_size must be >= 1")

    @property
    def quantized(self) -> bool:
        return self.bits.isdigit() or self.act_bits.isdigit()

    @property
    def peak_lr(self) -> float:
        return self.base_lr * self.batch_size / 256.0


def _valid_bits(value: str, words: tuple[str, ...]) -> bool:
    if value in words:
        return True
    try:
        return value.isdecimal() and 1 <= int(value) <= 16
    except ValueError:  # past int()'s digit limit
        return False


# the config file's keys: every field but the per-layer overrides, parsed by
# its annotated type; a field without a default is required
_KEYS = {f.name: f for f in dataclasses.fields(TrainConfig) if f.name != "layer_overrides"}
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


def parse_config(text: str) -> TrainConfig:
    """Parse flat ``key=value`` lines; '#' starts a comment.

    Unknown keys are errors.  Per-layer overrides use ``layer<i>.bits`` and
    ``layer<i>.rescale`` with zero-based linear-layer indices.
    """
    values: dict = {}
    overrides: dict[int, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("layer") and "." in key:
            prefix, _, what = key.partition(".")
            try:
                idx = int(prefix[len("layer"):])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad layer override key '{key}'")
            if what == "bits":
                overrides.setdefault(idx, {})["bits"] = value
            elif what == "rescale":
                try:
                    overrides.setdefault(idx, {})["rescale"] = RescaleMode(value)
                except ValueError:
                    raise ConfigError(f"line {lineno}: bad rescale '{value}'")
            else:
                raise ConfigError(f"line {lineno}: unknown override '{what}'")
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        cast, needs = _NUMBERS.get(_KEYS[key].type, (str, ""))
        try:
            values[key] = cast(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: key '{key}' needs {needs}")
    missing = [k for k, f in _KEYS.items()
               if f.default is dataclasses.MISSING and k not in values]
    if missing:
        raise ConfigError(f"missing config key{'s' if len(missing) > 1 else ''}: "
                          + ", ".join(missing))
    return TrainConfig(layer_overrides=overrides, **values)


def parse_config_file(path) -> TrainConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    return parse_config(text)


def config_hash(cfg: TrainConfig) -> str:
    import hashlib

    payload = repr(sorted(dataclasses.asdict(cfg).items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def class_count(train_set: ArrayDataset, val_set: ArrayDataset) -> int:
    """The classifier's width: every label of either split, and at least
    the two cross-entropy needs."""
    return max(train_set.num_classes, val_set.num_classes, 2)


def load_splits(cfg: TrainConfig) -> tuple[ArrayDataset, ArrayDataset]:
    """The training and validation splits of the config's dataset."""
    return load_dataset(
        cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
        train_size=cfg.train_size, val_size=cfg.val_size,
    )


def open_model(cfg: TrainConfig, tensors: dict[str, np.ndarray] | None):
    """Both splits, and the config's model sized for their classes and
    holding ``tensors`` when they are given."""
    train_set, val_set = load_splits(cfg)
    model = build_model_from_config(cfg, train_set.image_shape, class_count(train_set, val_set))
    if tensors is not None:
        deployment.load_model_state(model, tensors)
    return train_set, val_set, model


def build_model_from_config(cfg: TrainConfig, image_shape, classes: int):
    channels, size, _ = image_shape
    first_last = cfg.first_last_bits
    if first_last != "uniform":
        first_last = int(first_last)
    return build_preset(
        cfg.preset,
        image_size=size,
        in_channels=channels,
        classes=classes,
        weight_bits=cfg.bits,
        act_bits=cfg.act_bits,
        rescale=RescaleMode(cfg.rescale),
        pact_mode=PactBackward(cfg.pact_mode),
        first_last_bits=first_last,
        layer_overrides=cfg.layer_overrides,
        seed=cfg.seed,
    )


# -- loss --------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy averaged over the batch, max-stabilized."""
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise DomainError(f"logits must be NxK with K >= 2, got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DomainError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise DomainError(f"labels outside [0, {k}): {labels.min()}..{labels.max()}")
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(z), axis=1))
    picked = z[np.arange(n), labels]
    loss = float(np.mean(log_norm - picked))
    softmax = np.exp(z - log_norm[:, None])
    out = Tensor(np.asarray(loss, dtype=logits.data.dtype))

    def backward(g):
        grad = softmax.copy()
        grad[np.arange(n), labels] -= 1.0
        return ((float(g) / n) * grad.astype(logits.data.dtype),)

    return _record("cross_entropy", out, (logits,), backward)


# -- optimizer & schedule -----------------------------------------------------


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """One Nesterov update without dampening, in place.

    v <- mu*v + (g + wd*w);  w <- w - lr*(g + wd*w + mu*v)
    """
    d = grad + weight_decay * param
    velocity *= momentum
    velocity += d
    param -= lr * (d + momentum * velocity)


class SGD:
    """Nesterov momentum over a parameter list, with velocity state."""

    def __init__(self, params: list[Tensor], momentum: float = 0.9,
                 weight_decay: float = 4e-5):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float) -> None:
        for p, v in zip(self.params, self.velocities):
            if p.grad is None:
                continue
            sgd_step(p.data, p.grad, v, lr, self.momentum, self.weight_decay)


def lr_schedule(step: int, total_steps: int, warmup_steps: int, peak: float) -> float:
    """Linear warmup from zero to the peak, then cosine decay to zero.

    Updated every iteration; the step right after warmup gets exactly the
    peak rate.
    """
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if warmup_steps > 0 and step < warmup_steps:
        return peak * step / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    t = (step - warmup_steps) / span
    return peak * 0.5 * (1.0 + math.cos(math.pi * t))


# -- evaluation ----------------------------------------------------------------


def _topk_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> int:
    kk = min(k, logits.shape[1])
    top = np.argpartition(-logits, kk - 1, axis=1)[:, :kk]
    return int(np.sum(top == labels[:, None]))


def accuracy(logits_fn, dataset: ArrayDataset, batch_size: int):
    """Top-1/top-5 accuracy of ``logits_fn(images)`` over ``dataset`` in
    batches of ``batch_size``; an ``ArrayDataset`` is never empty."""
    hits1 = hits5 = 0
    for start in range(0, len(dataset), batch_size):
        labels = dataset.labels[start : start + batch_size]
        logits = logits_fn(dataset.images[start : start + batch_size])
        hits1 += int(np.sum(logits.argmax(axis=1) == labels))
        hits5 += _topk_hits(logits, labels, 5)
    return hits1 / len(dataset), hits5 / len(dataset)


def evaluate(model, dataset: ArrayDataset, batch_size: int = 128):
    """Deterministic top-1/top-5 accuracy in eval mode (running BN stats);
    an eval-mode forward goes on no tape."""
    return accuracy(lambda images: model.forward(Tensor(images), training=False).data,
                    dataset, batch_size)


# -- training loop --------------------------------------------------------------


@dataclass
class TrainResult:
    model: object
    metrics_rows: list
    records: list
    final_top1: float
    final_top5: float


def train(
    cfg: TrainConfig,
    out_dir=None,
    init_state: dict[str, np.ndarray] | None = None,
    save_checkpoint_fn=None,
) -> TrainResult:
    """Run the full recipe and return the trained model plus logs.

    Quantized configs must supply ``init_state`` (tensors from a pretrained
    full-precision checkpoint).  When ``out_dir`` is given, metrics and
    diagnostics files and ``checkpoint.ckpt`` are always written there; the
    metrics and diagnostics are written when the epoch loop ends, also when
    it raises, so a divergence abort leaves the rows and records of what
    ran.  The checkpoint is refreshed at every epoch end whose model state
    is finite, so a divergence abort keeps the last good state on disk, or
    none.  It
    is written by ``save_checkpoint_fn(model, path)`` when one is passed,
    and otherwise by ``deployment.save_checkpoint`` with the config's hash.
    """
    if cfg.quantized and init_state is None:
        raise ConfigError(
            "quantized finetune requires a pretrained full-precision "
            "checkpoint (pass one via --init)"
        )
    train_set, val_set, model = open_model(cfg, init_state)

    flip_augment = train_set.image_shape[-1] == 32
    data_rng = np.random.default_rng([cfg.seed, 0xDA7A])
    params = model.parameters()
    opt = SGD(params, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    steps_per_epoch = len(train_set) // cfg.batch_size
    if steps_per_epoch == 0:
        raise DatasetError("dataset smaller than one batch")
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if save_checkpoint_fn is None:
        def save_checkpoint_fn(m, path):
            deployment.save_checkpoint(m, path, config_hash=config_hash(cfg))

    metrics_rows = []
    records: list[diagnostics.DiagnosticsRecord] = []
    step = 0

    def on_float_error(kind: str, flag: int) -> None:
        # numpy calls this in place of a RuntimeWarning: log the first error
        # with where it happened, and ignore the rest until the loop ends
        np.seterr(over="ignore", invalid="ignore", divide="ignore")
        log.warning("floating-point error (%s) at epoch %d step %d; later ones "
                    "in this run are not logged", kind, epoch, step)

    # a run that raises (a divergence among them) still leaves its metrics
    # and diagnostics so far on disk
    try:
        with np.errstate(over="call", invalid="call", divide="call", call=on_float_error):
            for epoch in range(cfg.epochs):
                order = data_rng.permutation(len(train_set))
                flips = (
                    data_rng.random(len(train_set)) < 0.5
                    if flip_augment
                    else np.zeros(len(train_set), dtype=bool)
                )
                loss_sum = 0.0
                hit1 = hit5 = seen = 0
                lr = 0.0
                for b in range(steps_per_epoch):
                    idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                    # an index array gathers a copy, which the flip may write into
                    images = train_set.images[idx]
                    flip_mask = flips[idx]
                    if flip_mask.any():
                        images[flip_mask] = images[flip_mask][..., ::-1]
                    batch = Batch(images, train_set.labels[idx])

                    opt.zero_grad()
                    logits = model.forward(Tensor(batch.images), training=True)
                    loss = cross_entropy(logits, batch.labels)
                    loss_value = loss.item()
                    if not math.isfinite(loss_value):
                        raise DivergenceError(
                            f"non-finite loss at epoch {epoch} step {step}"
                        )
                    loss.backward()

                    lr = lr_schedule(step, total_steps, warmup_steps, cfg.peak_lr)
                    if step % cfg.diag_every == 0 or b == 0 or b == steps_per_epoch - 1:
                        records.extend(diagnostics.collect_records(model, step, lr))

                    opt.step(lr)
                    for state in model.pact_states():
                        state.clamp_alpha()

                    loss_sum += loss_value
                    pred = logits.data.argmax(axis=1)
                    hit1 += int(np.sum(pred == batch.labels))
                    hit5 += _topk_hits(logits.data, batch.labels, 5)
                    seen += len(batch.labels)
                    step += 1

                train_top1 = hit1 / seen
                train_top5 = hit5 / seen
                val_top1, val_top5 = evaluate(model, val_set, batch_size=cfg.batch_size)
                metrics_rows.append(
                    (epoch, "train", f"{train_top1:.6f}", f"{train_top5:.6f}",
                     f"{loss_sum / steps_per_epoch:.6f}", f"{lr:.8f}")
                )
                metrics_rows.append(
                    (epoch, "val", f"{val_top1:.6f}", f"{val_top5:.6f}", "", f"{lr:.8f}")
                )
                log.info(
                    "epoch %d: train top1 %.4f, val top1 %.4f, loss %.4f",
                    epoch, train_top1, val_top1, loss_sum / steps_per_epoch,
                )
                if out_dir is not None:
                    # a finite loss can leave non-finite state (BN running
                    # statistics), which no loader accepts: keep the last file
                    for name, _, t in model.named_state():
                        if not np.isfinite(t.data).all():
                            raise DivergenceError(f"non-finite {name} at epoch {epoch}")
                    save_checkpoint_fn(model, out_dir / "checkpoint.ckpt")
    finally:
        if out_dir is not None:
            (out_dir / "metrics.csv").write_text(
                diagnostics.csv_text(METRICS_COLUMNS, metrics_rows))
            (out_dir / "diagnostics.csv").write_text(diagnostics.records_to_csv(records))
            (out_dir / "diagnostics.json").write_text(diagnostics.records_to_json(records))

    return TrainResult(
        model=model,
        metrics_rows=metrics_rows,
        records=records,
        final_top1=float(metrics_rows[-1][2]),
        final_top5=float(metrics_rows[-1][3]),
    )
