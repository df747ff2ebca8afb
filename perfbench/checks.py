"""Output checks that recompute what the program produces without its kernels.

Each check is one operation counted in the run's ``attempted``.  A check
that fails counts in ``failed``; the run stays ``correct`` only when every
failed check is a known fault of the program, one that fails on every run
on seed-independent inputs and by no more than was measured (see
README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qsat import deployment, diagnostics, network, tensor, training

# top-1 a training workload must reach, far over the 0.1 chance level of
# ten classes; fixed before any run was measured
TOP1_FLOOR = 0.5
# the folded integer path must pick the float model's class this often
FOLD_AGREEMENT = 0.99
# ETR-I: the classifier's kappa0 must stay below this
KAPPA0_LIMIT = 0.1
# convnet-bn on 32x32 inputs ends block6 with a 4x4 average pool, which
# kappa0 divides by squared
CONVNET_FC_POOL = 4

# The integer path rounds each BN offset to whole accumulator units; at
# 4-bit weights that moves the argmax of 6 of the 320 fixed reference
# images (1.9%; CHANGES.md, FOUND).  Those images do not depend on the
# seed, so the agreement check fails on every run and is counted in
# ``failed``.  It is a known fault only while no more images than those 6
# disagree; any further loss of agreement makes the run incorrect.
KNOWN_FAULT_AGREEING_IMAGES = 314


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    known_fault: bool = False


class CheckList:
    def __init__(self):
        self.checks: list[Check] = []

    def add(self, name: str, ok: bool, detail: str = "", known_fault: bool = False) -> None:
        self.checks.append(Check(name, bool(ok), detail, bool(known_fault)))

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    @property
    def correct(self) -> bool:
        return all(c.known_fault for c in self.failed)


# -- quantizer reference ------------------------------------------------------


def rounding_argument(w: np.ndarray, levels: int) -> np.ndarray:
    """The paper's weight quantizer up to its rounding step, in float64.

    tanh, divide by the per-layer max |tanh|, map [-1, 1] onto [0, 1] and
    scale to ``levels`` steps; rounding this gives the grid index.
    """
    t = np.tanh(w.astype(np.float64))
    return (t / np.max(np.abs(t)) + 1.0) / 2.0 * levels


def check_effective_weight(checks: CheckList, name: str, w: np.ndarray,
                           eff: np.ndarray, bits: int, fan_out: int | None) -> None:
    """eff == Q / sqrt(n_hat * E[Q^2]) (or Q without rescale), Q on the grid."""
    levels = 2**bits - 1
    arg = rounding_argument(w, levels)
    idx = np.floor(arg + 0.5)
    # float32 rounding in the program may send these either way
    near_tie = np.abs(arg - np.floor(arg) - 0.5) < 1e-5 * levels
    q_ref = 2.0 * idx / levels - 1.0
    eff = eff.astype(np.float64)
    # the program's scale is the one constant eff / Q takes; |Q| >= 0.5
    # keeps float32 cancellation near Q = 0 out of the estimate
    big = (np.abs(q_ref) >= 0.5) & ~near_tie
    scale = float(np.median(eff[big] / q_ref[big]))
    q_prog = eff / scale
    idx_prog = np.rint((q_prog + 1.0) * levels / 2.0)
    grid_ok = bool(np.array_equal(idx_prog[~near_tie], idx[~near_tie])
                   and np.max(np.abs(q_prog - (2.0 * idx_prog / levels - 1.0))) < 1e-6)
    # tie elements may round either way; take the program's choice for them
    below = np.floor(arg[near_tie])
    ties_ok = bool(np.all((idx_prog[near_tie] == below) | (idx_prog[near_tie] == below + 1)))
    q_full = np.where(near_tie, 2.0 * idx_prog / levels - 1.0, q_ref)
    want = 1.0 if fan_out is None else 1.0 / math.sqrt(fan_out * np.mean(q_full**2))
    scale_ok = abs(scale / want - 1.0) < 2e-6
    checks.add(
        f"quant.{name}.effective_weight",
        grid_ok and ties_ok and scale_ok,
        f"{int(near_tie.sum())} tie elements exempt, scale {scale:.9g} vs {want:.9g}",
    )


def q4_convnet_checks(checks: CheckList, model, cfg, state: dict) -> None:
    """Effective weights, the SAT invariant and kappa0 of the trained model.

    ``state`` holds the tensors of the checkpoint the run wrote last; the
    raw weights come from there.
    """
    first_last = int(cfg.first_last_bits)
    infos = model.linear_infos()
    with tensor.no_grad():
        effs = [info.layer.effective().data for info in infos]
    for i, (info, eff) in enumerate(zip(infos, effs)):
        edge = i in (0, len(infos) - 1)
        bits = max(int(cfg.bits), first_last) if edge else int(cfg.bits)
        # convnet-bn puts BN after every conv, so SAT rescales only the fc
        last = i == len(infos) - 1
        fan_out = eff.shape[1] if last else None
        check_effective_weight(checks, info.name, state[f"{info.name}.weight"], eff,
                               bits, fan_out)
        if last:
            product = float(np.mean(eff.astype(np.float64) ** 2)) * fan_out
            checks.add(f"quant.{info.name}.rescale_invariant",
                       abs(product - 1.0) < 1e-5, f"mean_square*fan_out {product!r}")
    fc_eff = effs[-1].astype(np.float64)
    k0_ref = fc_eff.shape[0] * float(np.mean(fc_eff**2)) / CONVNET_FC_POOL**2
    records = diagnostics.collect_records(model, 0, None)
    k0_prog = next(r.kappa0 for r in records if r.kappa0 is not None)
    checks.add("diagnostics.kappa0", abs(k0_prog / k0_ref - 1.0) < 1e-6 and k0_ref < KAPPA0_LIMIT,
               f"numpy {k0_ref!r}, diagnostics {k0_prog!r}")


# -- training outcome ---------------------------------------------------------


def training_outcome_checks(checks: CheckList, epoch_losses: list[float],
                            final_top1: float) -> None:
    checks.add("training.loss_decreases", epoch_losses[-1] < epoch_losses[0],
               f"epoch losses {epoch_losses}")
    checks.add("training.top1_above_floor", final_top1 > TOP1_FLOOR,
               f"final val top-1 {final_top1} vs floor {TOP1_FLOOR}")


def float_logits(model, images: np.ndarray, batch_size: int) -> np.ndarray:
    with tensor.no_grad():
        return np.concatenate([
            model.forward(tensor.Tensor(images[s : s + batch_size]), training=False).data
            for s in range(0, len(images), batch_size)
        ])


def evaluate_count_check(checks: CheckList, model, dataset, batch_size: int) -> None:
    """The top-1 that training.evaluate reports is our own argmax count."""
    top1, _ = training.evaluate(model, dataset, batch_size=batch_size)
    hits = int(np.sum(float_logits(model, dataset.images, batch_size).argmax(1)
                      == dataset.labels))
    checks.add("training.evaluate_top1", abs(top1 * len(dataset) - hits) < 1e-6,
               f"evaluate {top1!r}, own count {hits}/{len(dataset)}")


# -- central differences --------------------------------------------------------


def gradient_check(checks: CheckList, cfg, state: dict, images: np.ndarray,
                   labels: np.ndarray, classes: int, directions: int = 3) -> None:
    """Directional central differences of the preset's float64 loss.

    A float64 copy of the trained model (training mode, batch statistics)
    gives the loss L(theta); for random unit directions d,
    (L(theta + eps d) - L(theta - eps d)) / 2 eps must match grad . d.
    """
    model = network.build_preset(
        cfg.preset, image_size=images.shape[-1], in_channels=images.shape[1],
        classes=classes,
        weight_bits=cfg.bits, act_bits=cfg.act_bits, seed=cfg.seed, dtype=np.float64,
    )
    model.load_state(state)
    params = model.parameters()
    x = tensor.Tensor(images.astype(np.float64))

    def loss_value():
        with tensor.no_grad():
            return training.cross_entropy(model.forward(x, training=True), labels).item()

    training.cross_entropy(model.forward(x, training=True), labels).backward()
    grads = [p.grad.copy() for p in params]
    base = [p.data.copy() for p in params]
    rng = np.random.default_rng(0x6AD)
    eps = 1e-6
    worst = 0.0
    for _ in range(directions):
        dirs = [rng.standard_normal(b.shape) for b in base]
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in dirs))
        dirs = [d / norm for d in dirs]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, dirs))
        values = []
        for sign in (1.0, -1.0):
            for p, b, d in zip(params, base, dirs):
                p.data = b + sign * eps * d
            values.append(loss_value())
        numeric = (values[0] - values[1]) / (2 * eps)
        worst = max(worst, abs(numeric - analytic) / max(abs(analytic), 1e-12))
    checks.add("tensor.backward_matches_central_difference", worst < 1e-4,
               f"worst relative error {worst:.3g} over {directions} directions")


# -- folded integer reference -----------------------------------------------------


def conv_int64(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Cross-correlation in int64, one kernel offset at a time."""
    n, c, h, wd = x.shape
    co, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, co, ho, wo), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            window = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("nchw,oc->nohw", window, w[:, :, i, j])
    return out


def reference_layer(layer, n: np.ndarray) -> np.ndarray:
    """One folded layer on integer activations, from its stored fields."""
    levels = layer.weight_levels
    sign = np.asarray(layer.channel_sign).astype(np.int64).reshape(-1, 1, 1, 1)
    w = (2 * np.rint(layer.weight_idx).astype(np.int64) - levels) * sign
    acc = conv_int64(n, w, layer.stride, layer.pad)
    per_channel = lambda a: np.asarray(a).reshape(1, -1, 1, 1)
    offset = np.rint(levels * per_channel(layer.offset)).astype(np.int64)
    clip = np.rint(levels * per_channel(layer.clip)).astype(np.int64)
    inner = np.clip(acc + offset, 0, clip)
    r = per_channel(layer.requant) * inner
    out = np.clip(np.floor(r + 0.5), 0, layer.out_levels).astype(np.int64)
    k = layer.pool_k
    if k > 1:
        b, c, h, wd = out.shape
        out = out.reshape(b, c, h // k, k, wd // k, k).sum(axis=(3, 5))
    return out


def reference_activations(folded, images: np.ndarray) -> list[np.ndarray]:
    """Integer input of every folded layer, then the classifier's input."""
    acts = [np.rint(images).astype(np.int64)]
    for layer in folded.layers:
        acts.append(reference_layer(layer, acts[-1]))
    return acts


def single_layer_model(folded, k: int, fc_weight: np.ndarray, fc_in_scale: float = 1.0):
    """A FoldedModel holding only layer k, with the given classifier."""
    return deployment.FoldedModel(layers=[folded.layers[k]], fc_weight=fc_weight,
                                  fc_in_scale=fc_in_scale, logit_scale=1.0,
                                  preset=folded.preset)


def program_layer_output(folded, k: int, n_in: np.ndarray, width: int,
                         chunk: int = 256) -> np.ndarray:
    """Layer k's integer output as forward_int computes it.

    forward_int returns only logits, so layer k runs alone behind identity
    classifier columns, a chunk at a time; every product is one small
    integer times 1.0, which float64 holds exactly.
    """
    cols = []
    for start in range(0, width, chunk):
        stop = min(start + chunk, width)
        eye = np.zeros((width, stop - start))
        eye[np.arange(start, stop), np.arange(stop - start)] = 1.0
        cols.append(single_layer_model(folded, k, eye).forward_int(n_in))
    return np.concatenate(cols, axis=1)


def folded_checks(checks: CheckList, folded, model, images: np.ndarray,
                  ref_images: np.ndarray, batch_size: int) -> None:
    """forward_int against the int64 reference, and both folded paths
    against the unfolded float model."""
    acts = reference_activations(folded, images)
    for k, layer in enumerate(folded.layers):
        want = acts[k + 1].reshape(len(images), -1)
        got = program_layer_output(folded, k, acts[k], want.shape[1])
        checks.add(f"deployment.forward_int.{layer.name}.activations",
                   np.array_equal(got, want), f"{int(np.sum(got != want))} of {want.size} differ")
    ref_logits = (folded.fc_in_scale * acts[-1].reshape(len(images), -1).astype(np.float64)) @ folded.fc_weight
    got = folded.forward_int(images)
    checks.add("deployment.forward_int.logits", np.allclose(got, ref_logits, rtol=1e-12, atol=1e-12),
               f"max abs difference {float(np.max(np.abs(got - ref_logits))):.3g}")
    floats = float_logits(model, ref_images, batch_size).argmax(1)
    # forward_float applies the folded offsets, clips and requant factors
    # unrounded, so it checks what fold_bn computes apart from the rounding
    # of the integer path
    for path, forward in (("forward_float", folded.forward_float),
                          ("forward_int", folded.forward_int)):
        picks = np.concatenate([forward(ref_images[s : s + batch_size]).argmax(1)
                                for s in range(0, len(ref_images), batch_size)])
        agree = int(np.sum(picks == floats))
        checks.add(f"fold.{path}.argmax_agrees_with_float",
                   agree >= FOLD_AGREEMENT * len(ref_images),
                   f"{agree} of {len(ref_images)} fixed reference images agree",
                   known_fault=path == "forward_int" and agree >= KNOWN_FAULT_AGREEING_IMAGES)
