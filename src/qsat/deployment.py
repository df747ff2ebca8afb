"""Checkpoint serialization and batch-norm elimination.

The checkpoint container is ``QSAT`` magic + version + a JSON manifest
(tensor names, shapes, roles) + little-endian float32 payload in manifest
order.  Round trips are bit-exact.

Folding absorbs each BN's affine (with running statistics pre-absorbed)
into per-channel bias offsets and clip levels of the following quantized
activation, yielding an inference path that carries activations as integer
grid indices with one real-valued rescale per layer.  It applies only to
plain chains of quantized conv -> BN -> clipped activation; residual
models are rejected.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .tensor import _im2col, no_grad
from .quant import PactState, RescaleMode, dorefa_clamp, rescale_scalar
from .network import BatchNorm2d, ConvNet, Pool

__all__ = [
    "CheckpointError",
    "FoldError",
    "MAGIC",
    "FORMAT_VERSION",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_model_checkpoint",
    "FoldedLayer",
    "FoldedModel",
    "fold_bn",
    "save_folded",
    "load_folded",
]

log = logging.getLogger("qsat.deployment")

MAGIC = b"QSAT"
FORMAT_VERSION = 1

# folded convolutions run as float GEMMs: float32 holds every integer below
# 2^24 exactly and float64 every integer below this limit, so a layer whose
# accumulator bound reaches it cannot be folded
_ACC_LIMIT = 2**53


class CheckpointError(ValueError):
    """Bad magic/version, truncated payload, or manifest disagreement."""


class FoldError(ValueError):
    """Model structure does not admit batch-norm elimination."""


# -- checkpoint container ---------------------------------------------------


@dataclass
class Checkpoint:
    manifest: dict
    tensors: dict

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "model")

    @property
    def config_hash(self) -> str:
        return self.manifest.get("config_hash", "")


def _write_container(path, manifest: dict, arrays: list[np.ndarray]) -> None:
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(FORMAT_VERSION.to_bytes(4, "little"))
        fh.write(len(manifest_bytes).to_bytes(8, "little"))
        fh.write(manifest_bytes)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_checkpoint(model, path, config_hash: str = "") -> None:
    """Serialize model tensors; manifest order defines payload order."""
    entries = model.state_arrays()
    schemes = {f"{info.name}.weight": _scheme_json(info.layer.scheme)
               for info in model.linear_infos()}
    manifest = {
        "kind": "model",
        "config_hash": config_hash,
        "preset": model.preset,
        "tensors": [
            {
                "name": name,
                "role": role,
                "shape": list(arr.shape),
                "scheme": schemes.get(name),
            }
            for name, role, arr in entries
        ],
    }
    _write_container(path, manifest, [arr for _, _, arr in entries])


def _scheme_json(scheme) -> dict:
    if scheme is None:
        return {"bits": "raw"}
    return {
        "bits": "fp" if scheme.bits is None else scheme.bits,
        "rescale": scheme.rescale.value,
        "fan_out": scheme.fan_out,
    }


def _check_manifest(path, manifest) -> None:
    """The manifest schema: a list of uniquely named tensors with shapes."""
    entries = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: manifest is not an object with a 'tensors' list")
    names = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointError(f"{path}: tensor entry {i} has no name")
        name, shape = entry["name"], entry.get("shape")
        if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise CheckpointError(
                f"{path}: tensor '{name}' shape {shape!r} is not a list of "
                "non-negative integers"
            )
        if name in names:
            raise CheckpointError(f"{path}: duplicate tensor name '{name}'")
        names.add(name)


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a container; returns manifest plus tensor arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a QSAT checkpoint (bad magic)")
    version = int.from_bytes(blob[4:8], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    mlen = int.from_bytes(blob[8:16], "little")
    if len(blob) < 16 + mlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[16 : 16 + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest: {exc}") from exc
    _check_manifest(path, manifest)
    payload = blob[16 + mlen :]
    counts = [math.prod(t["shape"]) for t in manifest["tensors"]]
    expected = 4 * sum(counts)
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, manifest requires {expected}"
        )
    tensors = {}
    offset = 0
    for entry, count in zip(manifest["tensors"], counts):
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        try:
            tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()
        except ValueError as exc:  # an empty shape past numpy's dimension limits
            raise CheckpointError(f"{path}: tensor '{entry['name']}': {exc}") from exc
        offset += 4 * count
    return Checkpoint(manifest, tensors)


def load_model_checkpoint(path, model, expect_hash: str | None = None) -> Checkpoint:
    """Load tensors into an already-built model.

    Schemes come from the model's own configuration; only tensor values are
    taken from the file.  A config-hash mismatch warns instead of failing,
    since finetuning intentionally loads full-precision checkpoints into
    quantized configurations.
    """
    ckpt = load_checkpoint(path)
    if ckpt.kind != "model":
        raise CheckpointError(f"{path}: expected a model checkpoint, got '{ckpt.kind}'")
    if expect_hash and ckpt.config_hash and ckpt.config_hash != expect_hash:
        log.warning(
            "checkpoint %s was written under a different config (hash %s vs %s)",
            path, ckpt.config_hash, expect_hash,
        )
    model.load_state(ckpt.tensors)
    return ckpt


# -- batch-norm elimination --------------------------------------------------


@dataclass
class FoldedLayer:
    """One conv after folding: integer weights plus per-channel clip data.

    ``weight_idx`` holds the quantizer grid indices (0..weight_levels) of
    the signed weight grid, as quantized; ``channel_sign`` is -1 on output
    channels whose normalization scale was negative (the fold flips those
    channels' weights and uses the magnitude of the scale).  ``offset`` and
    ``clip`` live in units of the real weight-times-integer-input product;
    ``requant`` maps the integer accumulator onto the next activation grid.
    """

    name: str
    weight_idx: np.ndarray
    channel_sign: np.ndarray
    weight_levels: int
    stride: int
    pad: int
    in_scale: float
    in_levels: int
    offset: np.ndarray
    clip: np.ndarray
    requant: np.ndarray
    out_alpha: float
    out_levels: int
    pool_k: int

    @property
    def signed_weights(self) -> np.ndarray:
        base = 2 * self.weight_idx.astype(np.int64) - self.weight_levels
        return base * self.channel_sign.astype(np.int64).reshape(-1, 1, 1, 1)

    @property
    def grid_weights(self) -> np.ndarray:
        # float32 grid values bit-identical to the training quantizer
        # output; the channel flip is a sign change, which is exact
        q = (self.weight_idx / self.weight_levels).astype(np.float32)
        base = q * np.float32(2.0) - np.float32(1.0)
        return base * self.channel_sign.astype(np.float32).reshape(-1, 1, 1, 1)

    @property
    def offset_int(self) -> np.ndarray:
        return np.rint(self.weight_levels * self.offset).astype(np.int64)

    @property
    def clip_int(self) -> np.ndarray:
        return np.rint(self.weight_levels * self.clip).astype(np.int64)


@dataclass
class FoldedModel:
    layers: list
    fc_weight: np.ndarray
    fc_in_scale: float
    logit_scale: float
    preset: str = ""

    def forward_float(self, images: np.ndarray, return_margin: bool = False):
        """Folded forward in float64: exact algebra of the folded form.

        Activations are carried as (grid index, scale) pairs; offsets and
        clips are applied unquantized and the convolution uses the same
        float32 grid weight values as the unfolded network, so this path
        matches an unfolded float64 evaluation up to reassociation noise.
        ``return_margin`` also reports each sample's minimum distance of
        any rounding argument to a tie.
        """
        logits, margin = self._forward(images, exact=False)
        return (logits, margin) if return_margin else logits

    def forward_int(self, images: np.ndarray) -> np.ndarray:
        """Pure integer path; grid-quantized offsets and clips, integer
        accumulators, one real multiply per layer, float final layer.

        Each conv is a float32 or float64 GEMM whose partial sums are all
        integers the dtype holds exactly (``_gemm_dtype``), so the result
        is that of int64 arithmetic.  The last layer's positive rescale
        factor is dropped, which leaves the logit argmax unchanged.
        """
        x = np.rint(images)
        if x.min() < 0 or x.max() > self.layers[0].in_levels:
            raise ValueError("integer inputs outside the expected grid range")
        return self._forward(x, exact=True)[0]

    def _forward(self, x: np.ndarray, exact: bool):
        """The layer loop of both paths: one GEMM on im2col rows per conv,
        then the per-channel epilogue in place, in float64, on its (rows,
        channels) output, which the next conv reads as an NCHW view."""
        batch = len(x)
        margin = np.full(batch, np.inf)
        for layer in self.layers:
            if exact:
                dtype, weights = _gemm_dtype(layer), layer.signed_weights
                offset, clip, requant = layer.offset_int, layer.clip_int, layer.requant
            else:
                dtype, weights = np.float64, layer.grid_weights
                offset, clip = layer.offset, layer.clip
                requant = layer.requant * layer.weight_levels
            co, k = weights.shape[0], weights.shape[2]
            col, ho, wo, _ = _im2col(x.astype(dtype, copy=False), k, layer.stride, layer.pad)
            acc = (col @ weights.reshape(co, -1).T.astype(dtype)).astype(np.float64, copy=False)
            acc += offset
            np.clip(acc, 0.0, clip, out=acc)
            acc *= requant
            if not exact:
                frac = np.abs(acc - np.floor(acc) - 0.5)
                margin = np.minimum(margin, frac.reshape(batch, -1).min(axis=1))
            acc += 0.5
            np.floor(acc, out=acc)
            np.clip(acc, 0.0, layer.out_levels, out=acc)
            out, p = acc.reshape(batch, ho, wo, co), layer.pool_k
            if p > 1:
                out = out.reshape(batch, ho // p, p, wo // p, p, co).sum(axis=(2, 4))
            x = out.transpose(0, 3, 1, 2)
        logits = (self.fc_in_scale * x.reshape(batch, -1)) @ self.fc_weight
        return (logits if exact else self.logit_scale * logits), margin


def _gemm_dtype(layer: FoldedLayer):
    """Float dtype in which the layer's integer conv is exact.

    No partial sum exceeds B, the largest per-channel sum of |signed
    weight| times ``in_levels``, in any summation order.  float32 holds
    every integer below 2^24 exactly and float64 every one below 2^53; the
    float64 epilogue adds the rounded offset, so B plus it stays below 2^53.
    """
    w = np.abs(layer.signed_weights)
    bound = int(w.reshape(len(w), -1).sum(axis=1).max()) * layer.in_levels
    worst = bound + int(np.max(np.abs(layer.offset_int)))
    if worst >= _ACC_LIMIT:
        raise FoldError(
            f"layer '{layer.name}': integer accumulator bound {worst} reaches "
            "2^53, past what float64 holds exactly"
        )
    return np.float32 if bound < 2**24 else np.float64


def _weight_grid_indices(layer) -> tuple[np.ndarray, int, float]:
    """Quantizer grid indices, level count, and detached rescale factor.

    The index math goes through the same rounding kernel as the training
    quantizer so the folded grid is bit-identical to the unfolded one.
    """
    from .quant import _qk_array

    scheme = layer.scheme
    if scheme is None or not scheme.is_quantized:
        raise FoldError(
            f"layer '{layer.name}' has unquantized weights; folding needs an "
            "integer weight grid"
        )
    levels = scheme.levels
    with no_grad():
        wt = dorefa_clamp(layer.w).data
    qvals = _qk_array(np.clip(wt, 0.0, 1.0), levels)
    idx = np.rint(qvals.astype(np.float64) * levels)
    q_signed = (qvals * 2.0 - 1.0).astype(layer.w.data.dtype)
    factor = 1.0
    if scheme.rescale is RescaleMode.CONSTANT:
        factor = 1.0 / rescale_scalar(q_signed, scheme, layer.w)
    elif scheme.rescale is RescaleMode.STDDEV:
        factor = rescale_scalar(q_signed, scheme, layer.w)
    return idx, levels, factor


def fold_bn(model) -> FoldedModel:
    """Absorb BN affine maps into the following activation's offsets/clips.

    Requires a plain sequential chain where every BN directly follows a
    weight-quantized linear layer and precedes a clipped quantized
    activation, with running statistics frozen.  Residual structures and
    already-folded models are rejected.  Channels with negative BN scale
    are handled by flipping the sign of that channel's weights first;
    an exactly zero scale is an error.
    """
    if isinstance(model, FoldedModel):
        raise FoldError("model is already folded")
    if getattr(model, "residual", False):
        raise FoldError(
            f"preset '{model.preset}' contains skip connections; batch-norm "
            "elimination applies only to plain chains (offending connection: "
            "residual add)"
        )
    if not isinstance(model, ConvNet):
        raise FoldError(f"cannot fold model of type {type(model).__name__}")

    layers = []
    in_scale = 1.0
    in_levels = 255  # uint8 image grid
    *conv_records, fc_record = model.layer_table
    for record in conv_records:
        conv, bn, pact, pool = (record.layer, record.find(BatchNorm2d),
                                record.find(PactState), record.find(Pool))
        if pact is None:
            raise FoldError(
                f"layer '{conv.name}' has no clipped quantized activation to "
                "absorb the normalization into"
            )
        idx, w_levels, factor = _weight_grid_indices(conv)
        co = conv.out_channels
        if bn is not None:
            sigma = np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
            gamma_abs = bn.gamma.data.astype(np.float64) / sigma
            beta_abs = bn.beta.data.astype(np.float64) - gamma_abs * bn.running_mean.astype(np.float64)
        else:
            gamma_abs = np.ones(co)
            beta_abs = np.zeros(co)
        gamma_eff = gamma_abs * factor
        if np.any(gamma_eff == 0.0):
            dead = int(np.flatnonzero(gamma_eff == 0.0)[0])
            raise FoldError(
                f"layer '{conv.name}' channel {dead} has zero normalization "
                "scale; cannot fold a degenerate channel"
            )
        channel_sign = np.where(gamma_eff < 0, -1.0, 1.0)
        gamma_eff = np.abs(gamma_eff)

        alpha_out = pact.alpha_value
        a_out = 2**pact.bits - 1
        offset = beta_abs / (gamma_eff * in_scale)
        clip = alpha_out / (gamma_eff * in_scale)
        requant = (a_out / alpha_out) * gamma_eff * in_scale / w_levels

        pool_k = 1
        if pool is not None:
            if pool.kind != "avg":
                raise FoldError(
                    f"layer '{conv.name}': only average pooling folds into the "
                    "integer grid"
                )
            pool_k = pool.k
        layer = FoldedLayer(
            name=conv.name,
            weight_idx=idx,
            channel_sign=channel_sign,
            weight_levels=w_levels,
            stride=conv.stride,
            pad=conv.pad,
            in_scale=in_scale,
            in_levels=in_levels,
            offset=offset,
            clip=clip,
            requant=requant,
            out_alpha=alpha_out,
            out_levels=a_out,
            pool_k=pool_k,
        )
        _gemm_dtype(layer)  # raises if the accumulators cannot be exact
        layers.append(layer)
        in_scale = (alpha_out / a_out) / (pool_k * pool_k)
        in_levels = a_out * pool_k * pool_k

    fc_idx, fc_levels, fc_factor = _weight_grid_indices(fc_record.layer)
    fc_q = (fc_idx / fc_levels).astype(np.float32)
    fc_weight = (fc_q * np.float32(2.0) - np.float32(1.0)).astype(np.float64)
    return FoldedModel(
        layers=layers,
        fc_weight=fc_weight,
        fc_in_scale=in_scale,
        logit_scale=fc_factor,
        preset=model.preset,
    )


# -- folded-model container ---------------------------------------------------

# per-layer scalars of the manifest's meta, with their types
_LAYER_META = {"weight_levels": int, "stride": int, "pad": int, "in_scale": float,
               "in_levels": int, "out_alpha": float, "out_levels": int, "pool_k": int}
# per-layer payload tensors: role, FoldedLayer field
_LAYER_TENSORS = (("int_weight", "weight_idx"), ("offset", "offset"),
                  ("clip", "clip"), ("scale", "requant"))


def save_folded(folded: FoldedModel, path, config_hash: str = "") -> None:
    entries = []
    meta_layers = []
    for i, layer in enumerate(folded.layers):
        entries += [(f"L{i}.{role}", role, getattr(layer, field))
                    for role, field in _LAYER_TENSORS]
        meta_layers.append({
            "name": layer.name,
            "channel_sign": layer.channel_sign.astype(int).tolist(),
            **{key: getattr(layer, key) for key in _LAYER_META},
        })
    entries.append(("fc.weight", "weight", folded.fc_weight))
    manifest = {
        "kind": "folded", "config_hash": config_hash, "preset": folded.preset,
        "tensors": [{"name": name, "role": role, "shape": list(arr.shape)}
                    for name, role, arr in entries],
        "meta": {"layers": meta_layers, "fc_in_scale": folded.fc_in_scale,
                 "logit_scale": folded.logit_scale},
    }
    _write_container(path, manifest, [arr for _, _, arr in entries])


def load_folded(path) -> FoldedModel:
    """Read a folded model, rejecting any field the exact integer path
    relies on that is missing or out of range."""
    ckpt = load_checkpoint(path)
    if ckpt.kind != "folded":
        raise CheckpointError(f"{path}: expected a folded model, got '{ckpt.kind}'")
    try:
        meta = ckpt.manifest["meta"]
        layers = [
            FoldedLayer(
                name=lm["name"],
                channel_sign=np.asarray(lm["channel_sign"], dtype=np.float64),
                **{key: cast(lm[key]) for key, cast in _LAYER_META.items()},
                **{field: ckpt.tensors[f"L{i}.{role}"].astype(np.float64)
                   for role, field in _LAYER_TENSORS},
            )
            for i, lm in enumerate(meta["layers"])
        ]
        folded = FoldedModel(
            layers=layers,
            fc_weight=ckpt.tensors["fc.weight"].astype(np.float64),
            fc_in_scale=float(meta["fc_in_scale"]),
            logit_scale=float(meta["logit_scale"]),
            preset=ckpt.manifest.get("preset", ""),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed folded model: missing or bad {exc}") from exc
    for prev, layer in zip([None, *layers], layers):
        idx, levels = layer.weight_idx, layer.weight_levels
        chained = prev is None or layer.in_levels == prev.out_levels * prev.pool_k**2
        for ok, problem in (
            (idx.ndim == 4 and np.all((idx == np.rint(idx)) & (idx >= 0) & (idx <= levels)),
             f"int_weight is not a 4-D kernel of integers in 0..{levels}"),
            (np.all(np.abs(layer.channel_sign) == 1.0),
             "channel_sign holds values other than +1 and -1"),
            (all(np.shape(v) == np.shape(idx)[:1]
                 for v in (layer.channel_sign, layer.offset, layer.clip, layer.requant)),
             "a per-channel vector does not match the output channel count"),
            (chained, "in_levels differs from the previous layer's out_levels * pool_k^2"),
        ):
            if not ok:
                raise CheckpointError(f"{path}: layer '{layer.name}' {problem}")
    return folded
