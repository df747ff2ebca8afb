"""Checkpoint serialization and batch-norm elimination.

The checkpoint container is ``QSAT`` magic + version + a JSON manifest
(tensor names, shapes, roles) + little-endian float32 payload in manifest
order.  Round trips are bit-exact.

Folding absorbs each BN's affine (with running statistics pre-absorbed)
into per-channel bias offsets and clip levels of the following quantized
activation, yielding an inference path that carries activations as integer
grid indices with one real-valued rescale per layer.  It applies only to
plain chains of quantized conv -> BN -> clipped activation; residual
models are rejected.  The integer path's rescale and rounding are those
of float64; a layer runs them in float32 where the folded model's check,
made once when the model is made, proves that gives the same integers
(``_layer_plan``).

The folded paths lower their convolutions on their own, through
``tensor._patch_windows``, with patch-row columns in (ki, kj, c) order as
the engine's unrecorded convolutions have them; recorded (training)
convolutions keep (c, ki, kj) order to fix the bits of their float32
GEMMs.  The folded GEMMs need no order, because every partial sum they
make is exact (see ``_forward``).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .tensor import DomainError, ShapeError, _conv_extent, _images_per_chunk, _patch_windows
from .quant import PactState, RescaleMode, rescale_scalar, weight_grid
from .network import BN_EPS, BatchNorm2d, Pool

__all__ = [
    "CheckpointError",
    "FoldError",
    "MAGIC",
    "FORMAT_VERSION",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "check_model_checkpoint",
    "load_model_checkpoint",
    "load_model_state",
    "FoldedLayer",
    "FoldedModel",
    "fold_bn",
    "save_folded",
    "load_folded",
    "folded_from_checkpoint",
]

log = logging.getLogger("qsat.deployment")

MAGIC = b"QSAT"
FORMAT_VERSION = 1

# the first layer's input grid: images hold integer pixels in 0..255
_IMAGE_LEVELS = 255

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
    entries = model.named_state()
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
                "shape": list(t.shape),
                "scheme": schemes.get(name),
            }
            for name, role, t in entries
        ],
    }
    _write_container(path, manifest, [t.data for _, _, t in entries])


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
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from exc
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
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor '{entry['name']}' holds a non-finite value")
        try:
            tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()
        except ValueError as exc:  # an empty shape past numpy's dimension limits
            raise CheckpointError(f"{path}: tensor '{entry['name']}': {exc}") from exc
        offset += 4 * count
    return Checkpoint(manifest, tensors)


def load_model_state(model, tensors: dict[str, np.ndarray]) -> None:
    """``model.load_state``, whose every rejection of a state (a tensor
    that does not fit the model, or a value outside its domain) is
    reported as ``CheckpointError``; the model is then left as it was."""
    try:
        model.load_state(tensors)
    except (KeyError, ShapeError, DomainError) as exc:
        raise CheckpointError(exc.args[0]) from exc


def check_model_checkpoint(path, ckpt: Checkpoint, expect_hash: str | None) -> None:
    """Reject a checkpoint read from ``path`` unless it holds a model.

    A config-hash mismatch warns instead of failing, since finetuning
    intentionally loads full-precision checkpoints into quantized
    configurations.
    """
    if ckpt.kind != "model":
        raise CheckpointError(f"{path}: expected a model checkpoint, got '{ckpt.kind}'")
    if expect_hash and ckpt.config_hash and ckpt.config_hash != expect_hash:
        log.warning(
            "checkpoint %s was written under a different config (hash %s vs %s)",
            path, ckpt.config_hash, expect_hash,
        )


def load_model_checkpoint(path, model, expect_hash: str | None = None) -> Checkpoint:
    """Load tensors into an already-built model.

    Schemes come from the model's own configuration; only tensor values are
    taken from the file.
    """
    ckpt = load_checkpoint(path)
    check_model_checkpoint(path, ckpt, expect_hash)
    load_model_state(model, ckpt.tensors)
    return ckpt


# -- batch-norm elimination --------------------------------------------------


@dataclass
class FoldedLayer:
    """One conv after folding: integer weights plus per-channel clip data,
    the fields of one layer of a folded file and nothing else.

    ``weight_idx`` holds the quantizer grid indices (0..weight_levels) of
    the signed weight grid, as quantized; ``channel_sign`` is -1 on output
    channels whose normalization scale was negative (the fold flips those
    channels' weights and uses the magnitude of the scale).  ``offset`` and
    ``clip`` live in units of the real weight-times-integer-input product;
    ``requant`` maps the integer accumulator onto the next activation grid.
    All three hold float32 values, as the file stores them.  ``in_scale``
    (the real value of one input level) and ``out_alpha`` (the
    activation's clip level) record the scales the fold made those three
    from; neither forward reads them.  ``_layer_plan`` derives the weight
    operands of both forwards from ``weight_idx`` and ``channel_sign``.
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


@dataclass
class FoldedModel:
    """A chain of folded layers and a float classifier on the last one's
    integer output, checked once, when it is made (``__post_init__``),
    whether ``fold_bn`` made it or ``load_folded`` read it.

    The check builds each layer's exact-path plan (``_layer_plan``), and
    ``forward_int`` runs those plans, so a model runs the layers it was
    checked with: to edit a layer, make a new model from the edited
    layers (``dataclasses.replace(model)``), which checks and plans them."""

    layers: list
    fc_weight: np.ndarray
    fc_in_scale: float
    logit_scale: float
    preset: str = ""

    def __post_init__(self):
        """Raise ``FoldError`` naming the first layer that breaks a rule the
        exact integer path relies on: a missing or out-of-range field, a
        chain that does not link, or integer accumulators float64 cannot
        hold exactly.  The first layer's input grid is not checked here, so
        one layer of a chain can run alone on its own integer input."""
        if not self.layers:
            raise FoldError("the folded model has no layers")
        for prev, layer in zip([None, *self.layers], self.layers):
            idx, levels = layer.weight_idx, layer.weight_levels
            linked = prev is None or idx.ndim != 4 or idx.shape[1] == prev.weight_idx.shape[0]
            epilogue = (layer.offset, layer.clip, layer.requant)
            for ok, problem in (
                (idx.ndim == 4 and idx.size > 0 and idx.shape[2] == idx.shape[3]
                 and np.all((idx == np.rint(idx)) & (idx >= 0) & (idx <= levels)),
                 f"int_weight is not a nonempty 4-D square kernel of integers in 0..{levels}"),
                (layer.stride >= 1 and layer.pad >= 0 and layer.pool_k >= 1,
                 "stride or pool_k is below 1, or pad is negative"),
                (np.all(np.abs(layer.channel_sign) == 1.0),
                 "channel_sign holds values other than +1 and -1"),
                (all(np.shape(v) == np.shape(idx)[:1] for v in (layer.channel_sign, *epilogue)),
                 "a per-channel vector does not match the output channel count"),
                (all(np.all(np.isfinite(v)) for v in epilogue),
                 "offset, clip or requant is not finite"),
                (np.all(np.abs(layer.offset) * levels < _ACC_LIMIT)
                 and np.all((layer.clip >= 0) & (layer.clip * levels < _ACC_LIMIT))
                 and np.all(layer.requant >= 0),
                 "clip or requant is negative, or a value is past 2^53 units"),
                (math.isfinite(layer.in_scale) and math.isfinite(layer.out_alpha),
                 "in_scale or out_alpha is not finite"),
                (prev is None or layer.in_levels == prev.out_levels * prev.pool_k**2,
                 "in_levels is not the previous layer's out_levels * pool_k^2"),
                (linked, "input channels differ from the previous layer's output channels"),
            ):
                if not ok:
                    raise FoldError(f"layer '{layer.name}' {problem}")
        for key in ("fc_weight", "fc_in_scale", "logit_scale"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise FoldError(f"{key} is not finite")
        # the integer accumulators must stay exact; forward_int runs these plans
        self._plans = [_layer_plan(layer, exact=True) for layer in self.layers]

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
        integers the dtype holds exactly (``_layer_plan``), so the result
        is that of int64 arithmetic whatever the GEMM's column order or
        summation order.  Each level is clipped at 0 before the rescale and
        at the top after the rounding, by a per-channel cap that is the
        rounded clip; that equals clipping before the rescale, because the
        float64 rounding is monotone (``_layer_plan``).  A layer rescales
        and rounds in float32 where the model's check proved that gives the
        float64 result for every accumulator the layer can make, and in
        float64 otherwise.  The layers run the plans the check made.  The
        last layer's positive rescale factor is dropped, which leaves the
        logit argmax unchanged.
        """
        x = np.rint(images)
        # written so that a NaN pixel fails it
        if not (x.min() >= 0 and x.max() <= self.layers[0].in_levels):
            raise ValueError("integer inputs outside the expected grid range")
        return self._forward(x, exact=True)[0]

    def check_input(self, image_shape) -> None:
        """Raise ``CheckpointError`` unless every layer tiles its input,
        starting from (c, h, w) images, and ``fc_weight`` has one row per
        activation of the last layer."""
        c, h, w = image_shape
        for layer in self.layers:
            co, ci, k = np.shape(layer.weight_idx)[:3]
            p = layer.pool_k
            try:
                ho, wo, _, _ = _conv_extent(h, w, k, layer.stride, layer.pad)
            except ShapeError:
                ho = wo = 0
            if ci != c or min(ho, wo) < 1 or ho % p or wo % p:
                raise CheckpointError(f"layer '{layer.name}' does not tile a {c}x{h}x{w} input (kernel "
                                      f"{ci}x{k}x{k}, stride {layer.stride}, pad {layer.pad}, pool {p})")
            c, h, w = co, ho // p, wo // p
        if np.ndim(self.fc_weight) != 2 or len(self.fc_weight) != c * h * w:
            raise CheckpointError(f"fc_weight of shape {np.shape(self.fc_weight)} does not take "
                                  f"the {c * h * w} activations of the last layer")

    def _forward(self, x: np.ndarray, exact: bool):
        """The layer loop of both paths.

        Each conv runs over ranges of whole images whose patch rows fill
        about ``tensor._LOWERING_CHUNK_BYTES``.  A range is copied into a
        padded buffer, lowered into patch rows with columns in (ki, kj, c)
        order by one copy from ``_patch_windows``' view, put through one
        GEMM, the per-channel epilogue and the pooling while it is still in
        cache, in buffers and views made once per layer and call.  Layer k
        writes its activations, channels last, in layer k+1's GEMM dtype,
        and the last layer writes float64.  On the exact
        path they are integers that dtype holds, so the pooled sums and the
        casts are exact in any order.  On the float path every grid weight
        is a multiple of 2^-24 no larger than 1 in magnitude, so while
        fan-in times ``in_levels`` stays below 2^29 the float64 partial sums
        over integer activations are exact too.  So on both paths neither
        the ranges nor the column order change a bit.  The epilogue adds
        the offset and clips at 0 in the GEMM's buffer, then scales, adds
        the rounding half, rounds, and applies the cap in the plan's
        epilogue dtype: in place when that is the GEMM's dtype, and in a
        float64 buffer after a float32 GEMM otherwise.  Only the float path
        clips at the top before it scales (``_layer_plan``).  A pooled
        layer sums its windows from that buffer.
        """
        batch = len(x)
        margin = np.full(batch, np.inf)
        x = x.transpose(0, 2, 3, 1)
        plans = self._plans if exact else [_layer_plan(layer, False) for layer in self.layers]
        out_dtypes = [plan[0] for plan in plans[1:]] + [np.float64]
        for layer, plan, out_dtype in zip(self.layers, plans, out_dtypes):
            dtype, wmat, offset, clip, requant, half, cap = plan
            _, h, w, c = x.shape
            co, k, p = wmat.shape[1], layer.weight_idx.shape[-1], layer.pool_k
            ho, wo, hp, wp = _conv_extent(h, w, k, layer.stride, layer.pad)
            step = max(1, min(batch, _images_per_chunk(ho * wo * c * k * k * np.dtype(dtype).itemsize)))
            # the epilogue sees (rows, wo * co) views with the per-channel
            # vectors tiled wo times, so numpy's inner loops are long
            offset, clip, requant, half, cap = (np.tile(v, wo)
                                                for v in (offset, clip, requant, half, cap))
            col = np.empty((step, ho, wo, k, k * c), dtype)
            padded = np.zeros((step, hp, wp, c), dtype)
            inner = padded[:, layer.pad : layer.pad + h, layer.pad : layer.pad + w]
            windows = _patch_windows(padded, k, layer.stride)
            gemm = np.empty((step * ho, wo * co), dtype)
            scaled = gemm if requant.dtype == dtype else np.empty(gemm.shape, requant.dtype)
            out = np.empty((batch, ho // p, wo // p, co), out_dtype)
            for s in range(0, batch, step):
                m = min(step, batch - s)
                g, a, dst = gemm[: m * ho], scaled[: m * ho], out[s : s + m]
                inner[:m] = x[s : s + m]
                col[:m] = windows[:m]
                np.matmul(col[:m].reshape(m * ho * wo, -1), wmat, out=g.reshape(-1, co))
                # on the exact path, integers the GEMM dtype holds
                g += offset
                np.maximum(g, 0.0, out=g)
                if not exact:
                    # the exact path clips in its cap (_layer_plan)
                    np.minimum(g, clip, out=g)
                np.multiply(g, requant, out=a)
                if not exact:
                    frac = np.abs(a - np.floor(a) - 0.5).reshape(m, -1)
                    np.minimum(margin[s : s + m], frac.min(axis=1), out=margin[s : s + m])
                a += half
                np.floor(a, out=a)
                np.minimum(a, cap, out=a if p > 1 else dst.reshape(a.shape))
                if p > 1:
                    win = a.reshape(m, ho // p, p, wo // p, p, co)
                    np.copyto(dst, win[:, :, 0, :, 0])
                    for t in range(1, p * p):
                        dst += win[:, :, t // p, :, t % p]
            x = out
        logits = (self.fc_in_scale * x.transpose(0, 3, 1, 2).reshape(batch, -1)) @ self.fc_weight
        return (logits if exact else self.logit_scale * logits), margin


def _layer_plan(layer: FoldedLayer, exact: bool):
    """One layer's GEMM dtype, (k*k*c, co) weight matrix with rows in
    ``_patch_windows``' (ki, kj, c) order, offset vector in the GEMM dtype,
    float64 clip vector, and requant, rounding-half and cap vectors in the
    epilogue's dtype, on the exact or the float path.

    On the exact path no partial sum exceeds B, the largest per-channel sum
    of |signed weight| times ``in_levels``, in any summation order, and the
    accumulator plus its rounded offset stays within W, B plus the largest
    offset.  The GEMM runs in float32 when W is below 2^24 and in float64
    otherwise, which holds every integer below 2^53, so the offset add and
    the clip at 0 are exact in the GEMM's own dtype; past 2^53 the layer
    cannot run.

    The weight operands come from ``weight_idx`` and ``channel_sign``: on
    the exact path the signed integers 2 * idx - levels, which float64
    holds exactly, and on the float path the float32 values of the
    training quantizer's grid, whose sign flip is exact too.

    The exact path clips at the top after rounding.  With f(v) = floor(v *
    requant + 0.5) in float64, f is monotone for requant >= 0 (the model's
    check rejects a negative one), so f(min(v, clip)) equals
    min(f(v), f(clip)).  The cap is f(clip), made by the same float64 ops,
    or ``out_levels`` where that is lower, so one minimum applies both.
    The float path clips before it scales, since its margin reads the
    clipped argument; its cap is ``out_levels``.

    So each channel of the exact path maps v, an integer in 0..W, to
    E(v) = min(f(v), cap).  After a float32 GEMM with ``out_levels`` up to
    255 (the 8-bit activation grid, which bounds the check's cost), the
    epilogue runs in float32 instead wherever ``_float32_rounding`` finds
    a float32 multiplier m >= 0 and half b > 0 for which F(v) =
    min(floor(fl32(fl32(v * m) + b)), cap) equals E(v) on all of 0..W.
    Both maps are monotone, as each float op is, so they agree everywhere
    once they agree on each threshold t_j, the least v with E(v) >= j,
    for j = 1..E(W): F(t_j) >= j and F(t_j - 1) <= j - 1, and at the top,
    F(W) <= E(W).  For then an integer v with E(v) = e lies in [t_e, t_(e+1)
    - 1] (up to W when e = E(W)), where F is at least e and at most e; and
    where E(v) <= 0 both maps are min(0, cap), as both rounded terms are
    >= 0.  A layer where some channel has no such pair keeps the float64
    epilogue.
    """
    sign = layer.channel_sign.reshape(-1, 1, 1, 1)
    half, epilogue = np.full(len(layer.requant), 0.5), np.float64
    if not exact:
        weights, dtype = _grid_values(layer.weight_idx, layer.weight_levels) * sign, np.float64
        offset, clip, requant = layer.offset, layer.clip, layer.requant * layer.weight_levels
        cap = np.full(len(clip), float(layer.out_levels))
    else:
        # offsets and clips rounded to whole accumulator units
        weights, requant = (2 * layer.weight_idx - layer.weight_levels) * sign, layer.requant
        offset, clip = (np.rint(layer.weight_levels * v) for v in (layer.offset, layer.clip))
        bound = int(np.abs(weights).reshape(len(weights), -1).sum(axis=1).max()) * layer.in_levels
        worst = bound + int(np.max(np.abs(offset)))
        if worst >= _ACC_LIMIT:
            raise FoldError(
                f"layer '{layer.name}': integer accumulator bound {worst} reaches "
                "2^53, past what float64 holds exactly"
            )
        dtype = np.float32 if worst < 2**24 else np.float64
        cap = np.minimum(np.floor(clip * requant + 0.5), layer.out_levels)
        found = (_float32_rounding(requant, cap, worst)
                 if dtype == np.float32 and layer.out_levels <= 255 else None)
        if found is not None:
            (requant, half), epilogue = found, np.float32
    wmat = weights.transpose(0, 2, 3, 1).reshape(len(weights), -1).T.astype(dtype)
    return (dtype, wmat, np.asarray(offset, dtype=dtype), np.asarray(clip, dtype=np.float64),
            *(np.asarray(v, dtype=epilogue) for v in (requant, half, cap)))


def _float32_rounding(requant: np.ndarray, cap: np.ndarray, worst: int):
    """Per-channel float32 (multiplier, half) vectors for which the float32
    epilogue gives the float64 one's result on every integer in 0..worst,
    or None where some channel has none (proof in ``_layer_plan``).

    Each channel takes the first pair that passes, of fl32(requant) and
    its two float32 neighbours times 0.5 and its two.  Each threshold is
    found among five integers around its estimate, with the epilogue's own
    float64 ops, and kept only where it proves to be the least; a pair
    must also keep fl32(fl32(worst * m) + b) finite, so that no forward
    overflows.  That is at most 9 x channels x 255 evaluations.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        near = lambda x: [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
        ms = np.repeat(near(requant.astype(np.float32)), 3, axis=0)[..., None]
        bs = np.tile(near(np.full(len(requant), np.float32(0.5))), (3, 1))[..., None]
        r, cap = requant[:, None], cap[:, None]
        exact = lambda v: np.minimum(np.floor(v * r + 0.5), cap)
        rounded = lambda v: np.minimum(np.floor(np.float32(v) * ms + bs), np.float32(cap))
        j, top = np.arange(1.0, cap.max() + 1), exact(float(worst))
        t = np.clip(np.ceil((j - 0.5) / r) - 2, 0, worst)
        t += sum(exact(t + i) < j for i in range(5))
        # level j of a channel, up to E(worst), steps up at t under the map f
        steps_at_t = lambda f: (j > top) | ((f(t) >= j) & ((t == 0) | (f(t - 1) < j)))
        ok = ((ms >= 0) & np.isfinite(np.float32(worst) * ms + bs) & (rounded(worst) <= top)
              & np.all(steps_at_t(exact) & steps_at_t(rounded), axis=-1, keepdims=True))[..., 0]
    if not ok.any(axis=0).all():
        return None
    pick = (ok.argmax(axis=0), np.arange(len(requant)), 0)
    return ms[pick], bs[pick]


def _weight_grid_indices(layer) -> tuple[np.ndarray, int, float]:
    """Quantizer grid indices, level count, and detached rescale factor.

    The grid is the training quantizer's own ``weight_grid``, so the folded
    weights are bit-identical to the unfolded ones.
    """
    scheme = layer.scheme
    if scheme is None or not scheme.is_quantized:
        raise FoldError(
            f"layer '{layer.name}' has unquantized weights; folding needs an "
            "integer weight grid"
        )
    levels = scheme.levels
    unit, _, _ = weight_grid(layer.w.data, scheme.bits)
    idx = np.rint(unit.astype(np.float64) * levels)
    factor = 1.0
    if scheme.rescale is not RescaleMode.NONE:
        factor = rescale_scalar(unit * 2.0 - 1.0, scheme, layer.w)
        if scheme.rescale is RescaleMode.CONSTANT:
            factor = 1.0 / factor
    return idx, levels, factor


def _grid_values(idx: np.ndarray, levels: int) -> np.ndarray:
    """Float32 values of weight grid indices, bit-identical to the training
    quantizer's output."""
    return (idx / levels).astype(np.float32) * np.float32(2.0) - np.float32(1.0)


def fold_bn(model) -> FoldedModel:
    """Absorb BN affine maps into the following activation's offsets/clips.

    Requires a plain sequential chain where every BN directly follows a
    weight-quantized linear layer and precedes a clipped quantized
    activation, with running statistics frozen.  Residual structures and
    already-folded models are rejected.  Channels with negative BN scale
    are handled by flipping the sign of that channel's weights first;
    an exactly zero scale is an error.

    Offsets, clips and requant factors are rounded to the float32 values
    ``save_folded`` writes, so the result runs bit for bit as its file
    does, and ``FoldedModel``'s check, the one ``load_folded`` applies,
    raises ``FoldError`` for a fold that breaks one of its rules.
    """
    if isinstance(model, FoldedModel):
        raise FoldError("model is already folded")
    if model.residual:
        raise FoldError(
            f"preset '{model.preset}' contains skip connections; batch-norm "
            "elimination applies only to plain chains (offending connection: "
            "residual add)"
        )

    layers = []
    in_scale = 1.0
    in_levels = _IMAGE_LEVELS
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
        co = len(idx)
        if bn is not None:
            sigma = np.sqrt(bn.running_var.data.astype(np.float64) + BN_EPS)
            gamma_abs = bn.gamma.data.astype(np.float64) / sigma
            beta_abs = bn.beta.data.astype(np.float64) - gamma_abs * bn.running_mean.data.astype(np.float64)
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
        with np.errstate(over="ignore"):  # the check names a value past float32
            offset, clip, requant = (v.astype(np.float32).astype(np.float64) for v in (
                beta_abs / (gamma_eff * in_scale), alpha_out / (gamma_eff * in_scale),
                (a_out / alpha_out) * gamma_eff * in_scale / w_levels))

        pool_k = 1 if pool is None else pool.k
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
        layers.append(layer)
        in_scale = (alpha_out / a_out) / (pool_k * pool_k)
        in_levels = a_out * pool_k * pool_k

    fc_idx, fc_levels, fc_factor = _weight_grid_indices(fc_record.layer)
    return FoldedModel(
        layers=layers,
        fc_weight=_grid_values(fc_idx, fc_levels).astype(np.float64),
        fc_in_scale=in_scale,
        logit_scale=fc_factor,
        preset=model.preset,
    )


# -- folded-model container ---------------------------------------------------

def _meta_int(value) -> int:
    """An integer meta field, below 2^53 in magnitude so that float64
    arithmetic on it stays exact and in range."""
    value = int(value)
    if abs(value) >= _ACC_LIMIT:
        raise ValueError("integer at or past 2^53")
    return value


# per-layer scalars of the manifest's meta, with their types
_LAYER_META = {"weight_levels": _meta_int, "stride": _meta_int, "pad": _meta_int,
               "in_scale": float, "in_levels": _meta_int, "out_alpha": float,
               "out_levels": _meta_int, "pool_k": _meta_int}
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
    """Read and check the folded model in the file at ``path``."""
    return folded_from_checkpoint(path, load_checkpoint(path))


def folded_from_checkpoint(path, ckpt: Checkpoint) -> FoldedModel:
    """The folded model in a checkpoint read from ``path``.  A field that
    is missing or of the wrong type, a model that fails ``FoldedModel``'s
    check, and a first layer that does not read the uint8 image grid are
    each a ``CheckpointError`` that starts with the path."""
    if ckpt.kind != "folded":
        raise CheckpointError(f"{path}: expected a folded model, got '{ckpt.kind}'")
    try:
        meta = ckpt.manifest["meta"]
        folded = FoldedModel(
            layers=[
                FoldedLayer(
                    name=lm["name"],
                    channel_sign=np.asarray(lm["channel_sign"], dtype=np.float64),
                    **{key: cast(lm[key]) for key, cast in _LAYER_META.items()},
                    **{field: ckpt.tensors[f"L{i}.{role}"].astype(np.float64)
                       for role, field in _LAYER_TENSORS},
                )
                for i, lm in enumerate(meta["layers"])
            ],
            fc_weight=ckpt.tensors["fc.weight"].astype(np.float64),
            fc_in_scale=float(meta["fc_in_scale"]),
            logit_scale=float(meta["logit_scale"]),
            preset=ckpt.manifest.get("preset", ""),
        )
    except FoldError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed folded model: missing or bad {exc}") from exc
    if folded.layers[0].in_levels != _IMAGE_LEVELS:
        raise CheckpointError(f"{path}: layer '{folded.layers[0].name}' in_levels is not "
                              f"{_IMAGE_LEVELS}, the uint8 image grid")
    return folded
