"""Quantized-layer wrappers, the layer table that composes them, the one
forward that runs it, and the model presets used throughout.

Each preset is one table: a ``LayerRecord`` per linear layer, holding it
with its BN, activation, pools and residual ends in forward order.  The
records list modules only; whether a BN follows a layer, whether its output
feeds a residual add, and its fan-out are read off the table
(``Model.linear_infos``), and the quantization schemes are assigned from
those reads.

Presets:

* ``convnet-bn``        six conv blocks with BN everywhere, then FC
* ``convnet-nobn-tail`` same, but the last conv block has no BN
* ``preresnet-toy``     pre-activation residual blocks whose add-path convs
                        have no BN directly after them

Linear layers carry no bias.  The first and last linear layers are kept at
a minimum of 8 bits when weights are quantized unless uniform bit-widths
are explicitly requested.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DomainError,
    ShapeError,
    Tensor,
    avg_pool2d,
    conv2d,
    matmul,
    relu,
    _record,
)
from .quant import (
    PactBackward,
    PactState,
    QuantScheme,
    RescaleMode,
    effective_weight,
    pact_quantize,
)

__all__ = [
    "BatchNorm2d",
    "Conv2dLayer",
    "DenseLayer",
    "Pool",
    "LinearInfo",
    "LayerRecord",
    "SKIP_KEEP",
    "SKIP_ADD",
    "run_table",
    "Model",
    "PRESETS",
    "build_preset",
    "linear_layer_count",
    "validate_model",
    "MIN_EDGE_BITS",
]

log = logging.getLogger("qsat.network")

MIN_EDGE_BITS = 8
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _channel_sums(rows: np.ndarray, c: int) -> np.ndarray:
    """Float64 per-channel sums of wide rows: each (w, c) column down the
    rows, then across w."""
    return rows.sum(axis=0, dtype=np.float64).reshape(-1, c).sum(axis=0)


class BatchNorm2d:
    """Per-channel batch normalization with exact batch backward.

    Training mode normalizes with batch statistics (computed over the
    batch and spatial axes) and updates the running estimates; eval mode
    applies the running statistics as a fixed affine map.  Batches of one
    sample are rejected in training mode.  The running statistics are
    ``Tensor``s that need no gradient, so they are model state like
    ``gamma`` and ``beta``; training assigns their ``.data``.

    Every per-channel op runs on the NHWC activation reshaped to
    ``(n*h, w*C)`` rows (a view of a C-contiguous input, a copy of any
    other), with each per-channel vector tiled w times, so numpy's inner
    loops are w*C long rather than C.  The float32 ops are those of the
    plain per-channel formulas, in the same order.  The float64 statistics
    sum each (w, c) column down the n*h rows and then across w
    (``_channel_sums``).
    """

    def __init__(self, channels: int, dtype=np.float32):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = Tensor(np.zeros(channels, dtype=dtype))
        self.running_var = Tensor(np.ones(channels, dtype=dtype))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim != 4 or x.shape[3] != self.channels:
            raise ShapeError(
                f"batch norm over {self.channels} channels got input {x.shape}"
            )
        if not training:
            return self._affine(x)
        n, h, w, c = x.shape
        if n < 2:
            raise DomainError("batch norm needs batch size >= 2 in training mode")
        m = n * h * w
        rows = x.data.reshape(n * h, w * c)
        gamma, beta = self.gamma, self.beta
        x64 = rows.astype(np.float64)
        mean = _channel_sums(x64, c) / m
        np.square(x64, out=x64)
        var = _channel_sums(x64, c) / m - mean**2
        del x64
        var = np.maximum(var, 0.0)
        for running, batch in ((self.running_mean, mean), (self.running_var, var)):
            running.data = ((1.0 - BN_MOMENTUM) * running.data
                            + BN_MOMENTUM * batch).astype(running.dtype)

        sigma = np.sqrt(var + BN_EPS).astype(rows.dtype)
        xhat = rows - np.tile(mean.astype(rows.dtype), w)
        xhat /= np.tile(sigma, w)
        out = np.multiply(np.tile(gamma.data, w), xhat)
        out += np.tile(beta.data, w)

        def backward(g):
            g = g.reshape(rows.shape)
            dbeta = _channel_sums(g, c)
            gx = g * xhat
            dgamma = _channel_sums(gx, c)
            # coeff * ((g - dbeta/m) - xhat * dgamma/m), op by op
            np.multiply(xhat, np.tile((dgamma / m).astype(g.dtype), w), out=gx)
            dx = g - np.tile((dbeta / m).astype(g.dtype), w)
            dx -= gx
            dx *= np.tile(gamma.data / sigma, w)
            return (dx.reshape(x.shape), dgamma, dbeta)

        out = Tensor(out.reshape(x.shape))
        return _record("batch_norm2d", out, (x, gamma, beta), backward)

    def _affine(self, x: Tensor) -> Tensor:
        """Eval mode: ``x * scale + shift`` from the running statistics, as
        one per-channel affine op."""
        n, h, w, c = x.shape
        gamma, beta, mean = self.gamma, self.beta, self.running_mean.data
        rows = x.data.reshape(n * h, w * c)
        inv = (1.0 / np.sqrt(self.running_var.data.astype(np.float64) + BN_EPS)).astype(x.dtype)
        scale = gamma.data * inv
        shift = beta.data - scale * mean
        out = rows * np.tile(scale, w)
        out += np.tile(shift, w)

        def backward(g):
            g = g.reshape(rows.shape)
            dbeta = _channel_sums(g, c)
            dgamma = inv * (_channel_sums(g * rows, c) - mean * dbeta)
            return ((g * np.tile(scale, w)).reshape(x.shape), dgamma, dbeta)

        out = Tensor(out.reshape(x.shape))
        return _record("batch_norm2d_eval", out, (x, gamma, beta), backward)


class _WeightLayer:
    """A bias-free linear layer's weight and quantizer pipeline, shared by
    the conv and dense layers.

    ``scheme is None`` uses the raw weight directly (vanilla mode).  The
    weight starts at N(0, 1/n_hat).  The effective weight of the most
    recent forward is kept so its value and gradient statistics can be
    sampled after backward.
    """

    def __init__(self, name: str, shape: tuple, n_in: int, n_hat: int,
                 scheme: QuantScheme | None, rng: np.random.Generator | None, dtype):
        self.name = name
        self.scheme = scheme
        self.n_in = n_in
        self.n_hat = n_hat
        rng = rng or np.random.default_rng(0)
        init = rng.normal(0.0, 1.0 / np.sqrt(n_hat), size=shape)
        self.w = Tensor(init.astype(dtype), requires_grad=True)
        self.last_effective: Tensor | None = None

    def effective(self) -> Tensor:
        eff = self.w if self.scheme is None else effective_weight(self.w, self.scheme)
        self.last_effective = eff
        return eff


class Conv2dLayer(_WeightLayer):
    """Convolution whose weight passes through the quantizer pipeline."""

    def __init__(self, name: str, in_channels: int, out_channels: int,
                 kernel: int, stride: int = 1, pad: int = 0,
                 scheme: QuantScheme | None = None,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__(name, (out_channels, in_channels, kernel, kernel),
                         in_channels * kernel * kernel, out_channels * kernel * kernel,
                         scheme, rng, dtype)
        self.stride = stride
        self.pad = pad

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.effective(), stride=self.stride, pad=self.pad)


class DenseLayer(_WeightLayer):
    """Fully-connected layer with the same quantizer pipeline."""

    def __init__(self, name: str, in_features: int, out_features: int,
                 scheme: QuantScheme | None = None,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__(name, (in_features, out_features), in_features, out_features,
                         scheme, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.effective())


@dataclass
class Pool:
    """Non-overlapping k x k average pooling."""

    k: int

    def __call__(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.k)


@dataclass
class LinearInfo:
    """One linear layer's structure as read off the layer table: what the
    diagnostics sample, the training rules check and ``build_preset``
    assigns schemes from."""

    index: int
    name: str
    layer: Conv2dLayer | DenseLayer
    k_pool: float          # pool kernel of this layer's own block (1 if none)
    pact: PactState | None
    skip_boundary: bool    # a residual end lies between it and the next layer
    follows_bn: bool       # the next module in forward order is a BN
    preceding_pool_k: float = 1.0  # pool kernel directly before this layer


# the two ends of a residual connection in a layer record: the forward
# keeps its activation at SKIP_KEEP and adds it back at SKIP_ADD
SKIP_KEEP = "skip-keep"
SKIP_ADD = "skip-add"


@dataclass
class LayerRecord:
    """One linear layer and the BN, activation, pools and residual ends
    wired to it, in forward order, each under the prefix of its checkpoint
    names.  Entries with no tensors (a pool, a ReLU, ``SKIP_KEEP`` and
    ``SKIP_ADD``) have an empty prefix.

    A pool after the layer is its own block's pool; a pool before it feeds
    it.  ``None`` modules are dropped, so a preset can list optional ones.
    """

    modules: list[tuple[str, object]]

    def __post_init__(self):
        self.modules = [(prefix, m) for prefix, m in self.modules if m is not None]

    @property
    def layer(self) -> Conv2dLayer | DenseLayer:
        return self.find((Conv2dLayer, DenseLayer))

    def find(self, kind):
        """The record's module of class ``kind``, or None."""
        return next((m for _, m in self.modules if isinstance(m, kind)), None)


def run_table(records: list[LayerRecord], x: Tensor, training: bool) -> Tensor:
    """The forward of a run of layer records on NHWC activations: every
    module in order.

    BN normalizes with batch statistics when ``training``; PACT runs
    through ``pact_quantize``; the dense layer takes its input flattened
    per sample; ``SKIP_ADD`` adds the activation kept at ``SKIP_KEEP`` to
    the branch's output.
    """
    h, skip = x, None
    for record in records:
        for _, m in record.modules:
            if isinstance(m, BatchNorm2d):
                h = m(h, training)
            elif isinstance(m, PactState):
                h = pact_quantize(h, m)
            elif isinstance(m, DenseLayer):
                h = m(h.reshape((h.shape[0], -1)))
            elif m is SKIP_KEEP:
                skip = h
            elif m is SKIP_ADD:
                h = skip + h
            else:  # a conv, a pool or a ReLU
                h = m(h)
    return h


def _module_state(prefix: str, module) -> list[tuple[str, str, Tensor]]:
    """(name, role, owner) triples of one module's checkpoint tensors."""
    if isinstance(module, BatchNorm2d):
        return [(f"{prefix}.gamma", "bn_gamma", module.gamma),
                (f"{prefix}.beta", "bn_beta", module.beta),
                (f"{prefix}.running_mean", "bn_mean", module.running_mean),
                (f"{prefix}.running_var", "bn_var", module.running_var)]
    if isinstance(module, PactState):
        return [(f"{prefix}.alpha", "alpha", module.alpha)]
    return [(f"{prefix}.weight", "weight", module.w)]


class Model:
    """A preset's ``layer_table``: the ordered ``LayerRecord`` list its
    forward runs and its parameter, diagnostics and checkpoint lists are
    derived from."""

    def __init__(self, layer_table: list[LayerRecord], preset: str):
        self.layer_table = layer_table
        self.preset = preset

    @property
    def residual(self) -> bool:
        return any(m is SKIP_ADD for record in self.layer_table for _, m in record.modules)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Logits of NCHW images, which run through the table as an NHWC
        view; nothing differentiates the images."""
        return run_table(self.layer_table, Tensor(x.data.transpose(0, 2, 3, 1)), training)

    def _named_modules(self) -> list[tuple[str, object]]:
        return [(prefix, m) for record in self.layer_table
                for prefix, m in record.modules if prefix]

    def parameters(self) -> list[Tensor]:
        """Trainable tensors in forward order."""
        return [owner for prefix, m in self._named_modules()
                for _, _, owner in _module_state(prefix, m) if owner.requires_grad]

    def linear_infos(self) -> list[LinearInfo]:
        """One row per record.  A pool before the layer sets its
        ``preceding_pool_k``; a pool after it sets its ``k_pool`` and the
        next layer's ``preceding_pool_k``.  Of the modules between the layer
        and the next one in forward order, a BN first sets ``follows_bn``
        and a ``SKIP_KEEP`` or ``SKIP_ADD`` sets ``skip_boundary``."""
        flat = [m for record in self.layer_table for _, m in record.modules]
        at = [i for i, m in enumerate(flat) if isinstance(m, (Conv2dLayer, DenseLayer))]
        afters = [flat[i + 1:j] for i, j in zip(at, at[1:] + [len(flat)])]
        infos = []
        preceding = 1.0
        for index, (record, after) in enumerate(zip(self.layer_table, afters)):
            info = None
            for _, module in record.modules:
                if isinstance(module, Pool) and info is None:
                    preceding = float(module.k)
                elif isinstance(module, Pool):
                    info.k_pool = float(module.k)
                elif isinstance(module, (Conv2dLayer, DenseLayer)):
                    info = LinearInfo(index, module.name, module, k_pool=1.0,
                                      pact=record.find(PactState),
                                      skip_boundary=any(m is SKIP_KEEP or m is SKIP_ADD
                                                        for m in after),
                                      follows_bn=bool(after) and isinstance(after[0], BatchNorm2d),
                                      preceding_pool_k=preceding)
            infos.append(info)
            preceding = info.k_pool
        return infos

    def named_state(self) -> list[tuple[str, str, Tensor]]:
        """(name, role, tensor) triples in checkpoint order: every tensor of
        the model, trainable or not (the BN running statistics).

        Tensors go block by block, a block being the first part of a name.
        Within a block, the modules of one class go together, classes in
        the order they first appear: a pre-activation block stores both
        BNs, then both clip levels, then both convs.
        """
        blocks: dict[str, list] = {}
        for prefix, module in self._named_modules():
            blocks.setdefault(prefix.split(".")[0], []).append((prefix, module))
        entries = []
        for members in blocks.values():
            classes = list(dict.fromkeys(type(m) for _, m in members))
            for prefix, module in sorted(members, key=lambda pm: classes.index(type(pm[1]))):
                entries += _module_state(prefix, module)
        return entries

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        """Assign tensor values by name.

        Clipping levels (role ``alpha``) absent from the source keep their
        fresh initialization: full-precision checkpoints have no activation
        quantizers, and finetuning them into a quantized configuration is
        the normal workflow.  Extra tensors in the source are ignored with
        a warning; any other missing tensor is a ``KeyError``, and a tensor
        of another shape than its slot a ``ShapeError``.  Either error
        leaves the model as it was.
        """
        entries = self.named_state()
        names = [n for n, _, _ in entries]
        missing = [n for n, role, _ in entries
                   if n not in tensors and role != "alpha"]
        extra = [n for n in tensors if n not in names]
        if missing:
            raise KeyError(f"checkpoint does not match model: missing {missing}")
        if extra:
            log.warning("ignoring %d checkpoint tensors with no model slot: %s",
                        len(extra), extra)
        loaded = [(name, owner, tensors[name]) for name, _, owner in entries if name in tensors]
        for name, owner, arr in loaded:
            if arr.shape != owner.shape:
                raise ShapeError(f"tensor '{name}': checkpoint shape {arr.shape} vs "
                                 f"model shape {owner.shape}")
        for _, owner, arr in loaded:
            owner.data = arr.astype(owner.dtype)

    def pact_states(self) -> list[PactState]:
        return [m for _, m in self._named_modules() if isinstance(m, PactState)]


# -- preset construction --------------------------------------------------

PRESETS = ("convnet-bn", "convnet-nobn-tail", "preresnet-toy")

# (out_channels, has_pool) per block; pool kernels depend on image size
_CONVNET_CHANNELS = (16, 24, 32, 32, 24, 12)
_POOL_PLANS = {
    32: {0: 2, 2: 2, 4: 2, 5: 4},   # 32 -> 16 -> 8 -> 4 -> 1
    28: {0: 2, 2: 2, 5: 7},         # 28 -> 14 -> 7 -> 1
}


def linear_layer_count(preset: str) -> int:
    """Convs plus the FC that a preset builds; ``layer<i>`` indexes them."""
    return len(_CONVNET_CHANNELS) + 1 if preset.startswith("convnet") else 6


def _normalize_bits(bits) -> int | None | str:
    """'raw' -> raw weights, 'fp'/None -> full precision, int -> quantized."""
    if bits == "raw":
        return "raw"
    if bits in ("fp", None):
        return None
    return int(bits)


def build_preset(
    name: str,
    *,
    image_size: int = 32,
    in_channels: int = 3,
    classes: int = 10,
    weight_bits="fp",
    act_bits="fp",
    rescale: RescaleMode = RescaleMode.NONE,
    pact_mode: PactBackward = PactBackward.CG,
    first_last_bits: int | str = MIN_EDGE_BITS,
    layer_overrides: dict[int, dict] | None = None,
    seed: int = 0,
    dtype=np.float32,
) -> Model:
    """Build one of the named presets, wiring quantization schemes in.

    The table is built first; each layer's scheme is then assigned from its
    ``LinearInfo``.  Rescaling, when enabled, is applied to the linear
    layers no BN follows, the final FC among them; BN-backed convs keep
    their weight scales commensurate on their own.  Weight-quantized
    first/last layers are held at ``first_last_bits`` minimum (pass
    ``"uniform"`` to quantize them like every other layer).  A layer's
    ``layer_overrides`` entry sets its bits or rescale mode outright.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}'; expected one of {PRESETS}")
    if image_size not in _POOL_PLANS:
        raise ValueError(f"no pool plan for image size {image_size}")
    wbits = _normalize_bits(weight_bits)
    abits = _normalize_bits(act_bits)
    overrides = layer_overrides or {}
    rng = np.random.default_rng([seed, 0x5CA1E])

    def activation(prefix: str) -> tuple[str, object]:
        """PACT under ``prefix``, or a ReLU where activations stay full
        precision: PACT's clip at zero already is the ReLU, in value and in
        gradient."""
        if abits in ("raw", None):
            return ("", relu)
        return (prefix, PactState.create(abits, pact_mode, dtype=dtype))

    table: list[LayerRecord] = []

    def conv(layer_name: str, cin: int, cout: int) -> Conv2dLayer:
        return Conv2dLayer(layer_name, cin, cout, 3, pad=1, rng=rng, dtype=dtype)

    if name.startswith("convnet"):
        pools = _POOL_PLANS[image_size]
        cin = in_channels
        for i, cout in enumerate(_CONVNET_CHANNELS):
            has_bn = not (name == "convnet-nobn-tail" and i == len(_CONVNET_CHANNELS) - 1)
            layer = conv(f"block{i + 1}", cin, cout)
            table.append(LayerRecord([
                (layer.name, layer),
                (f"{layer.name}.bn", BatchNorm2d(cout, dtype=dtype) if has_bn else None),
                activation(f"{layer.name}.pact"),
                ("", Pool(pools[i]) if i in pools else None),
            ]))
            cin = cout
        tail = []
    else:
        # pre-activation residual blocks: BN -> activation -> conv, twice,
        # added to the block's input
        cin = 16  # every layer's width
        stem = conv("stem", in_channels, cin)
        table.append(LayerRecord([(stem.name, stem), ("", Pool(2))]))
        for b, pool in (("res1", Pool(2)), ("res2", None)):
            conv1 = conv(f"{b}.conv1", cin, cin)
            table.append(LayerRecord([
                ("", SKIP_KEEP), (f"{b}.bn1", BatchNorm2d(cin, dtype=dtype)),
                activation(f"{b}.pact1"), (conv1.name, conv1),
            ]))
            conv2 = conv(f"{b}.conv2", cin, cin)
            table.append(LayerRecord([
                (f"{b}.bn2", BatchNorm2d(cin, dtype=dtype)), activation(f"{b}.pact2"),
                (conv2.name, conv2), ("", SKIP_ADD), ("", pool),
            ]))
        tail = [("tail.bn", BatchNorm2d(cin, dtype=dtype)), activation("tail.pact"),
                ("", Pool(image_size // 4))]
    fc = DenseLayer("fc", cin, classes, rng=rng, dtype=dtype)
    table.append(LayerRecord([*tail, (fc.name, fc)]))
    model = Model(table, name)

    infos = model.linear_infos()
    edges = (0, len(infos) - 1)
    for info in infos:
        o = overrides.get(info.index, {})
        if "bits" in o:
            bits = _normalize_bits(o["bits"])
        elif isinstance(wbits, int) and info.index in edges and first_last_bits != "uniform":
            bits = max(wbits, int(first_last_bits))
        else:
            bits = wbits
        if bits == "raw":
            continue
        mode = o.get("rescale")
        if mode is None:
            # nothing follows the classifier, so it is rescaled too
            mode = RescaleMode.NONE if info.follows_bn else rescale
        info.layer.scheme = QuantScheme(bits=bits, rescale=mode, fan_out=info.layer.n_hat)

    for msg in validate_model(model):
        log.warning("%s: %s", name, msg)
    return model


def validate_model(model: Model) -> list[str]:
    """Check structural rules; returns human-readable violation strings.

    Violations are advisory (training proceeds) so deliberately broken
    ablation configurations can still run; they surface in logs and in the
    rule-check report.
    """
    out = []
    infos = model.linear_infos()
    for info in infos:
        layer = info.layer
        if layer.scheme is not None and not info.follows_bn:
            if layer.scheme.rescale is RescaleMode.NONE:
                out.append(
                    f"layer '{info.name}' has no following BN and no rescale"
                )
    first, last = infos[0].layer, infos[-1].layer
    for which, layer in (("first", first), ("last", last)):
        scheme = layer.scheme
        if scheme is not None and scheme.is_quantized and scheme.bits < MIN_EDGE_BITS:
            out.append(
                f"{which} linear layer '{layer.name}' quantized below "
                f"{MIN_EDGE_BITS} bits ({scheme.bits})"
            )
    return out
