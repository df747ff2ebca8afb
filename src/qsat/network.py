"""Layer and block composition: linear -> batch norm -> activation -> pool,
quantized-layer wrappers, and the model presets used throughout.

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
    max_pool2d,
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
    "Block",
    "LinearInfo",
    "LayerRecord",
    "ConvNet",
    "PreResNetToy",
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


def _wide_rows(a: np.ndarray) -> np.ndarray:
    """(n*h, w*C) rows of an NCHW-shaped array: a view of channels-last
    memory, a copy of any other layout."""
    n, c, h, w = a.shape
    return a.transpose(0, 2, 3, 1).reshape(n * h, w * c)


def _nchw(rows: np.ndarray, shape) -> np.ndarray:
    """NCHW-shaped, channels-last view of (n*h, w*C) rows."""
    n, c, h, w = shape
    return rows.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def _channel_sums(rows: np.ndarray, c: int) -> np.ndarray:
    """Float64 per-channel sums of wide rows: each (w, c) column down the
    rows, then across w."""
    return rows.sum(axis=0, dtype=np.float64).reshape(-1, c).sum(axis=0)


class BatchNorm2d:
    """Per-channel batch normalization with exact batch backward.

    Training mode normalizes with batch statistics (computed over the
    batch and spatial axes) and updates the running estimates; eval mode
    applies the running statistics as a fixed affine map.  Batches of one
    sample are rejected in training mode.

    Every per-channel op runs on the activation viewed as ``(n*h, w*C)``
    rows, with each per-channel vector tiled w times, so numpy's inner
    loops are w*C long rather than C.  The float32 ops are those of the
    plain NCHW formulas, in the same order; the output is channels-last.
    The float64 statistics sum each (w, c) column down the n*h rows and
    then across w (``_channel_sums``).
    """

    def __init__(self, channels: int, momentum: float = BN_MOMENTUM,
                 eps: float = BN_EPS, dtype=np.float32):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"batch norm over {self.channels} channels got input {x.shape}"
            )
        if not training:
            return self._affine(x)
        n, c, h, w = x.shape
        if n < 2:
            raise DomainError("batch norm needs batch size >= 2 in training mode")
        m = n * h * w
        rows = _wide_rows(x.data)
        gamma, beta = self.gamma, self.beta
        x64 = rows.astype(np.float64)
        mean = _channel_sums(x64, c) / m
        np.square(x64, out=x64)
        var = _channel_sums(x64, c) / m - mean**2
        del x64
        var = np.maximum(var, 0.0)
        self.running_mean = (
            (1.0 - self.momentum) * self.running_mean + self.momentum * mean
        ).astype(self.running_mean.dtype)
        self.running_var = (
            (1.0 - self.momentum) * self.running_var + self.momentum * var
        ).astype(self.running_var.dtype)

        sigma = np.sqrt(var + self.eps).astype(rows.dtype)
        xhat = rows - np.tile(mean.astype(rows.dtype), w)
        xhat /= np.tile(sigma, w)
        out = np.multiply(np.tile(gamma.data, w), xhat)
        out += np.tile(beta.data, w)

        def backward(g):
            g = _wide_rows(g)
            dbeta = _channel_sums(g, c)
            gx = g * xhat
            dgamma = _channel_sums(gx, c)
            # coeff * ((g - dbeta/m) - xhat * dgamma/m), op by op
            np.multiply(xhat, np.tile((dgamma / m).astype(g.dtype), w), out=gx)
            dx = g - np.tile((dbeta / m).astype(g.dtype), w)
            dx -= gx
            dx *= np.tile(gamma.data / sigma, w)
            return (_nchw(dx, x.shape), dgamma, dbeta)

        out = Tensor(_nchw(out, x.shape))
        return _record("batch_norm2d", out, (x, gamma, beta), backward)

    def _affine(self, x: Tensor) -> Tensor:
        """Eval mode: ``x * scale + shift`` from the running statistics, as
        one per-channel affine op."""
        c, w = self.channels, x.shape[3]
        gamma, beta, mean = self.gamma, self.beta, self.running_mean
        rows = _wide_rows(x.data)
        inv = (1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)).astype(x.dtype)
        scale = gamma.data * inv
        shift = beta.data - scale * mean
        out = rows * np.tile(scale, w)
        out += np.tile(shift, w)

        def backward(g):
            g = _wide_rows(g)
            dbeta = _channel_sums(g, c)
            dgamma = inv * (_channel_sums(g * rows, c) - mean * dbeta)
            return (_nchw(g * np.tile(scale, w), x.shape), dgamma, dbeta)

        out = Tensor(_nchw(out, x.shape))
        return _record("batch_norm2d_eval", out, (x, gamma, beta), backward)


class Conv2dLayer:
    """Convolution whose weight passes through the quantizer pipeline.

    ``scheme is None`` uses the raw weight directly (vanilla mode).  The
    effective weight of the most recent forward is kept so its value and
    gradient statistics can be sampled after backward.
    """

    def __init__(self, name: str, in_channels: int, out_channels: int,
                 kernel: int, stride: int = 1, pad: int = 0,
                 scheme: QuantScheme | None = None, follows_bn: bool = False,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.scheme = scheme
        self.follows_bn = follows_bn
        self.n_in = in_channels * kernel * kernel
        self.n_hat = out_channels * kernel * kernel
        rng = rng or np.random.default_rng(0)
        std = 1.0 / np.sqrt(self.n_hat)
        init = rng.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel))
        self.w = Tensor(init.astype(dtype), requires_grad=True)
        self.last_effective: Tensor | None = None

    def effective(self) -> Tensor:
        eff = self.w if self.scheme is None else effective_weight(self.w, self.scheme)
        self.last_effective = eff
        return eff

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.effective(), stride=self.stride, pad=self.pad)


class DenseLayer:
    """Fully-connected layer (no bias) with the same quantizer pipeline."""

    def __init__(self, name: str, in_features: int, out_features: int,
                 scheme: QuantScheme | None = None,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.scheme = scheme
        self.follows_bn = False
        self.kernel = 1
        self.n_in = in_features
        self.n_hat = out_features
        rng = rng or np.random.default_rng(0)
        std = 1.0 / np.sqrt(self.n_hat)
        init = rng.normal(0.0, std, size=(in_features, out_features))
        self.w = Tensor(init.astype(dtype), requires_grad=True)
        self.last_effective: Tensor | None = None

    def effective(self) -> Tensor:
        eff = self.w if self.scheme is None else effective_weight(self.w, self.scheme)
        self.last_effective = eff
        return eff

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.effective())


@dataclass
class Pool:
    kind: str  # "avg" | "max"
    k: int

    def __call__(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.k) if self.kind == "avg" else max_pool2d(x, self.k)

    @property
    def kappa_k(self) -> float:
        # max pooling is excluded from the gradient-flow accounting
        return 1.0 if self.kind == "max" else float(self.k)


def _activate(h: Tensor, pact: PactState | None) -> Tensor:
    """ReLU, or PACT alone: its clip at zero already is the ReLU, in value
    and in gradient, so the ReLU in front of it would change no bit."""
    return relu(h) if pact is None else pact_quantize(h, pact)


class Block:
    """linear -> optional BN -> ReLU or PACT -> optional pool."""

    def __init__(self, conv: Conv2dLayer, bn: BatchNorm2d | None,
                 act: bool, pact: PactState | None, pool: Pool | None):
        self.conv = conv
        self.bn = bn
        self.act = act
        self.pact = pact
        self.pool = pool

    def forward(self, x: Tensor, training: bool) -> Tensor:
        h = self.conv(x)
        if self.bn is not None:
            h = self.bn(h, training)
        if self.act or self.pact is not None:
            h = _activate(h, self.pact)
        if self.pool is not None:
            h = self.pool(h)
        return h


@dataclass
class LinearInfo:
    """Per-linear-layer metadata the diagnostics sample each step."""

    index: int
    name: str
    layer: Conv2dLayer | DenseLayer
    k_pool: float          # pool kernel of this layer's own block (1 if none)
    kappa_k: float         # same, with max pools counted as 1
    pact: PactState | None
    skip_boundary: bool    # output feeds a residual add
    preceding_pool_k: float = 1.0  # pool kernel directly before this layer


@dataclass
class LayerRecord:
    """One linear layer and the BN, PACT and pool wired to it, in forward
    order, each under the prefix of its checkpoint names (a pool has no
    tensors and an empty prefix).

    A pool after the layer is its own block's pool; a pool before it feeds
    it.  ``None`` modules are dropped, so a preset can list optional ones.
    """

    modules: list[tuple[str, object]]
    skip_boundary: bool  # the layer's output feeds a residual add

    def __post_init__(self):
        self.modules = [(prefix, m) for prefix, m in self.modules if m is not None]

    @property
    def layer(self) -> Conv2dLayer | DenseLayer:
        return self.find((Conv2dLayer, DenseLayer))

    def find(self, kind):
        """The record's module of class ``kind``, or None."""
        return next((m for _, m in self.modules if isinstance(m, kind)), None)


def _module_state(prefix: str, module) -> list[tuple[str, str, object]]:
    """(name, role, owner) triples of one module's checkpoint tensors."""
    if isinstance(module, BatchNorm2d):
        return [(f"{prefix}.gamma", "bn_gamma", module.gamma),
                (f"{prefix}.beta", "bn_beta", module.beta),
                (f"{prefix}.running_mean", "bn_mean", module.running_mean),
                (f"{prefix}.running_var", "bn_var", module.running_var)]
    if isinstance(module, PactState):
        return [(f"{prefix}.alpha", "alpha", module.alpha)]
    return [(f"{prefix}.weight", "weight", module.w)]


class _ModelBase:
    """A model's forward structure plus ``layer_table``, the ordered
    ``LayerRecord`` list its parameter, diagnostics and checkpoint lists
    are derived from."""

    residual: bool = False

    def __init__(self, layer_table: list[LayerRecord], preset: str):
        self.layer_table = layer_table
        self.preset = preset

    def _named_modules(self) -> list[tuple[str, object]]:
        return [(prefix, m) for record in self.layer_table
                for prefix, m in record.modules if prefix]

    def parameters(self) -> list[Tensor]:
        """Trainable tensors in forward order."""
        return [owner for prefix, m in self._named_modules()
                for _, _, owner in _module_state(prefix, m) if isinstance(owner, Tensor)]

    def linear_infos(self) -> list[LinearInfo]:
        """One row per record.  A pool before the layer sets its
        ``preceding_pool_k``; a pool after it sets its ``k_pool`` and
        ``kappa_k`` and the next layer's ``preceding_pool_k``."""
        infos = []
        preceding = 1.0
        for index, record in enumerate(self.layer_table):
            info = None
            for _, module in record.modules:
                if isinstance(module, Pool) and info is None:
                    preceding = module.kappa_k
                elif isinstance(module, Pool):
                    info.k_pool, info.kappa_k = float(module.k), module.kappa_k
                elif module is record.layer:
                    info = LinearInfo(index, module.name, module, k_pool=1.0, kappa_k=1.0,
                                      pact=record.find(PactState),
                                      skip_boundary=record.skip_boundary,
                                      preceding_pool_k=preceding)
            infos.append(info)
            preceding = info.kappa_k
        return infos

    def named_state(self) -> list[tuple[str, str, object]]:
        """(name, role, owner) triples in checkpoint order; owner is a
        Tensor or a BN running-statistics array.

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

    # -- checkpoint plumbing shared by all models -----------------------

    def state_arrays(self) -> list[tuple[str, str, np.ndarray]]:
        out = []
        for name, role, owner in self.named_state():
            if isinstance(owner, Tensor):
                out.append((name, role, owner.data))
            else:
                out.append((name, role, owner))
        return out

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        """Assign tensor values by name.

        Clipping levels (role ``alpha``) absent from the source keep their
        fresh initialization: full-precision checkpoints have no activation
        quantizers, and finetuning them into a quantized configuration is
        the normal workflow.  Extra tensors in the source are ignored with
        a warning; any other missing tensor is an error.
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
        for name, role, owner in entries:
            if name not in tensors:
                continue
            arr = tensors[name]
            if isinstance(owner, Tensor):
                if arr.shape != owner.data.shape:
                    raise ShapeError(
                        f"tensor '{name}': checkpoint shape {arr.shape} vs "
                        f"model shape {owner.data.shape}"
                    )
                owner.data = arr.astype(owner.data.dtype)
            else:
                owner[...] = arr.astype(owner.dtype)

    def pact_states(self) -> list[PactState]:
        return [m for _, m in self._named_modules() if isinstance(m, PactState)]


class ConvNet(_ModelBase):
    """Sequential conv blocks plus a final fully-connected head."""

    def __init__(self, blocks: list[Block], fc: DenseLayer,
                 layer_table: list[LayerRecord], preset: str):
        super().__init__(layer_table, preset)
        self.blocks = blocks
        self.fc = fc

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        h = x
        for block in self.blocks:
            h = block.forward(h, training)
        n = h.shape[0]
        h = h.reshape((n, int(np.prod(h.shape[1:]))))
        return self.fc(h)


class _PreActResBlock:
    """BN -> ReLU -> conv -> BN -> ReLU -> conv, added to the identity."""

    def __init__(self, name: str, bn1: BatchNorm2d, pact1: PactState | None,
                 conv1: Conv2dLayer, bn2: BatchNorm2d, pact2: PactState | None,
                 conv2: Conv2dLayer):
        self.name = name
        self.bn1 = bn1
        self.pact1 = pact1
        self.conv1 = conv1
        self.bn2 = bn2
        self.pact2 = pact2
        self.conv2 = conv2

    def forward(self, x: Tensor, training: bool) -> Tensor:
        h = self.conv1(_activate(self.bn1(x, training), self.pact1))
        h = self.conv2(_activate(self.bn2(h, training), self.pact2))
        return x + h


class PreResNetToy(_ModelBase):
    """Small pre-activation residual network: the ETR II stressor."""

    residual = True

    def __init__(self, conv_in: Conv2dLayer, pool_in: Pool,
                 res_blocks: list[_PreActResBlock], mid_pools: list[Pool | None],
                 bn_out: BatchNorm2d, pact_out: PactState | None, pool_out: Pool,
                 fc: DenseLayer, layer_table: list[LayerRecord], preset: str):
        super().__init__(layer_table, preset)
        self.conv_in = conv_in
        self.pool_in = pool_in
        self.res_blocks = res_blocks
        self.mid_pools = mid_pools
        self.bn_out = bn_out
        self.pact_out = pact_out
        self.pool_out = pool_out
        self.fc = fc

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        h = self.pool_in(self.conv_in(x))
        for block, pool in zip(self.res_blocks, self.mid_pools):
            h = block.forward(h, training)
            if pool is not None:
                h = pool(h)
        h = self.pool_out(_activate(self.bn_out(h, training), self.pact_out))
        n = h.shape[0]
        h = h.reshape((n, int(np.prod(h.shape[1:]))))
        return self.fc(h)


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
    if bits in ("raw", "vanilla"):
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
    first_last_bits: int | str | None = MIN_EDGE_BITS,
    layer_overrides: dict[int, dict] | None = None,
    seed: int = 0,
    dtype=np.float32,
) -> _ModelBase:
    """Build one of the named presets, wiring quantization schemes in.

    Rescaling, when enabled, is applied to linear layers without a following
    BN and to the final FC; BN-backed convs keep their weight scales
    commensurate on their own.  Weight-quantized first/last layers are held
    at ``first_last_bits`` minimum (pass ``"uniform"`` to quantize them like
    every other layer).
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}'; expected one of {PRESETS}")
    if image_size not in _POOL_PLANS:
        raise ValueError(f"no pool plan for image size {image_size}")
    wbits = _normalize_bits(weight_bits)
    abits = _normalize_bits(act_bits)
    overrides = layer_overrides or {}
    rng = np.random.default_rng([seed, 0x5CA1E])

    n_linear = linear_layer_count(name)

    def layer_bits(idx: int) -> int | None | str:
        o = overrides.get(idx, {})
        if "bits" in o:
            return _normalize_bits(o["bits"])
        if wbits in ("raw", None):
            return wbits
        if idx in (0, n_linear - 1) and first_last_bits != "uniform":
            floor_bits = MIN_EDGE_BITS if first_last_bits is None else int(first_last_bits)
            return max(wbits, floor_bits)
        return wbits

    def layer_scheme(idx: int, fan_out: int, follows_bn: bool) -> QuantScheme | None:
        bits = layer_bits(idx)
        if bits == "raw":
            return None
        o = overrides.get(idx, {})
        mode = o.get("rescale")
        if mode is None:
            mode = rescale if (not follows_bn or idx == n_linear - 1) else RescaleMode.NONE
        return QuantScheme(bits=bits, rescale=mode, fan_out=fan_out)

    def act_factory() -> PactState | None:
        if abits in ("raw", None):
            return None
        return PactState.create(abits, pact_mode, dtype=dtype)

    if name.startswith("convnet"):
        pools = _POOL_PLANS[image_size]
        blocks, table = [], []
        cin = in_channels
        for i, cout in enumerate(_CONVNET_CHANNELS):
            has_bn = not (name == "convnet-nobn-tail" and i == len(_CONVNET_CHANNELS) - 1)
            conv = Conv2dLayer(
                f"block{i + 1}", cin, cout, 3, pad=1,
                scheme=layer_scheme(i, cout * 9, has_bn), follows_bn=has_bn,
                rng=rng, dtype=dtype,
            )
            pool = Pool("avg", pools[i]) if i in pools else None
            block = Block(conv, BatchNorm2d(cout, dtype=dtype) if has_bn else None,
                          act=True, pact=act_factory(), pool=pool)
            blocks.append(block)
            table.append(LayerRecord([(conv.name, conv), (f"{conv.name}.bn", block.bn),
                                      (f"{conv.name}.pact", block.pact), ("", pool)],
                                     skip_boundary=False))
            cin = cout
        fc = DenseLayer("fc", cin, classes,
                        scheme=layer_scheme(len(blocks), classes, False),
                        rng=rng, dtype=dtype)
        table.append(LayerRecord([(fc.name, fc)], skip_boundary=False))
        model = ConvNet(blocks, fc, table, name)
    else:
        width = 16
        conv_in = Conv2dLayer(
            "stem", in_channels, width, 3, pad=1,
            scheme=layer_scheme(0, width * 9, False), follows_bn=False,
            rng=rng, dtype=dtype,
        )
        pool_in = Pool("avg", 2)
        table = [LayerRecord([(conv_in.name, conv_in), ("", pool_in)], skip_boundary=True)]
        res_blocks = []
        mid_pools = [Pool("avg", 2), None]
        idx = 1
        for bi, pool in enumerate(mid_pools):
            b = f"res{bi + 1}"
            conv1 = Conv2dLayer(
                f"{b}.conv1", width, width, 3, pad=1,
                scheme=layer_scheme(idx, width * 9, True), follows_bn=True,
                rng=rng, dtype=dtype,
            )
            conv2 = Conv2dLayer(
                f"{b}.conv2", width, width, 3, pad=1,
                scheme=layer_scheme(idx + 1, width * 9, False), follows_bn=False,
                rng=rng, dtype=dtype,
            )
            block = _PreActResBlock(
                b, BatchNorm2d(width, dtype=dtype), act_factory(),
                conv1, BatchNorm2d(width, dtype=dtype), act_factory(), conv2,
            )
            res_blocks.append(block)
            table.append(LayerRecord([(f"{b}.bn1", block.bn1), (f"{b}.pact1", block.pact1),
                                      (conv1.name, conv1)], skip_boundary=False))
            table.append(LayerRecord([(f"{b}.bn2", block.bn2), (f"{b}.pact2", block.pact2),
                                      (conv2.name, conv2), ("", pool)], skip_boundary=True))
            idx += 2
        bn_out, pact_out = BatchNorm2d(width, dtype=dtype), act_factory()
        pool_out = Pool("avg", image_size // 4)
        fc = DenseLayer("fc", width, classes,
                        scheme=layer_scheme(idx, classes, False), rng=rng, dtype=dtype)
        table.append(LayerRecord([("tail.bn", bn_out), ("tail.pact", pact_out),
                                  ("", pool_out), (fc.name, fc)], skip_boundary=False))
        model = PreResNetToy(conv_in, pool_in, res_blocks, mid_pools, bn_out, pact_out,
                             pool_out, fc, table, name)

    for msg in validate_model(model):
        log.warning("%s: %s", name, msg)
    return model


def validate_model(model: _ModelBase) -> list[str]:
    """Check structural rules; returns human-readable violation strings.

    Violations are advisory (training proceeds) so deliberately broken
    ablation configurations can still run; they surface in logs and in the
    rule-check report.
    """
    out = []
    infos = model.linear_infos()
    for info in infos:
        layer = info.layer
        if layer.scheme is not None and not layer.follows_bn:
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
