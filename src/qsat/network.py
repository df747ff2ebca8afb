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
    "ConvNet",
    "PreResNetToy",
    "PRESETS",
    "build_preset",
    "linear_layer_count",
    "forward_block",
    "validate_model",
    "MIN_EDGE_BITS",
]

log = logging.getLogger("qsat.network")

MIN_EDGE_BITS = 8
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class BatchNorm2d:
    """Per-channel batch normalization with exact batch backward.

    Training mode normalizes with batch statistics (computed over the
    batch and spatial axes) and updates the running estimates; eval mode
    applies the running statistics as a fixed affine map.  Batches of one
    sample are rejected in training mode.
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
            inv = 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
            scale = self.gamma * Tensor(inv.astype(x.dtype))
            shift = self.beta - scale * Tensor(self.running_mean)
            return x * scale + shift

        n, _, h, w = x.shape
        if n < 2:
            raise DomainError("batch norm needs batch size >= 2 in training mode")
        m = n * h * w
        xd = x.data
        mean = np.mean(xd, axis=(0, 2, 3), dtype=np.float64)
        var = np.mean(np.square(xd, dtype=np.float64), axis=(0, 2, 3)) - mean**2
        var = np.maximum(var, 0.0)
        self.running_mean = (
            (1.0 - self.momentum) * self.running_mean + self.momentum * mean
        ).astype(self.running_mean.dtype)
        self.running_var = (
            (1.0 - self.momentum) * self.running_var + self.momentum * var
        ).astype(self.running_var.dtype)

        sigma = np.sqrt(var + self.eps).astype(xd.dtype)
        xhat = (xd - mean.astype(xd.dtype).reshape(1, -1, 1, 1)) / sigma.reshape(
            1, -1, 1, 1
        )
        gshape = (1, self.channels, 1, 1)
        out = Tensor(
            self.gamma.data.reshape(gshape) * xhat + self.beta.data.reshape(gshape)
        )
        gamma, beta = self.gamma, self.beta

        def backward(g):
            dbeta = np.sum(g, axis=(0, 2, 3), dtype=np.float64)
            dgamma = np.sum(g * xhat, axis=(0, 2, 3), dtype=np.float64)
            coeff = (gamma.data / sigma).reshape(gshape)
            dx = coeff * (
                g
                - (dbeta / m).astype(g.dtype).reshape(gshape)
                - xhat * (dgamma / m).astype(g.dtype).reshape(gshape)
            )
            return (dx, dgamma, dbeta)

        return _record("batch_norm2d", out, (x, gamma, beta), backward)


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


def forward_block(x: Tensor, block: Block, training: bool = False) -> Tensor:
    """Apply one composed block to an input batch."""
    return block.forward(x, training)


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


class _ModelBase:
    preset: str = ""
    residual: bool = False

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        raise NotImplementedError

    def parameters(self) -> list[Tensor]:
        raise NotImplementedError

    def linear_infos(self) -> list[LinearInfo]:
        raise NotImplementedError

    def named_state(self) -> list[tuple[str, str, object]]:
        """(name, role, owner) triples; owner is a Tensor or a BN module."""
        raise NotImplementedError

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
        return [info.pact for info in self.linear_infos() if info.pact is not None]


class ConvNet(_ModelBase):
    """Sequential conv blocks plus a final fully-connected head."""

    def __init__(self, blocks: list[Block], fc: DenseLayer, preset: str,
                 image_size: int, in_channels: int, classes: int):
        self.blocks = blocks
        self.fc = fc
        self.preset = preset
        self.image_size = image_size
        self.in_channels = in_channels
        self.classes = classes

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        h = x
        for block in self.blocks:
            h = block.forward(h, training)
        n = h.shape[0]
        h = h.reshape((n, int(np.prod(h.shape[1:]))))
        return self.fc(h)

    def parameters(self) -> list[Tensor]:
        params = []
        for b in self.blocks:
            params.append(b.conv.w)
            if b.bn is not None:
                params.extend([b.bn.gamma, b.bn.beta])
            if b.pact is not None:
                params.append(b.pact.alpha)
        params.append(self.fc.w)
        return params

    def linear_infos(self) -> list[LinearInfo]:
        infos = []
        prev_pool = 1.0
        for i, b in enumerate(self.blocks):
            k = float(b.pool.k) if b.pool else 1.0
            kk = b.pool.kappa_k if b.pool else 1.0
            infos.append(
                LinearInfo(
                    index=i,
                    name=b.conv.name,
                    layer=b.conv,
                    k_pool=k,
                    kappa_k=kk,
                    pact=b.pact,
                    skip_boundary=False,
                    preceding_pool_k=prev_pool,
                )
            )
            prev_pool = kk
        infos.append(
            LinearInfo(
                index=len(self.blocks),
                name=self.fc.name,
                layer=self.fc,
                k_pool=1.0,
                kappa_k=1.0,
                pact=None,
                skip_boundary=False,
                preceding_pool_k=prev_pool,
            )
        )
        return infos

    def named_state(self):
        entries = []
        for b in self.blocks:
            base = b.conv.name
            entries.append((f"{base}.weight", "weight", b.conv.w))
            if b.bn is not None:
                entries.append((f"{base}.bn.gamma", "bn_gamma", b.bn.gamma))
                entries.append((f"{base}.bn.beta", "bn_beta", b.bn.beta))
                entries.append((f"{base}.bn.running_mean", "bn_mean", b.bn.running_mean))
                entries.append((f"{base}.bn.running_var", "bn_var", b.bn.running_var))
            if b.pact is not None:
                entries.append((f"{base}.pact.alpha", "alpha", b.pact.alpha))
        entries.append((f"{self.fc.name}.weight", "weight", self.fc.w))
        return entries


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
                 fc: DenseLayer, preset: str, image_size: int,
                 in_channels: int, classes: int):
        self.conv_in = conv_in
        self.pool_in = pool_in
        self.res_blocks = res_blocks
        self.mid_pools = mid_pools
        self.bn_out = bn_out
        self.pact_out = pact_out
        self.pool_out = pool_out
        self.fc = fc
        self.preset = preset
        self.image_size = image_size
        self.in_channels = in_channels
        self.classes = classes

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

    def parameters(self) -> list[Tensor]:
        params = [self.conv_in.w]
        for b in self.res_blocks:
            params.extend([b.bn1.gamma, b.bn1.beta, b.conv1.w,
                           b.bn2.gamma, b.bn2.beta, b.conv2.w])
            for p in (b.pact1, b.pact2):
                if p is not None:
                    params.append(p.alpha)
        params.extend([self.bn_out.gamma, self.bn_out.beta])
        if self.pact_out is not None:
            params.append(self.pact_out.alpha)
        params.append(self.fc.w)
        return params

    def linear_infos(self) -> list[LinearInfo]:
        infos = []
        idx = 0
        infos.append(
            LinearInfo(idx, self.conv_in.name, self.conv_in,
                       k_pool=float(self.pool_in.k), kappa_k=self.pool_in.kappa_k,
                       pact=None, skip_boundary=True)
        )
        prev = self.pool_in.kappa_k
        for b, pool in zip(self.res_blocks, self.mid_pools):
            idx += 1
            infos.append(
                LinearInfo(idx, b.conv1.name, b.conv1, k_pool=1.0, kappa_k=1.0,
                           pact=b.pact1, skip_boundary=False,
                           preceding_pool_k=prev)
            )
            prev = 1.0
            idx += 1
            k = float(pool.k) if pool else 1.0
            kk = pool.kappa_k if pool else 1.0
            infos.append(
                LinearInfo(idx, b.conv2.name, b.conv2, k_pool=k, kappa_k=kk,
                           pact=b.pact2, skip_boundary=True,
                           preceding_pool_k=prev)
            )
            prev = kk
        idx += 1
        infos.append(
            LinearInfo(idx, self.fc.name, self.fc, k_pool=1.0, kappa_k=1.0,
                       pact=self.pact_out, skip_boundary=False,
                       preceding_pool_k=self.pool_out.kappa_k)
        )
        return infos

    def named_state(self):
        entries = [(f"{self.conv_in.name}.weight", "weight", self.conv_in.w)]
        for b in self.res_blocks:
            for tag, bn in (("bn1", b.bn1), ("bn2", b.bn2)):
                entries.append((f"{b.name}.{tag}.gamma", "bn_gamma", bn.gamma))
                entries.append((f"{b.name}.{tag}.beta", "bn_beta", bn.beta))
                entries.append((f"{b.name}.{tag}.running_mean", "bn_mean", bn.running_mean))
                entries.append((f"{b.name}.{tag}.running_var", "bn_var", bn.running_var))
            for tag, pact in (("pact1", b.pact1), ("pact2", b.pact2)):
                if pact is not None:
                    entries.append((f"{b.name}.{tag}.alpha", "alpha", pact.alpha))
            entries.append((f"{b.conv1.name}.weight", "weight", b.conv1.w))
            entries.append((f"{b.conv2.name}.weight", "weight", b.conv2.w))
        entries.append(("tail.bn.gamma", "bn_gamma", self.bn_out.gamma))
        entries.append(("tail.bn.beta", "bn_beta", self.bn_out.beta))
        entries.append(("tail.bn.running_mean", "bn_mean", self.bn_out.running_mean))
        entries.append(("tail.bn.running_var", "bn_var", self.bn_out.running_var))
        if self.pact_out is not None:
            entries.append(("tail.pact.alpha", "alpha", self.pact_out.alpha))
        entries.append((f"{self.fc.name}.weight", "weight", self.fc.w))
        return entries


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
        blocks = []
        cin = in_channels
        for i, cout in enumerate(_CONVNET_CHANNELS):
            has_bn = not (name == "convnet-nobn-tail" and i == len(_CONVNET_CHANNELS) - 1)
            conv = Conv2dLayer(
                f"block{i + 1}", cin, cout, 3, pad=1,
                scheme=layer_scheme(i, cout * 9, has_bn), follows_bn=has_bn,
                rng=rng, dtype=dtype,
            )
            pool = Pool("avg", pools[i]) if i in pools else None
            blocks.append(
                Block(conv, BatchNorm2d(cout, dtype=dtype) if has_bn else None,
                      act=True, pact=act_factory(), pool=pool)
            )
            cin = cout
        fc = DenseLayer("fc", cin, classes,
                        scheme=layer_scheme(len(blocks), classes, False),
                        rng=rng, dtype=dtype)
        model = ConvNet(blocks, fc, name, image_size, in_channels, classes)
    else:
        width = 16
        conv_in = Conv2dLayer(
            "stem", in_channels, width, 3, pad=1,
            scheme=layer_scheme(0, width * 9, False), follows_bn=False,
            rng=rng, dtype=dtype,
        )
        pool_in = Pool("avg", 2)
        res_blocks = []
        idx = 1
        for bi in range(2):
            conv1 = Conv2dLayer(
                f"res{bi + 1}.conv1", width, width, 3, pad=1,
                scheme=layer_scheme(idx, width * 9, True), follows_bn=True,
                rng=rng, dtype=dtype,
            )
            conv2 = Conv2dLayer(
                f"res{bi + 1}.conv2", width, width, 3, pad=1,
                scheme=layer_scheme(idx + 1, width * 9, False), follows_bn=False,
                rng=rng, dtype=dtype,
            )
            res_blocks.append(
                _PreActResBlock(
                    f"res{bi + 1}", BatchNorm2d(width, dtype=dtype), act_factory(),
                    conv1, BatchNorm2d(width, dtype=dtype), act_factory(), conv2,
                )
            )
            idx += 2
        mid_pools = [Pool("avg", 2), None]
        final_spatial = image_size // 4
        model = PreResNetToy(
            conv_in, pool_in, res_blocks, mid_pools,
            BatchNorm2d(width, dtype=dtype), act_factory(), Pool("avg", final_spatial),
            DenseLayer("fc", width, classes,
                       scheme=layer_scheme(idx, classes, False), rng=rng, dtype=dtype),
            name, image_size, in_channels, classes,
        )

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
