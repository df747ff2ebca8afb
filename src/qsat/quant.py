"""Quantizer math: weight clamping, uniform rounding with straight-through
gradients, detached rescaling, and clipped activation quantization with a
trainable clipping level.

Two backward modes exist for the clipping level: CG includes the rounding
error term in the gradient, LEGACY ignores it (gradient zero below the
clip).  Both agree exactly on the saturated region.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DomainError,
    Tensor,
    _record,
    is_grad_enabled,
    mean_square_value,
    register_custom_backward,
)

__all__ = [
    "RescaleMode",
    "QuantScheme",
    "PactBackward",
    "PactState",
    "DegenerateLayerError",
    "qk",
    "dorefa_clamp",
    "signed_clamped",
    "quantize_weight",
    "constant_rescale",
    "stddev_rescale",
    "effective_weight",
    "pact_quantize",
    "alpha_grad_reduce",
    "ALPHA_INIT",
    "ALPHA_FLOOR",
]

ALPHA_INIT = 8.0
ALPHA_FLOOR = 1e-3

_QK_DOMAIN_TOL = 1e-6


class DegenerateLayerError(ValueError):
    """A layer's weights have zero spread; quantizer math is undefined."""


class RescaleMode(enum.Enum):
    NONE = "none"
    CONSTANT = "constant"
    STDDEV = "stddev"


@dataclass(frozen=True)
class QuantScheme:
    """Bit-width and rescale mode governing the effective weight.

    ``bits is None`` means full precision (clamp only, no rounding).
    ``fan_out`` is the output neuron count of the layer (channels times
    squared kernel size) and is required by CONSTANT rescaling.
    """

    bits: int | None
    rescale: RescaleMode = RescaleMode.NONE
    fan_out: int | None = None

    def __post_init__(self):
        if self.bits is not None and (not isinstance(self.bits, int) or self.bits < 1):
            raise ValueError(f"bits must be a positive integer or None, got {self.bits}")
        if self.rescale is RescaleMode.CONSTANT and (
            self.fan_out is None or self.fan_out < 1
        ):
            raise ValueError("CONSTANT rescale requires fan_out >= 1")

    @property
    def levels(self) -> int:
        if self.bits is None:
            raise ValueError("full-precision scheme has no level count")
        return 2**self.bits - 1

    @property
    def is_quantized(self) -> bool:
        return self.bits is not None


class PactBackward(enum.Enum):
    CG = "cg"
    LEGACY = "legacy"


@dataclass
class PactState:
    """Per-layer trainable clipping level with its backward mode."""

    alpha: Tensor
    bits: int
    mode: PactBackward = PactBackward.CG

    @classmethod
    def create(cls, bits: int, mode: PactBackward = PactBackward.CG,
               init: float = ALPHA_INIT, dtype=np.float32) -> "PactState":
        return cls(Tensor(np.asarray(init, dtype=dtype), requires_grad=True), bits, mode)

    def clamp_alpha(self) -> None:
        # the quantizer divides by alpha; keep it strictly positive
        self.alpha.data = np.maximum(self.alpha.data, ALPHA_FLOOR)

    @property
    def alpha_value(self) -> float:
        return float(self.alpha.data)


def _round_half_up(v: np.ndarray) -> np.ndarray:
    # ties round half away from zero; inputs are >= 0 here so this is
    # plain half-up, and it is bit-exact across platforms
    return np.floor(v + 0.5)


def _qk_array(x: np.ndarray, levels: int) -> np.ndarray:
    return _round_half_up(x * levels) / levels


@functools.lru_cache(maxsize=None)
def _qk_op(bits: int):
    a = 2**bits - 1

    def qk_forward(x):
        return _qk_array(np.clip(x, 0.0, 1.0), a)

    def qk_backward(g, x):
        # straight-through: rounding differentiates as identity on [0, 1]
        return g

    return register_custom_backward(qk_forward, qk_backward, name=f"qk{bits}")


def qk(x: Tensor, bits: int) -> Tensor:
    """Uniform quantizer on [0, 1] with 2^bits - 1 levels, STE backward."""
    if bits < 1:
        raise DomainError(f"qk requires bits >= 1, got {bits}")
    lo = float(x.data.min(initial=0.0))
    hi = float(x.data.max(initial=0.0))
    if lo < -_QK_DOMAIN_TOL or hi > 1.0 + _QK_DOMAIN_TOL:
        raise DomainError(f"qk input outside [0, 1]: min {lo}, max {hi}")
    return _qk_op(bits)(x)


def dorefa_clamp(w: Tensor) -> Tensor:
    """Map raw weights into [0, 1] by tanh-normalizing with the detached
    per-layer max of |tanh|.  Raises DegenerateLayerError on all-zero input.
    """
    t = np.tanh(w.data)
    m = float(np.max(np.abs(t)))
    if m == 0.0:
        raise DegenerateLayerError("all-zero weight tensor cannot be clamped")
    out = Tensor(t / (2.0 * m) + 0.5)

    def backward(g):
        # the per-layer max is a detached constant; only tanh' flows
        return (g * (1.0 - t * t) / (2.0 * m),)

    return _record("dorefa_clamp", out, (w,), backward)


def signed_clamped(wt: Tensor) -> Tensor:
    """Affine map of [0, 1] clamped weights onto [-1, 1]."""
    return wt * 2.0 - 1.0


def quantize_weight(wt: Tensor, bits: int) -> Tensor:
    """Quantized weights on the grid {-1, -1 + 2/a, ..., 1}."""
    return qk(wt, bits) * 2.0 - 1.0


def constant_rescale(x: Tensor, fan_out: int) -> Tensor:
    """Divide by the detached scalar sqrt(fan_out * mean_square(x)).

    Backward is division by that constant only; the scale factor itself
    receives no gradient.  Post-condition: mean_square(out) * fan_out == 1.
    """
    ms = mean_square_value(x)
    if ms == 0.0:
        raise DegenerateLayerError("cannot rescale a zero-variance tensor")
    return x / math.sqrt(fan_out * ms)


def stddev_rescale(w_eff: Tensor, w_orig: Tensor) -> Tensor:
    """Rescale the effective weights to the original root-mean-square.

    The scalar factor is detached, like CONSTANT rescaling.
    """
    ms_eff = mean_square_value(w_eff)
    ms_orig = mean_square_value(w_orig)
    if ms_eff == 0.0 or ms_orig == 0.0:
        raise DegenerateLayerError("cannot rescale a zero-variance tensor")
    return w_eff * math.sqrt(ms_orig / ms_eff)


def rescale_factor(eff: Tensor | np.ndarray, scheme: QuantScheme,
                   w_orig: Tensor | np.ndarray | None = None) -> float:
    """The detached scalar the effective weight gets multiplied by."""
    if scheme.rescale is RescaleMode.NONE:
        return 1.0
    ms_eff = mean_square_value(eff)
    if ms_eff == 0.0:
        raise DegenerateLayerError("cannot rescale a zero-variance tensor")
    if scheme.rescale is RescaleMode.CONSTANT:
        return 1.0 / math.sqrt(scheme.fan_out * ms_eff)
    return math.sqrt(mean_square_value(w_orig) / ms_eff)


def effective_weight(w: Tensor, scheme: QuantScheme) -> Tensor:
    """Weight actually used by the linear op: clamp, quantize, rescale.

    Full precision keeps the clamped weights on [-1, 1]; quantized schemes
    round on the [0, 1] grid first.  When quantized, rescaling uses the
    statistics of the post-quantization tensor.
    """
    wt = dorefa_clamp(w)
    if scheme.is_quantized:
        eff = quantize_weight(wt, scheme.bits)
    else:
        eff = signed_clamped(wt)
    if scheme.rescale is RescaleMode.CONSTANT:
        eff = constant_rescale(eff, scheme.fan_out)
    elif scheme.rescale is RescaleMode.STDDEV:
        eff = stddev_rescale(eff, w)
    return eff


def pact_quantize(x: Tensor, state: PactState) -> Tensor:
    """Clip to [0, alpha], quantize on the alpha-scaled grid.

    Gradient w.r.t. the input is straight-through inside the clip window.
    Gradient w.r.t. alpha depends on the mode:

    * CG:     qk(xc/alpha) - xc/alpha below the clip, 1 at or above it
    * LEGACY: 0 below the clip, 1 at or above it

    x == alpha belongs to the saturated branch.
    """
    a_val = state.alpha_value
    if a_val <= 0:
        raise DomainError(f"clip level must be positive, got {a_val}")
    levels = 2**state.bits - 1
    xd = x.data
    # alpha * floor(min(max(x, 0), alpha) / alpha * levels + 0.5) / levels,
    # op by op in that order (so to the same bytes), in place in two buffers
    ratio = np.maximum(xd, 0.0)
    np.minimum(ratio, a_val, out=ratio)
    ratio /= a_val
    q = ratio * levels
    q += 0.5
    np.floor(q, out=q)
    q /= levels
    if not is_grad_enabled():
        q *= a_val
        return Tensor(q)
    below = xd < a_val
    in_window = xd > 0
    in_window &= below
    if state.mode is PactBackward.CG:
        per_elem = np.subtract(q, ratio, out=ratio)
        np.copyto(per_elem, 1.0, where=~below)
    else:
        per_elem = None
    q *= a_val
    out = Tensor(q)

    def backward(g):
        if per_elem is None:
            # LEGACY: 0 below the clip, 1 at or above it, summed in float64
            scaled = np.multiply(g, ~below, dtype=np.float64)
        else:
            scaled = g * per_elem
        ga = np.asarray(alpha_grad_reduce(scaled), dtype=state.alpha.data.dtype)
        return (g * in_window, ga.reshape(state.alpha.shape))

    return _record("pact_quantize", out, (x, state.alpha), backward)


def alpha_grad_reduce(per_element) -> float:
    """Accumulate per-element clip-level gradients into the shared scalar."""
    data = per_element.data if isinstance(per_element, Tensor) else per_element
    return float(np.sum(data, dtype=np.float64))
