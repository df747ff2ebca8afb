"""Quantizer math: the effective weight (clamping, uniform rounding with a
straight-through gradient, detached rescaling) as one op, and clipped
activation quantization with a trainable clipping level.

Two backward modes exist for the clipping level: CG includes the rounding
error term in the gradient, LEGACY ignores it (gradient zero below the
clip).  Both agree exactly on the saturated region.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DomainError,
    Tensor,
    _record,
    is_grad_enabled,
    mean_square_value,
)

__all__ = [
    "RescaleMode",
    "QuantScheme",
    "PactBackward",
    "PactState",
    "DegenerateLayerError",
    "weight_grid",
    "rescale_scalar",
    "effective_weight",
    "pact_quantize",
    "ALPHA_INIT",
    "ALPHA_FLOOR",
]

ALPHA_INIT = 8.0
ALPHA_FLOOR = 1e-3


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


def weight_grid(w: np.ndarray, bits: int | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The clamped weight on [0, 1], ``tanh(w)``, and ``max|tanh(w)|``.

    The clamp is ``tanh(w) / (2 max|tanh(w)|) + 1/2``, with the per-layer
    max a detached constant.  A quantized ``bits`` then rounds it half up
    onto 2^bits - 1 uniform levels; ``None`` (full precision) does not.
    Raises DegenerateLayerError on an all-zero weight.
    """
    t = np.tanh(w)
    m = float(np.max(np.abs(t)))
    if m == 0.0:
        raise DegenerateLayerError("all-zero weight tensor cannot be clamped")
    unit = t / (2.0 * m) + 0.5
    if bits is not None:
        # |t| <= m keeps unit on [0, 1]; ties round half up, bit-exact
        # across platforms
        levels = 2**bits - 1
        unit = np.floor(np.clip(unit, 0.0, 1.0) * levels + 0.5) / levels
    return unit, t, m


def rescale_scalar(q: Tensor | np.ndarray, scheme: QuantScheme,
                   w: Tensor | np.ndarray) -> float:
    """The detached scalar of a rescaled scheme, from the statistics of the
    effective weight ``q`` (and, for STDDEV, of the raw weight ``w``).

    CONSTANT divides by sqrt(fan_out * E[q^2]), which this returns, so that
    E[out^2] * fan_out == 1.  STDDEV multiplies by sqrt(E[w^2] / E[q^2]),
    which this returns, so that E[out^2] == E[w^2].  Either way the scalar
    is a constant of the graph: it receives no gradient.
    """
    ms_q = mean_square_value(q)
    ms_w = mean_square_value(w) if scheme.rescale is RescaleMode.STDDEV else 1.0
    if ms_q == 0.0 or ms_w == 0.0:
        raise DegenerateLayerError("cannot rescale a zero-variance tensor")
    if scheme.rescale is RescaleMode.CONSTANT:
        return math.sqrt(scheme.fan_out * ms_q)
    return math.sqrt(ms_w / ms_q)


def effective_weight(w: Tensor, scheme: QuantScheme) -> Tensor:
    """Weight actually used by the linear op, as one recorded op: the
    ``weight_grid`` of ``w`` mapped onto [-1, 1], then rescaled.

    When rescaled, the scalar comes from the statistics of the
    post-quantization tensor.  The backward is straight-through across the
    rounding and holds the scalar and the per-layer max fixed, so only the
    rescale, the affine map and tanh' act on the gradient.
    """
    unit, t, m = weight_grid(w.data, scheme.bits)
    eff = unit * 2.0 - 1.0
    mode = scheme.rescale
    if mode is not RescaleMode.NONE:
        scalar = rescale_scalar(eff, scheme, w)
        eff = eff / scalar if mode is RescaleMode.CONSTANT else eff * scalar
    out = Tensor(eff)

    def backward(g):
        if mode is RescaleMode.CONSTANT:
            g = g / scalar
        elif mode is RescaleMode.STDDEV:
            g = g * scalar
        return (g * 2.0 * (1.0 - t * t) / (2.0 * m),)

    return _record("effective_weight", out, (w,), backward)


def pact_quantize(x: Tensor, state: PactState) -> Tensor:
    """Clip to [0, alpha], quantize on the alpha-scaled grid.

    Gradient w.r.t. the input is straight-through inside the clip window.
    Gradient w.r.t. alpha depends on the mode:

    * CG:     q - xc/alpha below the clip, where q is xc/alpha rounded
              onto the grid, and 1 at or above it
    * LEGACY: 0 below the clip, 1 at or above it

    x == alpha belongs to the saturated branch.  A NaN input is in neither
    branch: its CG factor, and so the alpha gradient, is NaN.
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
        # q - ratio is exactly 0 where x >= alpha (both are 1), so adding
        # the saturated mask sets the factor there to 1
        per_elem = np.subtract(q, ratio, out=ratio)
        per_elem += ~below
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
        ga = np.asarray(np.sum(scaled, dtype=np.float64), dtype=state.alpha.data.dtype)
        return (g * in_window, ga.reshape(state.alpha.shape))

    return _record("pact_quantize", out, (x, state.alpha), backward)
