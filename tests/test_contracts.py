"""Literal pins of the model's layer lists: checkpoint (name, role) order,
``parameters()`` order and every ``LinearInfo`` field, for the three presets,
each layer's quantization scheme under five build settings, the op names one
training-mode forward puts on the tape (an eval-mode forward puts none), and
the tensor engine's public names.

Checkpoint order defines the payload order of every checkpoint file, and
``LinearInfo`` feeds the diagnostics rows and the folded walk, so these lists
are file-format contracts.  The one order that may change is where a
pre-activation block's PACT clip levels sit in ``parameters()``: SGD updates
each parameter on its own, so that order never reaches a trained byte.
"""

import numpy as np
import pytest

from qsat import tensor
from qsat.network import PRESETS, build_preset
from qsat.quant import RescaleMode

CONVNET_BN_Q4_STATE = [
    ("block1.weight", "weight"), ("block1.bn.gamma", "bn_gamma"),
    ("block1.bn.beta", "bn_beta"), ("block1.bn.running_mean", "bn_mean"),
    ("block1.bn.running_var", "bn_var"), ("block1.pact.alpha", "alpha"),
    ("block2.weight", "weight"), ("block2.bn.gamma", "bn_gamma"),
    ("block2.bn.beta", "bn_beta"), ("block2.bn.running_mean", "bn_mean"),
    ("block2.bn.running_var", "bn_var"), ("block2.pact.alpha", "alpha"),
    ("block3.weight", "weight"), ("block3.bn.gamma", "bn_gamma"),
    ("block3.bn.beta", "bn_beta"), ("block3.bn.running_mean", "bn_mean"),
    ("block3.bn.running_var", "bn_var"), ("block3.pact.alpha", "alpha"),
    ("block4.weight", "weight"), ("block4.bn.gamma", "bn_gamma"),
    ("block4.bn.beta", "bn_beta"), ("block4.bn.running_mean", "bn_mean"),
    ("block4.bn.running_var", "bn_var"), ("block4.pact.alpha", "alpha"),
    ("block5.weight", "weight"), ("block5.bn.gamma", "bn_gamma"),
    ("block5.bn.beta", "bn_beta"), ("block5.bn.running_mean", "bn_mean"),
    ("block5.bn.running_var", "bn_var"), ("block5.pact.alpha", "alpha"),
    ("block6.weight", "weight"), ("block6.bn.gamma", "bn_gamma"),
    ("block6.bn.beta", "bn_beta"), ("block6.bn.running_mean", "bn_mean"),
    ("block6.bn.running_var", "bn_var"), ("block6.pact.alpha", "alpha"),
    ("fc.weight", "weight"),
]

CONVNET_NOBN_TAIL_FP_STATE = [
    ("block1.weight", "weight"), ("block1.bn.gamma", "bn_gamma"),
    ("block1.bn.beta", "bn_beta"), ("block1.bn.running_mean", "bn_mean"),
    ("block1.bn.running_var", "bn_var"),
    ("block2.weight", "weight"), ("block2.bn.gamma", "bn_gamma"),
    ("block2.bn.beta", "bn_beta"), ("block2.bn.running_mean", "bn_mean"),
    ("block2.bn.running_var", "bn_var"),
    ("block3.weight", "weight"), ("block3.bn.gamma", "bn_gamma"),
    ("block3.bn.beta", "bn_beta"), ("block3.bn.running_mean", "bn_mean"),
    ("block3.bn.running_var", "bn_var"),
    ("block4.weight", "weight"), ("block4.bn.gamma", "bn_gamma"),
    ("block4.bn.beta", "bn_beta"), ("block4.bn.running_mean", "bn_mean"),
    ("block4.bn.running_var", "bn_var"),
    ("block5.weight", "weight"), ("block5.bn.gamma", "bn_gamma"),
    ("block5.bn.beta", "bn_beta"), ("block5.bn.running_mean", "bn_mean"),
    ("block5.bn.running_var", "bn_var"),
    ("block6.weight", "weight"),
    ("fc.weight", "weight"),
]

PRERESNET_Q4_STATE = [
    ("stem.weight", "weight"),
    ("res1.bn1.gamma", "bn_gamma"), ("res1.bn1.beta", "bn_beta"),
    ("res1.bn1.running_mean", "bn_mean"), ("res1.bn1.running_var", "bn_var"),
    ("res1.bn2.gamma", "bn_gamma"), ("res1.bn2.beta", "bn_beta"),
    ("res1.bn2.running_mean", "bn_mean"), ("res1.bn2.running_var", "bn_var"),
    ("res1.pact1.alpha", "alpha"), ("res1.pact2.alpha", "alpha"),
    ("res1.conv1.weight", "weight"), ("res1.conv2.weight", "weight"),
    ("res2.bn1.gamma", "bn_gamma"), ("res2.bn1.beta", "bn_beta"),
    ("res2.bn1.running_mean", "bn_mean"), ("res2.bn1.running_var", "bn_var"),
    ("res2.bn2.gamma", "bn_gamma"), ("res2.bn2.beta", "bn_beta"),
    ("res2.bn2.running_mean", "bn_mean"), ("res2.bn2.running_var", "bn_var"),
    ("res2.pact1.alpha", "alpha"), ("res2.pact2.alpha", "alpha"),
    ("res2.conv1.weight", "weight"), ("res2.conv2.weight", "weight"),
    ("tail.bn.gamma", "bn_gamma"), ("tail.bn.beta", "bn_beta"),
    ("tail.bn.running_mean", "bn_mean"), ("tail.bn.running_var", "bn_var"),
    ("tail.pact.alpha", "alpha"),
    ("fc.weight", "weight"),
]

PRERESNET_RAW_STATE = [
    ("stem.weight", "weight"),
    ("res1.bn1.gamma", "bn_gamma"), ("res1.bn1.beta", "bn_beta"),
    ("res1.bn1.running_mean", "bn_mean"), ("res1.bn1.running_var", "bn_var"),
    ("res1.bn2.gamma", "bn_gamma"), ("res1.bn2.beta", "bn_beta"),
    ("res1.bn2.running_mean", "bn_mean"), ("res1.bn2.running_var", "bn_var"),
    ("res1.conv1.weight", "weight"), ("res1.conv2.weight", "weight"),
    ("res2.bn1.gamma", "bn_gamma"), ("res2.bn1.beta", "bn_beta"),
    ("res2.bn1.running_mean", "bn_mean"), ("res2.bn1.running_var", "bn_var"),
    ("res2.bn2.gamma", "bn_gamma"), ("res2.bn2.beta", "bn_beta"),
    ("res2.bn2.running_mean", "bn_mean"), ("res2.bn2.running_var", "bn_var"),
    ("res2.conv1.weight", "weight"), ("res2.conv2.weight", "weight"),
    ("tail.bn.gamma", "bn_gamma"), ("tail.bn.beta", "bn_beta"),
    ("tail.bn.running_mean", "bn_mean"), ("tail.bn.running_var", "bn_var"),
    ("fc.weight", "weight"),
]

CONVNET_BN_Q4_PARAMS = [
    "block1.weight", "block1.bn.gamma", "block1.bn.beta", "block1.pact.alpha",
    "block2.weight", "block2.bn.gamma", "block2.bn.beta", "block2.pact.alpha",
    "block3.weight", "block3.bn.gamma", "block3.bn.beta", "block3.pact.alpha",
    "block4.weight", "block4.bn.gamma", "block4.bn.beta", "block4.pact.alpha",
    "block5.weight", "block5.bn.gamma", "block5.bn.beta", "block5.pact.alpha",
    "block6.weight", "block6.bn.gamma", "block6.bn.beta", "block6.pact.alpha",
    "fc.weight",
]

CONVNET_NOBN_TAIL_FP_PARAMS = [
    "block1.weight", "block1.bn.gamma", "block1.bn.beta",
    "block2.weight", "block2.bn.gamma", "block2.bn.beta",
    "block3.weight", "block3.bn.gamma", "block3.bn.beta",
    "block4.weight", "block4.bn.gamma", "block4.bn.beta",
    "block5.weight", "block5.bn.gamma", "block5.bn.beta",
    "block6.weight",
    "fc.weight",
]

# a block's clip levels after its convs ...
PRERESNET_Q4_PARAMS_BLOCK_END = [
    "stem.weight",
    "res1.bn1.gamma", "res1.bn1.beta", "res1.conv1.weight",
    "res1.bn2.gamma", "res1.bn2.beta", "res1.conv2.weight",
    "res1.pact1.alpha", "res1.pact2.alpha",
    "res2.bn1.gamma", "res2.bn1.beta", "res2.conv1.weight",
    "res2.bn2.gamma", "res2.bn2.beta", "res2.conv2.weight",
    "res2.pact1.alpha", "res2.pact2.alpha",
    "tail.bn.gamma", "tail.bn.beta", "tail.pact.alpha",
    "fc.weight",
]

# ... or each in forward order, between its BN and its conv
PRERESNET_Q4_PARAMS_FORWARD = [
    "stem.weight",
    "res1.bn1.gamma", "res1.bn1.beta", "res1.pact1.alpha", "res1.conv1.weight",
    "res1.bn2.gamma", "res1.bn2.beta", "res1.pact2.alpha", "res1.conv2.weight",
    "res2.bn1.gamma", "res2.bn1.beta", "res2.pact1.alpha", "res2.conv1.weight",
    "res2.bn2.gamma", "res2.bn2.beta", "res2.pact2.alpha", "res2.conv2.weight",
    "tail.bn.gamma", "tail.bn.beta", "tail.pact.alpha",
    "fc.weight",
]

PRERESNET_RAW_PARAMS = [
    "stem.weight",
    "res1.bn1.gamma", "res1.bn1.beta", "res1.conv1.weight",
    "res1.bn2.gamma", "res1.bn2.beta", "res1.conv2.weight",
    "res2.bn1.gamma", "res2.bn1.beta", "res2.conv1.weight",
    "res2.bn2.gamma", "res2.bn2.beta", "res2.conv2.weight",
    "tail.bn.gamma", "tail.bn.beta",
    "fc.weight",
]

# (index, name, k_pool, pact alpha's checkpoint name, skip_boundary,
#  follows_bn, preceding_pool_k) per linear layer, at 32x32 images
CONVNET_INFOS_32 = [
    (0, "block1", 2.0, "block1.pact.alpha", False, True, 1.0),
    (1, "block2", 1.0, "block2.pact.alpha", False, True, 2.0),
    (2, "block3", 2.0, "block3.pact.alpha", False, True, 1.0),
    (3, "block4", 1.0, "block4.pact.alpha", False, True, 2.0),
    (4, "block5", 2.0, "block5.pact.alpha", False, True, 1.0),
    (5, "block6", 4.0, "block6.pact.alpha", False, True, 2.0),
    (6, "fc", 1.0, None, False, False, 4.0),
]

CONVNET_NOBN_TAIL_FP_INFOS_32 = [
    (0, "block1", 2.0, None, False, True, 1.0),
    (1, "block2", 1.0, None, False, True, 2.0),
    (2, "block3", 2.0, None, False, True, 1.0),
    (3, "block4", 1.0, None, False, True, 2.0),
    (4, "block5", 2.0, None, False, True, 1.0),
    (5, "block6", 4.0, None, False, False, 2.0),
    (6, "fc", 1.0, None, False, False, 4.0),
]

PRERESNET_INFOS_32 = [
    (0, "stem", 2.0, None, True, False, 1.0),
    (1, "res1.conv1", 1.0, "res1.pact1.alpha", False, True, 2.0),
    (2, "res1.conv2", 2.0, "res1.pact2.alpha", True, False, 1.0),
    (3, "res2.conv1", 1.0, "res2.pact1.alpha", False, True, 2.0),
    (4, "res2.conv2", 1.0, "res2.pact2.alpha", True, False, 1.0),
    (5, "fc", 1.0, "tail.pact.alpha", False, False, 8.0),
]


def _without_alpha(infos):
    return [(i, n, k, None, *rest) for i, n, k, _, *rest in infos]


MODELS = {
    "convnet-bn-q4": (
        "convnet-bn", dict(weight_bits=4, act_bits=4),
        CONVNET_BN_Q4_STATE, [CONVNET_BN_Q4_PARAMS], CONVNET_INFOS_32,
    ),
    "convnet-nobn-tail-fp": (
        "convnet-nobn-tail", dict(weight_bits="fp"),
        CONVNET_NOBN_TAIL_FP_STATE, [CONVNET_NOBN_TAIL_FP_PARAMS],
        CONVNET_NOBN_TAIL_FP_INFOS_32,
    ),
    "preresnet-toy-q4": (
        "preresnet-toy", dict(weight_bits=4, act_bits=4),
        PRERESNET_Q4_STATE,
        [PRERESNET_Q4_PARAMS_BLOCK_END, PRERESNET_Q4_PARAMS_FORWARD],
        PRERESNET_INFOS_32,
    ),
    "preresnet-toy-raw": (
        "preresnet-toy", dict(weight_bits="raw"),
        PRERESNET_RAW_STATE, [PRERESNET_RAW_PARAMS],
        _without_alpha(PRERESNET_INFOS_32),
    ),
}


def _build(key):
    preset, kwargs, *_ = MODELS[key]
    return build_preset(preset, seed=5, **kwargs)


def _names_by_owner(model):
    return {id(owner): name for name, _, owner in model.named_state()}


@pytest.mark.parametrize("key", MODELS)
def test_checkpoint_names_and_roles(key):
    model = _build(key)
    assert [(name, role) for name, role, _ in model.named_state()] == MODELS[key][2]


@pytest.mark.parametrize("key", MODELS)
def test_parameters_order(key):
    model = _build(key)
    names = _names_by_owner(model)
    order = [names[id(p)] for p in model.parameters()]
    assert order in MODELS[key][3]


@pytest.mark.parametrize("key", MODELS)
def test_linear_info_fields(key):
    model = _build(key)
    names = _names_by_owner(model)
    got = [
        (info.index, info.name, info.k_pool,
         None if info.pact is None else names[id(info.pact.alpha)],
         info.skip_boundary, info.follows_bn, info.preceding_pool_k)
        for info in model.linear_infos()
    ]
    assert got == MODELS[key][4]
    for info in model.linear_infos():
        assert names[id(info.layer.w)] == f"{info.name}.weight"


@pytest.mark.parametrize("key", MODELS)
def test_pact_states_follow_the_infos(key):
    model = _build(key)
    want = [info.pact for info in model.linear_infos() if info.pact is not None]
    assert [id(p) for p in model.pact_states()] == [id(p) for p in want]


@pytest.mark.parametrize("preset, pools", [
    ("convnet-bn", [(2.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 2.0), (1.0, 1.0),
                    (7.0, 1.0), (1.0, 7.0)]),
    ("preresnet-toy", [(2.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 2.0), (1.0, 1.0),
                       (1.0, 7.0)]),
])
def test_pool_fields_at_28_pixels(preset, pools):
    model = build_preset(preset, image_size=28, weight_bits="fp")
    got = [(info.k_pool, info.preceding_pool_k) for info in model.linear_infos()]
    assert got == pools


# (bits, rescale, fan_out) of each linear layer's scheme: the edge layers
# keep 8 bits unless uniform bit-widths are asked for, rescale goes to the
# layers no BN follows and to the classifier, a conv's fan-out is its
# output channels times 9, and layer overrides win
SCHEMES = {
    "convnet-bn-2-constant": (
        "convnet-bn", dict(weight_bits=2, rescale=RescaleMode.CONSTANT),
        [(8, "none", 144), (2, "none", 216), (2, "none", 288), (2, "none", 288),
         (2, "none", 216), (2, "none", 108), (8, "constant", 10)],
    ),
    "convnet-nobn-tail-fp-stddev": (
        "convnet-nobn-tail", dict(weight_bits="fp", rescale=RescaleMode.STDDEV),
        [(None, "none", 144), (None, "none", 216), (None, "none", 288),
         (None, "none", 288), (None, "none", 216), (None, "stddev", 108),
         (None, "stddev", 10)],
    ),
    "preresnet-toy-4-constant": (
        "preresnet-toy", dict(weight_bits=4, rescale=RescaleMode.CONSTANT),
        [(8, "constant", 144), (4, "none", 144), (4, "constant", 144),
         (4, "none", 144), (4, "constant", 144), (8, "constant", 10)],
    ),
    "convnet-bn-2-uniform": (
        "convnet-bn", dict(weight_bits=2, rescale=RescaleMode.CONSTANT,
                           first_last_bits="uniform"),
        [(2, "none", 144), (2, "none", 216), (2, "none", 288), (2, "none", 288),
         (2, "none", 216), (2, "none", 108), (2, "constant", 10)],
    ),
    "convnet-bn-4-overrides": (
        "convnet-bn", dict(weight_bits=4, rescale=RescaleMode.CONSTANT,
                           layer_overrides={1: {"bits": "3"},
                                            2: {"rescale": RescaleMode.STDDEV}}),
        [(8, "none", 144), (3, "none", 216), (4, "stddev", 288), (4, "none", 288),
         (4, "none", 216), (4, "none", 108), (8, "constant", 10)],
    ),
}


@pytest.mark.parametrize("key", SCHEMES)
def test_layer_schemes(key):
    preset, kwargs, want = SCHEMES[key]
    model = build_preset(preset, seed=5, **kwargs)
    got = [(s.bits, s.rescale.value, s.fan_out)
           for s in (info.layer.scheme for info in model.linear_infos())]
    assert got == want


# the op names of one training-mode forward, one line per layer record, at
# 32x32 images with constant rescale; 4-bit quantizes activations too
FORWARD_TAPES = {
    ("convnet-bn", "raw"): """
        conv2d batch_norm2d relu avg_pool2d
        conv2d batch_norm2d relu
        conv2d batch_norm2d relu avg_pool2d
        conv2d batch_norm2d relu
        conv2d batch_norm2d relu avg_pool2d
        conv2d batch_norm2d relu avg_pool2d
        reshape matmul
    """,
    ("convnet-bn", "fp"): """
        effective_weight conv2d batch_norm2d relu avg_pool2d
        effective_weight conv2d batch_norm2d relu
        effective_weight conv2d batch_norm2d relu avg_pool2d
        effective_weight conv2d batch_norm2d relu
        effective_weight conv2d batch_norm2d relu avg_pool2d
        effective_weight conv2d batch_norm2d relu avg_pool2d
        reshape effective_weight matmul
    """,
    ("convnet-bn", 4): """
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        effective_weight conv2d batch_norm2d pact_quantize
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        effective_weight conv2d batch_norm2d pact_quantize
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        reshape effective_weight matmul
    """,
    ("convnet-nobn-tail", "raw"): """
        conv2d batch_norm2d relu avg_pool2d
        conv2d batch_norm2d relu
        conv2d batch_norm2d relu avg_pool2d
        conv2d batch_norm2d relu
        conv2d batch_norm2d relu avg_pool2d
        conv2d relu avg_pool2d
        reshape matmul
    """,
    ("convnet-nobn-tail", "fp"): """
        effective_weight conv2d batch_norm2d relu avg_pool2d
        effective_weight conv2d batch_norm2d relu
        effective_weight conv2d batch_norm2d relu avg_pool2d
        effective_weight conv2d batch_norm2d relu
        effective_weight conv2d batch_norm2d relu avg_pool2d
        effective_weight conv2d relu avg_pool2d
        reshape effective_weight matmul
    """,
    ("convnet-nobn-tail", 4): """
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        effective_weight conv2d batch_norm2d pact_quantize
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        effective_weight conv2d batch_norm2d pact_quantize
        effective_weight conv2d batch_norm2d pact_quantize avg_pool2d
        effective_weight conv2d pact_quantize avg_pool2d
        reshape effective_weight matmul
    """,
    ("preresnet-toy", "raw"): """
        conv2d avg_pool2d
        batch_norm2d relu conv2d
        batch_norm2d relu conv2d add avg_pool2d
        batch_norm2d relu conv2d
        batch_norm2d relu conv2d add
        batch_norm2d relu avg_pool2d reshape matmul
    """,
    ("preresnet-toy", "fp"): """
        effective_weight conv2d avg_pool2d
        batch_norm2d relu effective_weight conv2d
        batch_norm2d relu effective_weight conv2d add avg_pool2d
        batch_norm2d relu effective_weight conv2d
        batch_norm2d relu effective_weight conv2d add
        batch_norm2d relu avg_pool2d reshape effective_weight matmul
    """,
    ("preresnet-toy", 4): """
        effective_weight conv2d avg_pool2d
        batch_norm2d pact_quantize effective_weight conv2d
        batch_norm2d pact_quantize effective_weight conv2d add avg_pool2d
        batch_norm2d pact_quantize effective_weight conv2d
        batch_norm2d pact_quantize effective_weight conv2d add
        batch_norm2d pact_quantize avg_pool2d reshape effective_weight matmul
    """,
}


@pytest.mark.parametrize("preset, bits", FORWARD_TAPES)
def test_forward_tape(preset, bits):
    model = build_preset(preset, weight_bits=bits, act_bits=bits if bits == 4 else "fp",
                         rescale=RescaleMode.CONSTANT, seed=5)
    tensor._tape.clear()
    model.forward(tensor.Tensor(np.zeros((2, 3, 32, 32), np.float32)), training=True)
    assert [node.op for node in tensor._tape] == FORWARD_TAPES[preset, bits].split()


@pytest.mark.parametrize("preset", PRESETS)
def test_eval_forward_goes_on_no_tape(preset):
    """With gradients on, an eval-mode forward records nothing and gives
    the bytes it gives under ``no_grad``."""
    model = build_preset(preset, weight_bits=4, act_bits=4, rescale=RescaleMode.CONSTANT, seed=5)
    images = np.random.default_rng(5).uniform(0, 255, (2, 3, 32, 32)).astype(np.float32)
    with tensor.no_grad():
        want = model.forward(tensor.Tensor(images), training=False).data
    tensor._tape.clear()
    got = model.forward(tensor.Tensor(images), training=False).data
    assert tensor._tape == []
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size, channels", [(32, 3), (28, 1)])
@pytest.mark.parametrize("preset", PRESETS)
def test_forward_activations_are_nhwc(preset, size, channels):
    """The NCHW images run as (n, h, w, c) activations: each conv's output
    ends in its kernel count, each BN's in its channel count, and the
    classifier flattens (n, 1, 1, c)."""
    model = build_preset(preset, image_size=size, in_channels=channels, seed=5)
    n = 2
    tensor._tape.clear()
    model.forward(tensor.Tensor(np.zeros((n, channels, size, size), np.float32)), training=True)
    nodes = list(tensor._tape)
    convs = [node for node in nodes if node.op == "conv2d"]
    bns = [node for node in nodes if node.op == "batch_norm2d"]
    assert len(convs) == len(model.layer_table) - 1 and bns
    for node in convs:
        # every preset conv is 3x3 with stride 1 and pad 1: ho, wo = h, w
        x, w = node.parents
        assert node.out.shape == (n, x.shape[1], x.shape[2], w.shape[0])
    for node in bns:
        _, gamma, _ = node.parents
        assert node.out.shape[-1] == gamma.shape[0]
    [flatten] = [node for node in nodes if node.op == "reshape"]
    assert flatten.parents[0].shape == (n, 1, 1, model.layer_table[-1].layer.n_in)


# the engine's public names: the ops a forward records (the fused ops
# record themselves through tensor._record), plus the hooks that tests and
# perfbench's tracer use; add never broadcasts, not even a scalar
TENSOR_ALL = [
    "Tensor", "ShapeError", "DomainError", "OpConstructionError",
    "no_grad", "is_grad_enabled",
    "add", "matmul", "reshape", "relu", "conv2d", "avg_pool2d",
    "mean_square_value", "register_custom_backward",
]


def test_tensor_public_surface():
    assert tensor.__all__ == TENSOR_ALL
    for name in ("sub", "mul", "div", "tensor_sum", "mean_square"):
        assert not hasattr(tensor, name)


@pytest.mark.parametrize("shape", [(), (4,), (1, 4), (3, 1)])
def test_add_rejects_unequal_shapes(shape):
    with pytest.raises(tensor.ShapeError):
        tensor.add(tensor.Tensor(np.zeros((3, 4))), tensor.Tensor(np.zeros(shape)))
