"""Property tests for malformed input: a config text parses or raises
ConfigError, a byte string loads as a checkpoint or folded file or
raises CheckpointError, and an edited dataset directory loads or raises
DatasetError.  The CLI maps these errors to exit codes 2 and 3, so any
other exception would escape as a traceback.  A folded file that loads
must also evaluate or exit with a documented code, and a model that loads
must fold, or raise FoldError, into a model that its file reloads as.
Examples these tests found are pinned as plain tests below them, or as
explicit examples.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import write_cifar, write_mnist
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qsat.cli import main
from qsat.data import ArrayDataset, DatasetError, load_dataset
from qsat.deployment import (
    CheckpointError,
    FoldError,
    fold_bn,
    load_checkpoint,
    load_folded,
    load_model_state,
    save_checkpoint,
    save_folded,
)
from qsat.network import build_preset
from qsat.quant import RescaleMode
from qsat.tensor import DomainError, ShapeError
from qsat.training import ConfigError, parse_config

FAST = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

VALID_CONFIG = {
    "preset": "convnet-bn", "dataset": "blobs32", "epochs": "3", "batch_size": "32",
    "bits": "4", "act_bits": "4", "rescale": "constant", "pact_mode": "cg",
    "first_last_bits": "8", "base_lr": "0.05", "warmup_epochs": "1",
    "momentum": "0.9", "weight_decay": "4e-5", "seed": "1", "diag_every": "50",
    "train_size": "160", "val_size": "80",
}
KEYS = [*VALID_CONFIG, "dataset_path", "layer0.bits", "layer6.rescale", "layer7.bits",
        "layer-1.bits", "layer.bits", "layerx.rescale", "layer2.pool", "layer 1.bits",
        "unknown"]
VALUES = st.one_of(
    st.sampled_from(["", "raw", "fp", "uniform", "0", "1", "16", "17", "-1", "1_0",
                     "٣", "²", "none", "constant", "stddev", "cg", "legacy",
                     "convnet-nobn-tail", "preresnet-toy", "nan", "inf", "-inf", "1e400",
                     "9" * 5000]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)


def config_text(values: dict, extra: list[str]) -> str:
    return "\n".join([f"{k}={v}" for k, v in values.items()] + extra)


@FAST
@given(
    edits=st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=4),
    dropped=st.sets(st.sampled_from(list(VALID_CONFIG)), max_size=2),
    extra=st.lists(st.text(max_size=24), max_size=3),
)
def test_config_edits_parse_or_raise_config_error(edits, dropped, extra):
    values = {k: v for k, v in VALID_CONFIG.items() if k not in dropped}
    values.update(edits)
    try:
        parse_config(config_text(values, extra))
    except ConfigError:
        pass


@FAST
@given(text=st.text())
def test_any_config_text_parses_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


# -- checkpoint and folded files --------------------------------------------------


def blobs28_model():
    """A 4-bit ``convnet-bn`` for the 1x28x28 images of ``blobs28``."""
    return build_preset("convnet-bn", image_size=28, in_channels=1, weight_bits=4, act_bits=4,
                        rescale=RescaleMode.CONSTANT, seed=3)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bytes of a valid model checkpoint and of a valid folded file,
    both of ``blobs28_model``."""
    root = tmp_path_factory.mktemp("valid")
    model = blobs28_model()
    save_checkpoint(model, root / "model.ckpt")
    save_folded(fold_bn(model), root / "folded.ckpt")
    return {kind: (root / f"{kind}.ckpt").read_bytes() for kind in ("model", "folded")}


# the tensors of a block of ``blobs28_model`` that the fold absorbs
FOLDED_FIELDS = ["bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var", "pact.alpha"]


@FAST
@example(block=2, field="pact.alpha", at=0, value=-1.0)
@example(block=2, field="pact.alpha", at=0, value=0.0)
@example(block=2, field="pact.alpha", at=0, value=3e38)
@example(block=2, field="bn.running_var", at=0, value=-5.0)
@given(block=st.integers(1, 6), field=st.sampled_from(FOLDED_FIELDS), at=st.integers(0, 31),
       value=st.floats(width=32, allow_nan=False, allow_infinity=False)
       | st.sampled_from([-1.0, 0.0, -0.0, 1e-45, 1e-30, 3e38, -3e38]))
def test_model_edit_folds_as_its_file_reloads_or_raises_fold_error(tmp_path, block, field, at,
                                                                   value):
    model = blobs28_model()
    tensors = {name: t.data.copy() for name, _, t in model.named_state()}
    edited = tensors[f"block{block}.{field}"]
    edited.flat[at % edited.size] = value
    try:
        load_model_state(model, tensors)
    except CheckpointError:
        return
    try:
        folded = fold_bn(model)
    except FoldError:
        return
    save_folded(folded, tmp_path / "folded.ckpt")
    again = load_folded(tmp_path / "folded.ckpt")
    images = np.random.default_rng(0).integers(0, 256, (3, 1, 28, 28)).astype(np.float32)
    assert np.array_equal(folded.forward_int(images), again.forward_int(images))


STATE_NAMES = [name for name, _, _ in blobs28_model().named_state()]


@FAST
# states that a direct load once accepted
@example(slot="block2.pact.alpha", edit=-1.0, at=0)
@example(slot="block2.pact.alpha", edit=math.nan, at=0)
@example(slot="block3.bn.running_var", edit=-5.0, at=0)
@example(slot="block4.weight", edit="zero", at=0)
@given(slot=st.sampled_from(STATE_NAMES),
       edit=st.sampled_from([math.nan, -1.0, 0.0, -0.0, 3e38, "zero", "drop", "add", "reshape"]),
       at=st.integers(0, 2**16))
def test_state_edit_loads_or_leaves_the_model_as_it_was(slot, edit, at):
    model = blobs28_model()
    tensors = {name: t.data.copy() for name, _, t in model.named_state()}
    if isinstance(edit, float):
        tensors[slot].flat[at % tensors[slot].size] = edit
    elif edit == "zero":
        tensors[slot][...] = 0.0
    elif edit == "drop":
        del tensors[slot]
    elif edit == "add":
        tensors[f"{slot}.extra"] = tensors[slot]
    else:
        tensors[slot] = tensors[slot].reshape(1, -1)
    before = [(name, t.data.tobytes()) for name, _, t in model.named_state()]
    try:
        model.load_state(tensors)
    except (KeyError, ShapeError, DomainError):
        assert [(name, t.data.tobytes()) for name, _, t in model.named_state()] == before
        return
    # a state that loads is held as given, and is one the state rules accept
    for name, role, t in model.named_state():
        if name in tensors:
            assert t.data.tobytes() == tensors[name].tobytes()
        assert role != "alpha" or np.all(t.data > 0)
        assert role != "bn_var" or np.all(t.data >= 0)
    infos = model.linear_infos()
    assert all(np.any(i.layer.w.data) for i in infos if i.layer.scheme is not None or i is infos[-1])


@FAST
# the gzipped test labels' CRC, the gzipped test images cut short, the IDX
# training images' header cut short, and a CIFAR-10 file that is a directory
@example(dataset="mnist", which=1, edit="overwrite", at=22, blob=b"\xff")
@example(dataset="mnist", which=0, edit="truncate", at=1000, blob=b"\x00")
@example(dataset="mnist", which=2, edit="truncate", at=10, blob=b"\x00")
@example(dataset="cifar10", which=0, edit="directory", at=0, blob=b"\x00")
@given(dataset=st.sampled_from(["mnist", "cifar10"]), which=st.integers(0, 3),
       edit=st.sampled_from(["truncate", "extend", "overwrite", "directory"]),
       at=st.integers(0, 2**20), blob=st.binary(min_size=1, max_size=16))
def test_dataset_file_edit_loads_or_raises_dataset_error(tmp_path, dataset, which, edit, at,
                                                         blob):
    # a tiny directory of each format, the MNIST test split gzipped; ``which``
    # picks the file to edit in name order
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    (write_mnist if dataset == "mnist" else write_cifar)(directory, counts=(3, 2))
    paths = sorted(directory.iterdir())
    path = paths[which % len(paths)]
    data = path.read_bytes()
    if edit == "truncate":
        path.write_bytes(data[:at % len(data)])
    elif edit == "extend":
        path.write_bytes(data + blob)
    elif edit == "overwrite":
        at %= len(data)
        path.write_bytes(data[:at] + blob + data[at + len(blob):])
    else:
        path.unlink()
        path.mkdir()
    try:
        splits = load_dataset(dataset, path=directory)
    except DatasetError:
        return
    for split in splits:
        assert isinstance(split, ArrayDataset) and len(split) > 0
        assert split.images.ndim == 4 and split.labels.shape == (len(split),)


def loads_or_raises_checkpoint_error(path, blob: bytes) -> None:
    path.write_bytes(blob)
    for load in (load_checkpoint, load_folded):
        try:
            load(path)
        except CheckpointError:
            pass


@FAST
@given(blob=st.binary(max_size=64) | st.binary(max_size=8).map(lambda b: b"QSAT" + b))
def test_any_bytes_load_or_raise_checkpoint_error(tmp_path, blob):
    loads_or_raises_checkpoint_error(tmp_path / "blob.ckpt", blob)


def manifest_end(blob: bytes) -> int:
    return 16 + int.from_bytes(blob[8:16], "little")


@FAST
@given(kind=st.sampled_from(["model", "folded"]), where=st.data(), byte=st.integers(0, 255))
def test_one_byte_mutation_loads_or_raises_checkpoint_error(tmp_path, files, kind, where,
                                                            byte):
    blob = bytearray(files[kind])
    # most of a file is payload, where a byte changes a value and nothing
    # else; draw from the header and manifest most of the time
    at = where.draw(st.integers(0, manifest_end(blob) - 1)
                    | st.integers(0, len(blob) - 1))
    blob[at] = byte
    loads_or_raises_checkpoint_error(tmp_path / "mutated.ckpt", bytes(blob))


def with_manifest(files, kind, edit) -> bytes:
    blob = files[kind]
    manifest = json.loads(blob[16:manifest_end(blob)])
    edit(manifest)
    body = json.dumps(manifest, sort_keys=True).encode()
    return blob[:8] + len(body).to_bytes(8, "little") + body + blob[manifest_end(blob):]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@FAST
@given(where=st.data(), shape=st.lists(st.integers(0, 2**80), max_size=4))
def test_any_manifest_shape_loads_or_raises_checkpoint_error(tmp_path, files, where, shape):
    entry = where.draw(st.integers(0, 36))

    def edit(manifest):
        manifest["tensors"][entry]["shape"] = shape

    loads_or_raises_checkpoint_error(tmp_path / "shape.ckpt", with_manifest(files, "model", edit))


FOLDED_LAYER_KEYS = ["name", "channel_sign", "weight_levels", "stride", "pad", "in_scale",
                     "in_levels", "out_alpha", "out_levels", "pool_k"]


@FAST
@given(where=st.data(),
       value=st.sampled_from([float("inf"), -float("inf"), float("nan"), 1e300, -1, 0, True,
                              None, "", []]) | JSON_VALUES)
def test_any_folded_meta_value_loads_or_raises_checkpoint_error(tmp_path, files, where, value):
    key = where.draw(st.sampled_from([*FOLDED_LAYER_KEYS, "fc_in_scale", "logit_scale",
                                      "layers"]))
    layer = where.draw(st.integers(0, 5))

    def edit(manifest):
        meta = manifest["meta"]
        if key in meta:
            meta[key] = value
        else:
            meta["layers"][layer][key] = value

    loads_or_raises_checkpoint_error(tmp_path / "meta.ckpt", with_manifest(files, "folded", edit))


# a blobs28 config whose images the folded file of ``files`` reads
BLOBS28_CONFIG = dict(VALID_CONFIG, dataset="blobs28", train_size="10", val_size="20")


@FAST
@example(key="in_levels", layer=0, value=100)
@example(key="in_levels", layer=0, value=256)
@given(key=st.sampled_from(FOLDED_LAYER_KEYS), layer=st.integers(0, 5),
       value=st.integers(-2, 2**12) | st.sampled_from([254, 255, 256, 2**52]) | JSON_VALUES)
def test_loaded_folded_meta_edit_evaluates_or_exits_documented(tmp_path, files, key, layer,
                                                               value):
    def edit(manifest):
        manifest["meta"]["layers"][layer][key] = value

    path = tmp_path / "meta.ckpt"
    path.write_bytes(with_manifest(files, "folded", edit))
    try:
        load_folded(path)
    except CheckpointError:
        return
    assert eval_exit_code(tmp_path, path) in (0, 2, 3)


def eval_exit_code(tmp_path, folded_path) -> int:
    cfg = tmp_path / "blobs28.cfg"
    cfg.write_text(config_text(BLOBS28_CONFIG, []))
    return main(["eval", "--config", str(cfg), "--init", str(folded_path)])


def test_unedited_folded_file_evaluates(tmp_path, files):
    path = tmp_path / "folded.ckpt"
    path.write_bytes(files["folded"])
    assert eval_exit_code(tmp_path, path) == 0


# -- examples the properties found ------------------------------------------------


def test_bits_past_the_int_digit_limit_is_a_config_error():
    values = dict(VALID_CONFIG, bits="9" * 5000)
    with pytest.raises(ConfigError, match="bits must be"):
        parse_config(config_text(values, []))


def write_one_tensor_file(path, shape):
    """A model file holding one tensor of ``shape``, with a payload of its
    size when that is at most one element, else an empty one."""
    manifest = json.dumps({"kind": "model", "tensors": [{"name": "w", "shape": shape}]})
    payload = bytes(4 * math.prod(shape)) if math.prod(shape) <= 1 else b""
    path.write_bytes(b"QSAT" + (1).to_bytes(4, "little") + len(manifest).to_bytes(8, "little")
                     + manifest.encode() + payload)
    return path


@pytest.mark.parametrize("shape", [[2**64], [0, 2**63], [0, 2**62], [1] * 65])
def test_shape_numpy_cannot_hold_is_a_checkpoint_error(tmp_path, shape):
    with pytest.raises(CheckpointError):
        load_checkpoint(write_one_tensor_file(tmp_path / "shape.ckpt", shape))


@pytest.mark.parametrize("key", ["stride", "pool_k", "weight_levels"])
def test_infinite_folded_integer_is_a_checkpoint_error(tmp_path, files, key):
    def edit(manifest):
        manifest["meta"]["layers"][0][key] = float("inf")

    path = tmp_path / "meta.ckpt"
    path.write_bytes(with_manifest(files, "folded", edit))
    with pytest.raises(CheckpointError, match="malformed folded model"):
        load_folded(path)


def test_cli_exits_two_on_the_found_examples(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(config_text(dict(VALID_CONFIG, bits="9" * 5000), []))
    assert main(["train", "--config", str(bad_cfg), "--out", str(tmp_path / "run")]) == 2
    cfg = tmp_path / "good.cfg"
    cfg.write_text(config_text(VALID_CONFIG, []))
    ckpt = write_one_tensor_file(tmp_path / "shape.ckpt", [2**64])
    assert main(["eval", "--config", str(cfg), "--init", str(ckpt)]) == 2
    assert "checkpoint error" in capsys.readouterr().err
