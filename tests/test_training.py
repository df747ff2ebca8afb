import logging
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import finite_difference_check
from qsat.data import ArrayDataset, Batch, DatasetError, load_dataset, make_blobs
from qsat.network import build_preset
from qsat.quant import PactState, RescaleMode
from qsat.tensor import DomainError, Tensor, no_grad
from qsat.training import (
    SGD,
    ConfigError,
    DivergenceError,
    TrainConfig,
    build_model_from_config,
    config_hash,
    cross_entropy,
    evaluate,
    load_splits,
    lr_schedule,
    parse_config,
    sgd_step,
    train,
)


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 10, 37):
            logits = Tensor(np.zeros((5, k)))
            labels = np.arange(5) % k
            assert cross_entropy(logits, labels).item() == pytest.approx(math.log(k))

    def test_margin_monotonically_reduces_loss(self):
        losses = []
        for margin in (1.0, 5.0, 10.0):
            logits = np.zeros((4, 10))
            logits[np.arange(4), np.arange(4)] = margin
            losses.append(cross_entropy(Tensor(logits), np.arange(4)).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[-1] < 1e-3

    def test_gradient_vs_finite_differences(self):
        labels = np.random.default_rng(1).integers(0, 10, size=4)
        point = Tensor(rand((4, 10), seed=0))
        err = finite_difference_check(lambda t: cross_entropy(t, labels), point)
        assert err <= 1e-6

    def test_stabilized_against_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert math.isfinite(loss.item()) and loss.item() == pytest.approx(0.0)

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestSgd:
    def test_plain_sgd_when_momentum_and_decay_are_zero(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        v = np.zeros(2)
        sgd_step(w, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        npt.assert_allclose(w, [0.95, 2.05])

    def test_two_step_closed_form(self):
        # constant gradient, mu=0.9, no decay:
        #   v1 = g,            w1 = w0 - lr*(1 + 0.9)*g
        #   v2 = 1.9g,         w2 = w1 - lr*(1 + 0.9*1.9)*g
        w = np.array([0.0])
        g = np.array([1.0])
        v = np.zeros(1)
        lr = 0.1
        sgd_step(w, g, v, lr, momentum=0.9, weight_decay=0.0)
        npt.assert_allclose(w, [-lr * 1.9])
        sgd_step(w, g, v, lr, momentum=0.9, weight_decay=0.0)
        npt.assert_allclose(w, [-lr * 1.9 - lr * 2.71])

    def test_pure_decay_shrinks_weights(self):
        w = np.array([4.0, -4.0])
        v = np.zeros(2)
        magnitudes = [np.abs(w).copy()]
        for _ in range(5):
            sgd_step(w, np.zeros(2), v, lr=0.5, momentum=0.0, weight_decay=0.1)
            magnitudes.append(np.abs(w).copy())
        for prev, cur in zip(magnitudes, magnitudes[1:]):
            assert np.all(cur < prev)

    def test_optimizer_skips_gradless_params(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = SGD([p], momentum=0.9, weight_decay=0.0)
        opt.step(0.1)  # no grad yet
        npt.assert_array_equal(p.data, np.ones(3))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2, the frozen alpha: clamp_alpha leaves a numpy "
        "scalar where the 0-d array was, so sgd_step's in-place update is lost",
    )
    def test_clamped_alpha_still_trains(self):
        state = PactState.create(bits=4)
        state.clamp_alpha()
        assert isinstance(state.alpha.data, np.ndarray) and state.alpha.data.ndim == 0
        before = state.alpha_value
        state.alpha.grad = np.asarray(1.0, dtype=np.float32)
        SGD([state.alpha], momentum=0.9, weight_decay=0.0).step(0.1)
        assert state.alpha_value != before


class TestLrSchedule:
    def test_warmup_starts_at_zero_and_hits_peak(self):
        peak = 0.05
        assert lr_schedule(0, 1000, 100, peak) == 0.0
        assert lr_schedule(100, 1000, 100, peak) == peak
        assert lr_schedule(50, 1000, 100, peak) == pytest.approx(peak / 2)

    def test_cosine_tail_approaches_zero(self):
        peak = 0.05
        total, warm = 1000, 100
        last = lr_schedule(total - 1, total, warm, peak)
        bound = peak * (1 - math.cos(math.pi * (total - 1) / total)) / 2
        assert 0 <= last <= bound

    def test_monotone_decay_after_warmup(self):
        values = [lr_schedule(s, 200, 20, 0.1) for s in range(20, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_peak_scaling_with_batch_size(self):
        cfg = TrainConfig(preset="convnet-bn", dataset="blobs32", epochs=3,
                          batch_size=256, bits="fp", warmup_epochs=1)
        assert cfg.peak_lr == pytest.approx(0.05)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            lr_schedule(10, 10, 2, 0.1)


class TestConfigParsing:
    GOOD = """
    # a comment
    preset=convnet-bn
    dataset=blobs32
    epochs=4
    batch_size=16
    bits=4
    act_bits=4
    rescale=constant
    pact_mode=legacy
    seed=9
    """

    def test_round_trip(self):
        cfg = parse_config(self.GOOD)
        assert cfg.preset == "convnet-bn"
        assert cfg.bits == "4"
        assert cfg.pact_mode == "legacy"
        assert cfg.seed == 9
        assert cfg.quantized

    def test_missing_required_key_named(self):
        text = "\n".join(
            l for l in self.GOOD.splitlines() if not l.strip().startswith("bits=")
        )
        with pytest.raises(ConfigError, match="bits"):
            parse_config(text)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(self.GOOD + "\nlearning_rate=0.1")

    def test_bad_value_types(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(self.GOOD.replace("epochs=4", "epochs=four"))

    def test_validation_bounds(self):
        with pytest.raises(ConfigError):
            parse_config(self.GOOD.replace("batch_size=16", "batch_size=1"))
        with pytest.raises(ConfigError):
            parse_config(self.GOOD + "\nwarmup_epochs=9")

    @pytest.mark.parametrize("line", [
        "bits=0", "bits=17", "act_bits=0", "diag_every=0", "momentum=nan",
        "weight_decay=-1", "first_last_bits=abc", "layer99.bits=4",
        "train_size=-5", "val_size=0",
    ])
    def test_out_of_range_values_rejected(self, line):
        key = line.split("=")[0]
        text = "\n".join(l for l in self.GOOD.splitlines()
                         if l.strip().split("=")[0] != key)
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            parse_config(text + "\n" + line)

    def test_layer_overrides(self):
        cfg = parse_config(self.GOOD + "\nlayer2.bits=8\nlayer2.rescale=stddev")
        assert cfg.layer_overrides[2]["bits"] == "8"
        assert cfg.layer_overrides[2]["rescale"] is RescaleMode.STDDEV

    def test_layer_bits_override_reaches_the_built_scheme(self):
        cfg = parse_config(self.GOOD + "\nlayer2.bits=2\nlayer3.bits=raw\nlayer4.bits=fp")
        schemes = [i.layer.scheme for i in build_model_from_config(cfg, (3, 32, 32), 10)
                   .linear_infos()]
        assert schemes[3] is None  # raw: the weight as it is
        assert schemes[4].bits is None  # fp: clamped, not quantized
        assert [s.bits for s in schemes[:3] + schemes[5:]] == [8, 4, 2, 4, 8]

    def test_config_hash_stable_and_sensitive(self):
        a = parse_config(self.GOOD)
        b = parse_config(self.GOOD)
        c = parse_config(self.GOOD.replace("seed=9", "seed=10"))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestDatasets:
    def test_blobs_deterministic(self):
        a_train, a_val = make_blobs(n_train=100, n_val=20, seed=5)
        b_train, b_val = make_blobs(n_train=100, n_val=20, seed=5)
        npt.assert_array_equal(a_train.images, b_train.images)
        npt.assert_array_equal(a_val.labels, b_val.labels)

    @pytest.mark.parametrize("name,shape", [("blobs32", (3, 32, 32)), ("blobs28", (1, 28, 28))])
    def test_blobs_presets_load(self, name, shape):
        train, val = load_dataset(name, seed=6, train_size=20, val_size=10)
        assert train.image_shape == val.image_shape == shape

    def test_blobs_range_and_balance(self):
        train, _ = make_blobs(n_train=200, n_val=20, seed=6)
        assert train.images.min() >= 0.0 and train.images.max() <= 255.0
        npt.assert_array_equal(train.images, np.rint(train.images))
        counts = np.bincount(train.labels, minlength=10)
        assert np.all(counts == 20)

    def test_batch_range_validation(self):
        # a split's pixels are checked once, where the split is made
        for value in (300.0, 255.5, -1.0):
            with pytest.raises(DatasetError, match=r"outside \[0, 255\]"):
                ArrayDataset(np.full((1, 1, 2, 2), value), np.zeros(1, dtype=np.int64))
        ArrayDataset(np.array([0.0, 255.0]).reshape(2, 1, 1, 1), np.zeros(2, dtype=np.int64))

    def test_batch_nan_pixel_rejected(self):
        images = np.zeros((1, 1, 2, 2))
        images[0, 0, 1, 0] = np.nan
        with pytest.raises(DatasetError, match="nan"):
            ArrayDataset(images, np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("images,labels", [
        (np.zeros((0, 1, 2, 2)), np.zeros(0, np.int64)),
        (np.zeros((2, 0, 2, 2)), np.zeros(2, np.int64)),
        (np.zeros((2, 4)), np.zeros(2, np.int64)),
        (np.zeros((2, 1, 2, 2)), np.zeros(3, np.int64)),
        (np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 1), np.uint8)),
        (np.zeros((2, 1, 2, 2)), np.zeros((), np.int64)),
        (np.zeros((2, 1, 2, 2)), np.zeros(2)),
        (np.zeros((2, 1, 2, 2)), np.array([0, -1])),
    ], ids=["empty", "no-channels", "2-d-images", "more-labels", "3-d-labels", "0-d-labels",
            "float-labels", "negative-label"])
    def test_split_check(self, images, labels):
        # an empty split, an image that is not NxCxHxW, or labels that are
        # not one non-negative integer per image
        with pytest.raises(DatasetError):
            ArrayDataset(images, labels)

    def test_batch_checks_nothing(self):
        # the split checked its images once; a minibatch is a plain container
        batch = Batch(np.full((1, 2), np.nan), np.zeros(3))
        assert batch.images.shape == (1, 2) and batch.labels.shape == (3,)

    def test_mnist_idx_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for split, count in (("train", 32), ("t10k", 8)):
            images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
            labels = rng.integers(0, 10, size=count, dtype=np.uint8)
            with open(tmp_path / f"{split}-images-idx3-ubyte", "wb") as fh:
                fh.write((0x00000803).to_bytes(4, "big"))
                for d in images.shape:
                    fh.write(d.to_bytes(4, "big"))
                fh.write(images.tobytes())
            with open(tmp_path / f"{split}-labels-idx1-ubyte", "wb") as fh:
                fh.write((0x00000801).to_bytes(4, "big"))
                fh.write(count.to_bytes(4, "big"))
                fh.write(labels.tobytes())
        train, test = load_dataset("mnist", path=tmp_path)
        assert train.images.shape == (32, 1, 28, 28)
        assert test.images.shape == (8, 1, 28, 28)
        npt.assert_array_equal(train.images[0, 0], rng_images_check(tmp_path))

    def test_cifar10_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        for name, count in (("data_batch_1.bin", 24), ("test_batch.bin", 8)):
            rows = np.zeros((count, 1 + 3072), dtype=np.uint8)
            rows[:, 0] = rng.integers(0, 10, size=count)
            rows[:, 1:] = rng.integers(0, 256, size=(count, 3072))
            (tmp_path / name).write_bytes(rows.tobytes())
        train, test = load_dataset("cifar10", path=tmp_path)
        assert train.images.shape == (24, 3, 32, 32)
        assert len(test) == 8
        # each record is a label byte, then the red, green and blue planes
        # row by row: the image is CHW
        rows = np.frombuffer((tmp_path / "data_batch_1.bin").read_bytes(), np.uint8)
        rows = rows.reshape(24, 1 + 3072)
        npt.assert_array_equal(train.labels, rows[:, 0])
        npt.assert_array_equal(train.images[5, 1, 2, :], rows[5, 1 + 1024 + 2 * 32:][:32])
        npt.assert_array_equal(train.images, rows[:, 1:].reshape(24, 3, 32, 32))
        assert train.images.dtype == np.float32 and train.labels.dtype == np.int64
        test_rows = np.frombuffer((tmp_path / "test_batch.bin").read_bytes(), np.uint8)
        npt.assert_array_equal(test.labels, test_rows.reshape(8, -1)[:, 0])

    def test_missing_dataset_dir(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset("mnist", path=tmp_path / "nope")

    def test_truncated_cifar_rejected(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 100)
        (tmp_path / "test_batch.bin").write_bytes(b"\x00" * (1 + 3072))
        with pytest.raises(DatasetError, match="whole batch"):
            load_dataset("cifar10", path=tmp_path)


def rng_images_check(tmp_path):
    import struct

    with open(tmp_path / "train-images-idx3-ubyte", "rb") as fh:
        fh.read(4)
        dims = struct.unpack(">3I", fh.read(12))
        data = np.frombuffer(fh.read(), dtype=np.uint8).reshape(dims)
    return data[0]


def tiny_cfg(**kw):
    base = dict(preset="convnet-bn", dataset="blobs32", epochs=2, batch_size=16,
                bits="fp", rescale="constant", warmup_epochs=1, seed=3,
                train_size=160, val_size=80, diag_every=5)
    base.update(kw)
    if base["warmup_epochs"] >= base["epochs"]:
        base["warmup_epochs"] = base["epochs"] - 1
    return TrainConfig(**base)


class TestEvaluate:
    def test_constant_predictor_on_balanced_classes(self):
        class Constant:
            def forward(self, x, training=False):
                logits = np.zeros((x.shape[0], 10))
                logits[:, 3] = 1.0
                return Tensor(logits)

        _, val = make_blobs(n_train=100, n_val=100, seed=9)
        top1, top5 = Constant and evaluate(Constant(), val)
        assert top1 == pytest.approx(0.1)
        assert top5 == pytest.approx(0.5)
        assert top5 >= top1

    def test_memorizing_predictor_is_perfect(self):
        _, val = make_blobs(n_train=100, n_val=50, seed=10)

        class Oracle:
            offset = 0

            def forward(self, x, training=False):
                n = x.shape[0]
                logits = np.zeros((n, 10))
                labels = val.labels[Oracle.offset : Oracle.offset + n]
                logits[np.arange(n), labels] = 1.0
                Oracle.offset += n
                return Tensor(logits)

        top1, top5 = evaluate(Oracle(), val)
        assert top1 == 1.0 and top5 == 1.0

    def test_empty_dataset_rejected(self):
        # an empty split is rejected where it is made, so evaluate never sees one
        with pytest.raises(DatasetError, match="at least one"):
            ArrayDataset(np.zeros((0, 3, 32, 32), dtype=np.float32),
                         np.zeros(0, dtype=np.int64))


class TestTrainLoop:
    def test_overfit_fixed_tiny_batch(self):
        # loss on a memorized 32-sample batch collapses within 500 steps
        from qsat.quant import PactBackward
        model = build_preset("convnet-bn", weight_bits="fp",
                             rescale=RescaleMode.CONSTANT, seed=11)
        train_set, _ = make_blobs(n_train=40, n_val=20, seed=11)
        images = train_set.images[:32]
        labels = train_set.labels[:32]
        opt = SGD(model.parameters(), momentum=0.9, weight_decay=4e-5)
        loss_value = None
        for step in range(500):
            opt.zero_grad()
            loss = cross_entropy(model.forward(Tensor(images), training=True), labels)
            loss.backward()
            opt.step(0.05)
            loss_value = loss.item()
            if loss_value < 0.01:
                break
        assert loss_value < 0.01

    def test_quantized_training_requires_checkpoint(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            train(tiny_cfg(bits="4", act_bits="4"))

    def test_metrics_and_records_deterministic(self, tmp_path):
        a = train(tiny_cfg(), out_dir=tmp_path / "a")
        b = train(tiny_cfg(), out_dir=tmp_path / "b")
        assert a.metrics_rows == b.metrics_rows
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a/diagnostics.csv").read_bytes() == (
            tmp_path / "b/diagnostics.csv"
        ).read_bytes()

    def test_data_order_immune_to_quantization(self, tmp_path):
        # the same seed must shuffle identically whether or not the model
        # quantizes; compare against a finetune run started from the first
        fp = train(tiny_cfg(epochs=1), out_dir=tmp_path / "fp")
        from qsat.deployment import save_checkpoint, load_checkpoint

        save_checkpoint(fp.model, tmp_path / "fp.ckpt")
        init = load_checkpoint(tmp_path / "fp.ckpt").tensors
        q = train(tiny_cfg(epochs=1, bits="8", act_bits="8"), init_state=init)
        # loss differs but the diagnostics stream covers identical steps
        assert [r.step for r in q.records] == [r.step for r in fp.records]

    def test_quantized_top1_is_the_no_grad_forward_argmax_count(self, tmp_path):
        # perfbench's training.evaluate_top1 check, on a 4-bit fine-tune;
        # 80 validation images in batches of 16, 32 and 48 (a short last one)
        fp = train(tiny_cfg(epochs=1), out_dir=None)
        from qsat.deployment import save_checkpoint, load_checkpoint

        save_checkpoint(fp.model, tmp_path / "fp.ckpt")
        init = load_checkpoint(tmp_path / "fp.ckpt").tensors
        cfg = tiny_cfg(epochs=1, bits="4", act_bits="4")
        result = train(cfg, init_state=init)
        _, val = load_splits(cfg)
        for batch in (16, 32, 48):
            with no_grad():
                logits = np.concatenate([
                    result.model.forward(Tensor(val.images[s : s + batch])).data
                    for s in range(0, len(val), batch)])
            hits = int(np.sum(logits.argmax(axis=1) == val.labels))
            assert 0 < hits < len(val)
            top1, _ = evaluate(result.model, val, batch_size=batch)
            assert top1 * len(val) == pytest.approx(hits, abs=1e-6)
        assert result.final_top1 == pytest.approx(evaluate(result.model, val, 16)[0], abs=1e-6)

    def test_quantized_weights_stay_on_grid(self, tmp_path):
        fp = train(tiny_cfg(epochs=1), out_dir=None)
        from qsat.deployment import save_checkpoint, load_checkpoint
        from qsat.quant import QuantScheme, effective_weight
        from qsat.tensor import no_grad

        save_checkpoint(fp.model, tmp_path / "fp.ckpt")
        init = load_checkpoint(tmp_path / "fp.ckpt").tensors
        result = train(tiny_cfg(epochs=1, bits="2", act_bits="4"), init_state=init)
        for info in result.model.linear_infos():
            layer = info.layer
            bits = layer.scheme.bits
            a = 2**bits - 1
            with no_grad():
                pre = effective_weight(Tensor(layer.w.data), QuantScheme(bits=bits)).data
            idx = (pre.astype(np.float64) + 1.0) * a / 2.0
            npt.assert_allclose(idx, np.rint(idx), atol=1e-3)

    def test_divergence_detected(self, caplog):
        # raw unclamped weights with an absurd rate overflow float32 within
        # a few dozen steps; clamped schemes are saturation-proof by design
        cfg = tiny_cfg(bits="raw", rescale="none", base_lr=1e4,
                       warmup_epochs=0, epochs=4)
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level(logging.WARNING, logger="qsat.training"):
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError):
                train(cfg)
        # numpy's overflow and invalid-value warnings go to the run's log,
        # once, with where the first one happened
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        logged = [r for r in caplog.records if r.name == "qsat.training"]
        assert len(logged) == 1
        assert "floating-point error" in logged[0].getMessage()
        assert "epoch 0 step" in logged[0].getMessage()
