import json

import numpy as np
import pytest
from conftest import write_cifar, write_idx, write_mnist

from qsat.cli import main


TINY = """
preset=convnet-bn
dataset=blobs32
epochs=2
batch_size=16
bits={bits}
act_bits={act_bits}
rescale=constant
pact_mode=cg
warmup_epochs=1
seed=4
train_size=160
val_size=80
diag_every=5
"""


@pytest.fixture
def tiny_config(tmp_path):
    def write(name="run.cfg", bits="fp", act_bits="fp", extra=""):
        path = tmp_path / name
        path.write_text(TINY.format(bits=bits, act_bits=act_bits) + extra)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1]) if captured.out.strip() else {}
    return code, summary, captured.err


class TestTrainCommand:
    def test_train_writes_outputs(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config()
        out = tmp_path / "run"
        code, summary, _ = run_cli(capsys, "train", "--config", cfg, "--out", str(out))
        assert code == 0
        assert summary["status"] == "ok"
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "metrics.csv").read_text().splitlines()[0] == \
            "epoch,split,top1,top5,loss,lr"
        assert (out / "diagnostics.csv").exists()
        assert (out / "diagnostics.json").exists()

    def test_finetune_workflow(self, tmp_path, tiny_config, capsys):
        fp_cfg = tiny_config("fp.cfg")
        code, summary, _ = run_cli(
            capsys, "train", "--config", fp_cfg, "--out", str(tmp_path / "fp")
        )
        assert code == 0
        q_cfg = tiny_config("q.cfg", bits="4", act_bits="4")
        code, summary, _ = run_cli(
            capsys, "train", "--config", q_cfg, "--out", str(tmp_path / "q"),
            "--init", summary["checkpoint"],
        )
        assert code == 0
        assert (tmp_path / "q" / "checkpoint.ckpt").exists()

    def test_divergence_is_exit_four(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config(bits="raw", extra="base_lr=10000\n")
        code, summary, err = run_cli(capsys, "train", "--config", cfg,
                                     "--out", str(tmp_path / "run"))
        assert code == 4
        assert summary == {"command": "train", "status": "diverged",
                           "out": str(tmp_path / "run")}
        assert "training diverged" in err

    def test_divergence_keeps_only_a_checkpoint_that_loads(self, tmp_path, capsys):
        # the loss stays finite through epoch 0, but BN's running variance
        # does not; exit 4 must leave no checkpoint that eval rejects
        cfg = tmp_path / "div.cfg"
        cfg.write_text(TINY.format(bits="raw", act_bits="fp").replace("epochs=2", "epochs=3")
                       .replace("warmup_epochs=1", "warmup_epochs=0")
                       .replace("val_size=80", "val_size=40") + "base_lr=10000\n")
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 4
        assert "training diverged" in err
        ckpt = out / "checkpoint.ckpt"
        if ckpt.exists():
            code, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--init", str(ckpt))
            assert code == 0, err

    def test_quantized_without_init_is_config_error(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config(bits="4", act_bits="4")
        code, _, err = run_cli(capsys, "train", "--config", cfg,
                               "--out", str(tmp_path / "q"))
        assert code == 2
        assert "checkpoint" in err

    def test_missing_config_key_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("preset=convnet-bn\ndataset=blobs32\nepochs=2\nbatch_size=16\n")
        code, _, err = run_cli(capsys, "train", "--config", str(bad),
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "bits" in err

    def test_out_of_range_config_value_is_exit_two(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config(extra="momentum=nan\n")
        code, _, err = run_cli(capsys, "train", "--config", cfg,
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "momentum" in err
        assert not (tmp_path / "x").exists()

    def test_unknown_dataset_is_exit_three(self, tmp_path, tiny_config, capsys):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(
            TINY.format(bits="fp", act_bits="fp").replace("dataset=blobs32",
                                                          "dataset=imagenet")
        )
        code, _, err = run_cli(capsys, "train", "--config", str(cfg_path),
                               "--out", str(tmp_path / "x"))
        assert code == 3

    def test_dataset_error_leaves_no_run_directory(self, tmp_path, capsys):
        # 64 validation images do not split evenly over blobs32's 10 classes
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(TINY.format(bits="fp", act_bits="fp").replace("val_size=80",
                                                                          "val_size=64"))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg_path),
                               "--out", str(tmp_path / "fp"))
        assert code == 3
        assert "dataset error" in err
        assert not (tmp_path / "fp").exists()

    def test_checkpoint_written_once_per_epoch(self, tmp_path, tiny_config, capsys,
                                               monkeypatch):
        from qsat import deployment

        writes = []
        save = deployment.save_checkpoint

        def counted(model, path, **kwargs):
            writes.append(path)
            save(model, path, **kwargs)

        monkeypatch.setattr(deployment, "save_checkpoint", counted)
        code, summary, _ = run_cli(capsys, "train", "--config", tiny_config(),
                                   "--out", str(tmp_path / "run"))
        assert code == 0
        assert writes == [tmp_path / "run" / "checkpoint.ckpt"] * 2  # epochs=2

    def test_same_seed_twice_is_byte_identical(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config()
        for name in ("a", "b"):
            code, _, _ = run_cli(capsys, "train", "--config", cfg,
                                 "--out", str(tmp_path / name), "--seed", "7")
            assert code == 0
        for fname in ("metrics.csv", "diagnostics.csv", "checkpoint.ckpt"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes(), fname

    def test_existing_output_not_overwritten(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config()
        out = tmp_path / "run"
        run_cli(capsys, "train", "--config", cfg, "--out", str(out))
        stamp = (out / "metrics.csv").read_bytes()
        code, summary, err = run_cli(capsys, "train", "--config", cfg,
                                     "--out", str(out))
        assert code == 0
        assert summary["out"] != str(out)
        assert (out / "metrics.csv").read_bytes() == stamp
        assert "not empty" in err

    def test_force_overwrites_in_place(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config()
        out = tmp_path / "run"
        run_cli(capsys, "train", "--config", cfg, "--out", str(out))
        code, summary, _ = run_cli(capsys, "train", "--config", cfg,
                                   "--out", str(out), "--force")
        assert code == 0
        assert summary["out"] == str(out)


class TestEvalCommand:
    def test_eval_float_checkpoint(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config()
        _, summary, _ = run_cli(capsys, "train", "--config", cfg,
                                "--out", str(tmp_path / "run"))
        code, summary, _ = run_cli(capsys, "eval", "--config", cfg,
                                   "--init", summary["checkpoint"])
        assert code == 0
        assert 0.0 <= summary["top1"] <= 1.0
        assert summary["top5"] >= summary["top1"]
        assert summary["path"] == "float"

    def test_eval_requires_checkpoint(self, tiny_config, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", tiny_config())
        assert code == 2


class TestDiagnoseCommand:
    def test_sat_checkpoint_passes(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config()
        _, summary, _ = run_cli(capsys, "train", "--config", cfg,
                                "--out", str(tmp_path / "run"))
        code, summary, err = run_cli(capsys, "diagnose", "--config", cfg,
                                     "--init", summary["checkpoint"])
        assert code == 0
        assert summary["rule1"] == "PASS" and summary["rule2"] == "PASS"
        assert "ETR-I" in err  # the table goes to stderr

    def test_raw_init_checkpoint_passes(self, tmp_path, capsys):
        cfg_path = tmp_path / "raw.cfg"
        cfg_path.write_text(TINY.format(bits="raw", act_bits="fp")
                            .replace("rescale=constant", "rescale=none"))
        from qsat.deployment import save_checkpoint
        from qsat.training import parse_config_file, build_model_from_config
        cfg = parse_config_file(cfg_path)
        model = build_model_from_config(cfg, (3, 32, 32), 10)
        save_checkpoint(model, tmp_path / "raw.ckpt")
        code, summary, _ = run_cli(capsys, "diagnose", "--config", str(cfg_path),
                                   "--init", str(tmp_path / "raw.ckpt"))
        assert code == 0

    def test_clamped_no_rescale_checkpoint_flagged(self, tmp_path, capsys):
        # spread weights (as training does) push the clamped last layer
        # over the saturation threshold; verdict is non-PASS and exit is 1
        cfg_path = tmp_path / "clamp.cfg"
        cfg_path.write_text(TINY.format(bits="fp", act_bits="fp")
                            .replace("rescale=constant", "rescale=none"))
        from qsat.deployment import save_checkpoint
        from qsat.training import parse_config_file, build_model_from_config
        cfg = parse_config_file(cfg_path)
        model = build_model_from_config(cfg, (3, 32, 32), 10)
        fc = model.layer_table[-1].layer
        fc.w.data = fc.w.data * 3.0
        save_checkpoint(model, tmp_path / "clamp.ckpt")
        code, summary, _ = run_cli(capsys, "diagnose", "--config", str(cfg_path),
                                   "--init", str(tmp_path / "clamp.ckpt"))
        assert code == 1
        assert summary["rule1"] in ("WARN", "FAIL")
        assert summary["kappa0"] > 0.1


class TestStudyCommand:
    def test_clamp_var_monotone_csv(self, tmp_path, capsys):
        code, summary, _ = run_cli(capsys, "study", "clamp-var",
                                   "--out", str(tmp_path / "s"))
        assert code == 0
        lines = (tmp_path / "s" / "clamp_var.csv").read_text().splitlines()
        assert lines[0] == "n,ratio"
        ratios = [float(l.split(",")[1]) for l in lines[1:]]
        assert ratios == sorted(ratios)

    def test_quant_var_csv(self, tmp_path, capsys):
        code, summary, _ = run_cli(capsys, "study", "quant-var",
                                   "--out", str(tmp_path / "s"))
        assert code == 0
        rows = dict(
            tuple(map(float, l.split(",")))
            for l in (tmp_path / "s" / "quant_var.csv").read_text().splitlines()[1:]
        )
        for b in range(4, 9):
            assert abs(rows[b] - 1.0) <= 0.05

    def test_fixed_seed_reproducible(self, tmp_path, capsys):
        run_cli(capsys, "study", "clamp-var", "--out", str(tmp_path / "a"),
                "--seed", "3")
        run_cli(capsys, "study", "clamp-var", "--out", str(tmp_path / "b"),
                "--seed", "3")
        assert (tmp_path / "a/clamp_var.csv").read_bytes() == \
            (tmp_path / "b/clamp_var.csv").read_bytes()

    @pytest.mark.parametrize("name", ["clamp-var", "quant-var"])
    def test_negative_seed_is_exit_two(self, tmp_path, capsys, name):
        code, summary, err = run_cli(capsys, "study", name, "--out", str(tmp_path / "s"),
                                     "--seed", "-1")
        assert code == 2 and summary == {}
        assert "config error" in err and "seed" in err
        assert not (tmp_path / "s").exists()

    def test_unknown_study_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["study", "bogus", "--out", "x"])


class TestFoldCommand:
    def train_q8(self, tmp_path, tiny_config, capsys):
        cfg = tiny_config("fp8.cfg")
        _, summary, _ = run_cli(capsys, "train", "--config", cfg,
                                "--out", str(tmp_path / "fp"))
        q_cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        _, summary, _ = run_cli(capsys, "train", "--config", q_cfg,
                                "--out", str(tmp_path / "q8"),
                                "--init", summary["checkpoint"])
        return q_cfg, summary["checkpoint"]

    def test_fold_and_eval_agree(self, tmp_path, tiny_config, capsys):
        q_cfg, ckpt = self.train_q8(tmp_path, tiny_config, capsys)
        code, summary, _ = run_cli(capsys, "fold", "--config", q_cfg,
                                   "--init", ckpt, "--out", str(tmp_path / "folded"))
        assert code == 0
        folded_path = summary["out"]
        code, float_eval, _ = run_cli(capsys, "eval", "--config", q_cfg,
                                      "--init", ckpt)
        code, folded_eval, _ = run_cli(capsys, "eval", "--config", q_cfg,
                                       "--init", folded_path)
        assert folded_eval["path"] == "folded"
        # differ by at most 0.2 accuracy points
        assert abs(folded_eval["top1"] - float_eval["top1"]) <= 0.002

    def test_folded_eval_counts_forward_int_hits(self, tmp_path, tiny_config, capsys):
        from qsat.data import load_dataset
        from qsat.deployment import load_folded
        from qsat.training import parse_config_file

        q_cfg, ckpt = self.train_q8(tmp_path, tiny_config, capsys)
        _, summary, _ = run_cli(capsys, "fold", "--config", q_cfg,
                                "--init", ckpt, "--out", str(tmp_path / "folded"))
        code, folded_eval, _ = run_cli(capsys, "eval", "--config", q_cfg,
                                       "--init", summary["out"])
        assert code == 0
        cfg = parse_config_file(q_cfg)
        _, val = load_dataset(cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
                              train_size=cfg.train_size, val_size=cfg.val_size)
        folded = load_folded(summary["out"])
        bs = cfg.batch_size
        logits = np.concatenate([folded.forward_int(val.images[s : s + bs])
                                 for s in range(0, len(val), bs)])
        mine = logits[np.arange(len(val)), val.labels]
        rank = np.sum(logits > mine[:, None], axis=1)  # logits above the label's
        assert folded_eval["top1"] == np.mean(logits.argmax(axis=1) == val.labels)
        assert folded_eval["top5"] == np.mean(rank < 5)

    def test_malformed_folded_file_is_exit_two(self, tmp_path, tiny_config, capsys):
        from qsat import deployment as dep
        from qsat.training import build_model_from_config, parse_config_file

        q_cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        model = build_model_from_config(parse_config_file(q_cfg), (3, 32, 32), 10)
        dep.save_checkpoint(model, tmp_path / "q8.ckpt")
        code, summary, _ = run_cli(capsys, "fold", "--config", q_cfg,
                                   "--init", str(tmp_path / "q8.ckpt"),
                                   "--out", str(tmp_path / "folded"))
        assert code == 0
        ckpt = dep.load_checkpoint(summary["out"])
        ckpt.manifest["meta"]["layers"][0]["channel_sign"][0] = 0
        dep._write_container(summary["out"], ckpt.manifest,
                             [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]])
        code, _, err = run_cli(capsys, "eval", "--config", q_cfg, "--init", summary["out"])
        assert code == 2
        assert "channel_sign" in err

    # the first layer reads uint8 images, so any other input grid is refused;
    # 254 and 256 are its neighbours
    @pytest.mark.parametrize("dataset,key,value,message", [
        ("blobs32", "stride", 0, "stride"),
        ("blobs32", "pad", -1, "pad"),
        ("blobs28", "stride", 5, "does not tile a 1x28x28 input"),
        *[("blobs32", "in_levels", v, "'block1' in_levels") for v in (3, 100, 254, 256)],
    ], ids=["stride-0", "pad-minus-1", "stride-5-at-28-pixels",
            "in_levels-3", "in_levels-100", "in_levels-254", "in_levels-256"])
    def test_bad_folded_geometry_is_exit_two(self, tmp_path, capsys, dataset, key, value,
                                             message):
        from qsat import deployment as dep
        from qsat.training import build_model_from_config, parse_config_file

        q_cfg = tmp_path / "q8.cfg"
        q_cfg.write_text(TINY.format(bits="8", act_bits="8").replace("blobs32", dataset))
        shape = (1, 28, 28) if dataset == "blobs28" else (3, 32, 32)
        model = build_model_from_config(parse_config_file(q_cfg), shape, 10)
        dep.save_checkpoint(model, tmp_path / "q8.ckpt")
        code, summary, _ = run_cli(capsys, "fold", "--config", str(q_cfg),
                                   "--init", str(tmp_path / "q8.ckpt"),
                                   "--out", str(tmp_path / "folded"))
        assert code == 0
        ckpt = dep.load_checkpoint(summary["out"])
        ckpt.manifest["meta"]["layers"][0][key] = value
        dep._write_container(summary["out"], ckpt.manifest,
                             [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]])
        code, _, err = run_cli(capsys, "eval", "--config", str(q_cfg), "--init", summary["out"])
        assert code == 2
        assert "checkpoint error" in err and message in err

    def test_fold_preresnet_is_exit_five(self, tmp_path, capsys):
        cfg_path = tmp_path / "pre.cfg"
        cfg_path.write_text(
            TINY.format(bits="8", act_bits="8")
            .replace("preset=convnet-bn", "preset=preresnet-toy")
        )
        from qsat.deployment import save_checkpoint
        from qsat.training import parse_config_file, build_model_from_config
        cfg = parse_config_file(cfg_path)
        model = build_model_from_config(cfg, (3, 32, 32), 10)
        save_checkpoint(model, tmp_path / "pre.ckpt")
        code, _, err = run_cli(capsys, "fold", "--config", str(cfg_path),
                               "--init", str(tmp_path / "pre.ckpt"),
                               "--out", str(tmp_path / "f"))
        assert code == 5
        assert "skip" in err

    def test_fold_past_float32_is_exit_five(self, tmp_path, tiny_config, capsys):
        # block2's clip level is a float32 value, but its clip in units of
        # the integer accumulator is not, so no folded file can hold it
        from qsat import deployment as dep
        from qsat.training import build_model_from_config, parse_config_file

        q_cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        model = build_model_from_config(parse_config_file(q_cfg), (3, 32, 32), 10)
        next(t for n, _, t in model.named_state() if n == "block2.pact.alpha").data[...] = 3e38
        dep.save_checkpoint(model, tmp_path / "huge.ckpt")
        code, _, err = run_cli(capsys, "fold", "--config", q_cfg,
                               "--init", str(tmp_path / "huge.ckpt"),
                               "--out", str(tmp_path / "folded"))
        assert code == 5
        assert "fold error: layer 'block2'" in err and "not finite" in err
        assert not (tmp_path / "folded").exists()

    def test_folded_file_without_layers_is_exit_two(self, tmp_path, tiny_config, capsys):
        # the classifier alone takes the 3x32x32 images' 3072 values
        from qsat import deployment as dep

        path = tmp_path / "empty.ckpt"
        manifest = {"kind": "folded",
                    "tensors": [{"name": "fc.weight", "role": "weight", "shape": [3072, 10]}],
                    "meta": {"layers": [], "fc_in_scale": 1.0, "logit_scale": 1.0}}
        dep._write_container(path, manifest, [np.ones((3072, 10), np.float32)])
        q_cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        code, _, err = run_cli(capsys, "eval", "--config", q_cfg, "--init", str(path))
        assert code == 2
        assert "checkpoint error" in err and "no layers" in err


    # 2^52 input levels pass the meta range check and chain on from block1's
    # 2^50 output levels through its 2x2 pool, but put block2's integer
    # accumulator bound past 2^53
    @pytest.mark.parametrize("edits", [
        {(0, "weight_levels"): 10**400}, {(-1, "out_levels"): 10**400},
        {(0, "in_levels"): 10**400}, {(0, "out_levels"): 2**50, (1, "in_levels"): 2**52},
    ], ids=["0-weight_levels", "-1-out_levels", "0-in_levels", "1-in_levels-2^52"])
    def test_integer_meta_past_float_range_is_exit_two(self, tmp_path, tiny_config, capsys,
                                                       edits):
        from qsat import deployment as dep
        from qsat.training import build_model_from_config, parse_config_file

        q_cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        model = build_model_from_config(parse_config_file(q_cfg), (3, 32, 32), 10)
        dep.save_checkpoint(model, tmp_path / "q8.ckpt")
        _, summary, _ = run_cli(capsys, "fold", "--config", q_cfg,
                                "--init", str(tmp_path / "q8.ckpt"),
                                "--out", str(tmp_path / "folded"))
        ckpt = dep.load_checkpoint(summary["out"])
        for (layer, key), value in edits.items():
            ckpt.manifest["meta"]["layers"][layer][key] = value
        dep._write_container(summary["out"], ckpt.manifest,
                             [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]])
        code, _, err = run_cli(capsys, "eval", "--config", q_cfg, "--init", summary["out"])
        assert code == 2
        assert "checkpoint error" in err and "2^53" in err


class TestCheckpointFit:
    """A model checkpoint that does not fit the config's model is a
    checkpoint error (exit 2) for every command that loads one."""

    @staticmethod
    def command(name, cfg, ckpt, tmp_path):
        out = ["--out", str(tmp_path / name)] if name in ("train", "fold") else []
        return [name, "--config", cfg, "--init", ckpt, *out]

    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_other_preset_is_exit_two(self, tmp_path, tiny_config, capsys, name):
        from qsat.deployment import save_checkpoint
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        save_checkpoint(build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10),
                        tmp_path / "convnet.ckpt")
        pre = tmp_path / "pre.cfg"
        pre.write_text(TINY.format(bits="8", act_bits="8").replace("convnet-bn", "preresnet-toy"))
        code, _, err = run_cli(capsys, *self.command(name, str(pre),
                                                     str(tmp_path / "convnet.ckpt"), tmp_path))
        assert code == 2
        assert "checkpoint error" in err and "missing" in err

    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_other_width_is_exit_two(self, tmp_path, tiny_config, capsys, name):
        from qsat.deployment import save_checkpoint
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        save_checkpoint(build_model_from_config(parse_config_file(cfg), (3, 32, 32), 4),
                        tmp_path / "four.ckpt")
        code, _, err = run_cli(capsys, *self.command(name, cfg, str(tmp_path / "four.ckpt"),
                                                     tmp_path))
        assert code == 2
        assert "checkpoint error" in err and "fc.weight" in err

    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_all_zero_clamped_weight_is_exit_two(self, tmp_path, tiny_config, capsys, name):
        from qsat.deployment import save_checkpoint
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("q4.cfg", bits="4", act_bits="4")
        model = build_model_from_config(parse_config_file(tiny_config()), (3, 32, 32), 10)
        next(i for i in model.linear_infos() if i.name == "block3").layer.w.data[...] = 0.0
        save_checkpoint(model, tmp_path / "zero.ckpt")
        code, _, err = run_cli(capsys, *self.command(name, cfg, str(tmp_path / "zero.ckpt"),
                                                     tmp_path))
        assert code == 2
        assert "checkpoint error" in err and "block3.weight" in err

    @pytest.mark.parametrize("channels", [1, 24])
    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_other_running_var_shape_is_exit_two(self, tmp_path, tiny_config, capsys, name,
                                                 channels):
        from qsat import deployment as dep
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        path = tmp_path / "var.ckpt"
        dep.save_checkpoint(build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10),
                            path)
        ckpt = dep.load_checkpoint(path)
        entry = next(t for t in ckpt.manifest["tensors"] if t["name"] == "block1.bn.running_var")
        entry["shape"] = [channels]
        ckpt.tensors[entry["name"]] = np.ones(channels, np.float32)
        dep._write_container(path, ckpt.manifest,
                             [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]])
        code, _, err = run_cli(capsys, *self.command(name, cfg, str(path), tmp_path))
        assert code == 2
        assert "checkpoint error" in err and "block1.bn.running_var" in err
        assert f"({channels},) vs model shape (16,)" in err

    @pytest.mark.parametrize("tensor", ["fc.weight", "block2.bn.running_var"])
    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_non_finite_tensor_is_exit_two(self, tmp_path, tiny_config, capsys, name, tensor):
        from qsat.deployment import save_checkpoint
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("raw.cfg", bits="raw")
        model = build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10)
        owner = next(t for n, _, t in model.named_state() if n == tensor)
        owner.data.flat[1] = np.nan
        save_checkpoint(model, tmp_path / "nan.ckpt")
        code, _, err = run_cli(capsys, *self.command(name, cfg, str(tmp_path / "nan.ckpt"),
                                                     tmp_path))
        assert code == 2
        assert "checkpoint error" in err and f"tensor '{tensor}' holds a non-finite" in err

    # a clip level must be positive, the domain of the activation quantizer,
    # and a running variance cannot be negative
    @pytest.mark.parametrize("tensor,value", [
        ("block2.pact.alpha", -1.0), ("block2.pact.alpha", 0.0), ("block2.bn.running_var", -5.0),
    ], ids=["alpha-minus-1", "alpha-0", "running_var-minus-5"])
    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_value_outside_its_domain_is_exit_two(self, tmp_path, tiny_config, capsys, name,
                                                  tensor, value):
        from qsat.deployment import save_checkpoint
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("q4.cfg", bits="4", act_bits="4")
        model = build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10)
        next(t for n, _, t in model.named_state() if n == tensor).data.flat[0] = value
        save_checkpoint(model, tmp_path / "bad.ckpt")
        code, _, err = run_cli(capsys, *self.command(name, cfg, str(tmp_path / "bad.ckpt"),
                                                     tmp_path))
        assert code == 2
        assert "checkpoint error" in err and f"tensor '{tensor}'" in err

    @pytest.mark.parametrize("name", ["eval", "diagnose", "fold", "train"])
    def test_all_zero_raw_classifier_is_exit_two(self, tmp_path, tiny_config, capsys, name):
        # kappa0 divides by the classifier's spread, whatever its scheme
        from qsat.deployment import save_checkpoint
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("raw.cfg", bits="raw")
        model = build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10)
        model.layer_table[-1].layer.w.data[...] = 0.0
        save_checkpoint(model, tmp_path / "zero.ckpt")
        code, _, err = run_cli(capsys, *self.command(name, cfg, str(tmp_path / "zero.ckpt"),
                                                     tmp_path))
        assert code == 2
        assert "checkpoint error" in err and "'fc.weight' is all zero" in err

    def test_classes_seen_only_in_validation_fit_every_command(self, tmp_path, capsys):
        # train holds labels 0-2 and test labels 0-3: every command sizes
        # the classifier for four classes
        rng = np.random.default_rng(0)
        data = tmp_path / "cifar"
        data.mkdir()
        for path, count, classes in (("data_batch_1.bin", 32, 3), ("test_batch.bin", 16, 4)):
            rows = rng.integers(0, 256, (count, 1 + 3 * 32 * 32), dtype=np.uint8)
            rows[:, 0] = np.arange(count) % classes
            (data / path).write_bytes(rows.tobytes())
        cfgs = {}
        for bits in ("fp", "8"):
            cfgs[bits] = tmp_path / f"{bits}.cfg"
            cfgs[bits].write_text(TINY.format(bits=bits, act_bits=bits)
                                  .replace("dataset=blobs32", "dataset=cifar10"))
        common = ["--dataset", str(data)]
        code, fp, _ = run_cli(capsys, "train", "--config", str(cfgs["fp"]), *common,
                              "--out", str(tmp_path / "fp"))
        assert code == 0
        code, q8, _ = run_cli(capsys, "train", "--config", str(cfgs["8"]), *common,
                              "--out", str(tmp_path / "q8"), "--init", fp["checkpoint"])
        assert code == 0
        loads = ["--config", str(cfgs["8"]), *common, "--init", q8["checkpoint"]]
        assert run_cli(capsys, "eval", *loads)[0] == 0
        assert run_cli(capsys, "diagnose", *loads)[0] in (0, 1)
        assert run_cli(capsys, "fold", *loads, "--out", str(tmp_path / "folded"))[0] == 0


class TestUnreadableInputs:
    """An input file that cannot be read is a config or checkpoint error
    (exit 2), not a traceback."""

    def test_missing_init_is_exit_two(self, tmp_path, tiny_config, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", tiny_config(),
                               "--init", str(tmp_path / "absent.ckpt"))
        assert code == 2
        assert "checkpoint error" in err and "absent.ckpt" in err

    def test_init_directory_is_exit_two(self, tmp_path, tiny_config, capsys):
        code, _, err = run_cli(capsys, "train", "--config", tiny_config(),
                               "--init", str(tmp_path), "--out", str(tmp_path / "run"))
        assert code == 2
        assert "checkpoint error" in err
        assert not (tmp_path / "run").exists()

    def test_config_directory_is_exit_two(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--config", str(tmp_path),
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "config error" in err

    def test_config_not_utf8_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(TINY.format(bits="fp", act_bits="fp").encode() + b"# caf\xe9\n")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg),
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "config error" in err and "UTF-8" in err

    def test_study_out_on_a_file_is_exit_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code, _, err = run_cli(capsys, "study", "clamp-var", "--out", str(taken))
        assert code == 2
        assert "config error" in err and "not a directory" in err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["train", "study", "fold"])
    def test_out_beneath_a_file_is_exit_two(self, tmp_path, tiny_config, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = ["--out", str(taken / "sub")]
        if command == "study":
            args = ["study", "clamp-var", *out]
        else:
            from qsat import deployment
            from qsat.training import build_model_from_config, parse_config_file

            cfg = tiny_config()
            model = build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10)
            deployment.save_checkpoint(model, tmp_path / "init.ckpt")
            args = [command, "--config", cfg, "--init", str(tmp_path / "init.ckpt"), *out]
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "config error" in err and "not a directory" in err
        assert taken.read_text() == "not a directory\n"


class TestOpenRun:
    """Every command that takes --init reads its config, dataset and
    checkpoint once, and checks a model checkpoint once."""

    @pytest.fixture
    def inputs(self, tmp_path, tiny_config):
        from qsat import deployment
        from qsat.training import build_model_from_config, parse_config_file

        cfg = tiny_config("q8.cfg", bits="8", act_bits="8")
        model = build_model_from_config(parse_config_file(cfg), (3, 32, 32), 10)
        deployment.save_checkpoint(model, tmp_path / "q8.ckpt")
        deployment.save_folded(deployment.fold_bn(model), tmp_path / "folded.ckpt")
        return cfg, str(tmp_path / "q8.ckpt"), str(tmp_path / "folded.ckpt")

    @pytest.mark.parametrize("command, init", [
        ("train", "model"), ("eval", "model"), ("eval", "folded"),
        ("diagnose", "model"), ("fold", "model"),
    ], ids=["train", "eval-model", "eval-folded", "diagnose", "fold"])
    def test_each_input_is_read_once(self, tmp_path, inputs, capsys, monkeypatch,
                                     command, init):
        from qsat import data, deployment, training

        cfg, model_ckpt, folded_ckpt = inputs
        reads = {"dataset": 0, "checkpoint": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                reads[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        # training binds load_dataset at import; patch it where each caller looks
        monkeypatch.setattr(data, "load_dataset", counted("dataset", data.load_dataset))
        monkeypatch.setattr(training, "load_dataset", counted("dataset", training.load_dataset))
        monkeypatch.setattr(deployment, "load_checkpoint",
                            counted("checkpoint", deployment.load_checkpoint))
        ckpt = model_ckpt if init == "model" else folded_ckpt
        out = ["--out", str(tmp_path / "out")] if command in ("train", "fold") else []
        code, _, _ = run_cli(capsys, command, "--config", cfg, "--init", ckpt, *out)
        assert code in (0, 1)  # diagnose exits 1 on WARN/FAIL verdicts
        assert reads == {"dataset": 1, "checkpoint": 1}

    @pytest.mark.parametrize("command", ["train", "diagnose", "fold"])
    def test_folded_file_is_exit_two_outside_eval(self, tmp_path, inputs, capsys, command):
        cfg, _, folded_ckpt = inputs
        code, _, err = run_cli(capsys, command, "--config", cfg, "--init", folded_ckpt,
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert "expected a model checkpoint, got 'folded'" in err

    @pytest.mark.parametrize("command", ["train", "eval", "diagnose", "fold"])
    def test_config_hash_mismatch_warns_once(self, tmp_path, inputs, capsys, caplog,
                                             command):
        from qsat import deployment

        cfg, model_ckpt, _ = inputs
        ckpt = deployment.load_checkpoint(model_ckpt)
        ckpt.manifest["config_hash"] = "0" * 16  # written under some other config
        deployment._write_container(model_ckpt, ckpt.manifest,
                                    [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]])
        out = ["--out", str(tmp_path / "out")] if command in ("train", "fold") else []
        code, _, _ = run_cli(capsys, command, "--config", cfg, "--init", model_ckpt, *out)
        assert code in (0, 1)
        warnings = [r for r in caplog.records if "different config" in r.getMessage()]
        assert len(warnings) == 1

    def test_empty_validation_split_is_exit_three(self, tmp_path, capsys):
        from qsat import deployment
        from qsat.training import build_model_from_config, parse_config_file

        rng = np.random.default_rng(3)
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        for split, count in (("train", 20), ("t10k", 0)):
            write_idx(mnist / f"{split}-images-idx3-ubyte",
                      rng.integers(0, 256, (count, 28, 28)))
            write_idx(mnist / f"{split}-labels-idx1-ubyte", np.arange(count) % 10)
        cfg = tmp_path / "q8.cfg"
        cfg.write_text(TINY.format(bits="8", act_bits="8").replace("blobs32", "mnist"))
        model = build_model_from_config(parse_config_file(cfg), (1, 28, 28), 10)
        deployment.save_checkpoint(model, tmp_path / "q8.ckpt")
        deployment.save_folded(deployment.fold_bn(model), tmp_path / "folded.ckpt")
        for name in ("q8.ckpt", "folded.ckpt"):
            code, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--dataset", str(mnist),
                                   "--init", str(tmp_path / name))
            assert code == 3, name
            assert "dataset error" in err


def gz_edit(edit):
    """An edit of the gzipped MNIST test labels' bytes."""
    def apply(directory):
        path = directory / "t10k-labels-idx1-ubyte.gz"
        path.write_bytes(edit(bytearray(path.read_bytes())))
        return path
    return apply


def flip_crc(blob):
    blob[-8] ^= 0xFF  # the trailer's CRC-32 of the uncompressed bytes
    return bytes(blob)


def into_directory(name):
    def apply(directory):
        (directory / name).unlink()
        (directory / name).mkdir()
        return directory / name
    return apply


def rewrite(name, blob):
    def apply(directory):
        (directory / name).write_bytes(blob)
        return directory / name
    return apply


def rewrite_idx(name, array):
    def apply(directory):
        write_idx(directory / name, array)
        return directory / name
    return apply


# (dataset, edit of a valid directory that returns the file it broke)
MALFORMED_DATASETS = {
    "empty-idx": ("mnist", rewrite("train-images-idx3-ubyte", b"")),
    "idx-header-cut-short": ("mnist", rewrite("train-images-idx3-ubyte",
                                              b"\x00\x00\x08\x03" + (20).to_bytes(4, "big"))),
    "mnist-32x32": ("mnist", rewrite_idx("train-images-idx3-ubyte", np.zeros((20, 32, 32)))),
    "gz-not-gzip": ("mnist", gz_edit(lambda blob: b"\x00\x00\x08\x01" + bytes(14))),
    "gz-bad-crc": ("mnist", gz_edit(flip_crc)),
    "gz-truncated": ("mnist", gz_edit(lambda blob: bytes(blob[:-10]))),
    "gz-bad-deflate": ("mnist", gz_edit(lambda blob: bytes(blob[:10] + b"\xff" * 4 + blob[14:]))),
    "mnist-directory": ("mnist", into_directory("train-labels-idx1-ubyte")),
    "mnist-gz-directory": ("mnist", into_directory("t10k-images-idx3-ubyte.gz")),
    "cifar-directory": ("cifar10", into_directory("data_batch_1.bin")),
    "cifar-test-directory": ("cifar10", into_directory("test_batch.bin")),
    "labels-3d": ("mnist", rewrite_idx("train-labels-idx1-ubyte", np.zeros((20, 1, 1)))),
}


class TestMalformedDatasetFiles:
    """A dataset file that cannot be read or parsed, or that makes no valid
    split, exits 3 naming the file, and leaves no run directory."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", list(MALFORMED_DATASETS))
    def test_exits_three_naming_the_file(self, tmp_path, capsys, command, case):
        from qsat import deployment
        from qsat.training import build_model_from_config, parse_config_file

        dataset, edit = MALFORMED_DATASETS[case]
        directory = (write_mnist if dataset == "mnist" else write_cifar)(tmp_path / "data")
        broken = edit(directory)
        cfg = tmp_path / "fp.cfg"
        cfg.write_text(TINY.format(bits="fp", act_bits="fp").replace("blobs32", dataset))
        args = [command, "--config", str(cfg), "--dataset", str(directory),
                "--out", str(tmp_path / "run")]
        if command == "eval":
            shape = (1, 28, 28) if dataset == "mnist" else (3, 32, 32)
            model = build_model_from_config(parse_config_file(cfg), shape, 10)
            deployment.save_checkpoint(model, tmp_path / "fp.ckpt")
            args += ["--init", str(tmp_path / "fp.ckpt")]
        code, summary, err = run_cli(capsys, *args)
        assert code == 3 and summary == {}
        assert err.startswith("dataset error: ") and str(broken) in err
        assert not (tmp_path / "run").exists()

    def test_valid_mnist_directory_trains(self, tmp_path, capsys):
        # the edits above break this directory, whose test split is gzipped
        directory = write_mnist(tmp_path / "data")
        cfg = tmp_path / "fp.cfg"
        cfg.write_text(TINY.format(bits="fp", act_bits="fp").replace("blobs32", "mnist"))
        code, summary, _ = run_cli(capsys, "train", "--config", str(cfg), "--dataset",
                                   str(directory), "--out", str(tmp_path / "run"))
        assert code == 0 and summary["status"] == "ok"


class TestSampleConfigs:
    @pytest.mark.parametrize(
        "name", ["fp", "clamp", "clamp_sat", "q4_legacy_pact", "q4_cg_pact",
                 "q2_cg_pact"]
    )
    def test_shipped_configs_parse(self, name):
        from pathlib import Path

        from qsat.training import parse_config_file

        cfg = parse_config_file(Path(__file__).parent.parent / "configs" / f"{name}.cfg")
        assert cfg.epochs == 30
