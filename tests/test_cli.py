import json

import numpy as np
import pytest

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
        model.fc.w.data = model.fc.w.data * 3.0
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
