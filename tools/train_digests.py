"""Print the sha256 of every file that ``qsat train`` writes for the three
``perfbench/configs`` runs and eight short runs derived from them, of the
file ``qsat fold`` writes for each folded run, of what ``qsat eval`` prints
for a folded run's checkpoint and for its folded file, of what ``qsat
diagnose`` prints for each run, of each folded run's ``forward_int``
logits and ``forward_float`` logits and margins, and of the CSV files of
the two ``qsat study`` commands, so two checkouts can be compared by a diff.
A ``metrics.csv`` is hashed as two lines, its header with its train rows
and its header with its val rows: a change that keeps every trained byte
but moves an evaluation near-tie changes only the second.

The derived runs cover paths the three runs miss: a ReLU with no BN in
front of it (one epoch of ``convnet-nobn-tail`` at full precision), the
same with the STDDEV rescale, PACT inside residual blocks (one epoch of a
4-bit ``preresnet-toy`` fine-tune from the raw run), and the LEGACY clip
gradient with a folded conv that has no BN (one epoch of a 4-bit
``convnet-nobn-tail`` fine-tune with ``pact_mode=legacy`` from the
full-precision ``convnet-nobn-tail`` run), and the scheme paths of uniform
edge bit-widths and per-layer overrides (one epoch of a 4-bit
``convnet-bn`` fine-tune from the full-precision run with
``first_last_bits=uniform``, ``layer2.bits=3`` and
``layer3.rescale=stddev``), a 6-bit fold (one epoch of a 6-bit
``convnet-bn`` fine-tune from the full-precision run, whose first folded
layer rescales in float64 and the others in float32, so one folded model
covers both integer epilogues and the handoff between them), and the two
dataset file readers (one full-precision epoch of ``convnet-bn`` on an
MNIST-format directory whose test split is gzipped, and one on a
CIFAR-10 directory, each given by ``--dataset``).  Their configs are the
base configs with some keys replaced, written to the temporary directory.
The dataset files are pseudo-random bytes that depend only on this
script, written to the temporary directory and hashed with it;
``--dataset`` names them by a path relative to it, so the config hash a
checkpoint holds does not depend on where the temporary directory is.

The folded runs are the 4-bit run, the LEGACY ``convnet-nobn-tail`` run
and the 6-bit run.  The folded outputs cover the 640-image validation pool of each folded run's
dataset (its seed, 10 training images), in batches of its batch size, which
for the 4-bit run are the pool and batches ``perfbench`` runs
``infer-fold-q4`` on, and separately the pool's first 7 images as one
batch, so that a layer's last range of images is shorter than the others.

    python3 tools/train_digests.py [CHECKOUT] > digests.txt

CHECKOUT defaults to the checkout holding this script; its ``src`` and
``perfbench/configs`` are used.  The runs go to a temporary directory with
one BLAS thread; nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# (run name, base config, keys it replaces, run whose checkpoint it starts from)
RUNS = (
    ("fp", "fp_convnet.cfg", {}, None),
    ("q4", "q4_convnet.cfg", {}, "fp"),
    ("raw", "raw_preresnet.cfg", {}, None),
    ("nobn-fp", "fp_convnet.cfg",
     {"preset": "convnet-nobn-tail", "epochs": 1, "warmup_epochs": 0}, None),
    ("nobn-stddev", "fp_convnet.cfg",
     {"preset": "convnet-nobn-tail", "epochs": 1, "warmup_epochs": 0, "rescale": "stddev"},
     None),
    ("preresnet-q4", "q4_convnet.cfg",
     {"preset": "preresnet-toy", "epochs": 1, "warmup_epochs": 0}, "raw"),
    ("nobn-legacy-q4", "q4_convnet.cfg",
     {"preset": "convnet-nobn-tail", "epochs": 1, "warmup_epochs": 0, "pact_mode": "legacy"},
     "nobn-fp"),
    ("q4-overrides", "q4_convnet.cfg",
     {"epochs": 1, "warmup_epochs": 0, "first_last_bits": "uniform", "layer2.bits": 3,
      "layer3.rescale": "stddev"}, "fp"),
    ("q6", "q4_convnet.cfg", {"bits": 6, "act_bits": 6, "epochs": 1, "warmup_epochs": 0}, "fp"),
    ("mnist-fp", "fp_convnet.cfg", {"dataset": "mnist", "epochs": 1, "warmup_epochs": 0}, None),
    ("cifar10-fp", "fp_convnet.cfg", {"dataset": "cifar10", "epochs": 1, "warmup_epochs": 0},
     None),
)
# run: the --dataset directory it reads, relative to the temporary directory
DATASET_DIRS = {"mnist-fp": "datasets/mnist", "cifar10-fp": "datasets/cifar10"}
# training and test images of each file-format dataset
FILE_SPLITS = (64, 32)
# folded run: directory of its folded outputs; the 4-bit run's keep the
# directory they had when only that run's were hashed, so its lines stay
# comparable with older checkouts' digests
FOLDED_RUNS = {"q4": "folded_outputs", "nobn-legacy-q4": "folded_outputs/nobn-legacy-q4",
               "q6": "folded_outputs/q6"}
POOL_IMAGES = 640
SHORT_BATCH = 7
STUDIES = ("clamp-var", "quant-var")

# run with the checkout's src on the path; argv: config, folded file, output
# directory, pool size, short batch size
FOLDED_OUTPUTS = """
import sys
from pathlib import Path
import numpy as np
from qsat import data, deployment, training
cfg = training.parse_config_file(sys.argv[1])
_, pool = data.load_dataset(cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
                            train_size=10, val_size=int(sys.argv[4]))
folded = deployment.load_folded(sys.argv[2])
for suffix, starts, size in (("", range(0, len(pool), cfg.batch_size), cfg.batch_size),
                             (".batch" + sys.argv[5], [0], int(sys.argv[5]))):
    outputs = {"forward_int_logits": [], "forward_float_logits": [], "forward_float_margins": []}
    for start in starts:
        images = pool.images[start : start + size]
        outputs["forward_int_logits"].append(folded.forward_int(images))
        logits, margins = folded.forward_float(images, return_margin=True)
        outputs["forward_float_logits"].append(logits)
        outputs["forward_float_margins"].append(margins)
    for name, parts in outputs.items():
        Path(sys.argv[3], name + suffix + ".f8").write_bytes(
            np.concatenate(parts).astype("<f8").tobytes())
"""


def write_datasets(root: Path) -> None:
    """The MNIST-format directory, its test split gzipped with a fixed
    header time, and the CIFAR-10 directory that ``DATASET_DIRS`` name.
    Pixels are SHAKE-256 output and labels cycle through the ten classes."""
    def pixels(name: str, size: int) -> bytes:
        return hashlib.shake_256(name.encode()).digest(size)

    mnist, cifar = root / DATASET_DIRS["mnist-fp"], root / DATASET_DIRS["cifar10-fp"]
    mnist.mkdir(parents=True)
    cifar.mkdir(parents=True)
    for split, count in zip(("train", "t10k"), FILE_SPLITS):
        files = {f"{split}-images-idx3-ubyte": struct.pack(">4I", 0x803, count, 28, 28)
                 + pixels(split, count * 28 * 28),
                 f"{split}-labels-idx1-ubyte": struct.pack(">2I", 0x801, count)
                 + bytes(i % 10 for i in range(count))}
        for name, blob in files.items():
            if split == "t10k":
                name, blob = name + ".gz", gzip.compress(blob, mtime=0)
            (mnist / name).write_bytes(blob)
    for name, count in zip(("data_batch_1.bin", "test_batch.bin"), FILE_SPLITS):
        image = 3 * 32 * 32
        data = pixels(name, count * image)
        (cifar / name).write_bytes(b"".join(bytes([i % 10]) + data[i * image:(i + 1) * image]
                                            for i in range(count)))


def _digests(data: bytes, name: str):
    """(sha256, name) of a file's bytes, or of a ``metrics.csv``'s header
    with its train rows and with its val rows."""
    if Path(name).name != "metrics.csv":
        return [(hashlib.sha256(data).hexdigest(), name)]
    header, *rows = data.decode().splitlines(keepends=True)
    return [(hashlib.sha256((header + "".join(r for r in rows if r.split(",")[1] == split))
                            .encode()).hexdigest(), f"{name} ({split} rows)")
            for split in ("train", "val")]


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSAT_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        config_dir = Path(tmp, "configs")
        config_dir.mkdir()
        configs = {}
        for name, base, replaced, _ in RUNS:
            lines = [line for line in (root / "perfbench" / "configs" / base).read_text().splitlines()
                     if line.split("=")[0].strip() not in replaced]
            configs[name] = config_dir / f"{name}.cfg"
            configs[name].write_text("\n".join(lines + [f"{k}={v}" for k, v in replaced.items()]) + "\n")

        write_datasets(Path(tmp))

        def qsat(command, name, *extra, check=True):
            cmd = [sys.executable, "-m", "qsat.cli", command, "--config", str(configs[name]), *extra]
            if name in DATASET_DIRS:
                cmd += ["--dataset", DATASET_DIRS[name]]
            return subprocess.run(cmd, env=env, cwd=tmp, check=check, stdout=subprocess.PIPE)

        def checkpoint(name):
            return os.path.join(tmp, name, "checkpoint.ckpt")

        for name, _, _, init in RUNS:
            init_args = ["--init", checkpoint(init)] if init else []
            qsat("train", name, "--out", os.path.join(tmp, name), "--force", *init_args)
        diagnose_dir, eval_dir = Path(tmp, "diagnose"), Path(tmp, "eval")
        diagnose_dir.mkdir()
        eval_dir.mkdir()
        for name, *_ in RUNS:
            if name in FOLDED_RUNS:
                folded = os.path.join(tmp, "fold", name, "folded.ckpt")
                qsat("fold", name, "--init", checkpoint(name),
                     "--out", os.path.dirname(folded), "--force")
                for kind, path in (("model", checkpoint(name)), ("folded", folded)):
                    done = qsat("eval", name, "--init", path)
                    (eval_dir / f"{name}.{kind}.stdout").write_bytes(done.stdout)
                outputs = Path(tmp, FOLDED_RUNS[name])
                outputs.mkdir(parents=True, exist_ok=True)
                subprocess.run([sys.executable, "-c", FOLDED_OUTPUTS, str(configs[name]), folded,
                                str(outputs), str(POOL_IMAGES), str(SHORT_BATCH)],
                               env=env, cwd=tmp, check=True)
            # exit 1 only reports WARN/FAIL verdicts; anything else is an error
            done = qsat("diagnose", name, "--init", checkpoint(name), check=False)
            if done.returncode not in (0, 1):
                raise SystemExit(f"qsat diagnose on the {name} run exited {done.returncode}")
            (diagnose_dir / f"{name}.stdout").write_bytes(done.stdout)
        for study in STUDIES:
            subprocess.run([sys.executable, "-m", "qsat.cli", "study", study,
                            "--out", os.path.join(tmp, "study", study)],
                           env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                for digest, name in _digests(path.read_bytes(), path.relative_to(tmp).as_posix()):
                    print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
