"""Print the sha256 of every file that ``qsat train`` writes for the three
``perfbench/configs`` runs, so two checkouts can be compared by a diff.

    python3 tools/train_digests.py [CHECKOUT] > digests.txt

CHECKOUT defaults to the checkout holding this script; its ``src`` and
``perfbench/configs`` are used.  The runs go to a temporary directory with
one BLAS thread; nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (run name, config, run whose checkpoint it starts from)
RUNS = (
    ("fp", "fp_convnet.cfg", None),
    ("q4", "q4_convnet.cfg", "fp"),
    ("raw", "raw_preresnet.cfg", None),
)


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSAT_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, init in RUNS:
            cmd = [sys.executable, "-m", "qsat.cli", "train",
                   "--config", str(root / "perfbench" / "configs" / cfg),
                   "--out", os.path.join(tmp, name), "--force"]
            if init:
                cmd += ["--init", os.path.join(tmp, init, "checkpoint.ckpt")]
            subprocess.run(cmd, env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
