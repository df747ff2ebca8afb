"""Print the sha256 of every file that ``qsat train`` writes for the three
``perfbench/configs`` runs, of the file ``qsat fold`` writes for the 4-bit
run, and of what ``qsat diagnose`` prints for each run, so two checkouts can
be compared by a diff.

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
FOLDED_RUN = "q4"


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSAT_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        def qsat(command, cfg, *extra, check=True):
            cmd = [sys.executable, "-m", "qsat.cli", command,
                   "--config", str(root / "perfbench" / "configs" / cfg), *extra]
            return subprocess.run(cmd, env=env, cwd=tmp, check=check, stdout=subprocess.PIPE)

        def checkpoint(name):
            return os.path.join(tmp, name, "checkpoint.ckpt")

        for name, cfg, init in RUNS:
            init_args = ["--init", checkpoint(init)] if init else []
            qsat("train", cfg, "--out", os.path.join(tmp, name), "--force", *init_args)
        diagnose_dir = Path(tmp, "diagnose")
        diagnose_dir.mkdir()
        for name, cfg, _ in RUNS:
            if name == FOLDED_RUN:
                qsat("fold", cfg, "--init", checkpoint(name),
                     "--out", os.path.join(tmp, "fold"), "--force")
            # exit 1 only reports WARN/FAIL verdicts; anything else is an error
            done = qsat("diagnose", cfg, "--init", checkpoint(name), check=False)
            if done.returncode not in (0, 1):
                raise SystemExit(f"qsat diagnose on the {name} run exited {done.returncode}")
            (diagnose_dir / f"{name}.stdout").write_bytes(done.stdout)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
