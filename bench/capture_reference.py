"""Regenerate the reference outputs under bench/reference/.

    python3 bench/capture_reference.py

figures/ receives the CSVs of ``tridephase reproduce`` for all seven figure
ids; kernels/ the CSVs of ``tridephase run`` on the kernels workload at the
default seed.  Regenerate only from a program whose outputs are known good.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from run import BENCH, DEFAULT_SEED, ROOT, _env, write_config

FIGURE_IDS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "fig5")


def cli(*args: str) -> None:
    subprocess.run([sys.executable, "-m", "tridephase.cli", *args], cwd=ROOT, check=True,
                   env={**_env(), "PYTHONPATH": str(ROOT / "src")}, stdout=subprocess.DEVNULL)


def main() -> int:
    figures, kernels = BENCH / "reference" / "figures", BENCH / "reference" / "kernels"
    for directory in (figures, kernels):
        shutil.rmtree(directory, ignore_errors=True)
    for figure_id in FIGURE_IDS:
        cli("reproduce", figure_id, "--out-dir", str(figures))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = write_config(Path(tmp) / "kernels.yaml", workloads.generate("kernels", DEFAULT_SEED))
        cli("run", str(config), "--out-dir", str(kernels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
