"""Every demo script runs to completion and prints the bytes it always has."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; regenerate one only when its output is
# meant to change
GOLDEN = {
    "01_litmus_and_unrolling": "d5829be8fdf05e32dc01accc76b5329211bed47347ff4379d3c401fc1800d709",
    "02_candidate_executions": "efaad041afe665d8e47b720e437ca3ec0eaf8b2843527a18bed8939f49ac82b8",
    "03_spectre_pht": "1c67d3138723e82ad48348542091dff4a698abe1b21f359682334f495bede53f",
    "04_store_forwarding": "81928f91a8447d79abab25a7d4bf62bfcd205c1dbeccebd5d97b76aeb030a568",
    "05_machine_clear": "acff1b36282c8bc72015e8c96c4ff365c3e97543435f1e7ac13c8496aa6c8b73",
    "06_custom_model": "cea38aea1ec97ad351c5247c89945c5983909256f8165d0947a72b25c5a0d675",
}


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem
)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[demo.stem], (
        done.stdout.decode()
    )
