"""Every demo script runs to completion without a warning or an error."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_runs_cleanly(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1"}

    def run(demo):
        return subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)

    assert DEMOS
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(run, DEMOS))
    for demo, proc in zip(DEMOS, done):
        assert (demo.name, proc.returncode, proc.stderr) == (demo.name, 0, "")
