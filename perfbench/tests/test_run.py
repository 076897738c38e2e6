"""run.py refuses to report when the package source is absent."""

import os
import shutil
import subprocess
import sys

from conftest import BENCH


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    root = os.path.dirname(BENCH)
    if os.path.exists(os.path.join(root, "BENCHMARK.json")):
        shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thin-chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "thickknots" in proc.stderr
