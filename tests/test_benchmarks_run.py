"""The kernel micro-benchmarks (benchmarks/test_kernels.py) lie outside
`testpaths`, so an API change could leave them broken with every test here
passing.  This runs each of them once, untimed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_benchmarks_run_untimed():
    pytest.importorskip("pytest_benchmark")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         str(ROOT / "benchmarks" / "test_kernels.py")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
