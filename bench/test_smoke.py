"""Benchmark self-test: ``python3 -m pytest bench/test_smoke.py``.

Runs every workload shape once at tiny S, untraced and traced, and
requires every metric in BENCHMARK.json with its unit, no failed trial,
and identical traced and untraced CSV digests.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke passed"
