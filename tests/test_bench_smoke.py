"""The benchmark harness still runs against the current sources.

perfbench/spans.py wraps the public functions of every layer by name, so
a change to which functions exist or call each other can break the
benchmark without breaking any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_test_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke_test.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
