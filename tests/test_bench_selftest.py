"""The benchmark tracer's self-test (``bench/selftest.py``) as part of the
suite: its work-count pins follow the ``sign_matrix`` calls of the package,
so a change to how the hypercube is enumerated can break them."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_tracer_selftest_passes():
    result = subprocess.run([sys.executable, str(SELFTEST)], cwd=SELFTEST.parent,
                            capture_output=True, text=True, timeout=300)
    fails = [line for line in result.stdout.splitlines() if line.startswith("FAIL")]
    assert result.returncode == 0, "\n".join(fails) or result.stderr[-2000:]
