"""The oracles stay independent of the package they check."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracles_load_without_the_package():
    # forgebench/checks.py loads tests/oracles.py on its own; with src/ on
    # the path, an import of quandleforge from the oracles would succeed
    # here and show in sys.modules
    script = (
        "import sys\n"
        "sys.path.insert(0, 'forgebench')\n"
        "from checks import load_test_oracles\n"
        "oracles = load_test_oracles('.')\n"
        "assert oracles.mat_mul([[1, 2]], [[3], [4]]) == [[11]]\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'quandleforge'))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
