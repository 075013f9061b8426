"""``scripts/reach.py`` in the suite: a line of ``src/dppmap`` that no command reaches fails it,
unless it is an error branch or its ``ALLOWED`` table names it with a reason."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_every_unreached_line_is_an_error_branch_or_allowed():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
