"""Every example runs to completion.

The scripts under ``examples/`` are the service author's view of the
API (``handle(frontend, request)``, ``dispatch(request, work, type)``,
the fault table): each runs here in a fresh interpreter, exactly as
its docstring says to run it, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run([sys.executable, str(script)], env=env,
                               cwd=REPO_ROOT, capture_output=True,
                               text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
