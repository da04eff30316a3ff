"""Every example runs to completion and prints what it printed before.

The scripts under ``examples/`` are the service author's view of the
API (``handle(frontend, request)``, ``dispatch(request, work, type)``,
the fault table): each runs here in a fresh interpreter, exactly as
its docstring says to run it, must exit 0, and must print the very
bytes whose sha256 is recorded below.  The examples are seeded, so a
refactor that moves no behaviour leaves every digest alone; a change
meant to alter what a script prints records the new digest beside it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: sha256 of each script's stdout
STDOUT_SHA256 = {
    "custom_service.py":
        "44479b26fed28c7494ef61111c30b0ecf9b5dca10d4ad77f9b2a9ac5669c7f57",
    "extension_services.py":
        "37563f22ba58b5714bbf29b37572c35fbcea0c92ee19e02c3770e22ca214887a",
    "fault_drill.py":
        "a80f5e29b49d1eb70a47bae1522310ed20853c2f50fa04e5ed2597d56eb20a80",
    "hot_upgrade.py":
        "b66260c45dba97c65207ef03d5392ea785a6da4fe1c5f74170e45a52106231f6",
    "hotbot_search.py":
        "5cc3b1ffffd990b750906e844cd91d447aeb486813ae932908332c05125c0282",
    "quickstart.py":
        "ec051473a260f9a72006e8b8e17630b3eecdad094e1c1d4543e66f11bfa4cbfd",
    "transend_proxy.py":
        "e67063ace312e6b0af91d0d072749986fee9dfdef4155642fb75e2f9bf48811c",
}


def test_there_are_examples():
    assert len(EXAMPLES) >= 7


def test_every_example_has_a_recorded_output():
    assert sorted(path.name for path in EXAMPLES) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run([sys.executable, str(script)], env=env,
                               cwd=REPO_ROOT, capture_output=True,
                               timeout=120)
    assert completed.returncode == 0, \
        completed.stderr.decode(errors="replace")[-2000:]
    digest = hashlib.sha256(completed.stdout).hexdigest()
    assert digest == STDOUT_SHA256.get(script.name), (
        f"{script.name} printed other output than recorded (sha256 "
        f"{digest}); run `PYTHONPATH=src python examples/{script.name}` "
        f"to see it")
