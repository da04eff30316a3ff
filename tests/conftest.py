"""``examples/`` on the import path, so tests reach the user code the
example scripts share (``tacc_services``) exactly as the scripts do:
``python examples/quickstart.py`` puts its own directory first."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "examples"))
