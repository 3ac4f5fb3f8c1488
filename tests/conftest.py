"""Let the tests import fap without installing it: this checkout's src goes
at the end of sys.path, so a PYTHONPATH that names another src wins."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.append(SRC)
