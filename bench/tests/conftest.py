"""Puts the repository root and the program's sources on the import path.

Run with ``python -m pytest bench/tests -q``; tier-1 (``testpaths = tests``)
does not collect this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
