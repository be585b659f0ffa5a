"""Host-cost benchmark for the quicksand simulator, measured from outside.

Nothing under ``src/`` knows this package exists: every number here comes
from timing calls into ``repro``'s public functions. See ``README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# ``python3 -m bench`` must work from a bare checkout (no PYTHONPATH, no
# install): the program under test lives in ``src/`` next to this package.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
