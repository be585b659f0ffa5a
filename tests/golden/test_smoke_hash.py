"""``python -m repro.chaos.runner --smoke | sha256sum``, pinned.

The one line every refactor of the simulated layers has quoted by hand:
all 14 smoke configurations over the default seeds, every planted bug
found, shrunk and replayed, hashed as printed. A first slice of a
behaviour manifest (ROADMAP item 1), not a substitute for it: it says
*that* a simulated byte moved, not which.
"""

import hashlib
from pathlib import Path

from repro.chaos.runner import main

PINNED = Path(__file__).with_name("smoke.sha256")


def test_smoke_stdout_hash_is_pinned(capsys):
    assert main(["--smoke"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED.read_text().strip(), (
        f"--smoke printed different bytes: sha256 is now {digest}. "
        f"Regenerate {PINNED.name} only in a PR that moves simulated "
        "bytes on purpose."
    )
