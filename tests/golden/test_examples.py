"""Every ``examples/*.py`` is run, and prints what it printed when its
expected file was captured.

The examples are roots of the import guard (a module only an example
reaches is kept alive by it) and the README's pointers for each paper
section; a root that is never run is not a root. Each is seeded, so its
stdout is a byte-identity witness for the layers it drives —
``shopping_cart.py`` for Dynamo's coordinator and the op-centric cart.
Regenerate one file only in a PR that changes that example's output on
purpose:

    PYTHONPATH=src python examples/NAME.py > tests/golden/examples/NAME.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted(path.stem for path in (REPO / "examples").glob("*.py"))
EXPECTED = Path(__file__).with_name("examples")


def test_every_example_has_an_expected_file_and_nothing_else_does():
    assert len(EXAMPLES) >= 9
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_prints_its_expected_output(name):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    ran = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=60,
    )
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == (EXPECTED / f"{name}.txt").read_text()
