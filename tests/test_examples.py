"""Every script under ``examples/`` runs to completion.

The examples are the main users of the public ``repro`` and
``repro.traffic`` names; each runs in its own interpreter, as a user
would run it, and writes only to temporary directories.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
