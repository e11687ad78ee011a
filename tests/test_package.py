"""Properties of the package as a whole: what importing it loads, and that
its declared public names exist."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath serves quotient_ratio alone; a command that does not call it
    # should not pay for importing it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, owflab.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("module", ["bitsampler", "owf", "threshold"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"owflab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
