"""Run each narrative demo end to end; a demo that raises, or whose stdout
changes by a byte, fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  Every demo is seeded or exact, so a change
# here is a change of output, to be stated with the new digest.
STDOUT_DIGESTS = {
    "goedel_and_density": "f5eec9b2fdb7989b49f1d80860dd81dd5d8b031f47f4f157ece294b94074b79d",
    "machine_census": "015de2d46eb190345674098d87ad2e7ee41dfcc5f89ff4b41c0c793e85102beb",
    "owf_walkthrough": "5c82361d29e38935a9bbc3a92cada698993e681b5f760c755576ba53427f1acc",
    "tape_sampling": "e77ace59d36d3a84ab7a4a4947e28d62219c0c86c6fa06421f14d61c4668ed59",
    "threshold_bounds": "cabc3abf40eada99cb2b8b1ae4035ad9d45b6ddc70477bb3049648db0a12d4f5",
}


def test_all_demos_found():
    assert len(DEMOS) == 5
    assert [demo.stem for demo in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == STDOUT_DIGESTS[demo.stem], proc.stdout.decode()
