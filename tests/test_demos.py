"""Every demo prints exactly its recorded output in demos/expected.

Each demo runs under ``-S``, which skips site-packages, so a third-party
import in src/ fails, and ``-W error``, which turns any warning the package
triggers into a failure, since the demos import no third-party code that
could warn.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-S", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
        timeout=60,
    ).stdout
    assert out == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
