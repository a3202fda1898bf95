"""The demo scripts run to completion against the current library.

Each demo is a separate process, so a field or function a demo still uses
but the library dropped fails here instead of only when someone runs it.
demos/anarchy_hunt.py is left out: its sieve to 2*10^8 takes ~14 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("bound_checks", "induction_walkthrough", "lemma_grids", "table_reproduction")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
