"""The demo scripts run to completion against the current library.

Each demo is a separate process, so a field or function a demo still uses
but the library dropped fails here instead of only when someone runs it.
demos/anarchy_hunt.py is not run whole, since its sieve to 2*10^8 takes
~4 s on two cores; its printing runs in-process on the pair that sieve
finds.
"""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from harmonia.classify import classify

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("bound_checks", "induction_walkthrough", "lemma_grids", "table_reproduction")


def _run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env,
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name: str) -> None:
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr[-2000:].decode()


def test_bound_checks_bytes_are_frozen() -> None:
    # F_0(2)..F_6(2), then each tuple's K, product and to_json_dict()
    proc = _run_demo("bound_checks")
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    digest = "d1f51f64fa98bf378fa3faf57bc97d7991843d25f48272c16d45b67343d5b503"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_induction_walkthrough_bytes_are_frozen() -> None:
    # each certificate's v, w and bound bits, the trace's sums and final
    # inequality, then the radical, branch and product of the case split
    proc = _run_demo("induction_walkthrough")
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    digest = "347189d6b40710b27df58ae2087175a48c5b2ad5ae7961bf57c54f674c94580e"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_anarchy_hunt_shows_the_pair(capsys) -> None:
    show = runpy.run_path(str(ROOT / "demos" / "anarchy_hunt.py"))["show"]
    show([classify((64, 173369889))])
    assert capsys.readouterr().out.split("\n") == [
        "found (64, 173369889)",
        "  64 = 2^6,  sigma = 127",
        "  173369889 = 3^4*7^2*11^2*19^2,  sigma = 349491681",
        "  64*349491681 + 173369889*127 == 127*349491681",
        "  anarchy: True",
        "",
    ]
