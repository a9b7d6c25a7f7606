"""Every narrative script under ``demos/`` runs to completion and prints
exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic.
_STDOUT_DIGESTS = {
    "convergence_demo.py": "9ac4407400cf304c9de1fc0245fd7cb7c21f0f19f686c2acdf34bde4f7949370",
    "exact_identities_tour.py": "e8abf86c1e42ecd743097bf5823d7438fbf79c7d419b95831051d7d525c1ced8",
    "monte_carlo_demo.py": "a762e661de3278758126004076715d3128a118b1cc0f5c5897555fe635d58488",
    "recursion_polynomials_tour.py": "7c992c094ce4747a8d795d47285a69025f69293ed0ae841e60b4cda0eb4bd6c3",
    "scaled_limits_demo.py": "0960c1f1ed08a7d7dd4e7c89502d2cf122feb383b469ac9dd6ac45a508d50808",
}


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == _STDOUT_DIGESTS[demo.name]
