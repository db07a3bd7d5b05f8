"""End-to-end acceptance gate.

Criteria 1-7 are the seven built-in ``check`` suites, each an exhaustive or
seeded zero-failure sweep, so ``flagcalc -c "check all"`` runs the same gate.
Criterion 8 is CLI transcript determinism against the golden file.  All
geometry and lattice checks are exact with no tolerance parameters anywhere.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flagcalc
from flagcalc import suites

DATA = Path(__file__).parent / "data"

# Exact check counts of criteria 1-7, in order.  A count may rise when a
# sweep grows, but it must never fall: a lower count means a sweep checks less.
CRITERIA = {
    "involution": 10_575,
    "laws": 64,
    "trees": 121_920,
    "assoc": 27,
    "monoid": 516,
    "homology": 24_116,
    "oracle": 900,
}


@pytest.mark.parametrize(
    "name, checks",
    CRITERIA.items(),
    ids=[f"criterion-{n}-{name}" for n, name in enumerate(CRITERIA, start=1)],
)
def test_criterion(name, checks):
    result = suites.SUITES[name]()
    assert result.passed, result.failures[:3]
    assert result.checks == checks


def run_golden_session(tmp_path: Path, **env_vars: str) -> bytes:
    """The golden session script's stdout from ``python -m flagcalc``."""
    for name in ("session_script.txt", "fixtures.lat", "loops.plane"):
        shutil.copy(DATA / name, tmp_path / name)
    # Run the CLI from the same source tree the tests import.  A relative
    # PYTHONPATH entry (such as ``src``) would be resolved against tmp_path.
    package_root = str(Path(flagcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "flagcalc", "session_script.txt"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    return proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    runs = [run_golden_session(tmp_path) for _ in range(2)]
    assert runs[0] == runs[1]
    golden = (DATA / "session_golden.txt").read_bytes()
    assert runs[0] == golden
    commands = [
        line
        for line in (DATA / "session_script.txt").read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert len(commands) >= 20
    print("CRITERION 8: PASS (byte-identical transcript over two runs vs golden)")


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_golden_session_does_not_depend_on_the_hash_seed(tmp_path, seed):
    # str hashes, and so set and dict orders of names, change with the seed.
    golden = (DATA / "session_golden.txt").read_bytes()
    assert run_golden_session(tmp_path, PYTHONHASHSEED=seed) == golden
