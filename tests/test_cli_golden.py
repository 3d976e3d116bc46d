"""Golden-output tests: each CLI case must reproduce its recorded stdout byte for byte.

The cases live in tests/golden/cases.json and each one's expected standard
output in tests/golden/<name>.out.  Every case runs in a fresh interpreter so
no memo carries over between cases, with tests/golden as its working
directory so that a case can name an input file checked in beside it.  To
record the outputs of the current code after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case: dict) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "LIMITLAB_BUDGET_BASE"}
    env["PYTHONPATH"] = str(SRC)
    env.update(case.get("env", {}))
    return subprocess.run(
        [sys.executable, "-m", "limitlab.cli", *case["argv"]],
        env=env,
        cwd=GOLDEN,
        capture_output=True,
        check=False,
    )


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_is_golden(case):
    done = run_case(case)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{case['name']}.out").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        done = run_case(case)
        if done.returncode != 0:
            sys.exit(f"{case['name']}: exit {done.returncode}\n{done.stderr.decode()}")
        (GOLDEN / f"{case['name']}.out").write_bytes(done.stdout)
