"""The CLI's contracts, run as a user runs them.

Each row runs ``python -m flowcont.cli`` in a child process and checks its
exit code, its stdout where the answer is one number, and, where the
contract is a memory bound, that it holds under an address-space cap set
in the child alone.  Every demo runs the same way and must exit 0.  Some
rows take seconds (huge sources, the deep selftest, a frontier run to its
refusal); run one with ``pytest tests/test_cli_contracts.py -k Z2xZ2``.
"""

import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


class Contract(NamedTuple):
    argv: str  # after "python -m flowcont.cli"; {out} is a fresh directory
    exit_code: int = 0
    stdout: str | None = None
    cap_kib: int | None = None


CONTRACTS = [
    # the search keeps no recursion, so a 5,000-edge cycle is fine
    Contract("search --g dicycle:5000 --h k4 --n 2"),
    # digon unions go by cone arithmetic, at any size and under any budget
    Contract("search --g digon:100000 --h digon:7 --n 3"),
    Contract("ffset --g digon:100000 --h digon:7 --budget 10"),
    Contract("construct --t 5000 --out {out}"),
    Contract("ffset --g petersen --h k4"),
    # the frontier refuses within 600 MB of address space, never crashing
    Contract("ffset --g petersen --h petersen", exit_code=2, cap_kib=600_000),
    Contract("ffset --g k4 --h k4 --budget 0", exit_code=3),
    # an exponent past int64 still gets a certificate
    Contract("check --g k4 --h digon:3 --map 0,1,2,2,1,0 --group Z99999999999999999999", exit_code=1),
    Contract("count --g petersen --h k4 --group Z2xZ2", stdout="0"),
    # frontier states past int16: a 33,000-edge digon hub
    Contract("count --g digon:33000,dicycle:2 --h loop --group Z33000", stdout="1"),
    Contract("count --g digon:33000,dicycle:2 --h loop --group Z7", stdout="0"),
    Contract("selftest --deep"),
]


def run_child(argv, cap_kib=None):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_kib * 1024, cap_kib * 1024))

    # the child inherits this process's environment, so it imports the
    # same flowcont that the in-process tests do
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, preexec_fn=cap if cap_kib else None
    )


@pytest.mark.parametrize("contract", CONTRACTS, ids=[c.argv for c in CONTRACTS])
def test_cli_contract(contract, tmp_path):
    argv = contract.argv.format(out=tmp_path).split()
    proc = run_child(["-m", "flowcont.cli", *argv], contract.cap_kib)
    assert proc.returncode == contract.exit_code, proc.stderr
    assert "Traceback" not in proc.stderr
    if contract.stdout is not None:
        assert proc.stdout.strip() == contract.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_child([str(demo)])
    assert proc.returncode == 0, proc.stderr
