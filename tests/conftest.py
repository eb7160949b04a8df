"""Shared fixtures and the acceptance-suite result printer."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# Make sibling test helpers (genmol, oracles) importable regardless of how
# pytest sets up sys.path.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def valid_smiles_corpus() -> list[str]:
    lines = (FIXTURES / "valid_smiles.txt").read_text().splitlines()
    return [line.strip() for line in lines if line.strip()]


@pytest.fixture
def no_garbage_after():
    """Whether ``call()``, run a second time, leaves nothing for the cyclic
    collector: with the collector off, one collection afterwards finds no
    unreachable object.  The first run loads modules and caches."""
    def check(call) -> bool:
        call()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            call()
            return gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
    return check


ACCEPTANCE_FILE = "tests/test_acceptance.py"


def pytest_runtest_logreport(report):
    """Print one PASS/FAIL line per acceptance criterion as it finishes."""
    if report.when != "call" or report.nodeid.split("::")[0] != ACCEPTANCE_FILE:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    # Write to the real stdout so the line survives pytest capture; the
    # leading newline keeps it off pytest's own progress line under -v.
    sys.stdout.write(f"\nACCEPTANCE {name}: {status}\n")
    sys.stdout.flush()
