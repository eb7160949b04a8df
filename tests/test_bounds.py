"""Hostile inputs at the sizes that have broken this code before.

Each case runs ``python -m evalkit.cli`` in a child process that caps its
own address space and CPU time with ``resource.setrlimit``, then checks the
exit code the case states, that stderr holds no traceback, and that a JSON
report holds only finite numbers.  Every input is well formed, so running
out of memory is never an expected outcome.  A case joins this file once
the program passes it at the size stated; none is sized down to pass.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evalkit

resource = pytest.importorskip("resource")

SRC = Path(evalkit.__file__).resolve().parents[1]
MEMORY_BYTES = 1 << 30
CPU_SECONDS = 10

CHAIN = "C" * 100_000
# Every branch holds one atom and opens the next: "C(C(C...)))".
DEEP_BRANCHES = "C" + "(C" * 20_000 + ")" * 20_000
# 1,000 three-atom rings in a row, each opened and closed by a %nn label.
PERCENT_LABELS = "".join(f"C%{10 + i % 90}CC%{10 + i % 90}" for i in range(1_000))
REFERENCE = "for treatment of chronic pain"
LONG_HYPOTHESIS = " ".join([REFERENCE] * 2_000)


def _limit_self():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def _evalkit(*argv):
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "evalkit.cli", *map(str, argv)],
                          env=environ, capture_output=True, timeout=120,
                          preexec_fn=_limit_self)


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


# name -> (command, input file body, further arguments, expected exit code)
CASES = {
    "tokenize-chain": ("tokenize", CHAIN, (), 0),
    "validate-chain": ("validate", CHAIN, (), 0),
    "validate-deep-branches": ("validate", DEEP_BRANCHES, (), 0),
    "validate-percent-labels": ("validate", PERCENT_LABELS, (), 0),
    "fingerprint-morgan-chain": ("fingerprint", CHAIN, ("--scheme", "morgan"), 0),
    "eval-d2i-long-hypothesis": (
        "eval-d2i",
        json.dumps({"id": "a", "reference": REFERENCE, "hypothesis": LONG_HYPOTHESIS}),
        ("--format", "json"), 0),
}


@pytest.mark.parametrize("name", CASES)
def test_bounded(tmp_path, name):
    command, body, options, expected = CASES[name]
    path = tmp_path / "input"
    path.write_text(body + "\n")
    done = _evalkit(command, path, *options)
    stderr = done.stderr.decode("utf-8", "replace")
    assert "Traceback" not in stderr, stderr[-2000:]
    assert "out of memory" not in stderr
    assert done.returncode == expected, stderr[-2000:]
    if "json" in options:
        report = json.loads(done.stdout, parse_constant=lambda text: math.nan)
        assert all(math.isfinite(number) for number in _numbers(report))
