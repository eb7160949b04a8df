"""Golden outputs: the CLI's output bytes must not drift across refactors.

Each file under ``tests/fixtures/golden/`` is the stdout of one CLI call
on a committed fixture, except for ``tokenize``, which stops at the first
line it cannot split: its golden file holds one call per fixture line,
with that call's exit code and stdout or stderr.  The ``validate`` and
``tokenize`` files pin every parse failure message and offset; the
``fingerprint`` files pin the path-fingerprint bits of drug-sized
molecules with fused and bridged rings.  The test renders every call
again and compares byte for byte.  After a change that is meant to alter
these bytes, rewrite the files with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from evalkit import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_DIR = FIXTURES / "golden"

# report name -> (subcommand, fixture file, extra flags...)
REPORTS = {
    "i2d_small": ("eval-i2d", "predictions_i2d_small.jsonl"),
    "i2d_small_strict": ("eval-i2d", "predictions_i2d_small.jsonl",
                         "--strict-validity"),
    "i2d_repeated": ("eval-i2d", "predictions_i2d_repeated.jsonl"),
    "i2d_repeated_strict": ("eval-i2d", "predictions_i2d_repeated.jsonl",
                            "--strict-validity"),
    "d2i_small": ("eval-d2i", "predictions_d2i_small.jsonl"),
    "d2i_long": ("eval-d2i", "predictions_d2i_long.jsonl"),
    "d2i_small_t2m": ("eval-d2i", "predictions_d2i_small.jsonl",
                      "--text2mol-embeddings", str(FIXTURES / "text2mol_small.txt")),
}

# golden file name -> CLI arguments
GOLDEN = {
    f"{name}.{fmt}": (*args, "--format", fmt)
    for name, args in REPORTS.items()
    for fmt in ("json", "csv", "table")
}
GOLDEN["stats_pairs_small.json"] = ("stats", "pairs_small.jsonl",
                                    "--format", "json")
GOLDEN["validate_smiles_grammar.txt"] = ("validate", "smiles_grammar.txt")
GOLDEN["validate_smiles_grammar_strict.txt"] = (
    "validate", "smiles_grammar.txt", "--strict-validity")
GOLDEN["tokenize_smiles_grammar.txt"] = ("tokenize", "smiles_grammar.txt")
GOLDEN["fingerprint_path_drugs.txt"] = ("fingerprint", "drugs_smiles.txt",
                                        "--scheme", "path")
GOLDEN["fingerprint_path_drugs_p3_b256.txt"] = (
    "fingerprint", "drugs_smiles.txt", "--scheme", "path",
    "--max-path", "3", "--bits", "256")


def _run(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def render(args: tuple[str, ...]) -> str:
    command, fixture, *flags = args
    if command == "tokenize":
        # One call per line, read from stdin, so a line that fails does
        # not hide the lines after it.
        return "".join(
            f"{line}\t{code}\t{out.strip()}{err.strip()}\n"
            for line in (FIXTURES / fixture).read_text("utf-8").splitlines()
            for code, out, err in [_run([command, *flags], stdin=line)])
    code, out, _ = _run([command, str(FIXTURES / fixture), *flags])
    if code != 0:
        raise RuntimeError(f"evalkit {' '.join(args)} exited {code}")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendering_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render(GOLDEN[name]).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in GOLDEN.items():
        (GOLDEN_DIR / name).write_bytes(render(args).encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / name}")
