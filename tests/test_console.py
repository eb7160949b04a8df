"""The command line as a user runs it: each case starts ``python -m
evalkit.cli`` in a fresh process, and the installed ``evalkit`` script too
when it is on ``PATH``, and checks the bytes or the exit code it gives."""

import gzip
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evalkit

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
SRC = Path(evalkit.__file__).resolve().parents[1]
INSTALLED = shutil.which("evalkit")
COMMANDS = [[sys.executable, "-m", "evalkit.cli"]] + ([[INSTALLED]] if INSTALLED else [])


def evalkit_runs(*argv, stdin=b"", env=None, preexec_fn=None):
    """The finished process of each command in ``COMMANDS`` given ``argv``,
    with ``stdin`` piped to it and ``env`` added to its environment."""
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **(env or {}))
    return [subprocess.run([*command, *map(str, argv)], input=stdin, env=environ,
                           capture_output=True, timeout=120, preexec_fn=preexec_fn)
            for command in COMMANDS]


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# name -> (argv, golden file, preexec_fn)
REPORTS = {
    "eval-d2i-small": (["eval-d2i", FIXTURES / "predictions_d2i_small.jsonl",
                        "--format", "json"], "d2i_small.json", None),
    # Six of these rows end on METEOR's search budget.
    "eval-d2i-long": (["eval-d2i", FIXTURES / "predictions_d2i_long.jsonl",
                       "--format", "json"], "d2i_long.json", None),
    # BLEU, Exact and Levenshtein over SMILES.
    "eval-i2d-small": (["eval-i2d", FIXTURES / "predictions_i2d_small.jsonl",
                        "--format", "json"], "i2d_small.json", None),
    # The same report on one CPU, where no helper process is forked.
    "eval-i2d-small-one-cpu": (["eval-i2d", FIXTURES / "predictions_i2d_small.jsonl",
                                "--format", "json"], "i2d_small.json", _one_cpu),
    # Commands that import the modules they use when they run.
    "stats": (["stats", FIXTURES / "pairs_small.jsonl", "--format", "json"],
              "stats_pairs_small.json", None),
    "validate": (["validate", FIXTURES / "smiles_grammar.txt"],
                 "validate_smiles_grammar.txt", None),
    "fingerprint": (["fingerprint", FIXTURES / "drugs_smiles.txt", "--scheme", "path"],
                    "fingerprint_path_drugs.txt", None),
    "render": (["render", GOLDEN / "d2i_small.json", "--format", "json"],
               "d2i_small.json", None),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_equals_golden(name):
    argv, golden, preexec_fn = REPORTS[name]
    for done in evalkit_runs(*argv, preexec_fn=preexec_fn):
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / golden).read_bytes()


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Reference embedding files by name: the fixture and a seeded 40,000 x 8
    set, which spans three FCD row blocks, each plain and gzipped, and
    copies of the 40,000-row set whose last value is ``10`` and ``1_0``,
    which only ``float()`` reads."""
    folder = tmp_path_factory.mktemp("references")
    paths = {"fixture": FIXTURES / "embeddings_ref.txt", "40k": folder / "emb_40k.txt"}
    np.savetxt(paths["40k"], np.random.default_rng(0).normal(size=(40000, 8)),
               fmt="%.17g", header="D=8", comments="")
    for name in ("fixture", "40k"):
        paths[f"{name}.gz"] = folder / f"{name}.txt.gz"
        paths[f"{name}.gz"].write_bytes(gzip.compress(paths[name].read_bytes()))
    text = paths["40k"].read_text("ascii")
    last = text.rindex(" ") + 1
    for value in ("10", "1_0"):
        paths[f"40k_{value}"] = folder / f"emb_40k_{value}.txt"
        paths[f"40k_{value}"].write_text(text[:last] + value + "\n", "ascii")
    return paths


# name -> (reference read from its path, reference giving the same distance,
# whether the second is read through a pipe)
FCD_READS = {
    "fixture-gzip": ("fixture", "fixture.gz", False),
    "fixture-pipe": ("fixture", "fixture", True),
    "40k-gzip": ("40k", "40k.gz", False),
    "40k-pipe": ("40k", "40k", True),
    "1_0": ("40k_10", "40k_1_0", False),
    "1_0-pipe": ("40k_10", "40k_1_0", True),
}


@pytest.mark.parametrize("name", FCD_READS)
def test_fcd_does_not_depend_on_how_the_reference_is_read(name, references):
    want, got, pipe = FCD_READS[name]
    hyp = ["--embeddings-hyp", FIXTURES / "embeddings_hyp.txt"]
    expected = evalkit_runs("fcd", "--embeddings-ref", references[want], *hyp)
    if pipe:
        runs = evalkit_runs("fcd", "--embeddings-ref", "/dev/stdin", *hyp,
                            stdin=references[got].read_bytes())
    else:
        runs = evalkit_runs("fcd", "--embeddings-ref", references[got], *hyp)
    for done, plain in zip(runs, expected):
        assert (plain.returncode, done.returncode) == (0, 0), done.stderr
        assert done.stdout == plain.stdout


def test_undecodable_stdin_exits_one_in_utf8_mode():
    """In UTF-8 mode standard input would decode with surrogateescape."""
    for done in evalkit_runs("validate", stdin=b"C\xffC\n", env={"PYTHONUTF8": "1"}):
        assert done.returncode == 1, done.stderr


# name -> (argv, standard input, expected standard output)
NON_LATIN1_OUTPUT = {
    # The table's absent cells are U+2014.
    "eval-i2d-table": (["eval-i2d", FIXTURES / "predictions_i2d_small.jsonl"], b"",
                       (GOLDEN / "i2d_small.table").read_bytes()),
    "validate-detail": (["validate"], "C\u20ac\n".encode(),
                        "FAIL unexpected character '\u20ac' (at offset 1)\n"
                        "validity 0.0000 (0/1)\n".encode()),
}


@pytest.mark.parametrize("name", NON_LATIN1_OUTPUT)
def test_output_is_utf8_whatever_the_locale(name):
    argv, stdin, expected = NON_LATIN1_OUTPUT[name]
    for done in evalkit_runs(*argv, stdin=stdin, env={"PYTHONIOENCODING": "latin-1"}):
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected


def test_errors_are_utf8_whatever_the_locale():
    latin1 = {"PYTHONIOENCODING": "latin-1"}
    for done in evalkit_runs("fingerprint", stdin="C\u20ac\n".encode(), env=latin1):
        assert done.returncode == 1
        assert done.stderr == ("error: input line 1: unexpected character "
                               "'\u20ac' (at offset 1)\n").encode()
    # argparse writes its error before any command runs.  Its wording after
    # the value differs between Python versions.
    for done in evalkit_runs("ingest", "x", "--layout", "\u20ac", env=latin1):
        assert done.returncode == 2
        assert "invalid choice: '\u20ac'".encode() in done.stderr


def test_u2028_inside_a_line_does_not_end_it():
    """One line, and it fails."""
    for done in evalkit_runs("validate", stdin="CC\u2028CC\n".encode()):
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == b"validity 0.0000 (0/1)"


def test_lines_are_numbered_as_the_file_numbers_them(tmp_path):
    """Blank lines included."""
    path = tmp_path / "blank_line.txt"
    path.write_bytes(b"CC\n\nXX\n")
    for done in evalkit_runs("fingerprint", path):
        assert done.returncode == 1
        assert b"input line 3" in done.stderr
