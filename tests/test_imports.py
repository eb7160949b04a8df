"""The import boundary: only ``evalkit.frechet`` imports NumPy, only an
FCD or Text2Mol path imports ``evalkit.frechet``, and each command loads
only the evalkit modules it runs.

The test process has every module loaded already, so each check starts a
fresh interpreter, runs one import or one CLI call there, and reports
which evalkit submodules, and which of ``csv``, ``hashlib`` (and its
OpenSSL module ``_hashlib``) and ``numpy``, ended up in ``sys.modules``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import evalkit
from evalkit import cli, frechet

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_DIR = FIXTURES / "golden"
SRC = Path(evalkit.__file__).resolve().parents[1]

# Imports the module named in argv[1], runs evalkit.cli.main on the rest of
# argv if there is any, and prints what happened as one JSON object.
CHILD = """
import contextlib, importlib, io, json, sys
importlib.import_module(sys.argv[1])
out, code = io.StringIO(), None
if sys.argv[2:]:
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("evalkit.cli").main(sys.argv[2:])
watched = ("csv", "hashlib", "_hashlib", "numpy")
modules = sorted(m for m in sys.modules
                 if m.startswith("evalkit.") or m in watched)
print(json.dumps({"numpy": "numpy" in sys.modules, "code": code,
                  "stdout": out.getvalue(), "modules": modules}))
"""

# The six names evalkit re-exports from evalkit.frechet.
FRECHET_NAMES = ("EmbeddingSet", "GaussianStats", "fcd_from_files",
                 "frechet_distance", "gaussian_fit", "load_embeddings")


def fresh(module: str, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", CHILD, module, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(done.stdout)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def in_process(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("module", ["evalkit", "evalkit.cli"])
def test_import_leaves_numpy_out(module):
    assert fresh(module)["numpy"] is False


# golden file -> the CLI call that renders it
WITHOUT_NUMPY = {
    "d2i_small.json": ["eval-d2i", fixture("predictions_d2i_small.jsonl"),
                       "--format", "json"],
    "i2d_small.json": ["eval-i2d", fixture("predictions_i2d_small.jsonl"),
                       "--format", "json"],
    "validate_smiles_grammar.txt": ["validate", fixture("smiles_grammar.txt")],
}


@pytest.mark.parametrize("golden", sorted(WITHOUT_NUMPY))
def test_command_leaves_numpy_out(golden):
    result = fresh("evalkit.cli", *WITHOUT_NUMPY[golden])
    assert result["code"] == 0
    assert result["stdout"] == (GOLDEN_DIR / golden).read_text("utf-8")
    assert result["numpy"] is False


EMBEDDINGS = ["--embeddings-ref", fixture("embeddings_ref.txt"),
              "--embeddings-hyp", fixture("embeddings_hyp.txt")]
# name -> (CLI call, its golden file or None to compare with this process)
WITH_NUMPY = {
    "fcd": (["fcd", *EMBEDDINGS], None),
    "eval-i2d-fcd": (["eval-i2d", fixture("predictions_i2d_small.jsonl"),
                      *EMBEDDINGS, "--format", "json"], None),
    "eval-d2i-text2mol": (["eval-d2i", fixture("predictions_d2i_small.jsonl"),
                           "--text2mol-embeddings", fixture("text2mol_small.txt"),
                           "--format", "json"], "d2i_small_t2m.json"),
}


@pytest.mark.parametrize("name", sorted(WITH_NUMPY))
def test_embedding_command_loads_numpy(name):
    argv, golden = WITH_NUMPY[name]
    result = fresh("evalkit.cli", *argv)
    assert result["code"] == 0
    expected = (in_process(argv) if golden is None
                else (GOLDEN_DIR / golden).read_text("utf-8"))
    assert result["stdout"] == expected
    assert result["numpy"] is True


def test_import_loads_no_submodule():
    assert fresh("evalkit")["modules"] == []


# name -> (CLI call, modules it must not load)
NOT_LOADED = {
    "eval-d2i": (["eval-d2i", fixture("predictions_d2i_small.jsonl")],
                 {"evalkit.smiles", "evalkit.fingerprints", "evalkit.tokenizer",
                  "evalkit.elements", "evalkit.rng", "evalkit.dataset", "hashlib",
                  "csv", "numpy"}),
    "validate": (["validate", fixture("smiles_grammar.txt")],
                 {"evalkit.fingerprints", "evalkit.dataset"}),
    "tokenize": (["tokenize", fixture("valid_smiles.txt")],
                 {"evalkit.smiles", "evalkit.dataset"}),
    # The built-in key set's digest is a literal: no OpenSSL.
    "eval-i2d": (["eval-i2d", fixture("predictions_i2d_small.jsonl")],
                 {"evalkit.dataset", "hashlib", "_hashlib", "numpy"}),
}


@pytest.mark.parametrize("name", sorted(NOT_LOADED))
def test_command_loads_only_its_modules(name):
    argv, absent = NOT_LOADED[name]
    result = fresh("evalkit.cli", *argv)
    assert result["code"] == 0
    assert result["stdout"] == in_process(argv)
    assert absent.isdisjoint(result["modules"])


def test_kept_parser_holds_no_state_between_calls():
    """cli.main builds its parser once per process.  Calls in one process,
    each after one with other options, print what fresh processes print."""
    calls = [
        ["eval-i2d", fixture("predictions_i2d_small.jsonl"),
         "--keyset", fixture("keyset_small.tsv")],
        ["eval-i2d", fixture("predictions_i2d_small.jsonl")],
        ["eval-d2i", fixture("predictions_d2i_small.jsonl")],
    ]
    outputs = [in_process(argv) for argv in calls]
    for argv, output in zip(calls, outputs):
        result = fresh("evalkit.cli", *argv)
        assert result["code"] == 0
        assert result["stdout"] == output
    assert outputs[0] != outputs[1]


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert evalkit.__all__ == [
            "Atom", "Bond", "BondOrder", "Chirality", "CorpusPair", "D2IReport",
            "DEFAULT_KEYSET", "DEFAULT_SPECIALS", "DatasetStats", "DrugRecord",
            "EmbeddingSet", "Fingerprint", "GaussianStats", "I2DReport",
            "IngestReport", "KeyDescriptor", "KeySet", "Molecule", "PairSet",
            "PredictionFile", "PredictionRow", "SplitSpec", "Task", "Token",
            "TokenKind", "TokenMode", "TokenSequence", "ValidityReport",
            "Vocabulary", "bleu", "build_vocab", "decode", "detokenize", "encode",
            "eval_d2i", "eval_i2d", "exact_match", "fcd_from_files", "fnv1a64",
            "frechet_distance", "gaussian_fit", "ingest", "key_fingerprint",
            "levenshtein", "load_embeddings", "load_predictions", "meteor",
            "molecular_formula", "morgan_fingerprint", "parse_smiles",
            "path_fingerprint", "render_report", "report_from_json", "rouge_l",
            "rouge_n", "split", "stats", "strict_valence_ok", "tanimoto",
            "tokenize", "tokenize_text", "validate", "write_jsonl",
        ]

    @pytest.mark.parametrize("name", FRECHET_NAMES)
    def test_lazy_name_is_frechet_object(self, name):
        assert getattr(evalkit, name) is getattr(frechet, name)

    def test_from_import(self):
        from evalkit import gaussian_fit

        assert gaussian_fit is frechet.gaussian_fit

    def test_every_public_name_resolves(self):
        for name in evalkit.__all__:
            getattr(evalkit, name)

    def test_dir_lists_lazy_names(self):
        assert set(FRECHET_NAMES) <= set(dir(evalkit))
        assert set(evalkit.__all__) <= set(dir(evalkit))

    def test_unknown_attribute_names_the_package(self):
        with pytest.raises(AttributeError, match="evalkit"):
            evalkit.no_such_name  # noqa: B018
