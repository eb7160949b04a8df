"""Metamorphic relations of the whole scorer.

Each test changes a prediction set in a known way (shuffles it, repeats
it, swaps its sides, adds a row, splits it, or copies each reference into
its hypothesis), or the process that scores it (one CPU or two, the hash
seed), and checks that the report changes as it must, or not at all.  The rows are random ``genmol`` molecules, written from another root,
paired with another molecule, broken or left empty, plus the fixture
files.  Only relations that hold bit for bit today are asserted: float
means are summed in row order, so a shuffle may move their last digit,
and they are left out of the order relations.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evalkit
import genmol
from evalkit import harness
from evalkit.harness import (
    PredictionFile,
    PredictionRow,
    Task,
    eval_d2i,
    eval_i2d,
    load_predictions,
    render_report,
)
from evalkit.textmetrics import CorpusPair, TokenMode, meteor, tokenize_text

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(evalkit.__file__).resolve().parents[1]
BROKEN = "C1CC("  # unparseable: an unclosed ring and an unclosed branch
TANIMOTOS = ("maccs_fts", "rdk_fts", "morgan_fts")


def _fixture_pairs(name):
    preds = load_predictions(FIXTURES / name, Task.INDICATION_TO_DRUG)
    return [(row.reference, row.hypothesis) for row in preds.rows]


# Rows whose hypothesis equals their reference, so every BLEU order up to
# 4 has a match: with none, BLEU's smoothing epsilon does not scale with
# the corpus, and repeating the rows would move it.
FIXTURE_PAIRS = (_fixture_pairs("predictions_i2d_small.jsonl")
                 + _fixture_pairs("predictions_i2d_repeated.jsonl"))


def genmol_pairs(seed, count):
    """``count`` (reference, hypothesis) SMILES pairs from ``genmol``."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        mol = genmol.random_molecule(rng)
        reference, _ = genmol.write_smiles(mol)
        kind = rng.randrange(5)
        if kind == 0:
            hypothesis = reference
        elif kind == 1:
            hypothesis, _ = genmol.write_smiles(
                mol, root=rng.randrange(len(mol.atoms)), rng=rng)
        elif kind == 2:
            hypothesis, _ = genmol.write_smiles(genmol.random_molecule(rng))
        elif kind == 3:
            hypothesis = reference + rng.choice(("(", ")", "1"))
        else:
            hypothesis = ""
        pairs.append((reference, hypothesis))
    return pairs


def predictions(pairs, task=Task.INDICATION_TO_DRUG):
    return PredictionFile(
        rows=tuple(PredictionRow(f"r{i}", ref, hyp)
                   for i, (ref, hyp) in enumerate(pairs)),
        task=task)


def i2d(pairs):
    return eval_i2d(predictions(pairs))


def counts(report):
    """(valid, skipped, exact) row counts behind an i2d report."""
    return (round(report.validity * report.rows), report.skipped_invalid,
            round(report.exact * report.rows))


row_sets = st.builds(genmol_pairs, st.integers(0, 2**32 - 1), st.integers(0, 12))


@given(row_sets, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_shuffle_and_repetition_keep_integer_columns(generated, rnd):
    pairs = FIXTURE_PAIRS + generated
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    base = i2d(pairs)
    for changed in (i2d(shuffled), i2d(pairs + pairs)):
        for column in ("bleu", "exact", "validity", "levenshtein"):
            assert getattr(changed, column) == getattr(base, column), column


@given(row_sets)
@settings(max_examples=25, deadline=None)
def test_swapping_sides_keeps_symmetric_columns(generated):
    # A reference may not be empty, so only rows that can be swapped.
    pairs = [(ref, hyp) for ref, hyp in FIXTURE_PAIRS + generated if hyp.strip()]
    base = i2d(pairs)
    swapped = i2d([(hyp, ref) for ref, hyp in pairs])
    for column in ("exact", "levenshtein", *TANIMOTOS, "skipped_invalid"):
        assert getattr(swapped, column) == getattr(base, column), column


@given(row_sets)
@settings(max_examples=25, deadline=None)
def test_an_unparseable_row_is_skipped(generated):
    pairs = FIXTURE_PAIRS + generated
    base = i2d(pairs)
    added = i2d(pairs + [("CCO", BROKEN)])
    for column in TANIMOTOS:
        assert getattr(added, column) == getattr(base, column), column
    assert added.skipped_invalid == base.skipped_invalid + 1
    assert counts(added)[0] == counts(base)[0]


@given(row_sets)
@settings(max_examples=25, deadline=None)
def test_identity_rows_score_perfectly(generated):
    references = [ref for ref, _ in FIXTURE_PAIRS + generated]
    report = i2d([(ref, ref) for ref in references])
    assert report.exact == 1.0
    assert report.levenshtein == 0.0
    # A fixture reference does not parse: its row is invalid and skipped.
    valid, skipped, _ = counts(report)
    assert skipped == report.rows - valid
    for column in TANIMOTOS:
        assert getattr(report, column) == 1.0, column
    # Every fixture reference has 4 characters or more.
    assert report.bleu == 1.0


@given(row_sets)
@settings(max_examples=25, deadline=None)
def test_one_cpu_and_two_give_the_same_report(generated):
    rows = predictions(FIXTURE_PAIRS + generated)
    reports = set()
    for cpus in (1, 2):  # two forks a helper for the fingerprint sweep
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_cpu_count", lambda: cpus)
            reports.add(render_report(eval_i2d(rows), "json"))
    assert len(reports) == 1


sentences = st.lists(
    st.lists(st.sampled_from(("pain", "of", "acute", "type", "2", ",")),
             min_size=1, max_size=9).map(" ".join),
    min_size=1, max_size=6)


@given(sentences)
@settings(max_examples=50, deadline=None)
def test_identity_text_rows(texts):
    report = eval_d2i(predictions([(t, t) for t in texts],
                                  Task.DRUG_TO_INDICATION))
    lengths = [len(tokenize_text(t, TokenMode.WORD)) for t in texts]
    # BLEU-n is 1 once some row has n tokens; with none, order n has no
    # n-grams to match.
    if max(lengths) >= 2:
        assert report.bleu2 == 1.0
    if max(lengths) >= 4:
        assert report.bleu4 == 1.0
    # A pair shorter than n has no n-grams and scores 0.
    assert report.rouge1 == 1.0
    assert report.rouge2 == sum(m >= 2 for m in lengths) / len(lengths)
    assert report.rouge_l == 1.0
    for text, m in zip(texts, lengths):
        assert meteor(CorpusPair.from_strings([text], [text], TokenMode.WORD)) \
            == 1 - 0.5 * (1 / m) ** 3


@given(row_sets, st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_halves_add_up_to_the_whole(generated, cut):
    pairs = FIXTURE_PAIRS + generated
    cut = min(cut, len(pairs) - 1)
    whole = counts(i2d(pairs))
    halves = [counts(i2d(part)) for part in (pairs[:cut], pairs[cut:])]
    assert tuple(map(sum, zip(*halves))) == whole


@pytest.mark.parametrize("argv", [
    ["eval-i2d", "{generated}", "--format", "json"],
    ["eval-d2i", str(FIXTURES / "predictions_d2i_long.jsonl"), "--format", "json"],
], ids=["eval-i2d", "eval-d2i"])
def test_hash_seed_does_not_reach_the_report(argv, tmp_path):
    generated = tmp_path / "generated.jsonl"
    generated.write_text("".join(
        json.dumps({"id": f"g{i}", "reference": ref, "hypothesis": hyp}) + "\n"
        for i, (ref, hyp) in enumerate(FIXTURE_PAIRS + genmol_pairs(0, 40))))
    argv = [arg.format(generated=generated) for arg in argv]
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "evalkit.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
