"""Text generation metric tests: BLEU, ROUGE, METEOR, edit distance."""

import json
import math
import random
import struct
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import textmetrics
from evalkit.errors import EmptyCorpus, InputError, LengthMismatch
from evalkit.textmetrics import (
    BLEU_EPSILON,
    CorpusPair,
    TokenMode,
    bleu,
    exact_match,
    levenshtein,
    meteor,
    rouge_l,
    rouge_n,
    tokenize_text,
)

import oracles


def pair(refs, hyps, mode=TokenMode.WORD):
    return CorpusPair.from_strings(refs, hyps, mode)


class TestTokenizeText:
    def test_word_mode_lowercases_and_splits_punctuation(self):
        assert tokenize_text("Don't panic!", TokenMode.WORD) == [
            "don", "'", "t", "panic", "!"]

    def test_word_mode_collapses_whitespace(self):
        assert tokenize_text("  a \t b ", TokenMode.WORD) == ["a", "b"]

    def test_char_mode(self):
        assert tokenize_text("ab c", TokenMode.CHAR) == ["a", "b", " ", "c"]

    def test_smiles_mode_uses_grammar(self):
        assert tokenize_text("CCl", TokenMode.SMILES_GRAMMAR) == ["C", "Cl"]
        assert tokenize_text("[NH4+]", TokenMode.SMILES_GRAMMAR) == ["[NH4+]"]


class TestCorpusPair:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pair(["a", "b"], ["a"])

    def test_empty_reference_rejected(self):
        with pytest.raises(InputError):
            pair([""], ["a"])

    def test_empty_hypothesis_allowed(self):
        corpus = pair(["a b"], [""])
        assert corpus.hypotheses == ((),)


class TestBleu:
    def test_brevity_penalty_hand_value(self):
        # hyp "the cat" inside ref "the cat sat": every 1- and 2-gram of the
        # hypothesis appears in the reference, so precision is 1 and the
        # score is pure brevity penalty exp(1 - 3/2).
        score = bleu(pair(["the cat sat"], ["the cat"]), max_n=2)
        assert score == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert score == pytest.approx(0.6065, abs=1e-4)

    def test_identity_is_exactly_one(self):
        text = "the quick brown fox jumps"
        assert bleu(pair([text], [text]), max_n=4) == 1.0
        assert bleu(pair([text], [text]), max_n=2) == 1.0

    def test_counts_pool_across_corpus(self):
        # pair 1: identity "a b c d"; pair 2: ref "e f", hyp "e g".
        # pooled 1-grams: clipped 4+1=5 of 4+2=6; pooled 2-grams: 3+0=3 of
        # 3+1=4.  lengths tie (6=6) so BP=1 and
        # BLEU-2 = sqrt(5/6 * 3/4) = sqrt(0.625).
        score = bleu(pair(["a b c d", "e f"], ["a b c d", "e g"]), max_n=2)
        assert score == pytest.approx(math.sqrt(0.625), abs=1e-12)

    def test_zero_matches_go_through_epsilon(self):
        score = bleu(pair(["a b"], ["c d"]), max_n=2)
        assert 0.0 < score < 1e-4

    def test_short_hypothesis_floors_denominator(self):
        # single-token hypothesis has no 2-grams at all
        score = bleu(pair(["a b"], ["a"]), max_n=2)
        assert 0.0 < score < 1.0

    def test_empty_hypothesis_scores_zero(self):
        assert bleu(pair(["a b"], [""]), max_n=2) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            bleu(CorpusPair((), ()))

    def test_bad_max_n_rejected(self):
        with pytest.raises(InputError):
            bleu(pair(["a"], ["a"]), max_n=0)

    def test_longer_hypothesis_has_no_brevity_penalty(self):
        # precision drops but BP stays 1 when the hypothesis is longer
        score = bleu(pair(["a b"], ["a b c"]), max_n=1)
        assert score == pytest.approx(2 / 3, abs=1e-12)


class TestRouge:
    def test_rouge1_hand_value(self):
        # overlap 2, |hyp| 2, |ref| 3: F1 = 2*2/(2+3) = 0.8 exactly
        assert rouge_n(pair(["the cat sat"], ["the cat"]), 1) == 0.8

    def test_rouge2_hand_value(self):
        # bigram overlap 1, totals 1 and 2: F1 = 2*1/(1+2)
        score = rouge_n(pair(["the cat sat"], ["the cat"]), 2)
        assert score == pytest.approx(2 / 3, abs=1e-12)

    def test_rouge_l_hand_value(self):
        # LCS "the cat" has length 2: same F1 shape as ROUGE-1 here
        assert rouge_l(pair(["the cat sat"], ["the cat"])) == 0.8

    def test_rouge_l_is_order_sensitive(self):
        # unigram overlap is total but the LCS is only one token long
        corpus = pair(["a b"], ["b a"])
        assert rouge_n(corpus, 1) == 1.0
        assert rouge_l(corpus) == 0.5

    def test_identity_is_exactly_one(self):
        corpus = pair(["x y z"], ["x y z"])
        assert rouge_n(corpus, 1) == 1.0
        assert rouge_n(corpus, 2) == 1.0
        assert rouge_l(corpus) == 1.0

    def test_mean_over_rows_in_order(self):
        # rows score 1.0 and 0.0; the corpus value is their mean
        corpus = pair(["a b", "c d"], ["a b", "x y"])
        assert rouge_n(corpus, 1) == 0.5

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("counted", [False, True], ids=["fresh", "counted"])
    def test_bad_n_rejected(self, n, counted):
        # Unchecked, n = 0 scored 0.857 here (empty n-grams) and n = -1 0.667.
        corpus = pair(["a b c"], ["x y"])
        if counted:
            bleu(corpus)
        with pytest.raises(InputError, match="n must be at least 1"):
            rouge_n(corpus, n)

    def test_empty_hypothesis_scores_zero(self):
        assert rouge_n(pair(["a b"], [""]), 1) == 0.0
        assert rouge_l(pair(["a b"], [""])) == 0.0

    def test_no_bigrams_scores_zero(self):
        assert rouge_n(pair(["a"], ["a"]), 2) == 0.0


class TestNgramOverlaps:
    """BLEU and ROUGE-n on a corpus's kept counts against per-metric Counters."""

    def test_random_corpora_match_counter_oracles(self):
        rng = random.Random(2002)
        for _ in range(80):
            rows = rng.randrange(1, 6)
            refs = [" ".join(rng.choice("abcd") for _ in range(rng.randrange(1, 12)))
                    for _ in range(rows)]
            hyps = [" ".join(rng.choice("abcd") for _ in range(rng.randrange(0, 12)))
                    for _ in range(rows)]
            counted = pair(refs, hyps)
            bleu(counted, max_n=4)
            # The kept counts are not a field.
            assert counted == pair(refs, hyps)
            assert hash(counted) == hash(pair(refs, hyps))
            assert repr(counted) == repr(pair(refs, hyps))
            for n in range(1, 7):
                expected = oracles.bleu_by_counters(counted, n, BLEU_EPSILON)
                assert bleu(pair(refs, hyps), max_n=n) == expected, counted
                assert bleu(counted, max_n=n) == expected, counted
                expected = oracles.rouge_n_by_counters(counted, n)
                assert rouge_n(pair(refs, hyps), n) == expected, counted
                assert rouge_n(counted, n) == expected, counted

    def test_orders_past_the_length_take_no_slices(self):
        # BLEU counts every order up to max_n, so an order past the tokens
        # must cost O(1), not one slice per position of the n-gram.
        class Tokens(tuple):
            slices = 0

            def __getitem__(self, index):
                Tokens.slices += 1
                return tuple.__getitem__(self, index)

        assert textmetrics._ngram_counts(Tokens("abc"), 100_000) == Counter()
        assert Tokens.slices == 0
        assert textmetrics._ngram_counts(Tokens("abc"), 2) == Counter(
            [("a", "b"), ("b", "c")])


class TestMeteor:
    def test_swap_hand_value(self):
        # "a b" vs "b a": perfect matching split into two chunks gives
        # F = 1 and penalty 0.5, so the score is exactly 0.5.
        assert meteor(pair(["a b"], ["b a"])) == pytest.approx(0.5, abs=1e-9)

    def test_identity_three_tokens(self):
        # m=3, one chunk: 1 - 0.5*(1/3)^3
        score = meteor(pair(["x y z"], ["x y z"]))
        assert score == pytest.approx(1 - 0.5 / 27, abs=1e-12)

    def test_chunks_are_minimised_not_greedy(self):
        # ref "b a b", hyp "a b".  Matching hyp's "b" to the first ref "b"
        # (the leftmost choice) yields two chunks; matching it to the final
        # "b" yields a single chunk.  With ch=1: F = 10*(2/3)/(2/3 + 9),
        # penalty = 0.5*(1/2)^3, score = (20/29)*(15/16) = 75/116.
        score = meteor(pair(["b a b"], ["a b"]))
        assert score == pytest.approx(75 / 116, abs=1e-12)

    def test_duplicate_tokens_respect_counts(self):
        # hyp has two "a" but ref only one: m counts min occurrences
        score = meteor(pair(["a b"], ["a a"]))
        # m=1, P=1/2, R=1/2, F=10*(1/4)/(1/2+9/2)=0.5, ch=1,
        # penalty=0.5*1=0.5 -> 0.25
        assert score == pytest.approx(0.25, abs=1e-12)

    def test_no_match_scores_zero(self):
        assert meteor(pair(["a b"], ["c d"])) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert meteor(pair(["a b"], [""])) == 0.0

    def test_mean_over_rows(self):
        corpus = pair(["a b", "c d"], ["a b", "x y"])
        expected = (1 - 0.5 / 8) / 2
        assert meteor(corpus) == pytest.approx(expected, abs=1e-12)

    def test_long_identity_stays_near_one(self):
        text = " ".join(f"w{i}" for i in range(30))
        score = meteor(pair([text], [text]))
        assert score == pytest.approx(1 - 0.5 * (1 / 30) ** 3, abs=1e-12)

    def test_long_looping_hypothesis_is_scored(self):
        # Degenerate model output: one clause repeated to 1,500 words.  The
        # alignment search is deeper than Python's recursion limit.
        ref = "for the treatment of chronic pain in adults and children"
        loop = "for the relief of chronic pain in adults".split()
        hyp = " ".join((loop * 188)[:1500])
        score = meteor(pair([ref], [hyp]))
        assert math.isfinite(score) and 0.0 < score < 1.0


def _quota(ref, hyp):
    # The match quota _meteor_pair hands to the chunk search.
    ref_counts = Counter(ref)
    return {token: min(count, ref_counts[token])
            for token, count in Counter(hyp).items() if ref_counts[token]}


def _fixture_pairs():
    fixtures = Path(__file__).parent / "fixtures"
    pairs = []
    for name in ("predictions_d2i_long.jsonl", "predictions_d2i_small.jsonl"):
        for line in (fixtures / name).read_text("utf-8").splitlines():
            row = json.loads(line)
            ref = tokenize_text(row["reference"], TokenMode.WORD)
            hyp = tokenize_text(row["hypothesis"], TokenMode.WORD)
            if _quota(ref, hyp):
                pairs.append((ref, hyp))
    return pairs


def _random_pairs(seed, count, max_len):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        vocabulary = "abcde"[:rng.randrange(1, 6)]
        ref = [rng.choice(vocabulary) for _ in range(rng.randrange(1, max_len + 1))]
        hyp = [rng.choice(vocabulary) for _ in range(rng.randrange(1, max_len + 1))]
        if _quota(ref, hyp):
            pairs.append((ref, hyp))
    return pairs


def _check_against_oracles(pairs, budget):
    for ref, hyp in pairs:
        quota = _quota(ref, hyp)
        found = textmetrics._min_chunks(ref, hyp, quota)
        assert found == oracles.meteor_min_chunks_packed(
            ref, hyp, quota, budget), (ref, hyp)
        assert found == oracles.meteor_min_chunks_dfs(
            ref, hyp, quota, budget), (ref, hyp)


class TestMeteorSearch:
    """The memoized chunk search against the packed search it replaced,
    which walks every node, and the copied-frame DFS before that."""

    BUDGETS = (1, 2, 7, 50, 500, textmetrics._METEOR_SEARCH_BUDGET)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_fixture_matches_dfs_oracle(self, budget, monkeypatch):
        monkeypatch.setattr(textmetrics, "_METEOR_SEARCH_BUDGET", budget)
        _check_against_oracles(_fixture_pairs(), budget)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_random_pairs_match_dfs_oracle(self, budget, monkeypatch):
        monkeypatch.setattr(textmetrics, "_METEOR_SEARCH_BUDGET", budget)
        _check_against_oracles(_random_pairs(budget, 500, 10), budget)

    def test_every_small_budget_matches_oracles(self, monkeypatch):
        # Few token types make many states recur, so a kept subtree is
        # often met when its node count is just above, at or below the
        # budget left.
        rng = random.Random(300)
        pairs = []
        while len(pairs) < 12:
            vocabulary = "abc"[:rng.randrange(1, 4)]
            ref = [rng.choice(vocabulary) for _ in range(rng.randrange(1, 15))]
            hyp = [rng.choice(vocabulary) for _ in range(rng.randrange(1, 15))]
            if _quota(ref, hyp):
                pairs.append((ref, hyp))
        for budget in range(1, 301):
            monkeypatch.setattr(textmetrics, "_METEOR_SEARCH_BUDGET", budget)
            _check_against_oracles(pairs, budget)

    @pytest.mark.parametrize("length, vocabulary", [(60, "ab"), (120, "abc")])
    def test_hostile_shape_matches_packed_oracle(self, length, vocabulary):
        # Long pairs over two or three words: the search tree is far
        # larger than the budget, so the whole budget is spent, and the
        # kept subtrees must stay small.
        rng = random.Random(length)
        ref = [rng.choice(vocabulary) for _ in range(length)]
        hyp = [rng.choice(vocabulary) for _ in range(length)]
        quota = _quota(ref, hyp)
        tracemalloc.start()
        try:
            found = textmetrics._min_chunks(ref, hyp, quota)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = textmetrics._METEOR_SEARCH_BUDGET
        assert found == oracles.meteor_min_chunks_packed(ref, hyp, quota, budget)
        assert found > textmetrics._chunk_floor(ref, hyp, sum(quota.values()))
        assert peak < 8 * 2**20

    def test_fixture_rows_end_above_the_floor(self):
        # A search that ends above the floor never stops early: it runs
        # out of budget or out of nodes.  The long fixture must keep such
        # rows, or the default-budget comparison above tests no budget.
        above_floor = 0
        for ref, hyp in _fixture_pairs():
            quota = _quota(ref, hyp)
            floor = textmetrics._chunk_floor(ref, hyp, sum(quota.values()))
            above_floor += textmetrics._min_chunks(ref, hyp, quota) > floor
        assert above_floor >= 3

    def test_floor_never_exceeds_exhaustive_optimum(self):
        reached = 0
        for ref, hyp in _random_pairs(8, 600, 8):
            quota = _quota(ref, hyp)
            optimum = oracles.meteor_min_chunks_dfs(ref, hyp, quota, 10**9)
            floor = textmetrics._chunk_floor(ref, hyp, sum(quota.values()))
            assert 1 <= floor <= optimum, (ref, hyp)
            reached += floor == optimum
        assert reached > 0


class TestLcs:
    """ROUGE-L's bit-parallel LCS against the list dynamic program."""

    WORD_EDGES = (63, 64, 65, 127, 128, 129)

    def test_random_pairs_against_list_dp(self):
        rng = random.Random(2004)
        for _ in range(300):
            a = [rng.choice("abcd") for _ in range(rng.randrange(0, 30))]
            b = [rng.choice("abcd") for _ in range(rng.randrange(0, 30))]
            assert textmetrics._lcs_length(a, b) == oracles.lcs_length_table(a, b)

    def test_long_sequences_against_list_dp(self):
        rng = random.Random(1986)
        words = ("the", "of", "for", "pain", "in", "adults", "and")
        draws = [rng.randrange(0, 201) for _ in range(20)]
        for length in (0, *self.WORD_EDGES, 200, *draws):
            a = [rng.choice(words) for _ in range(length)]
            # Both argument orders, so each side is once the empty one.
            for other in (*self.WORD_EDGES, rng.randrange(0, 201), 0):
                b = [rng.choice(words) for _ in range(other)]
                expected = oracles.lcs_length_table(a, b)
                assert textmetrics._lcs_length(a, b) == expected, (a, b)
                assert textmetrics._lcs_length(b, a) == expected, (b, a)

    def test_subsequence_and_disjoint(self):
        rng = random.Random(129)
        for length in (1, *self.WORD_EDGES, 200):
            a = [rng.choice("xyz") for _ in range(length)]
            part = [t for t in a if rng.random() < 0.5]
            assert textmetrics._lcs_length(a, part) == len(part)
            assert textmetrics._lcs_length(part, a) == len(part)
            assert textmetrics._lcs_length(a, ["w"] * length) == 0


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,distance", [
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("", "abc", 3),
        ("abc", "", 3),
        ("", "", 0),
        ("same", "same", 0),
        ("abcdef", "azced", 3),
    ])
    def test_hand_values(self, a, b, distance):
        assert levenshtein(a, b) == distance

    def test_against_full_table_oracle(self):
        rng = random.Random(31337)
        alphabet = "CNO()=#123cno"
        for _ in range(200):
            a = "".join(rng.choice(alphabet)
                        for _ in range(rng.randrange(0, 25)))
            b = "".join(rng.choice(alphabet)
                        for _ in range(rng.randrange(0, 25)))
            assert levenshtein(a, b) == oracles.levenshtein_full_table(a, b)

    # Lengths on both sides of each 64-bit word boundary, so a carry or
    # mask fault at bit 63/64 or 127/128 cannot hide.
    WORD_EDGES = (63, 64, 65, 127, 128, 129)

    def test_long_strings_against_full_table_oracle(self):
        rng = random.Random(4099)
        alphabet = "CNOcn()=1#"
        draws = [rng.randrange(0, 201) for _ in range(30)]
        for length in (0, *self.WORD_EDGES, 200, *draws):
            a = "".join(rng.choice(alphabet) for _ in range(length))
            # Both argument orders, so each side is once the empty one.
            for other in (*self.WORD_EDGES, rng.randrange(0, 201), 0):
                b = "".join(rng.choice(alphabet) for _ in range(other))
                expected = oracles.levenshtein_full_table(a, b)
                assert levenshtein(a, b) == expected, (a, b)
                assert levenshtein(b, a) == expected, (b, a)

    def test_word_edges_with_few_edits(self):
        rng = random.Random(65)
        for length in self.WORD_EDGES:
            a = "".join(rng.choice("ab") for _ in range(length))
            for position in (0, length // 2, length - 1):
                b = a[:position] + "c" + a[position + 1:]
                assert levenshtein(a, b) == 1, (length, position)
                assert levenshtein(a, a[:position] + a[position + 1:]) == 1
                assert levenshtein(a, a[:position] + "c" + a[position:]) == 1

    def test_substring(self):
        rng = random.Random(129)
        for _ in range(40):
            a = "".join(rng.choice("CNO=()") for _ in range(rng.randrange(1, 201)))
            start = rng.randrange(len(a))
            part = a[start:rng.randrange(start, len(a) + 1)]
            assert oracles.levenshtein_full_table(a, part) == len(a) - len(part)
            assert levenshtein(a, part) == len(a) - len(part)
            assert levenshtein(part, a) == len(a) - len(part)

    def test_non_ascii_and_astral_characters(self):
        rng = random.Random(2003)
        alphabet = "aé€中\U0001F600\U00010348ß"
        for _ in range(80):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 140)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 140)))
            assert levenshtein(a, b) == oracles.levenshtein_full_table(a, b), (a, b)
        assert levenshtein("\U0001F600", "\U0001F601") == 1
        assert levenshtein("caf\u00e9", "cafe") == 1


class TestExactMatch:
    def test_trims_surrounding_whitespace(self):
        assert exact_match(["CCO"], [" CCO \n"]) == 1.0

    def test_case_sensitive(self):
        assert exact_match(["CCO"], ["cco"]) == 0.0

    def test_fraction(self):
        assert exact_match(["a", "b", "c", "d"], ["a", "b", "x", "y"]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            exact_match(["a"], [])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyCorpus):
            exact_match([], [])


words = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8).map(" ".join)


@given(st.lists(words, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_metrics_bounded_on_identity_and_noise(texts):
    identity = pair(texts, texts)
    for metric in (lambda c: bleu(c, max_n=2), lambda c: rouge_n(c, 1),
                   rouge_l, meteor):
        value = metric(identity)
        assert 0.0 <= value <= 1.0

    shuffled = pair(texts, list(reversed(texts)))
    for metric in (lambda c: bleu(c, max_n=2), lambda c: rouge_n(c, 1),
                   rouge_l, meteor):
        value = metric(shuffled)
        assert 0.0 <= value <= 1.0


strings = st.text(alphabet="abcXYZ01", max_size=20)


@given(strings, strings)
@settings(max_examples=200)
def test_levenshtein_symmetry_and_bounds(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@given(strings, strings, strings)
@settings(max_examples=100)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestMean:
    """``_mean`` is the averaging rule of every mean column."""

    # Signed zeros, subnormals and values whose sums overflow, among others.
    floats = st.floats(allow_nan=False) | st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
         -1e308, 1.7976931348623157e308))

    @staticmethod
    def _loop_mean(xs):
        total = 0.0
        for x in xs:
            total += x
        return total / len(xs)

    @given(st.lists(floats, min_size=1, max_size=50))
    @settings(max_examples=500)
    def test_floats_round_as_a_plain_loop(self, xs):
        # Bit for bit, sign of zero, infinity and NaN from inf - inf included.
        assert struct.pack("<d", textmetrics._mean(xs)) \
            == struct.pack("<d", self._loop_mean(xs))

    @given(st.lists(st.integers() | st.booleans(), min_size=1, max_size=50))
    @settings(max_examples=300)
    def test_ints_and_bools_sum_exactly(self, xs):
        assert textmetrics._mean(xs) == sum(xs) / len(xs)
