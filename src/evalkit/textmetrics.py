"""Reference-based text generation metrics.

Everything here scores a corpus of (reference, hypothesis) pairs.  BLEU is
corpus-level (n-gram statistics pooled before the ratio); ROUGE and METEOR
are computed per pair and averaged in row order, so results never depend on
iteration order of any hash container.

Tokenization is explicit, never implicit: callers choose one of the three
modes below and the choice is recorded by the harness in report metadata.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyCorpus, InputError, LengthMismatch
from .tokenizer import tokenize as smiles_tokenize

BLEU_EPSILON = 1e-9

# Exact chunk minimisation in METEOR explores at most this many alignment
# search nodes before falling back to the greedy leftmost alignment.
_METEOR_SEARCH_BUDGET = 100_000

_WORD_RE = re.compile(r"\w+|[^\w\s]")


class TokenMode(enum.Enum):
    WORD = "word"
    CHAR = "char"
    SMILES_GRAMMAR = "smiles_grammar"


def tokenize_text(text: str, mode: TokenMode) -> list[str]:
    """Split ``text`` for metric computation.

    ``word`` lowercases and detaches punctuation into separate tokens;
    ``char`` yields individual characters; ``smiles_grammar`` delegates to
    the grammar tokenizer (and therefore raises on illegal SMILES).
    """
    if mode is TokenMode.WORD:
        return _WORD_RE.findall(text.lower())
    if mode is TokenMode.CHAR:
        return list(text)
    return [token.text for token in smiles_tokenize(text)]


@dataclass(frozen=True)
class CorpusPair:
    """Token sequences for a corpus: one reference per hypothesis."""

    references: tuple[tuple[str, ...], ...]
    hypotheses: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.references) != len(self.hypotheses):
            raise LengthMismatch(
                f"{len(self.references)} references vs "
                f"{len(self.hypotheses)} hypotheses")
        for i, ref in enumerate(self.references):
            if not ref:
                raise InputError(f"reference {i} tokenised to nothing")

    def __len__(self) -> int:
        return len(self.references)

    @classmethod
    def from_strings(cls, references: Iterable[str], hypotheses: Iterable[str],
                     mode: TokenMode) -> "CorpusPair":
        return cls(
            tuple(tuple(tokenize_text(r, mode)) for r in references),
            tuple(tuple(tokenize_text(h, mode)) for h in hypotheses),
        )


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(corpus: CorpusPair, max_n: int = 4, epsilon: float = BLEU_EPSILON) -> float:
    """Corpus BLEU with uniform n-gram weights and brevity penalty.

    Clipped n-gram matches and totals are pooled over the whole corpus
    before forming precisions.  A zero numerator is replaced by ``epsilon``
    (additive smoothing on the numerator only); a zero denominator, which
    occurs when every hypothesis is shorter than n, is floored at one.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("BLEU over an empty corpus is undefined")
    if max_n < 1:
        raise InputError("max_n must be at least 1")

    clipped = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            clipped[n - 1] += sum(
                min(count, ref_counts[gram])
                for gram, count in hyp_counts.items())

    log_sum = 0.0
    for n in range(max_n):
        numerator = clipped[n] if clipped[n] > 0 else epsilon
        precision = numerator / max(totals[n], 1)
        log_sum += math.log(precision) / max_n

    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum)


def _f1(overlap: int, hyp_total: int, ref_total: int) -> float:
    # 2PR/(P+R) simplified to 2o/(h+r): algebraically identical and exact
    # in floating point for clean ratios.
    denominator = hyp_total + ref_total
    if denominator == 0:
        return 0.0
    return 2 * overlap / denominator


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if token == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_n(corpus: CorpusPair, n: int) -> float:
    """Mean per-pair ROUGE-n F1 (clipped n-gram overlap)."""
    if len(corpus) == 0:
        raise EmptyCorpus("ROUGE over an empty corpus is undefined")
    total = 0.0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        ref_counts = _ngram_counts(ref, n)
        hyp_counts = _ngram_counts(hyp, n)
        overlap = sum(
            min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
        total += _f1(overlap, sum(hyp_counts.values()), sum(ref_counts.values()))
    return total / len(corpus)


def rouge_l(corpus: CorpusPair) -> float:
    """Mean per-pair ROUGE-L F1 (longest common subsequence)."""
    if len(corpus) == 0:
        raise EmptyCorpus("ROUGE over an empty corpus is undefined")
    total = 0.0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        total += _f1(_lcs_length(ref, hyp), len(hyp), len(ref))
    return total / len(corpus)


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    # pairs are (hyp position, ref position) sorted by hyp position
    chunks = 1
    for (h0, r0), (h1, r1) in zip(pairs, pairs[1:]):
        if h1 != h0 + 1 or r1 != r0 + 1:
            chunks += 1
    return chunks


def _min_chunks(ref: Sequence[str], hyp: Sequence[str], match_quota: dict) -> int:
    """Fewest chunks over all maximal unigram alignments.

    Exhaustive depth-first search over which occurrences align, visited in
    greedy-leftmost order so the first completed alignment is the greedy
    one; beyond the search budget the best alignment found so far wins.
    """
    ref_positions: dict[str, list[int]] = {}
    for pos, token in enumerate(ref):
        if token in match_quota:
            ref_positions.setdefault(token, []).append(pos)

    # later[pos]: occurrences of hyp[pos] after pos.  A token's quota only
    # shrinks, so while it is open every earlier occurrence was visited
    # with it open, and later[pos] is what remains to fill it.
    later = [0] * len(hyp)
    seen: Counter = Counter()
    for pos in range(len(hyp) - 1, -1, -1):
        later[pos] = seen[hyp[pos]]
        seen[hyp[pos]] += 1

    best = math.inf
    budget = _METEOR_SEARCH_BUDGET
    # Depth-first with an explicit stack, so a hypothesis of any length
    # fits.  A frame is a node: (hyp position, quota left, ref positions
    # used, pairs so far).  Children are pushed in reverse visiting order.
    stack = [(0, dict(match_quota), frozenset(), [])]
    while stack:
        if budget <= 0 and best < math.inf:
            break
        budget -= 1
        pos, quota, used, pairs = stack.pop()
        if not quota:
            best = min(best, _chunk_count(pairs))
            continue
        if pos >= len(hyp):
            continue
        token = hyp[pos]
        left = quota.get(token, 0)
        # Skipping an occurrence is allowed only if enough later
        # occurrences remain to satisfy the quota.
        if later[pos] >= left:
            stack.append((pos + 1, quota, used, pairs))
        if not left:
            continue
        for ref_pos in reversed(ref_positions[token]):
            if ref_pos in used:
                continue
            next_quota = dict(quota)
            if left == 1:
                del next_quota[token]
            else:
                next_quota[token] = left - 1
            stack.append((pos + 1, next_quota, used | {ref_pos},
                          pairs + [(pos, ref_pos)]))
    return int(best)


def _meteor_pair(ref: Sequence[str], hyp: Sequence[str]) -> float:
    ref_counts = Counter(ref)
    hyp_counts = Counter(hyp)
    quota = {
        token: min(count, ref_counts[token])
        for token, count in hyp_counts.items() if ref_counts[token]
    }
    matches = sum(quota.values())
    if matches == 0:
        return 0.0
    precision = matches / len(hyp)
    recall = matches / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    chunks = _min_chunks(ref, hyp, quota)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def meteor(corpus: CorpusPair) -> float:
    """Mean per-pair METEOR (exact unigram matching, no stemming or synonyms).

    Per pair: m unigram matches, precision m/len(hyp), recall m/len(ref),
    F_mean = 10PR/(R+9P), penalty 0.5*(chunks/m)^3 with the chunk count
    minimised over all maximal alignments, score F_mean*(1-penalty);
    zero when there are no matches.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("METEOR over an empty corpus is undefined")
    total = 0.0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        total += _meteor_pair(ref, hyp)
    return total / len(corpus)


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert, delete, substitute all cost 1).

    Bit-parallel (Myers 1999; Hyyrö 2003), with the shorter string as the
    pattern and one Python int, of any width, per bit vector.  Bit i of
    ``vp``/``vn`` is set when row i of the current edit-table column is one
    more/one less than the row above it; ``hp``/``hn`` hold the same
    differences against the previous column.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    vp, vn = mask, 0
    distance = len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | ~(xh | vp)) & mask
        hn = vp & xh
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = hp << 1 | 1
        vp = (hn << 1 | ~(xv | hp)) & mask
        vn = hp & xv
    return distance


def exact_match(references: Sequence[str], hypotheses: Sequence[str]) -> float:
    """Fraction of pairs whose whitespace-trimmed strings are identical."""
    if len(references) != len(hypotheses):
        raise LengthMismatch(
            f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise EmptyCorpus("exact match over an empty corpus is undefined")
    hits = sum(
        1 for ref, hyp in zip(references, hypotheses)
        if ref.strip() == hyp.strip())
    return hits / len(references)
