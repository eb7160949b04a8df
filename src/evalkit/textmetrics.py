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
# search nodes; when the budget runs out, the best alignment found so far
# wins.
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


Overlaps = dict[int, tuple[tuple[int, int, int], ...]]


def ngram_overlaps(corpus: CorpusPair, orders: Iterable[int]) -> Overlaps:
    """Per n-gram order, per pair: (clipped overlap, hyp total, ref total).

    The clipped overlap counts each hyp n-gram at most as often as the
    reference holds it; the totals count n-grams with repeats.  Computing
    them once lets BLEU at several orders and ROUGE-n share one count of
    each pair's n-grams: pass the result to :func:`bleu` and
    :func:`rouge_n` as ``overlaps``.
    """
    result: Overlaps = {}
    for n in orders:
        rows = []
        for ref, hyp in zip(corpus.references, corpus.hypotheses):
            ref_counts = _ngram_counts(ref, n)
            hyp_counts = _ngram_counts(hyp, n)
            rows.append((
                sum(min(count, ref_counts[gram])
                    for gram, count in hyp_counts.items()),
                sum(hyp_counts.values()), sum(ref_counts.values())))
        result[n] = tuple(rows)
    return result


def bleu(corpus: CorpusPair, max_n: int = 4, epsilon: float = BLEU_EPSILON,
         overlaps: Overlaps | None = None) -> float:
    """Corpus BLEU with uniform n-gram weights and brevity penalty.

    Clipped n-gram matches and totals are pooled over the whole corpus
    before forming precisions.  A zero numerator is replaced by ``epsilon``
    (additive smoothing on the numerator only); a zero denominator, which
    occurs when every hypothesis is shorter than n, is floored at one.
    ``overlaps``, from :func:`ngram_overlaps` over at least orders
    1..max_n of this corpus, saves counting the n-grams again.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("BLEU over an empty corpus is undefined")
    if max_n < 1:
        raise InputError("max_n must be at least 1")
    if overlaps is None:
        overlaps = ngram_overlaps(corpus, range(1, max_n + 1))

    log_sum = 0.0
    for n in range(1, max_n + 1):
        clipped = sum(row[0] for row in overlaps[n])
        total = sum(row[1] for row in overlaps[n])
        numerator = clipped if clipped > 0 else epsilon
        precision = numerator / max(total, 1)
        log_sum += math.log(precision) / max_n

    hyp_len = sum(map(len, corpus.hypotheses))
    ref_len = sum(map(len, corpus.references))
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
    # Bit-parallel LCS (Allison & Dix 1986; Hyyrö 2004) over one Python
    # int, with the shorter sequence as the pattern: bit i of v is clear
    # when the LCS of b[:i + 1] with the tokens of a read so far is one
    # more than that of b[:i], so the clear bits add up to the LCS.
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    peq: dict[str, int] = {}
    for i, token in enumerate(b):
        peq[token] = peq.get(token, 0) | 1 << i
    mask = (1 << len(b)) - 1
    v = mask
    for token in a:
        u = v & peq.get(token, 0)
        v = ((v + u) | (v - u)) & mask
    return len(b) - v.bit_count()


def rouge_n(corpus: CorpusPair, n: int, overlaps: Overlaps | None = None) -> float:
    """Mean per-pair ROUGE-n F1 (clipped n-gram overlap).

    ``overlaps``, from :func:`ngram_overlaps` over order n of this
    corpus, saves counting the n-grams again.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("ROUGE over an empty corpus is undefined")
    if overlaps is None:
        overlaps = ngram_overlaps(corpus, (n,))
    total = 0.0
    for overlap, hyp_total, ref_total in overlaps[n]:
        total += _f1(overlap, hyp_total, ref_total)
    return total / len(corpus)


def rouge_l(corpus: CorpusPair) -> float:
    """Mean per-pair ROUGE-L F1 (longest common subsequence)."""
    if len(corpus) == 0:
        raise EmptyCorpus("ROUGE over an empty corpus is undefined")
    total = 0.0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        total += _f1(_lcs_length(ref, hyp), len(hyp), len(ref))
    return total / len(corpus)


def _chunk_floor(ref: Sequence[str], hyp: Sequence[str], matches: int) -> int:
    """A lower bound on the chunks of any alignment of ``matches`` pairs.

    Two matched pairs join into one chunk only as (h, r), (h + 1, r + 1):
    hyp bigram h equals ref bigram r, and each bigram occurrence on either
    side joins at most once, so the joins never exceed the clipped overlap
    of the two bigram multisets.
    """
    ref_bigrams = Counter(zip(ref, ref[1:]))
    joins = sum(min(count, ref_bigrams[gram])
                for gram, count in Counter(zip(hyp, hyp[1:])).items())
    return max(1, matches - joins)


def _min_chunks(ref: Sequence[str], hyp: Sequence[str], match_quota: dict) -> int:
    """Fewest chunks over all maximal unigram alignments.

    Exhaustive depth-first search over which occurrences align, visited in
    greedy-leftmost order so the first completed alignment is the greedy
    one; beyond the search budget the best alignment found so far wins.
    The search also stops once an alignment reaches :func:`_chunk_floor`:
    no alignment has fewer chunks, so the rest could not change the answer.

    The budget counts nodes of the full search tree, memoized subtrees
    included.  A node's subtree depends only on its state (position,
    quota left, ref positions used, previous ref position), not on the
    chunks so far, so a finished subtree's node count and fewest extra
    chunks are kept per state.  A state met again whose count fits in the
    budget left is charged that count and not searched again: the full
    search would have popped all of it without stopping on the budget.
    So the memo changes no result, only how often a subtree is walked;
    some long pairs still end on the budget.
    """
    # Each token's remaining quota is a bit field of one int; field 0 is
    # never filled and stands for every hyp token the quota does not hold.
    width = max(match_quota.values()).bit_length()
    field = (1 << width) - 1
    shift_of: dict[str, int] = {}
    quota = 0
    for i, (token, count) in enumerate(match_quota.items(), start=1):
        shift_of[token] = i * width
        quota |= count << i * width
    shifts = [shift_of.get(token, 0) for token in hyp]

    # Ref positions of each matched token, last first: the push order.
    ref_positions: dict[str, list[int]] = {}
    for pos in range(len(ref) - 1, -1, -1):
        if ref[pos] in shift_of:
            ref_positions.setdefault(ref[pos], []).append(pos)
    candidates = [ref_positions.get(token, ()) for token in hyp]

    # later[pos]: occurrences of hyp[pos] after pos.  A token's quota only
    # shrinks, so while it is open every earlier occurrence was visited
    # with it open, and later[pos] is what remains to fill it.  No quota
    # ever exceeds the token's free ref positions or its occurrences left
    # in hyp, so every path ends at a leaf with the quota filled.
    later = [0] * len(hyp)
    seen: Counter = Counter()
    for pos in range(len(hyp) - 1, -1, -1):
        later[pos] = seen[hyp[pos]]
        seen[hyp[pos]] += 1

    # A state packs into one int: used, pos, then prev + 2.  The quota
    # left follows from used, as each ref position holds one token.
    prev_bits = (len(ref) + 1).bit_length()
    pos_bits = len(hyp).bit_length() + prev_bits

    matches = sum(match_quota.values())
    floor = _chunk_floor(ref, hyp, matches)
    best = math.inf
    budget = _METEOR_SEARCH_BUDGET
    # State -> nodes in its subtree << extra_bits | the fewest chunks a
    # leaf below it adds (at most matches).  Leaves are not kept.
    extra_bits = matches.bit_length()
    extra_mask = (1 << extra_bits) - 1
    memo: dict[int, int] = {}
    # Fewest chunks at a leaf since the innermost open subtree began.
    low = math.inf
    # Per open subtree: (state, chunks, budget before its root was
    # charged, low outside it).  Its node count is the budget it used.
    path: list[tuple] = []
    # Depth-first with an explicit stack, so a hypothesis of any length
    # fits.  A frame is a node: (hyp position, quota left, bitmask of ref
    # positions used, chunks so far, ref position matched at pos - 1 or
    # -2).  A match at r starts a chunk unless it follows that position.
    # Children are pushed in reverse visiting order, above a None that
    # closes their parent's subtree once they are all done.
    stack: list = [(0, quota, 0, 0, -2)]
    while stack:
        node = stack.pop()
        if node is None:
            state, chunks, start, outer = path.pop()
            memo[state] = (start - budget) << extra_bits | low - chunks
            if outer < low:
                low = outer
            continue
        if budget <= 0 and best < math.inf:
            break
        budget -= 1
        pos, quota, used, chunks, prev = node
        if not quota:
            if chunks < low:
                low = chunks
            if chunks < best:
                best = chunks
                if best <= floor:
                    break
            continue
        state = used << pos_bits | pos << prev_bits | prev + 2
        entry = memo.get(state)
        # The full search would pop all of a kept subtree that fits in
        # the budget left, this node's unit already charged.
        if entry is not None and (nodes := entry >> extra_bits) <= budget + 1:
            budget -= nodes - 1
            reached = chunks + (entry & extra_mask)
            if reached < low:
                low = reached
            if reached < best:
                best = reached
                if best <= floor:
                    break
            continue
        path.append((state, chunks, budget + 1, low))
        low = math.inf
        stack.append(None)
        shift = shifts[pos]
        left = quota >> shift & field
        # Skipping an occurrence is allowed only if enough later
        # occurrences remain to satisfy the quota.
        if later[pos] >= left:
            stack.append((pos + 1, quota, used, chunks, -2))
        if not left:
            continue
        quota -= 1 << shift
        for ref_pos in candidates[pos]:
            if used >> ref_pos & 1:
                continue
            stack.append((pos + 1, quota, used | 1 << ref_pos,
                          chunks + (ref_pos != prev + 1), ref_pos))
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

    The chunk search is depth-first in greedy-leftmost order: each hyp
    word tries its free ref occurrences left to right, and going unmatched
    last, so the first alignment found is the greedy one.  Past
    ``_METEOR_SEARCH_BUDGET`` (100,000) nodes of the full search tree it
    keeps the best alignment found.  A subtree met again from the same
    search state is not walked again, but its nodes are still charged to
    the budget, so no score depends on that memo.  The search stops early
    once an alignment has ``max(1, m - joins)`` chunks, where joins is the
    clipped overlap of the hyp and ref bigram multisets: two pairs share a
    chunk only across equal bigrams, each used at most once, so no
    alignment has fewer chunks and stopping there gives the same answer.
    Some long pairs still end on the budget above that floor; their chunk
    count may then exceed the true minimum.
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
