"""Reference-based text generation metrics.

Everything here scores a corpus of (reference, hypothesis) pairs.  BLEU is
corpus-level (n-gram statistics pooled before the ratio); ROUGE and METEOR
are computed per pair and averaged by :func:`_mean`, so results never depend
on iteration order of any hash container.  A corpus counts each pair's
n-grams of an order once, the first time BLEU or ROUGE-n asks for that
order, and every later BLEU or ROUGE-n score on it reads the same counts.

Tokenization is explicit, never implicit: callers choose one of the three
modes below and the choice is recorded by the harness in report metadata.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import EmptyCorpus, InputError, LengthMismatch

BLEU_EPSILON = 1e-9
# Each BLEU order is one more count over every pair; BLEU uses 4.
_MAX_BLEU_ORDER = 32

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
    from .tokenizer import tokenize  # eval-d2i never loads it

    return [token.text for token in tokenize(text)]


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

    @cached_property
    def _overlap_rows(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        # Not a field: equality, hashing and repr see the tokens only.
        return {}

    def _overlaps(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """Per pair, in row order: (clipped overlap, hyp total, ref total) of
        order-n n-grams, counted on the first call for ``n``.  The overlap
        counts each hyp n-gram at most as often as the reference holds it;
        the totals count n-grams with repeats."""
        if n not in self._overlap_rows:
            rows = []
            for ref, hyp in zip(self.references, self.hypotheses):
                ref_counts = _ngram_counts(ref, n)
                hyp_counts = _ngram_counts(hyp, n)
                rows.append((sum((hyp_counts & ref_counts).values()),
                             sum(hyp_counts.values()), sum(ref_counts.values())))
            self._overlap_rows[n] = tuple(rows)
        return self._overlap_rows[n]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    # None past the length, where n slices would make BLEU quadratic in max_n.
    if n > len(tokens):
        return Counter()
    return Counter(zip(*(tokens[k:] for k in range(n))))


def _position_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Each token of ``tokens`` -> the bitmask of the positions it holds."""
    masks: dict[str, int] = {}
    for i, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | 1 << i
    return masks


def _mean(values: Iterable) -> float:
    """The mean of ``values``, the one averaging rule of every mean column:
    summed in the order given from int 0, one ``+=`` per value, then divided
    by the count.  Ints and bools sum exactly; floats round as a plain loop
    in row order does.  Never ``sum()`` of floats, which rounds differently
    from Python 3.12 on.  An order-independent mean (the correctly rounded
    exact mean) is a change to this function alone."""
    total = count = 0
    for count, value in enumerate(values, start=1):
        total += value
    return total / count


def _require_bleu_order(max_n: int) -> None:
    if max_n < 1:
        raise InputError("max_n must be at least 1")
    if max_n > _MAX_BLEU_ORDER:
        raise InputError(f"max_n must be at most {_MAX_BLEU_ORDER}, got {max_n}")


def bleu(corpus: CorpusPair, max_n: int = 4, epsilon: float = BLEU_EPSILON) -> float:
    """Corpus BLEU with uniform n-gram weights and brevity penalty.

    Clipped n-gram matches and totals are pooled over the whole corpus
    before forming precisions.  A zero numerator is replaced by ``epsilon``
    (additive smoothing on the numerator only); a zero denominator, which
    occurs when every hypothesis is shorter than n, is floored at one.
    Each order's counts are kept on ``corpus``, so BLEU at another
    ``max_n`` and ROUGE-n on the same corpus do not count them again.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("BLEU over an empty corpus is undefined")
    _require_bleu_order(max_n)

    log_sum = 0.0
    for n in range(1, max_n + 1):
        rows = corpus._overlaps(n)
        clipped = sum(row[0] for row in rows)
        total = sum(row[1] for row in rows)
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
    peq = _position_masks(b)
    mask = (1 << len(b)) - 1
    v = mask
    for token in a:
        u = v & peq.get(token, 0)
        v = ((v + u) | (v - u)) & mask
    return len(b) - v.bit_count()


def rouge_n(corpus: CorpusPair, n: int) -> float:
    """Mean per-pair ROUGE-n F1 (clipped n-gram overlap).

    Reads the order-n counts kept on ``corpus`` when BLEU or ROUGE-n has
    counted them already.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("ROUGE over an empty corpus is undefined")
    if n < 1:
        raise InputError("n must be at least 1")
    return _mean(_f1(*row) for row in corpus._overlaps(n))


def rouge_l(corpus: CorpusPair) -> float:
    """Mean per-pair ROUGE-L F1 (longest common subsequence)."""
    if len(corpus) == 0:
        raise EmptyCorpus("ROUGE over an empty corpus is undefined")
    return _mean(_f1(_lcs_length(ref, hyp), len(hyp), len(ref))
                 for ref, hyp in zip(corpus.references, corpus.hypotheses))


def _chunk_floor(ref: Sequence[str], hyp: Sequence[str], matches: int) -> int:
    """A lower bound on the chunks of any alignment of ``matches`` pairs.

    Two matched pairs join into one chunk only as (h, r), (h + 1, r + 1):
    hyp bigram h equals ref bigram r, and each bigram occurrence on either
    side joins at most once, so the joins never exceed the clipped overlap
    of the two bigram multisets.
    """
    joins = Counter(zip(hyp, hyp[1:])) & Counter(zip(ref, ref[1:]))
    return max(1, matches - sum(joins.values()))


def _min_chunks(ref: Sequence[str], hyp: Sequence[str], match_quota: dict) -> int:
    """Fewest chunks over all maximal unigram alignments.

    Exhaustive depth-first search over which occurrences align, visited in
    greedy-leftmost order: each hyp word tries its free ref occurrences
    left to right, and going unmatched last, so the first completed
    alignment is the greedy one.  Beyond ``_METEOR_SEARCH_BUDGET`` nodes
    the best alignment found so far wins.
    The search also stops once an alignment reaches :func:`_chunk_floor`:
    no alignment has fewer chunks, so the rest could not change the answer.

    The budget counts nodes of the full search tree, memoized subtrees
    included.  A node's subtree depends only on its state (position, ref
    positions used, previous ref position), not on the chunks so far, so
    a finished subtree's node count and fewest extra chunks are kept per
    state.  A state met again whose count fits in the budget left is
    charged that count and not searched again: the full search would have
    popped all of it without stopping on the budget.  So the memo changes
    no result, only how often a subtree is walked; some long pairs still
    end on the budget.
    """
    # Per hyp position: the token's quota (0 when it has none) and its ref
    # positions as one bitmask.  Each ref position holds one token, so the
    # matches a token has made are its bits in ``used``, and its free ref
    # positions, a node's children, are the bits of ``masks[pos] & ~used``.
    ref_masks = _position_masks(ref)
    hyp_masks = _position_masks(hyp)
    need = [match_quota.get(token, 0) for token in hyp]
    masks = [ref_masks.get(token, 0) for token in hyp]

    # later[pos]: occurrences of hyp[pos] after pos.  A token's matches
    # left only shrink, so while some are left every earlier occurrence
    # was visited with some left, and later[pos] is what remains to make
    # them.  No quota ever exceeds the token's free ref positions or its
    # occurrences left in hyp, so every path ends at a leaf, a node with
    # every match made.
    later = [(hyp_masks[token] >> pos + 1).bit_count()
             for pos, token in enumerate(hyp)]

    # A state packs into one int: used, pos, then prev + 2.
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
    # fits.  A frame is a node: (hyp position, bitmask of ref positions
    # used, chunks so far, ref position matched at pos - 1 or -2).  A
    # match at r starts a chunk unless it follows that position.
    # Children are pushed in reverse visiting order, the highest free ref
    # position first so that the lowest is visited first, above a None
    # that closes their parent's subtree once they are all done.
    stack: list = [(0, 0, 0, -2)]
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
        pos, used, chunks, prev = node
        if used.bit_count() == matches:
            # A leaf is a kept subtree of one node that adds no chunks.
            reached = chunks
        else:
            state = used << pos_bits | pos << prev_bits | prev + 2
            entry = memo.get(state)
            # The full search would pop all of a kept subtree that fits
            # in the budget left, this node's unit already charged.
            if entry is None or (nodes := entry >> extra_bits) > budget + 1:
                path.append((state, chunks, budget + 1, low))
                low = math.inf
                stack.append(None)
                left = need[pos] - (used & masks[pos]).bit_count()
                # Skipping an occurrence is allowed only if enough later
                # occurrences remain to make the matches left.
                if later[pos] >= left:
                    stack.append((pos + 1, used, chunks, -2))
                if left:
                    free = masks[pos] & ~used
                    while free:
                        ref_pos = free.bit_length() - 1
                        free ^= 1 << ref_pos
                        stack.append((pos + 1, used | 1 << ref_pos,
                                      chunks + (ref_pos != prev + 1), ref_pos))
                continue
            budget -= nodes - 1
            reached = chunks + (entry & extra_mask)
        if reached < low:
            low = reached
        if reached < best:
            best = reached
            if best <= floor:
                break
    return int(best)


def _meteor_pair(ref: Sequence[str], hyp: Sequence[str]) -> float:
    quota = Counter(hyp) & Counter(ref)
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

    The chunk minimum comes from a search (:func:`_min_chunks`) that
    stops after ``_METEOR_SEARCH_BUDGET`` (100,000) nodes of the full
    search tree and keeps the best alignment found.  Subtrees it does not
    walk again are still charged to that budget, so no score depends on
    its memo.  Some long pairs end on the budget; their chunk count may
    then exceed the true minimum, and their METEOR fall below the exact
    value.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("METEOR over an empty corpus is undefined")
    return _mean(map(_meteor_pair, corpus.references, corpus.hypotheses))


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
    peq = _position_masks(b)
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
    return _mean(ref.strip() == hyp.strip()
                 for ref, hyp in zip(references, hypotheses))
