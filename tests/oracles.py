"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity the library also computes, via a visibly
different route: full-table or list DP instead of bit-parallel words,
copied search frames instead of packed ones, permutation enumeration
instead of DFS, a hand-rolled Jacobi eigensolver instead of LAPACK, a
character cursor instead of one bracket-atom pattern, one ``float()`` call
per value instead of NumPy's text reader, path readings as entry tuples
hashed byte by byte instead of base-K integers hashed through step
tables, a chunk search that walks every node instead of one that keeps
finished subtrees per state, n-gram ``Counter``s built per metric instead
of once per pair, one bond deleted at a time instead of low-links, a
SMILES parser that keeps its state on an object instead of in local
variables, one ingest function per dataset layout instead of one record
loop.
Tests compare the two routes; the oracles must stay dumb and obvious
rather than fast.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from evalkit.dataset import (
    LAYOUTS,
    _SOURCES,
    DrugRecord,
    IngestReport,
    PairSet,
    _digest,
    _read_table_rows,
)
from evalkit.elements import AROMATIC_BRACKET, ELEMENTS
from evalkit.errors import (
    DanglingBond,
    DuplicateBond,
    EmptyBranch,
    EmptyComponent,
    InputError,
    LeadingBond,
    RingBondConflict,
    SmilesParseError,
    UnbalancedParenthesis,
    UnknownSymbol,
    UnmatchedRingClosure,
    UnterminatedBracket,
    read_jsonl_objects,
)
from evalkit.fingerprints import FNV_OFFSET, FNV_PRIME, Fingerprint
from evalkit.smiles import (
    _BOND_SYMBOLS,
    Atom,
    Bond,
    BondOrder,
    Chirality,
    Molecule,
    _bracket_atom,
    _default_order,
    _organic_atom,
)
from evalkit.textmetrics import _chunk_floor
from evalkit.tokenizer import TOKEN_RE


def levenshtein_full_table(a: str, b: str) -> int:
    """Classic (m+1) x (n+1) dynamic-programming matrix, kept whole."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[m][n]


def lcs_length_table(a, b) -> int:
    """Longest common subsequence by the rolling-row O(nm) list DP."""
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


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    # pairs are (hyp position, ref position) sorted by hyp position
    chunks = 1
    for (h0, r0), (h1, r1) in zip(pairs, pairs[1:]):
        if h1 != h0 + 1 or r1 != r0 + 1:
            chunks += 1
    return chunks


def meteor_min_chunks_dfs(ref, hyp, match_quota: dict, budget: int) -> int:
    """METEOR's fewest-chunks search as one node per copied frame.

    Each frame carries its own quota dict, used-position set and pair
    list, and each finished alignment is re-walked to count its chunks.
    Same visiting order and budget rule as the library: one unit per
    popped frame, stopping once the budget is spent and an alignment is
    found.  With a budget above the node count the search is exhaustive.
    """
    ref_positions: dict[str, list[int]] = {}
    for pos, token in enumerate(ref):
        if token in match_quota:
            ref_positions.setdefault(token, []).append(pos)

    later = [0] * len(hyp)
    seen: Counter = Counter()
    for pos in range(len(hyp) - 1, -1, -1):
        later[pos] = seen[hyp[pos]]
        seen[hyp[pos]] += 1

    best = math.inf
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


def meteor_min_chunks_packed(ref, hyp, match_quota: dict, budget: int) -> int:
    """METEOR's fewest-chunks search on packed frames, with no memo.

    Fewest chunks over all maximal unigram alignments.  Exhaustive
    depth-first search over which occurrences align, visited in
    greedy-leftmost order so the first completed alignment is the greedy
    one; beyond the search budget the best alignment found so far wins.
    The search also stops once an alignment reaches :func:`_chunk_floor`:
    no alignment has fewer chunks, so the rest could not change the answer.
    Every node of the search tree is popped and charged one unit of
    ``budget``, however often its state recurs.
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
    # with it open, and later[pos] is what remains to fill it.
    later = [0] * len(hyp)
    seen: Counter = Counter()
    for pos in range(len(hyp) - 1, -1, -1):
        later[pos] = seen[hyp[pos]]
        seen[hyp[pos]] += 1

    floor = _chunk_floor(ref, hyp, sum(match_quota.values()))
    best = math.inf
    # Depth-first with an explicit stack, so a hypothesis of any length
    # fits.  A frame is a node: (hyp position, quota left, bitmask of ref
    # positions used, chunks so far, ref position matched at pos - 1 or
    # -2).  A match at r starts a chunk unless it follows that position.
    # Children are pushed in reverse visiting order.
    stack = [(0, quota, 0, 0, -2)]
    while stack:
        if budget <= 0 and best < math.inf:
            break
        budget -= 1
        pos, quota, used, chunks, prev = stack.pop()
        if not quota:
            if chunks < best:
                best = chunks
                if best <= floor:
                    break
            continue
        if pos >= len(hyp):
            continue
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


def _counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_by_counters(corpus, max_n: int, epsilon: float) -> float:
    """Corpus BLEU, each pair's n-gram ``Counter``s built afresh per order.

    Uniform n-gram weights and brevity penalty.  Clipped n-gram matches
    and totals are pooled over the whole corpus before forming precisions.
    A zero numerator is replaced by ``epsilon`` (additive smoothing on the
    numerator only); a zero denominator, which occurs when every
    hypothesis is shorter than n, is floored at one.
    """
    clipped = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _counts(ref, n)
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


def rouge_n_by_counters(corpus, n: int) -> float:
    """Mean per-pair ROUGE-n F1, the n-gram ``Counter``s built afresh."""
    total = 0.0
    for ref, hyp in zip(corpus.references, corpus.hypotheses):
        ref_counts = _counts(ref, n)
        hyp_counts = _counts(hyp, n)
        overlap = sum(
            min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
        hyp_total = sum(hyp_counts.values())
        ref_total = sum(ref_counts.values())
        if hyp_total + ref_total:
            total += 2 * overlap / (hyp_total + ref_total)
    return total / len(corpus)


def path_descriptors_by_permutation(mol, max_path_bonds: int) -> set[tuple]:
    """All canonical path descriptors, found by brute permutation search.

    Feasible only for tiny molecules: every ordered atom sequence of each
    length is tested for consecutive adjacency.  Descriptor construction is
    deliberately written from scratch rather than imported.
    """
    n = len(mol.atoms)
    adjacent: dict[tuple[int, int], object] = {}
    for bond in mol.bonds:
        adjacent[(bond.from_idx, bond.to_idx)] = bond
        adjacent[(bond.to_idx, bond.from_idx)] = bond

    found: set[tuple] = set()
    for length in range(2, min(n, max_path_bonds + 1) + 1):
        for sequence in itertools.permutations(range(n), length):
            bonds = []
            ok = True
            for u, v in zip(sequence, sequence[1:]):
                bond = adjacent.get((u, v))
                if bond is None:
                    ok = False
                    break
                bonds.append(bond)
            if not ok:
                continue
            entries = []
            for pos, atom_idx in enumerate(sequence):
                atom = mol.atoms[atom_idx]
                code = bonds[pos].order.value if pos < len(bonds) else 0
                entries.append((atom.element, int(atom.aromatic), code))
            reverse = []
            for pos in range(len(sequence) - 1, -1, -1):
                atom = mol.atoms[sequence[pos]]
                code = bonds[pos - 1].order.value if pos > 0 else 0
                reverse.append((atom.element, int(atom.aromatic), code))
            found.add(min(tuple(entries), tuple(reverse)))
    return found


def bridges_by_deletion(mol) -> set[int]:
    """Index of each bond whose two ends are disconnected once it is
    removed, found by one reachability search per bond: O(m·(n+m))."""
    adjacent: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(mol.atoms))}
    for i, bond in enumerate(mol.bonds):
        adjacent[bond.from_idx].append((bond.to_idx, i))
        adjacent[bond.to_idx].append((bond.from_idx, i))
    found = set()
    for skipped, bond in enumerate(mol.bonds):
        reached = {bond.from_idx}
        frontier = [bond.from_idx]
        while frontier:
            for far, i in adjacent[frontier.pop()]:
                if i != skipped and far not in reached:
                    reached.add(far)
                    frontier.append(far)
        if bond.to_idx not in reached:
            found.add(skipped)
    return found


def jacobi_eigh(matrix: list[list[float]], sweeps: int = 100,
                tolerance: float = 1e-14) -> tuple[list[float], list[list[float]]]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvectors[k] the unit vector
    for eigenvalues[k], both ordered ascending.  Plain lists throughout; no
    numpy on this code path.
    """
    n = len(matrix)
    a = [row[:] for row in matrix]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    for _ in range(sweeps):
        off = math.sqrt(sum(
            a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tolerance:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < tolerance / (n * n + 1):
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq

    eigenvalues = [a[i][i] for i in range(n)]
    eigenvectors = [[v[i][k] for i in range(n)] for k in range(n)]
    order = sorted(range(n), key=lambda k: eigenvalues[k])
    return ([eigenvalues[k] for k in order],
            [eigenvectors[k] for k in order])


def _mat_mul(x: list[list[float]], y: list[list[float]]) -> list[list[float]]:
    n, m, p = len(x), len(y), len(y[0])
    out = [[0.0] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            xik = x[i][k]
            if xik == 0.0:
                continue
            for j in range(p):
                out[i][j] += xik * y[k][j]
    return out


def _psd_sqrt_jacobi(matrix: list[list[float]]) -> list[list[float]]:
    eigenvalues, eigenvectors = jacobi_eigh(matrix)
    n = len(matrix)
    roots = [math.sqrt(max(w, 0.0)) for w in eigenvalues]
    q = [[eigenvectors[k][i] for k in range(n)] for i in range(n)]  # columns
    scaled = [[q[i][k] * roots[k] for k in range(n)] for i in range(n)]
    qt = [[q[j][i] for j in range(n)] for i in range(n)]
    return _mat_mul(scaled, qt)


def frechet_distance_jacobi(mean_a: list[float], cov_a: list[list[float]],
                            mean_b: list[float], cov_b: list[list[float]]) -> float:
    """Frechet distance computed entirely with the Jacobi eigensolver."""
    n = len(mean_a)
    root_a = _psd_sqrt_jacobi(cov_a)
    inner = _mat_mul(_mat_mul(root_a, cov_b), root_a)
    inner = [[(inner[i][j] + inner[j][i]) / 2.0 for j in range(n)]
             for i in range(n)]
    eigenvalues, _ = jacobi_eigh(inner)
    trace_root = sum(math.sqrt(max(w, 0.0)) for w in eigenvalues)
    mean_term = sum((x - y) ** 2 for x, y in zip(mean_a, mean_b))
    trace_a = sum(cov_a[i][i] for i in range(n))
    trace_b = sum(cov_b[i][i] for i in range(n))
    return max(mean_term + trace_a + trace_b - 2.0 * trace_root, 0.0)


def gaussian_fit_exact(rows: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Column means and the (N-1)-normalised covariance in rational
    arithmetic, each rounded once to the nearest float."""
    n, dim = len(rows), len(rows[0])
    exact = [[Fraction(x) for x in row] for row in rows]
    mean = [sum(row[j] for row in exact) / n for j in range(dim)]
    centred = [[x - m for x, m in zip(row, mean)] for row in exact]
    cov = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            cov[i][j] = cov[j][i] = float(sum(row[i] * row[j] for row in centred) / (n - 1))
    return [float(m) for m in mean], cov


class _Cursor:
    """Character cursor over the inside of a bracket atom."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int):
        self.text = text
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def take_digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        return self.text[start:self.pos]


def _read_bracket_symbol(cur: _Cursor) -> tuple[str, bool]:
    ch = cur.peek()
    if ch.islower():
        two = cur.text[cur.pos:cur.pos + 2]
        if two in AROMATIC_BRACKET:
            cur.pos += 2
            return two.capitalize(), True
        if ch in AROMATIC_BRACKET:
            cur.take()
            return ch.upper(), True
        raise UnknownSymbol(f"unknown aromatic symbol {ch!r} in bracket", cur.pos)
    if ch.isupper():
        two = cur.text[cur.pos:cur.pos + 2]
        if len(two) == 2 and two[1].islower() and two in ELEMENTS:
            cur.pos += 2
            return two, False
        if ch in ELEMENTS:
            cur.take()
            return ch, False
        raise UnknownSymbol(f"unknown element symbol {ch!r} in bracket", cur.pos)
    raise UnknownSymbol(f"expected an element symbol, found {ch!r}", cur.pos)


def bracket_atom_by_cursor(text: str, start: int) -> Atom:
    """Read the bracket atom whose ``[`` is at ``start`` one character at a
    time; raises when no ``]`` closes it.  Digit runs are not bounded."""
    cur = _Cursor(text, start + 1)
    digits = cur.take_digits()
    isotope = int(digits) if digits else None

    if not cur.peek():
        raise UnterminatedBracket("bracket atom never closed", start)
    element, aromatic = _read_bracket_symbol(cur)

    chirality = None
    if cur.peek() == "@":
        cur.take()
        if cur.peek() == "@":
            cur.take()
            chirality = Chirality.CLOCKWISE
        else:
            chirality = Chirality.COUNTERCLOCKWISE

    h_count = 0
    if cur.peek() == "H":
        cur.take()
        digits = cur.take_digits()
        h_count = int(digits) if digits else 1

    charge = 0
    if cur.peek() in ("+", "-"):
        sign = 1 if cur.take() == "+" else -1
        digits = cur.take_digits()
        if digits:
            charge = sign * int(digits)
        else:
            charge = sign
            while cur.peek() == ("+" if sign > 0 else "-"):
                cur.take()
                charge += sign

    if cur.peek() == ":":  # atom class: accepted and discarded
        cur.take()
        if not cur.take_digits():
            raise UnknownSymbol("atom class marker ':' without digits", cur.pos)

    if cur.peek() != "]":
        if not cur.peek():
            raise UnterminatedBracket("bracket atom never closed", start)
        raise UnknownSymbol(
            f"unexpected {cur.peek()!r} inside bracket atom", cur.pos)
    return Atom(
        element=element,
        aromatic=aromatic,
        formal_charge=charge,
        explicit_h_count=h_count,
        isotope=isotope,
        chirality=chirality,
        in_bracket=True,
    )


# The parser as it was before ``smiles.parse_smiles`` kept its state in
# local variables: one object per parse, nine attributes and four helper
# methods.
class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.bond_pairs: set[tuple[int, int]] = set()
        self.prev: int | None = None
        self.pending: BondOrder | None = None
        self.pending_offset = 0
        # each entry: (attachment atom, atom count at open, offset of '(')
        self.branch_stack: list[tuple[int, int, int]] = []
        # ring number -> (atom index, bond order written at open, offset)
        self.open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}

    # -- helpers -------------------------------------------------------------

    def _take_pending(self) -> BondOrder | None:
        order = self.pending
        self.pending = None
        return order

    def _add_bond(self, a: int, b: int, order: BondOrder, offset: int) -> None:
        pair = (a, b) if a < b else (b, a)
        if pair in self.bond_pairs:
            raise DuplicateBond(
                f"second bond between atoms {pair[0]} and {pair[1]}", offset)
        self.bond_pairs.add(pair)
        self.bonds.append(Bond(a, b, order))

    def _add_atom(self, atom: Atom, offset: int) -> None:
        idx = len(self.atoms)
        self.atoms.append(atom)
        if self.prev is not None:
            order = self._take_pending() or _default_order(self.atoms[self.prev], atom)
            self._add_bond(self.prev, idx, order, offset)
        self.prev = idx

    def _ring_closure(self, number: int, offset: int) -> None:
        if self.prev is None:
            raise LeadingBond("ring closure before any atom", offset)
        order = self._take_pending()
        if number not in self.open_rings:
            self.open_rings[number] = (self.prev, order, offset)
            return
        other, other_order, _ = self.open_rings.pop(number)
        if other == self.prev:
            raise UnmatchedRingClosure(
                f"ring bond {number} opened and closed on the same atom", offset)
        if order is not None and other_order is not None and order is not other_order:
            raise RingBondConflict(
                f"ring bond {number} written as {other_order.name.lower()} on one "
                f"end and {order.name.lower()} on the other", offset)
        resolved = (order or other_order
                    or _default_order(self.atoms[other], self.atoms[self.prev]))
        self._add_bond(other, self.prev, resolved, offset)

    # -- main loop -------------------------------------------------------------

    def parse(self) -> Molecule:
        text = self.text
        if not text:
            raise SmilesParseError("empty SMILES string")
        for match in TOKEN_RE.finditer(text):
            kind = match.lastgroup
            token = match.group()
            offset = match.start()

            if (kind == "single_char_atom" or kind == "aromatic_atom"
                    or kind == "two_char_element"):
                self._add_atom(_organic_atom(token), offset)
            elif kind == "bracket_atom" or token == "[":
                # A '[' that no ']' follows is lexically illegal; reading it
                # as a bracket atom reports what is wrong inside it first.
                self._add_atom(_bracket_atom(text, offset), offset)
            elif kind == "ring_digit":
                self._ring_closure(int(token), offset)
            elif kind == "percent_ring":
                self._ring_closure(int(token[1:]), offset)
            elif kind == "bond":
                if self.prev is None:
                    raise LeadingBond(f"bond {token!r} before any atom", offset)
                if self.pending is not None:
                    raise DanglingBond(
                        "bond symbol followed by another bond symbol", offset)
                self.pending = _BOND_SYMBOLS[token]
                self.pending_offset = offset
            elif kind == "branch_open":
                if self.prev is None:
                    raise UnbalancedParenthesis("branch opened before any atom", offset)
                if self.pending is not None:
                    raise DanglingBond("bond symbol before a branch opening", offset)
                self.branch_stack.append((self.prev, len(self.atoms), offset))
            elif kind == "branch_close":
                if self.pending is not None:
                    raise DanglingBond("bond symbol at the end of a branch", offset)
                if not self.branch_stack:
                    raise UnbalancedParenthesis("')' without matching '('", offset)
                attach, count_at_open, _ = self.branch_stack.pop()
                if len(self.atoms) == count_at_open:
                    raise EmptyBranch("branch contains no atoms", offset)
                self.prev = attach
            elif kind == "dot":
                if self.pending is not None:
                    raise DanglingBond("bond symbol before a dot separator", offset)
                if self.prev is None:
                    raise EmptyComponent("dot separator with no atoms before it", offset)
                self.prev = None
            elif token == "%":
                raise UnknownSymbol("'%' ring closure needs two digits", offset)
            else:
                raise UnknownSymbol(f"unexpected character {token!r}", offset)

        if self.pending is not None:
            raise DanglingBond(
                "bond symbol at end of input", self.pending_offset)
        if self.branch_stack:
            raise UnbalancedParenthesis(
                "'(' without matching ')'", self.branch_stack[-1][2])
        if self.open_rings:
            number, (_, _, offset) = min(self.open_rings.items(), key=lambda kv: kv[1][2])
            raise UnmatchedRingClosure(f"ring bond {number} never closed", offset)
        if self.prev is None and self.atoms:
            raise EmptyComponent("dot separator at end of input", len(text) - 1)
        return Molecule(tuple(self.atoms), tuple(self.bonds), text)



def parse_smiles_by_state_class(text: str) -> Molecule:
    """Parse ``text`` with :class:`_Parser`, raising what it raises."""
    return _Parser(text).parse()


def vector_rows_by_line(path, lines: list[str], expected: int) -> list[list[float]]:
    """The data rows of an embedding file whose ``lines`` (header first)
    are those ``open()`` reads, without their line ends: blank lines
    skipped, every value read by ``float()``, and the first line that is
    not ``expected`` numbers named in an :class:`InputError`."""
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != expected:
            raise InputError(
                f"{path} line {lineno}: expected {expected} values, got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise InputError(
                f"{path} line {lineno}: non-numeric value") from None
    return rows


# --- fingerprints on entry tuples --------------------------------------------

_MASK64 = (1 << 64) - 1


def _fnv1a64_extend(value: int, data: bytes) -> int:
    """FNV-1a state ``value`` after hashing ``data`` onto it, a byte at a
    time."""
    for byte in data:
        value ^= byte
        value = (value * FNV_PRIME) & _MASK64
    return value


def _fnv1a64(data: bytes) -> int:
    return _fnv1a64_extend(FNV_OFFSET, data)


def path_descriptors_by_entry_tuples(mol, max_path_bonds: int = 7) -> set[tuple]:
    """Canonical descriptors of every simple path of 1..max_path_bonds bonds.

    Each undirected path is recorded once, from its lower-numbered end
    atom; both readings are tuples of (element, aromatic flag, bond code)
    entries grown as the search extends the path, and the smaller tuple is
    kept.
    """
    if max_path_bonds < 1:
        return set()
    atoms = mol.atoms
    entries: dict[tuple, tuple] = {}
    ends = [entries.setdefault(key, key)
            for key in ((a.element, int(a.aromatic), 0) for a in atoms)]
    steps = []
    for idx, atom in enumerate(atoms):
        row = []
        for nbr, bond in mol.neighbors[idx]:
            code = bond.order.value
            other = atoms[nbr]
            here = (atom.element, int(atom.aromatic), code)
            there = (other.element, int(other.aromatic), code)
            row.append((nbr, 1 << nbr, entries.setdefault(here, here),
                        entries.setdefault(there, there)))
        steps.append(row)

    found: set[tuple] = set()
    add = found.add
    for start in range(len(atoms)):
        stack = [(start, 1 << start, (), (ends[start],))]
        while stack:
            node, on_path, head, backward = stack.pop()
            extend = len(backward) < max_path_bonds
            for nbr, bit, here, there in steps[node]:
                if on_path & bit:
                    continue
                forward_head = head + (here,)
                reverse = (there,) + backward
                if nbr > start:
                    forward = forward_head + (ends[nbr],)
                    add(forward if forward <= reverse else reverse)
                if extend:
                    stack.append((nbr, on_path | bit, forward_head, reverse))
    return found


def _entry_bytes(entry: tuple) -> bytes:
    element, aromatic, bond_code = entry
    return f"{element},{aromatic},{bond_code}".encode("ascii")


def path_fingerprint_by_entry_tuples(mol, max_path_bonds: int = 7,
                                     width: int = 2048) -> Fingerprint:
    """Linear-path fingerprint: each descriptor of
    :func:`path_descriptors_by_entry_tuples` sets bit ``h mod width``, where
    ``h`` is the FNV-1a hash of its entries written ``e,a,b`` and joined by
    ``|``, with each (hash so far, next entry) step memoized per call."""
    first: dict[tuple, int] = {}
    after: dict[tuple[int, tuple], int] = {}
    bits = 0
    for descriptor in path_descriptors_by_entry_tuples(mol, max_path_bonds):
        head = descriptor[0]
        value = first.get(head)
        if value is None:
            value = first[head] = _fnv1a64(_entry_bytes(head))
        for entry in descriptor[1:]:
            key = (value, entry)
            value = after.get(key)
            if value is None:
                value = after[key] = _fnv1a64_extend(
                    key[0], b"|" + _entry_bytes(entry))
        bits |= 1 << (value % width)
    return Fingerprint(bits, width, "path",
                       (("max_path_bonds", max_path_bonds), ("width", width)))


def morgan_bits_by_payload_bytes(mol, radius: int, width: int) -> int:
    """Morgan bits with every payload rebuilt from strings and bytes for
    every atom at every radius, hashed byte by byte."""
    invariants = []
    for idx, atom in enumerate(mol.atoms):
        payload = "|".join((
            atom.element,
            str(len(mol.neighbors[idx])),
            str(atom.formal_charge),
            str(mol.total_h(idx)),
            str(int(atom.aromatic)),
            str(int(mol.ring_atom_flags[idx])),
        ))
        invariants.append(_fnv1a64(payload.encode("ascii")))
    bits = 0
    for inv in invariants:
        bits |= 1 << (inv % width)
    for _ in range(radius):
        updated = []
        for idx in range(len(mol.atoms)):
            pairs = sorted(
                (bond.order.value, invariants[nbr])
                for nbr, bond in mol.neighbors[idx]
            )
            payload = invariants[idx].to_bytes(8, "big") + b"".join(
                code.to_bytes(1, "big") + inv.to_bytes(8, "big")
                for code, inv in pairs
            )
            updated.append(_fnv1a64(payload))
        invariants = updated
        for inv in invariants:
            bits |= 1 << (inv % width)
    return bits


# Dataset ingestion as it was before ``dataset.ingest`` read every layout
# through one record loop: one function per layout, and a row cleaner
# that two of them share.
def _clean_row(raw_id: str, smiles: str, indication: str, source: str,
               dropped: list[str], context: str) -> DrugRecord | None:
    smiles = smiles.strip()
    indication = indication.strip()
    if not smiles or not indication:
        missing = "smiles" if not smiles else "indication"
        dropped.append(f"{context}: empty {missing}")
        return None
    return DrugRecord(id=raw_id.strip(), smiles=smiles,
                      indication=indication, source=source)


def _ingest_generic_jsonl(path: Path) -> tuple[list[DrugRecord], list[str]]:
    records: list[DrugRecord] = []
    dropped: list[str] = []
    for lineno, payload in read_jsonl_objects(path, ("smiles", "indication")):
        source = payload.get("source")
        record = _clean_row(payload["id"], payload["smiles"], payload["indication"],
                            source if source in _SOURCES else "other",
                            dropped, f"line {lineno}")
        if record:
            records.append(record)
    return records, dropped


def _ingest_drugbank_csv(path: Path) -> tuple[list[DrugRecord], list[str]]:
    records: list[DrugRecord] = []
    dropped: list[str] = []
    header = ["id", "name", "smiles", "indication"]
    for lineno, row in _read_table_rows(path, header, ","):
        record = _clean_row(row[0], row[2], row[3], "drugbank",
                            dropped, f"line {lineno}")
        if record:
            records.append(record)
    return records, dropped


def _ingest_chembl_tsv(path: Path) -> tuple[list[DrugRecord], list[str]]:
    dropped: list[str] = []
    merged: dict[str, tuple[str, list[str]]] = {}
    header = ["chembl_id", "canonical_smiles", "mesh_heading"]
    for lineno, row in _read_table_rows(path, header, "\t"):
        raw_id, smiles, heading = (f.strip() for f in row)
        if not smiles or not heading:
            missing = "canonical_smiles" if not smiles else "mesh_heading"
            dropped.append(f"line {lineno}: empty {missing}")
            continue
        if raw_id in merged:
            merged[raw_id][1].append(heading)
        else:
            merged[raw_id] = (smiles, [heading])
    records = [
        DrugRecord(id=raw_id, smiles=smiles, indication="; ".join(headings),
                   source="chembl")
        for raw_id, (smiles, headings) in merged.items()
    ]
    return records, dropped


def ingest_by_layout_functions(path, layout: str) -> tuple[PairSet, IngestReport]:
    """``dataset.ingest`` through one function per layout, raising what
    it raises."""
    path = Path(path)
    if layout == "generic_jsonl":
        records, dropped = _ingest_generic_jsonl(path)
    elif layout == "drugbank_csv":
        records, dropped = _ingest_drugbank_csv(path)
    elif layout == "chembl_tsv":
        records, dropped = _ingest_chembl_tsv(path)
    else:
        raise InputError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
    pairs = PairSet(
        records=tuple(records),
        provenance=f"{layout}:{path.name}:sha256:{_digest(path)}",
    )
    return pairs, IngestReport(kept=len(records), dropped=len(dropped),
                               messages=tuple(dropped))
