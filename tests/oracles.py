"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity the library also computes, via a visibly
different route: full-table or list DP instead of bit-parallel words,
copied search frames instead of packed ones, permutation enumeration
instead of DFS, a hand-rolled Jacobi eigensolver instead of LAPACK, a
character cursor instead of one bracket-atom pattern, one ``float()`` call
per value instead of NumPy's text reader.  Tests compare the
two routes; the oracles must stay dumb and obvious rather than fast.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from evalkit.elements import AROMATIC_BRACKET, ELEMENTS
from evalkit.errors import InputError, UnknownSymbol, UnterminatedBracket
from evalkit.smiles import Atom, Chirality


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


def vector_rows_by_line(path, lines: list[str], expected: int) -> list[list[float]]:
    """The data rows of an embedding file whose ``lines`` (header first)
    come from ``str.splitlines``: blank lines skipped, every value read by
    ``float()``, and the first line that is not ``expected`` numbers named
    in an :class:`InputError`."""
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
