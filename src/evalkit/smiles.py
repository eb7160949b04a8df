"""SMILES parsing, structural validation, and elementary molecular properties.

The grammar covered here is the organic subset plus bracket atoms (isotope,
chirality, explicit hydrogen count, formal charge, atom class; numbers of at
most nine digits), branches, ring closures written as single digits or
``%nn``, aromatic atoms and bonds, directional bonds (``/`` and ``\\``,
recorded as plain single bonds), and dot-separated fragments.  Parsing
never canonicalises and never mutates the input; a parsed :class:`Molecule`
keeps the source string it came from.

Stereochemistry is read but not interpreted: chirality markers are stored on
the atom, bond direction is discarded.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property

from .elements import (
    AROMATIC_BRACKET,
    AROMATIC_CAPABLE,
    DEFAULT_VALENCES,
    ELEMENTS,
)
from .errors import (
    DanglingBond,
    DuplicateBond,
    EmptyBranch,
    EmptyComponent,
    LeadingBond,
    RingBondConflict,
    SmilesParseError,
    UnbalancedParenthesis,
    UnknownSymbol,
    UnmatchedRingClosure,
    UnterminatedBracket,
)
from .tokenizer import TOKEN_RE


class BondOrder(enum.Enum):
    """Bond orders distinguished by the grammar.

    The numeric values double as the deterministic byte codes used in
    fingerprint hashing, so they must never be renumbered.
    """

    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    QUADRUPLE = 4
    AROMATIC = 5

    @property
    def valence_units(self) -> float:
        """Contribution of one such bond to a strict valence sum."""
        return 1.5 if self is BondOrder.AROMATIC else float(self.value)


_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    "$": BondOrder.QUADRUPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,
    "\\": BondOrder.SINGLE,
}


class Chirality(enum.Enum):
    COUNTERCLOCKWISE = "@"
    CLOCKWISE = "@@"


@dataclass(frozen=True)
class Atom:
    """One atom as written.  ``element`` is always the capitalised symbol;
    aromaticity is carried separately in ``aromatic``."""

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h_count: int | None = None
    isotope: int | None = None
    chirality: Chirality | None = None
    in_bracket: bool = False

    def __post_init__(self) -> None:
        if self.element not in ELEMENTS:
            raise ValueError(f"unrecognised element symbol {self.element!r}")
        if self.aromatic and self.element not in AROMATIC_CAPABLE:
            raise ValueError(f"element {self.element!r} cannot be aromatic")
        if self.explicit_h_count is not None and not self.in_bracket:
            raise ValueError("explicit hydrogen counts exist only in brackets")


@dataclass(frozen=True)
class Bond:
    """An undirected bond between two atom indices (``from_idx < to_idx`` is
    not guaranteed; the pair is simply the order of appearance)."""

    from_idx: int
    to_idx: int
    order: BondOrder

    def __post_init__(self) -> None:
        if self.from_idx == self.to_idx:
            raise ValueError("a bond cannot join an atom to itself")


@dataclass(frozen=True)
class Molecule:
    """A parsed molecular graph.  May be disconnected (dot-separated input)."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source: str = ""

    @cached_property
    def neighbors(self) -> tuple[tuple[tuple[int, Bond], ...], ...]:
        """Per-atom tuple of ``(neighbor_index, bond)`` pairs, in bond order."""
        adj: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.from_idx].append((bond.to_idx, bond))
            adj[bond.to_idx].append((bond.from_idx, bond))
        return tuple(tuple(entries) for entries in adj)

    @cached_property
    def ring_bond_flags(self) -> tuple[bool, ...]:
        """True for each bond that lies on at least one cycle (a non-bridge)."""
        bridges = _find_bridges(self)
        return tuple(id(bond) not in bridges for bond in self.bonds)

    @cached_property
    def ring_atom_flags(self) -> tuple[bool, ...]:
        flags = [False] * len(self.atoms)
        for bond, in_ring in zip(self.bonds, self.ring_bond_flags):
            if in_ring:
                flags[bond.from_idx] = True
                flags[bond.to_idx] = True
        return tuple(flags)

    @cached_property
    def ring_sizes(self) -> frozenset[int]:
        """Sizes of the smallest cycle through each ring bond."""
        return frozenset(_shortest_path_avoiding(self, bond) + 1
                         for bond, in_ring in zip(self.bonds, self.ring_bond_flags)
                         if in_ring)

    @cached_property
    def implicit_h(self) -> tuple[int, ...]:
        """Implicit hydrogen count per atom.

        Bracket atoms get no implicit hydrogens (their count is explicit or
        zero).  For bare organic-subset atoms the count fills the smallest
        allowed valence at or above the bond-order sum, with aromatic bonds
        counted as order one and one hydrogen slot surrendered by aromatic
        ring atoms; the count never goes below zero.
        """
        out = []
        for idx, atom in enumerate(self.atoms):
            if atom.in_bracket:
                out.append(0)
                continue
            allowed = DEFAULT_VALENCES.get(atom.element)
            if allowed is None:
                out.append(0)
                continue
            bond_sum = sum(
                1 if bond.order is BondOrder.AROMATIC else bond.order.value
                for _, bond in self.neighbors[idx]
            )
            target = next((v for v in allowed if v >= bond_sum), None)
            count = 0 if target is None else target - bond_sum
            if atom.aromatic and self.ring_atom_flags[idx]:
                count -= 1
            out.append(max(count, 0))
        return tuple(out)

    def total_h(self, idx: int) -> int:
        """Explicit-plus-implicit hydrogen count of atom ``idx``."""
        atom = self.atoms[idx]
        if atom.in_bracket:
            return atom.explicit_h_count or 0
        return self.implicit_h[idx]


def _find_bridges(mol: Molecule) -> set[int]:
    """The ``id()`` of each bond that is a bridge (removing one disconnects
    its component), by Tarjan's low-link rule in two passes: a depth-first
    search numbers the atoms and records the tree bond into each, then a
    walk back over the visit order takes each atom's low-link after all of
    its descendants'."""
    adj = mol.neighbors
    disc = [-1] * len(adj)
    tree_bond: list[Bond | None] = [None] * len(adj)
    order: list[int] = []
    for root in range(len(adj)):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, Bond | None]] = [(root, None)]
        while stack:
            node, in_bond = stack.pop()
            if disc[node] == -1:
                disc[node] = len(order)
                order.append(node)
                tree_bond[node] = in_bond
                stack.extend(adj[node])
    low = disc[:]
    bridges: set[int] = set()
    for node in reversed(order):
        in_bond = tree_bond[node]
        for nbr, bond in adj[node]:
            # A descendant's low-link is final by now; an ancestor's is
            # still its visit number.
            if bond is not in_bond and low[nbr] < low[node]:
                low[node] = low[nbr]
        # Nothing below the tree bond reaches above it: the child's low-link
        # is its own visit number, so above its parent's.
        if in_bond is not None and low[node] == disc[node]:
            bridges.add(id(in_bond))
    return bridges


def _shortest_path_avoiding(mol: Molecule, ring_bond: Bond) -> int:
    """BFS distance between the ends of ``ring_bond`` without traversing it;
    it lies on a cycle, so another path always exists."""
    start, goal = ring_bond.from_idx, ring_bond.to_idx
    seen = {start}
    frontier = [start]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for node in frontier:
            for nbr, bond in mol.neighbors[node]:
                if bond is ring_bond:
                    continue
                if nbr == goal:
                    return dist
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        frontier = nxt


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of :func:`validate`.

    ``valence_ok`` is None unless strict checking ran on a parseable string.
    ``verdict`` is the conjunction of every populated flag.  ``molecule`` is
    the parsed graph when ``parseable`` holds and None otherwise; it takes
    no part in equality.
    """

    smiles: str
    parseable: bool
    ring_closures_ok: bool
    parentheses_ok: bool
    valence_ok: bool | None
    verdict: bool
    failure_detail: str = ""
    molecule: Molecule | None = field(default=None, compare=False, repr=False)


def _longest_first(symbols: frozenset[str]) -> str:
    """A regex alternation of ``symbols`` that tries longer spellings first."""
    return "|".join(sorted(symbols, key=lambda symbol: (-len(symbol), symbol)))


# The inside of a bracket atom, matched just after its ``[``:
#     isotope? symbol chirality? hcount? charge? class?
# (OpenSMILES ``bracket_atom``).  Every group is optional, so on bad input
# the match ends where the grammar breaks.  Digit runs that become numbers
# stop at nine digits, so every number read is small and a longer run is an
# error at its tenth digit.
_BRACKET_RE = re.compile(
    r"(?P<isotope>[0-9]{0,9})"
    rf"(?:(?P<aromatic>{_longest_first(AROMATIC_BRACKET)})"
    rf"|(?P<element>{_longest_first(ELEMENTS)}))?"
    r"(?P<chirality>@@?)?"
    r"(?P<hydrogens>H[0-9]{0,9})?"
    r"(?P<charge>[+-][0-9]{1,9}|\++|-+)?"
    r"(?P<atom_class>:[0-9]+)?"
)


def _bracket_atom(text: str, start: int) -> Atom:
    """Read the bracket atom whose ``[`` is at ``start``; raises at the
    first character the bracket grammar does not allow, or when no ``]``
    closes it.  An atom class is accepted and discarded."""
    match = _BRACKET_RE.match(text, start + 1)
    aromatic, element = match["aromatic"], match["element"]
    # With no symbol, the grammar broke right after the isotope.
    pos = match.end() if aromatic or element else match.end("isotope")
    if pos == len(text):
        raise UnterminatedBracket("bracket atom never closed", start)
    ch = text[pos]
    if not (aromatic or element):
        if ch.islower():
            raise UnknownSymbol(f"unknown aromatic symbol {ch!r} in bracket", pos)
        if ch.isupper():
            raise UnknownSymbol(f"unknown element symbol {ch!r} in bracket", pos)
        raise UnknownSymbol(f"expected an element symbol, found {ch!r}", pos)
    if ch != "]":
        if ch == ":" and match["atom_class"] is None:
            raise UnknownSymbol("atom class marker ':' without digits", pos + 1)
        raise UnknownSymbol(f"unexpected {ch!r} inside bracket atom", pos)

    isotope, chirality = match["isotope"], match["chirality"]
    hydrogens, charge = match["hydrogens"], match["charge"] or ""
    return Atom(
        element=element or aromatic.capitalize(),
        aromatic=bool(aromatic),
        # a digit run is the magnitude; a run of signs counts itself
        formal_charge=(int(charge) if charge[1:].isdigit()
                       else charge.count("+") - charge.count("-")),
        explicit_h_count=(int(hydrogens[1:] or 1) if hydrogens else 0),
        isotope=int(isotope) if isotope else None,
        chirality=Chirality(chirality) if chirality else None,
        in_bracket=True,
    )


def _default_order(a: Atom, b: Atom) -> BondOrder:
    """The order of a bond written without a symbol: aromatic between two
    aromatic atoms, single otherwise."""
    return BondOrder.AROMATIC if a.aromatic and b.aromatic else BondOrder.SINGLE


_ORGANIC_KINDS = frozenset({"single_char_atom", "aromatic_atom", "two_char_element"})


@cache
def _organic_atom(token: str) -> Atom:
    """The atom a bare organic-subset token stands for; lowercase spellings
    are aromatic.  Atoms are immutable, so every parse shares one per token."""
    return Atom(element=token.capitalize(), aromatic=token.islower())


def _add_bond(bonds: list[Bond], pairs: set[tuple[int, int]], a: int, b: int,
              order: BondOrder, offset: int) -> None:
    """Append the bond ``a``-``b`` unless the two atoms already share one."""
    pair = (a, b) if a < b else (b, a)
    if pair in pairs:
        raise DuplicateBond(f"second bond between atoms {pair[0]} and {pair[1]}", offset)
    pairs.add(pair)
    bonds.append(Bond(a, b, order))


def parse_smiles(text: str) -> Molecule:
    """Parse ``text`` into a :class:`Molecule`.

    Raises a :class:`~evalkit.errors.SmilesParseError` subclass naming the
    first grammar violation encountered, with its character offset.
    """
    if not text:
        raise SmilesParseError("empty SMILES string")
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    pairs: set[tuple[int, int]] = set()
    prev: int | None = None  # the atom the next bond starts from
    pending: tuple[BondOrder, int] | None = None  # a bond symbol and its offset
    # each entry: (attachment atom, atom count at open, offset of '(')
    branches: list[tuple[int, int, int]] = []
    # ring number -> (atom index, bond order written at open, offset)
    open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}
    for match in TOKEN_RE.finditer(text):
        kind = match.lastgroup
        token = match.group()
        offset = match.start()
        if kind in _ORGANIC_KINDS or token[0] == "[":
            # A '[' that no ']' follows is lexically illegal; reading it
            # as a bracket atom reports what is wrong inside it first.
            atom = (_bracket_atom(text, offset) if token[0] == "["
                    else _organic_atom(token))
            atoms.append(atom)
            if prev is not None:
                order = pending[0] if pending else _default_order(atoms[prev], atom)
                pending = None
                _add_bond(bonds, pairs, prev, len(atoms) - 1, order, offset)
            prev = len(atoms) - 1
        elif kind == "ring_digit" or kind == "percent_ring":
            if prev is None:
                raise LeadingBond("ring closure before any atom", offset)
            number = int(token.lstrip("%"))
            order = pending[0] if pending else None
            pending = None
            if number not in open_rings:
                open_rings[number] = (prev, order, offset)
                continue
            other, other_order, _ = open_rings.pop(number)
            if other == prev:
                raise UnmatchedRingClosure(
                    f"ring bond {number} opened and closed on the same atom", offset)
            if order is not None and other_order is not None and order is not other_order:
                raise RingBondConflict(
                    f"ring bond {number} written as {other_order.name.lower()} on one "
                    f"end and {order.name.lower()} on the other", offset)
            order = order or other_order or _default_order(atoms[other], atoms[prev])
            _add_bond(bonds, pairs, other, prev, order, offset)
        elif kind == "bond":
            if prev is None:
                raise LeadingBond(f"bond {token!r} before any atom", offset)
            if pending is not None:
                raise DanglingBond("bond symbol followed by another bond symbol", offset)
            pending = (_BOND_SYMBOLS[token], offset)
        elif kind == "branch_open":
            if prev is None:
                raise UnbalancedParenthesis("branch opened before any atom", offset)
            if pending is not None:
                raise DanglingBond("bond symbol before a branch opening", offset)
            branches.append((prev, len(atoms), offset))
        elif kind == "branch_close":
            if pending is not None:
                raise DanglingBond("bond symbol at the end of a branch", offset)
            if not branches:
                raise UnbalancedParenthesis("')' without matching '('", offset)
            attach, count_at_open, _ = branches.pop()
            if len(atoms) == count_at_open:
                raise EmptyBranch("branch contains no atoms", offset)
            prev = attach
        elif kind == "dot":
            if pending is not None:
                raise DanglingBond("bond symbol before a dot separator", offset)
            if prev is None:
                raise EmptyComponent("dot separator with no atoms before it", offset)
            prev = None
        elif token == "%":
            raise UnknownSymbol("'%' ring closure needs two digits", offset)
        else:
            raise UnknownSymbol(f"unexpected character {token!r}", offset)

    if pending is not None:
        raise DanglingBond("bond symbol at end of input", pending[1])
    if branches:
        raise UnbalancedParenthesis("'(' without matching ')'", branches[-1][2])
    if open_rings:
        # Rings go in as they open, so the first left open comes first.
        number, (_, _, offset) = next(iter(open_rings.items()))
        raise UnmatchedRingClosure(f"ring bond {number} never closed", offset)
    if prev is None and atoms:
        raise EmptyComponent("dot separator at end of input", len(text) - 1)
    return Molecule(tuple(atoms), tuple(bonds), text)


def strict_valence_ok(mol: Molecule) -> bool:
    """Check bare organic-subset atoms against the default valence table.

    The bond-order sum counts aromatic bonds as 1.5 and is rounded up; an
    atom passes when that sum does not exceed its largest allowed valence.
    Bracket atoms are exempt (their hydrogens and charge are explicit).
    """
    for idx, atom in enumerate(mol.atoms):
        if atom.in_bracket:
            continue
        allowed = DEFAULT_VALENCES.get(atom.element)
        if allowed is None:
            continue
        units = sum(bond.order.valence_units for _, bond in mol.neighbors[idx])
        if math.ceil(units) > allowed[-1]:
            return False
    return True


def validate(text: str, strict: bool = False) -> ValidityReport:
    """Grade a candidate SMILES string without raising.

    Leading and trailing whitespace is ignored.  An empty string fails as
    unparseable.  ``ring_closures_ok`` and ``parentheses_ok`` stay True
    unless the failure is specifically of that class, so a report pinpoints
    what broke; ``verdict`` is the conjunction of all populated flags.
    A parseable string's report carries the parsed :class:`Molecule` as
    ``molecule``, so a caller that needs the graph does not parse again.
    """
    stripped = text.strip()
    mol = None
    detail = "empty string"
    ring_ok = paren_ok = True
    if stripped:
        try:
            mol = parse_smiles(stripped)
        except SmilesParseError as exc:
            # Read here, not kept: the exception's traceback holds this
            # frame, so a name bound to it would keep the whole call's
            # frames alive until the cyclic collector ran.
            detail = str(exc)
            ring_ok = not isinstance(exc, (UnmatchedRingClosure, RingBondConflict))
            paren_ok = not isinstance(exc, (UnbalancedParenthesis, EmptyBranch))
    parseable = mol is not None
    valence = strict_valence_ok(mol) if strict and parseable else None
    # The ring and parenthesis flags are False only when nothing parsed.
    verdict = parseable and valence is not False
    if parseable:
        detail = "" if verdict else "valence limit exceeded"
    return ValidityReport(
        smiles=text, parseable=parseable, ring_closures_ok=ring_ok,
        parentheses_ok=paren_ok, valence_ok=valence, verdict=verdict,
        failure_detail=detail, molecule=mol)


def molecular_formula(mol: Molecule) -> str:
    """Hill-order molecular formula with implicit hydrogens filled in.

    Carbon first, then hydrogen, then the rest alphabetically; with no
    carbon present every element sorts alphabetically.  A net formal charge
    is appended as ``+``/``-`` with a magnitude when above one.
    """
    counts: Counter[str] = Counter()
    for idx, atom in enumerate(mol.atoms):
        counts[atom.element] += 1
        counts["H"] += mol.total_h(idx)
    if counts["H"] == 0:
        del counts["H"]

    if counts.get("C"):
        symbols = ["C"] + (["H"] if "H" in counts else [])
        symbols += sorted(s for s in counts if s not in ("C", "H"))
    else:
        symbols = sorted(counts)

    parts = [f"{s}{counts[s]}" if counts[s] > 1 else s for s in symbols]
    charge = sum(atom.formal_charge for atom in mol.atoms)
    if charge:
        sign = "+" if charge > 0 else "-"
        magnitude = str(abs(charge)) if abs(charge) > 1 else ""
        parts.append(f"{sign}{magnitude}")
    return "".join(parts)
