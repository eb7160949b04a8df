"""Molecular fingerprints and Tanimoto similarity.

Three schemes, all bit-exact across platforms because every hash is FNV-1a
(64-bit) over deterministic byte strings:

* ``morgan`` — circular neighbourhoods.  Each atom starts from an invariant
  hashing (element, degree, formal charge, total hydrogens, aromatic flag,
  ring membership); each iteration rehashes the atom's invariant with the
  sorted (bond-order code, neighbour invariant) pairs.  Every invariant
  produced at every radius sets bit ``invariant mod width``.
* ``path`` — all simple linear paths of 1 to ``max_path_bonds`` bonds
  (bonds and atoms both distinct within a path).  Each undirected path is
  enumerated once, and its descriptor is the lexicographically smaller of
  its forward and reverse readings.  The search reads a path as one int,
  the base-K number of its entries' ranks, grown digit by digit as the
  search extends the path; comparing two such ints compares the readings.
  The hash of a reading is one step on from the hash of its prefix
  ``code // K``, computed once per call, and one step is one multiply and
  one lookup in a per-entry table of 256 states.
* ``keys`` — a fixed list of named structural predicates; bit *k* is key
  *k*'s truth value.  Key sets are loadable from a text file.

Bit vectors are arbitrary-precision integers; bit i set means feature i
present.  Widths must be powers of two.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

from .elements import ELEMENTS
from .errors import InputError, SchemeMismatch, read_utf8
from .smiles import BondOrder, Molecule

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """The 64-bit FNV-1a hash of ``data``."""
    return _fnv1a64_extend(FNV_OFFSET, data)


def _fnv1a64_extend(value: int, data: bytes) -> int:
    """FNV-1a state ``value`` after hashing ``data`` onto it."""
    prime, mask = FNV_PRIME, _MASK64
    for byte in data:
        value = ((value ^ byte) * prime) & mask
    return value


@dataclass(frozen=True)
class Fingerprint:
    """A bit vector tagged with the scheme and parameters that produced it.

    Comparisons (Tanimoto) are only defined between fingerprints whose
    scheme, parameters, and width all agree.
    """

    bits: int
    width: int
    scheme: str
    params: tuple[tuple[str, object], ...]

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError("bit vector wider than the declared width")

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def to_hex(self) -> str:
        """Zero-padded hex string of ceil(width/4) digits, most significant
        first, so every fingerprint of a given width prints one length."""
        return format(self.bits, f"0{(self.width + 3) // 4}x")


def _require_width(width: int) -> None:
    if width < 4 or width & (width - 1):
        raise InputError(f"fingerprint width must be a power of two >= 4, got {width}")


def _initial_payloads(mol: Molecule) -> list[bytes]:
    return ["|".join((
        atom.element,
        str(len(mol.neighbors[idx])),
        str(atom.formal_charge),
        str(mol.total_h(idx)),
        str(int(atom.aromatic)),
        str(int(mol.ring_atom_flags[idx])),
    )).encode("ascii") for idx, atom in enumerate(mol.atoms)]


def morgan_fingerprint(mol: Molecule, radius: int = 2, width: int = 2048) -> Fingerprint:
    """Circular fingerprint of ``mol``.

    Invariants depend only on the graph, never on atom input order, so any
    two SMILES writings of the same molecule give identical bits.  Growing
    the radius only adds invariants: the radius-r bit set is a subset of the
    radius-(r+1) set for the same molecule and width.

    An update payload is the atom's invariant as 8 big-endian bytes, then
    per neighbour its bond code as one byte and its invariant as 8 bytes,
    in ascending (code, invariant) order: the order of those 9-byte
    strings.  Equal payloads are hashed once per call.
    """
    _require_width(width)
    if radius < 0:
        raise InputError("radius must be non-negative")

    hashed: dict[bytes, int] = {}

    def hash_all(payloads: list[bytes]) -> list[int]:
        out = []
        for payload in payloads:
            value = hashed.get(payload)
            if value is None:
                value = hashed[payload] = fnv1a64(payload)
            out.append(value)
        return out

    invariants = hash_all(_initial_payloads(mol))
    bits = 0
    for inv in invariants:
        bits |= 1 << (inv % width)
    links = [[(bytes((bond.order.value,)), nbr) for nbr, bond in neighbors]
             for neighbors in mol.neighbors]
    for _ in range(radius):
        words = [inv.to_bytes(8, "big") for inv in invariants]
        invariants = hash_all([
            words[idx] + b"".join(sorted(code + words[nbr]
                                         for code, nbr in links[idx]))
            for idx in range(len(words))])
        for inv in invariants:
            bits |= 1 << (inv % width)
    return Fingerprint(bits, width, "morgan",
                       (("radius", radius), ("width", width)))


def _path_codes(mol: Molecule, max_path_bonds: int) -> tuple[set[int], tuple[tuple, ...]]:
    """Every simple path of 1..max_path_bonds bonds as one int, and the
    entries that the int's digits name.

    The molecule's distinct (element, aromatic flag, bond code) entries are
    ranked in tuple order as 1..n and a reading is the base ``n + 1``
    number of its entries' ranks, first entry most significant.  The two
    readings of a path have as many digits as it has atoms, none of them
    zero, so the smaller int is the lexicographically smaller reading, and
    each int names exactly one sequence of entries.  Each undirected path
    is read once, from its lower-numbered end atom; the depth-first search
    keeps an explicit stack of O(depth x degree) frames.
    """
    atoms = mol.atoms
    if max_path_bonds < 1 or not atoms:
        return set(), ()
    kinds = [(a.element, int(a.aromatic)) for a in atoms]
    entries = {(*kind, 0) for kind in kinds}
    entries.update((*kinds[idx], bond.order.value)
                   for idx, neighbors in enumerate(mol.neighbors)
                   for _, bond in neighbors)
    ranked = tuple(sorted(entries))
    rank = {entry: r for r, entry in enumerate(ranked, start=1)}
    base = len(ranked) + 1
    squared = base * base
    ends = [rank[(*kind, 0)] for kind in kinds]
    # Per atom, per neighbour: (neighbour, its bit, the ranks of this
    # atom's and the neighbour's entry, each followed by the bond between
    # them, and the last two digits of a forward reading that ends at the
    # neighbour).
    steps = []
    for idx, neighbors in enumerate(mol.neighbors):
        row = []
        for nbr, bond in neighbors:
            here = rank[(*kinds[idx], bond.order.value)]
            there = rank[(*kinds[nbr], bond.order.value)]
            row.append((nbr, 1 << nbr, here, there, here * base + ends[nbr]))
        steps.append(row)
    # A simple path has at most len(atoms) - 1 bonds, which also keeps
    # ``limit`` small when max_path_bonds is huge.
    limit = base ** min(max_path_bonds, len(atoms) - 1)

    found: set[int] = set()
    add = found.add
    for start in range(len(atoms)):
        # (end atom, atoms on the path as bits, forward reading without
        # its last entry, backward reading, base ** digits of backward)
        stack = [(start, 1 << start, 0, ends[start], base)]
        while stack:
            node, on_path, head, backward, power = stack.pop()
            head_digits = head * squared
            if power < limit:
                longer = power * base
                for nbr, bit, here, there, last_two in steps[node]:
                    if on_path & bit:
                        continue
                    reverse = there * power + backward
                    if nbr > start:
                        forward = head_digits + last_two
                        add(forward if forward <= reverse else reverse)
                    stack.append((nbr, on_path | bit, head * base + here,
                                  reverse, longer))
            else:
                # The longest paths: record them, extend none.
                for nbr, bit, _, there, last_two in steps[node]:
                    if nbr > start and not on_path & bit:
                        forward = head_digits + last_two
                        reverse = there * power + backward
                        add(forward if forward <= reverse else reverse)
    return found, ranked


def enumerate_path_descriptors(mol: Molecule, max_path_bonds: int = 7) -> set[tuple]:
    """Canonical descriptors of every simple path of 1..max_path_bonds bonds.

    Paths repeat neither bonds nor atoms.  A descriptor lists the path's
    atoms as (element, aromatic flag, following-bond code) entries, the last
    with bond code 0; of the two reading directions the lexicographically
    smaller one is kept.
    """
    codes, ranked = _path_codes(mol, max_path_bonds)
    base = len(ranked) + 1
    found = set()
    for code in codes:
        entries = []
        while code:
            code, digit = divmod(code, base)
            entries.append(ranked[digit - 1])
        found.add(tuple(reversed(entries)))
    return found


def _entry_bytes(entry: tuple) -> bytes:
    element, aromatic, bond_code = entry
    return f"{element},{aromatic},{bond_code}".encode("ascii")


@cache
def _step_table(piece: bytes) -> tuple[int, tuple[int, ...]]:
    """``(multiplier, table)`` such that the FNV-1a state ``v`` after
    hashing ``piece`` onto it is
    ``((v >> 8) * multiplier + table[v & 255]) mod 2**64``.

    Each byte is XORed into the low byte of the state only, so the upper
    part ``(v >> 8) * 256`` is just multiplied by ``FNV_PRIME`` once per
    byte, and the table holds the rest for each low byte.  Path hashing
    asks for one table per entry string, so the cache holds at most
    elements x aromatic flags x bond codes of them, about 11 KB each.
    """
    multiplier = (256 * pow(FNV_PRIME, len(piece), 1 << 64)) & _MASK64
    return multiplier, tuple(_fnv1a64_extend(low, piece) for low in range(256))


def path_fingerprint(mol: Molecule, max_path_bonds: int = 7, width: int = 2048) -> Fingerprint:
    """Linear-path fingerprint of ``mol``.

    Each descriptor sets bit ``h mod width``, where ``h`` is the FNV-1a
    hash of its entries written ``e,a,b`` and joined by ``|``.  The hash
    runs on the integer readings of :func:`_path_codes`: a reading's
    prefix without its last entry is ``code // base``, so the hash of each
    prefix is computed once per call, one step on from its own prefix's
    hash.  A step hashes ``|e,a,b`` with one multiply and one lookup in
    the entry's :func:`_step_table`.
    """
    _require_width(width)
    if max_path_bonds < 1:
        raise InputError("max_path_bonds must be at least 1")
    codes, ranked = _path_codes(mol, max_path_bonds)
    base = len(ranked) + 1
    # hashes[code]: the hash of the reading ``code``, for prefixes; the
    # one-entry readings are the ranks themselves.
    hashes: dict[int, int] = {}
    steps: list = [None]
    for r, entry in enumerate(ranked, start=1):
        text = _entry_bytes(entry)
        hashes[r] = fnv1a64(text)
        steps.append(_step_table(b"|" + text))
    bits = 0
    for code in codes:
        prefix, last = divmod(code, base)
        value = hashes.get(prefix)
        if value is None:
            unhashed = [prefix]
            prefix //= base
            while (value := hashes.get(prefix)) is None:
                unhashed.append(prefix)
                prefix //= base
            for prefix in reversed(unhashed):
                multiplier, table = steps[prefix % base]
                value = hashes[prefix] = (
                    (value >> 8) * multiplier + table[value & 255]) & _MASK64
        multiplier, table = steps[last]
        value = ((value >> 8) * multiplier + table[value & 255]) & _MASK64
        bits |= 1 << (value % width)
    return Fingerprint(bits, width, "path",
                       (("max_path_bonds", max_path_bonds), ("width", width)))


# --- key-based fingerprints --------------------------------------------------

# Numbers in key-set files: an ASCII digit run short enough that int()
# never meets a huge value.
_SMALL_NUMBER_RE = re.compile(r"[0-9]{1,9}")

_BOND_NAMES = {
    "single": BondOrder.SINGLE,
    "double": BondOrder.DOUBLE,
    "triple": BondOrder.TRIPLE,
    "quadruple": BondOrder.QUADRUPLE,
    "aromatic": BondOrder.AROMATIC,
}


@dataclass(frozen=True)
class KeyDescriptor:
    """One named structural predicate, parsed from its text form.

    The grammar is closed:

    * ``element:<symbol>`` — an atom of that element exists
    * ``count:<symbol>:<k>`` — at least k atoms of that element exist
    * ``ring`` — any ring atom exists
    * ``ring-size:<n>`` — some ring bond's smallest cycle has n atoms
    * ``bond:<single|double|triple|quadruple|aromatic>`` — bond order present
    * ``path:<E1-E2-...>`` — a simple path with that element sequence exists
      (either direction)

    :meth:`parse` compiles the text into ``predicate`` once; equality and
    hashing go by ``text`` alone.
    """

    text: str
    predicate: Callable[[Molecule], bool] = field(compare=False, repr=False)

    @classmethod
    def parse(cls, text: str) -> "KeyDescriptor":
        parts = text.split(":")
        head, args = parts[0], parts[1:]
        if head == "ring" and not args:
            return cls(text, lambda mol: any(mol.ring_atom_flags))
        if head == "element" and len(args) == 1 and args[0] in ELEMENTS:
            symbol = args[0]
            return cls(text, lambda mol: any(a.element == symbol for a in mol.atoms))
        if head == "count" and len(args) == 2 and args[0] in ELEMENTS \
                and _small_number(args[1]) >= 1:
            symbol, needed = args[0], int(args[1])
            return cls(text, lambda mol: sum(a.element == symbol
                                             for a in mol.atoms) >= needed)
        if head == "ring-size" and len(args) == 1 and _small_number(args[0]) >= 3:
            size = int(args[0])
            return cls(text, lambda mol: size in mol.ring_sizes)
        if head == "bond" and len(args) == 1 and args[0] in _BOND_NAMES:
            wanted = _BOND_NAMES[args[0]]
            return cls(text, lambda mol: any(b.order is wanted for b in mol.bonds))
        if head == "path" and len(args) == 1:
            sequence = tuple(args[0].split("-"))
            if len(sequence) >= 2 and all(s in ELEMENTS for s in sequence):
                return cls(text, lambda mol: _element_path_exists(mol, sequence))
        raise InputError(f"unrecognised key descriptor {text!r}")

    def matches(self, mol: Molecule) -> bool:
        return self.predicate(mol)


def _small_number(text: str) -> int:
    """The value of an ASCII digit run of at most nine digits, or -1 for
    any other text, so that every lower bound rejects it."""
    return int(text) if _SMALL_NUMBER_RE.fullmatch(text) else -1


def _element_path_exists(mol: Molecule, sequence: tuple[str, ...]) -> bool:
    """Whether some simple path reads ``sequence`` element by element.  A
    path read backwards is a path too, so one search covers both
    directions of the key."""
    atoms = mol.atoms
    for start, atom in enumerate(atoms):
        if atom.element != sequence[0]:
            continue
        # (end atom, atoms matched so far, those atoms as bits)
        stack = [(start, 1, 1 << start)]
        while stack:
            node, depth, visited = stack.pop()
            if depth == len(sequence):
                return True
            for nbr, _ in mol.neighbors[node]:
                bit = 1 << nbr
                if not visited & bit and atoms[nbr].element == sequence[depth]:
                    stack.append((nbr, depth + 1, visited | bit))
    return False


@dataclass(frozen=True)
class KeySet:
    """An ordered list of key descriptors; key ids are dense from zero."""

    name: str
    keys: tuple[KeyDescriptor, ...]

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def digest(self) -> str:
        listing = "\n".join(f"{i}\t{k.text}" for i, k in enumerate(self.keys))
        return hashlib.sha256(listing.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def load(cls, path: str | Path) -> "KeySet":
        """Read ``<id><TAB><descriptor>`` lines; ids must count up from 0."""
        keys = []
        for lineno, line in enumerate(
                read_utf8(path).splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise InputError(
                    f"{path} line {lineno}: expected '<id>\\t<descriptor>'")
            if _small_number(fields[0]) != len(keys):
                raise InputError(
                    f"{path} line {lineno}: key ids must be dense from 0")
            try:
                keys.append(KeyDescriptor.parse(fields[1]))
            except InputError as exc:
                raise InputError(f"{path} line {lineno}: {exc}") from None
        if not keys:
            raise InputError(f"key set file {path} defines no keys")
        return cls(name=Path(path).stem, keys=tuple(keys))


_DEFAULT_KEY_TEXTS = (
    "element:C", "element:N", "element:O", "element:S", "element:P",
    "element:F", "element:Cl", "element:Br", "element:I", "element:B",
    "count:C:2", "count:C:4", "count:C:8", "count:C:16",
    "count:N:2", "count:O:2", "count:O:4", "count:S:2",
    "ring",
    "ring-size:3", "ring-size:4", "ring-size:5", "ring-size:6",
    "ring-size:7", "ring-size:8",
    "bond:single", "bond:double", "bond:triple", "bond:aromatic",
    "path:C-C", "path:C-O", "path:C-N", "path:C-S",
    "path:C-C-O", "path:C-C-N", "path:C-C-C", "path:O-C-O",
    "path:N-C-C-O", "path:C-C-C-C", "path:C-N-C",
)

DEFAULT_KEYSET = KeySet(
    name="default-40",
    keys=tuple(KeyDescriptor.parse(t) for t in _DEFAULT_KEY_TEXTS),
)


def key_fingerprint(mol: Molecule, keyset: KeySet = DEFAULT_KEYSET) -> Fingerprint:
    """Key-based fingerprint: bit k is descriptor k's truth value.

    The width is the key count (not necessarily a power of two).
    """
    bits = 0
    for i, key in enumerate(keyset.keys):
        if key.matches(mol):
            bits |= 1 << i
    return Fingerprint(bits, len(keyset), "keys",
                       (("keyset", keyset.digest), ("width", len(keyset))))


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Tanimoto similarity |a AND b| / |a OR b|.

    Two empty fingerprints count as identical (1.0).  Comparing different
    schemes, parameters, or widths raises :class:`SchemeMismatch`.
    """
    if (a.scheme, a.params, a.width) != (b.scheme, b.params, b.width):
        raise SchemeMismatch(
            f"cannot compare {a.scheme}{a.params} against {b.scheme}{b.params}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
