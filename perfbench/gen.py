"""Seeded inputs for the evalkit benchmark.

Everything here is a pure function of the seed: the same seed gives
byte-identical files on every platform.  The generator does not use the
program under test to build its inputs (its own RNG, SMILES reader and
writer live here), so a change to evalkit cannot change what it is fed.
The one exception is ``check_known_drugs``, which asserts that the
hand-typed drug list parses with ``evalkit.smiles.parse_smiles``.

Three workloads are generated (see README.md for why each exists):

* ``i2d_drug``: distinct drug-sized references (20-70 heavy atoms, fused
  and bridged rings) with six hypothesis kinds in equal shares;
* ``i2d_small_embed``: repeated small references (1-30 heavy atoms), a
  weak model's share of invalid hypotheses, and 512-dimensional FCD and
  Text2Mol embedding files;
* ``d2i_text``: 1-4 clause indications with five hypothesis kinds.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64 stream: fixed integer arithmetic, stable across versions."""

    def __init__(self, seed: int):
        self.state = (seed * 0x2545F4914F6CDD1D + 0x1234567) & _MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return (self.u64() * n) >> 64

    def between(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return low + self.below(high - low + 1)

    def random(self) -> float:
        return (self.u64() >> 11) / float(1 << 53)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# --- molecules ---------------------------------------------------------------

# Hand-typed structures of known drugs, stereo marks removed.  Drug-sized
# ones (20-70 heavy atoms) are i2d_drug references; the small ones join
# the i2d_small_embed reference pool.
KNOWN_DRUGS: dict[str, str] = {
    "atorvastatin": "CC(C)c1c(C(=O)Nc2ccccc2)c(-c2ccccc2)c(-c2ccc(F)cc2)n1CCC(O)CC(O)CC(=O)O",
    "paclitaxel": "CC1=C2C(C(=O)C3(C(CC4C(C3C(C(C2(C)C)(CC1OC(=O)C(C(C5=CC=CC=C5)NC(=O)C6=CC=CC=C6)O)O)OC(=O)C7=CC=CC=C7)(CO4)OC(=O)C)O)C)OC(=O)C",
    "morphine": "CN1CCC23C4C1CC5=C2C(=C(C=C5)O)OC3C(C=C4)O",
    "imatinib": "CC1=C(C=C(C=C1)NC(=O)C2=CC=C(C=C2)CN3CCN(CC3)C)NC4=NC=CC(=N4)C5=CN=CC=C5",
    "vinblastine": "CCC1(CC2CC(C3=C(CCN(C2)C1)C4=CC=CC=C4N3)(C5=C(C=C6C(=C5)C78CCN9C7C(C=CC9)(C(C(C8N6C)(C(=O)OC)O)OC(=O)C)CC)OC)C(=O)OC)O",
    "digoxin": "CC1C(C(CC(O1)OC2C(OC(CC2O)OC3C(OC(CC3O)OC4CCC5(C(C4)CCC6C5CC(C7(C6(CCC7C8=CC(=O)OC8)O)C)O)C)C)C)O)O",
    "sildenafil": "CCCC1=NN(C2=C1N=C(NC2=O)C3=C(C=CC(=C3)S(=O)(=O)N4CCN(CC4)C)OCC)C",
    "strychnine": "C1CN2CC3=CCOC4CC(=O)N5C6C4C3CC2C61C7=CC=CC=C75",
    "quinine": "COC1=CC2=C(C=CN=C2C=C1)C(C3CC4CCN3CC4C=C)O",
    "cocaine": "CN1C2CCC1C(C(C2)OC(=O)C3=CC=CC=C3)C(=O)OC",
    "testosterone": "CC12CCC3C(C1CCC2O)CCC4=CC(=O)CCC34C",
    "cholesterol": "CC(C)CCCC(C)C1CCC2C1(CCC3C2CC=C4C3(CCC(C4)O)C)C",
    "diazepam": "CN1C(=O)CN=C(C2=C1C=CC(=C2)Cl)C3=CC=CC=C3",
    "loratadine": "CCOC(=O)N1CCC(=C2C3=C(CCC4=C2N=CC=C4)C=C(C=C3)Cl)CC1",
    "atropine": "CN1C2CCC1CC(C2)OC(=O)C(CO)C3=CC=CC=C3",
    "erythromycin": "CCC1C(C(C(C(=O)C(CC(C(C(C(C(C(=O)O1)C)OC2CC(C(C(O2)C)O)(C)OC)C)OC3C(C(CC(O3)C)N(C)C)O)(C)O)C)C)O)(C)O",
    "tamoxifen": "CCC(=C(C1=CC=CC=C1)C2=CC=C(C=C2)OCCN(C)C)C3=CC=CC=C3",
    "warfarin": "CC(=O)CC(C1=CC=CC=C1)C2=C(C3=CC=CC=C3OC2=O)O",
    "omeprazole": "CC1=CN=C(C(=C1OC)C)CS(=O)C2=NC3=C(N2)C=C(C=C3)OC",
    "clopidogrel": "COC(=O)C(C1=CC=CC=C1Cl)N2CCC3=C(C2)C=CS3",
    "losartan": "CCCCC1=NC(=C(N1CC2=CC=C(C=C2)C3=CC=CC=C3C4=NNN=N4)CO)Cl",
    "simvastatin": "CCC(C)(C)C(=O)OC1CC(C=C2C1C(C(C=C2)C)CCC3CC(CC(=O)O3)O)C",
    "penicillin_g": "CC1(C(N2C(S1)C(C2=O)NC(=O)CC3=CC=CC=C3)C(=O)O)C",
    "artemisinin": "CC1CCC2C(C(=O)OC3C24C1CCC(O3)(OO4)C)C",
    "reserpine": "COC1C(CC2CN3CCC4=C(C3CC2C1C(=O)OC)NC5=C4C=CC(=C5)OC)OC(=O)C6=CC(=C(C(=C6)OC)OC)OC",
    "colchicine": "CC(=O)NC1CCC2=CC(=C(C(=C2C3=CC=C(C(=O)C=C13)OC)OC)OC)OC",
    "codeine": "COC1=C2C3=C(CC4C5C3(CCN4C)C(O2)C(C=C5)O)C=C1",
    "fentanyl": "CCC(=O)N(C1CCN(CC1)CCC2=CC=CC=C2)C3=CC=CC=C3",
    "doxorubicin": "CC1C(C(CC(O1)OC2CC(CC3=C2C(=C4C(=C3O)C(=O)C5=C(C4=O)C(=CC=C5)OC)O)(C(=O)CO)O)N)O",
    "tetracycline": "CC1(C2CC3C(C(=O)C(=C(C3(C(=O)C2=C(C4=C1C=CC=C4O)O)O)O)C(=O)N)N(C)C)O",
    "caffeine": "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
    "aspirin": "CC(=O)OC1=CC=CC=C1C(=O)O",
    "ibuprofen": "CC(C)CC1=CC=C(C=C1)C(C)C(=O)O",
    "nicotine": "CN1CCCC1C2=CN=CC=C2",
    "paracetamol": "CC(=O)NC1=CC=C(C=C1)O",
    "dopamine": "C1=CC(=C(C=C1CCN)O)O",
    "camphor": "CC1(C)C2CCC1(C)C(=O)C2",
    "amantadine": "C1C2CC3CC1CC(C2)(C3)N",
    "metformin": "CN(C)C(=N)N=C(N)N",
}

_ORGANIC = ("Cl", "Br", "B", "C", "N", "O", "P", "S", "F", "I")
_AROMATIC = ("b", "c", "n", "o", "p", "s")
_BOND_ORDER = {"-": 1, "/": 1, "\\": 1, "=": 2, "#": 3, ":": 5}
_ORDER_TEXT = {1: "-", 2: "=", 3: "#", 5: ":"}
_VALENCE = {"B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5),
            "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,)}
AROMATIC_ORDER = 5


@dataclass
class Atom:
    element: str
    aromatic: bool = False
    bracket: str | None = None  # text between the brackets, as written


@dataclass
class Graph:
    """Undirected molecular graph; bonds map (low, high) index to an order
    (1, 2, 3, or 5 for aromatic)."""

    atoms: list[Atom] = field(default_factory=list)
    bonds: dict[tuple[int, int], int] = field(default_factory=dict)

    def add_bond(self, a: int, b: int, order: int) -> None:
        self.bonds[(a, b) if a < b else (b, a)] = order

    def order(self, a: int, b: int) -> int:
        return self.bonds[(a, b) if a < b else (b, a)]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.atoms]
        for a, b in self.bonds:
            adj[a].append(b)
            adj[b].append(a)
        for row in adj:
            row.sort()
        return adj

    def free_valence(self, idx: int) -> int:
        """Hydrogens a bare atom still carries; bracket atoms and aromatic
        heteroatoms carry none that may be replaced."""
        atom = self.atoms[idx]
        if atom.bracket is not None or (atom.aromatic and atom.element != "C"):
            return 0
        used = 0.0
        for (a, b), order in self.bonds.items():
            if idx in (a, b):
                used += 1.5 if order == AROMATIC_ORDER else order
        for valence in _VALENCE[atom.element]:
            if valence >= used:
                return int(valence - used)
        return 0

    def copy(self) -> "Graph":
        return Graph([Atom(a.element, a.aromatic, a.bracket) for a in self.atoms],
                     dict(self.bonds))


def read_smiles(text: str) -> Graph:
    """Read the SMILES subset this module writes and the drug list uses:
    organic and aromatic atoms, bracket atoms, bonds, branches, ring
    closures (digits and %nn).  No dots."""
    graph = Graph()
    branch_stack: list[int] = []
    open_rings: dict[str, tuple[int, int | None]] = {}
    previous: int | None = None
    pending: int | None = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            branch_stack.append(previous)
            i += 1
        elif ch == ")":
            previous = branch_stack.pop()
            i += 1
        elif ch in _BOND_ORDER:
            pending = _BOND_ORDER[ch]
            i += 1
        elif ch.isdigit() or ch == "%":
            label = text[i:i + 3] if ch == "%" else ch
            i += len(label)
            if label in open_rings:
                other, order = open_rings.pop(label)
                order = pending or order
                graph.add_bond(other, previous,
                               order or _implicit(graph, other, previous))
            else:
                open_rings[label] = (previous, pending)
            pending = None
        else:
            if ch == "[":
                end = text.index("]", i)
                inner = text[i + 1:end]
                symbol = inner.lstrip("0123456789")
                element = symbol[:2] if symbol[:2] in ("Cl", "Br", "Se", "As") else symbol[:1]
                atom = Atom(element.capitalize(), element.islower(), inner)
                i = end + 1
            else:
                symbol = text[i:i + 2] if text[i:i + 2] in ("Cl", "Br") else ch
                if symbol not in _ORGANIC and symbol not in _AROMATIC:
                    raise ValueError(f"cannot read {text!r} at {i}")
                atom = Atom(symbol.capitalize(), symbol.islower())
                i += len(symbol)
            graph.atoms.append(atom)
            idx = len(graph.atoms) - 1
            if previous is not None:
                graph.add_bond(previous, idx, pending or _implicit(graph, previous, idx))
            previous, pending = idx, None
    if open_rings or branch_stack:
        raise ValueError(f"unbalanced SMILES {text!r}")
    return graph


def _implicit(graph: Graph, a: int, b: int) -> int:
    both = graph.atoms[a].aromatic and graph.atoms[b].aromatic
    return AROMATIC_ORDER if both else 1


def _atom_text(atom: Atom) -> str:
    if atom.bracket is not None:
        return f"[{atom.bracket}]"
    return atom.element.lower() if atom.aromatic else atom.element


def write_smiles(graph: Graph, root: int = 0, rng: Rng | None = None) -> str:
    """Depth-first SMILES of a connected graph from ``root``.  With ``rng``
    the neighbour visit order is shuffled, so one molecule gets many
    spellings.  Ring-closure digits are reused once closed."""
    adj = graph.adjacency()
    if rng is not None:
        for row in adj:
            rng.shuffle(row)
    children: list[list[int]] = [[] for _ in graph.atoms]
    # Per atom: (other end, True if the ring bond closes here).  A ring
    # bond opens at the end written first, which is the DFS ancestor.
    ring_ends: list[list[tuple[int, bool]]] = [[] for _ in graph.atoms]
    visited = [False] * len(graph.atoms)
    seen_rings: set[tuple[int, int]] = set()

    def walk(node: int, parent: int | None) -> None:
        visited[node] = True
        for nbr in adj[node]:
            if nbr == parent:
                continue
            if visited[nbr]:
                key = (min(node, nbr), max(node, nbr))
                if key not in seen_rings:
                    seen_rings.add(key)
                    ring_ends[nbr].append((node, False))
                    ring_ends[node].append((nbr, True))
                continue
            children[node].append(nbr)
            walk(nbr, node)

    walk(root, None)
    if not all(visited):
        raise ValueError("graph is not connected")

    parts: list[str] = []
    labels: dict[tuple[int, int], str] = {}
    free: list[int] = []
    next_label = [1]

    def bond_text(a: int, b: int) -> str:
        order_ = graph.order(a, b)
        if order_ == _implicit(graph, a, b):
            return ""
        return _ORDER_TEXT[order_]

    def emit(node: int) -> None:
        parts.append(_atom_text(graph.atoms[node]))
        closed = []
        for other, is_close in ring_ends[node]:
            key = (min(node, other), max(node, other))
            if is_close:
                label = labels.pop(key)
                parts.append(label)
                closed.append(int(label.lstrip("%")))
            else:
                number = free.pop(0) if free else next_label[0]
                if number == next_label[0]:
                    next_label[0] += 1
                label = str(number) if number < 10 else f"%{number:02d}"
                labels[key] = label
                parts.append(bond_text(node, other) + label)
        free.extend(closed)
        free.sort()
        kids = children[node]
        for i, child in enumerate(kids):
            if i < len(kids) - 1:
                parts.append("(" + bond_text(node, child))
                emit(child)
                parts.append(")")
            else:
                parts.append(bond_text(node, child))
                emit(child)

    emit(root)
    return "".join(parts)


def check_known_drugs() -> None:
    """Every hand-typed drug must parse with the program's own parser, and
    this module's reader must see the same number of atoms."""
    from evalkit.smiles import parse_smiles

    for name, text in KNOWN_DRUGS.items():
        mol = parse_smiles(text)
        if len(mol.atoms) != len(read_smiles(text).atoms):
            raise ValueError(f"{name}: reader and evalkit disagree on atom count")


# Building blocks for generated molecules.  Fused and bridged systems come
# first so every drug-sized molecule can start from one.
FUSED_OR_BRIDGED = (
    "c1ccc2ccccc2c1", "c1ccc2[nH]ccc2c1", "c1ccc2ncccc2c1", "c1ccc2[nH]cnc2c1",
    "C1CCC2CCCCC2C1", "c1ccc2c(c1)CCCC2", "C1CC2CCC1C2", "C1CC2CCC1CC2",
    "C1C2CC3CC1CC(C2)C3", "C1CC2CCC(C1)N2", "C1CN2CCC1CC2", "c1ccc2c(c1)CCN2",
    "C1CC2CC3CCCCC3CC2CC1", "c1ccc2c(c1)oc1ccccc12",
)
RINGS = FUSED_OR_BRIDGED + (
    "c1ccccc1", "c1ccncc1", "c1cncnc1", "c1ccsc1", "c1ccoc1", "c1cnc[nH]1",
    "C1CCCCC1", "C1CCCC1", "C1CCNCC1", "C1CNCCN1", "C1COCCN1", "C1CCOC1",
)
LINKERS = ("", "C", "CC", "CCC", "O", "N", "C(=O)N", "NC(=O)", "C(=O)O", "OC",
           "S(=O)(=O)N", "CN", "C=C", "C#C", "CCN", "OCC")
SUBSTITUENTS = ("F", "Cl", "Br", "C", "O", "N", "C(F)(F)F", "OC", "C#N",
                "C(=O)O", "C(=O)N", "[N+](=O)[O-]", "S(=O)(=O)C", "CC", "C(C)C")
CHAIN_ATOMS = ("C", "C", "C", "N", "O")

_FRAGMENTS: dict[str, Graph] = {}


def _fragment(text: str) -> Graph:
    if text not in _FRAGMENTS:
        _FRAGMENTS[text] = read_smiles(text)
    return _FRAGMENTS[text]


def _attach(graph: Graph, at: int, fragment: Graph, order: int = 1) -> int:
    """Bond fragment atom 0 to ``at``; return the index of the fragment's
    last atom in ``graph``."""
    offset = len(graph.atoms)
    graph.atoms.extend(Atom(a.element, a.aromatic, a.bracket) for a in fragment.atoms)
    for (a, b), bond_order in fragment.bonds.items():
        graph.add_bond(a + offset, b + offset, bond_order)
    graph.add_bond(at, offset, order)
    return offset + len(fragment.atoms) - 1


def _sites(graph: Graph) -> list[int]:
    return [i for i in range(len(graph.atoms)) if graph.free_valence(i) > 0]


def _grow(rng: Rng, start: str, target: int) -> Graph:
    """Grow ``start`` to about ``target`` atoms by linked rings and
    substituents."""
    graph = _fragment(start).copy()
    while len(graph.atoms) < target:
        sites = _sites(graph)
        if not sites:
            break
        at = rng.choice(sites)
        room = target - len(graph.atoms)
        if room >= 5 and rng.random() < 0.5:
            linker = rng.choice(LINKERS)
            end = at
            if linker:
                end = _attach(graph, at, _fragment(linker))
                if graph.free_valence(end) == 0:
                    continue
            _attach(graph, end, _fragment(rng.choice(RINGS)))
        else:
            _attach(graph, at, _fragment(rng.choice(SUBSTITUENTS)))
    return graph


def path_count(graph: Graph, max_bonds: int = 7) -> int:
    """Directed simple paths of 1..max_bonds bonds: the work a linear-path
    fingerprint does on this molecule."""
    adj = graph.adjacency()
    total = 0
    for start in range(len(graph.atoms)):
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            total += len(path) > 1
            if len(path) <= max_bonds:
                stack.extend((nbr, path + (nbr,)) for nbr in adj[node] if nbr not in path)
    return total


# Paths per heavy atom allowed for a generated drug.  The known drugs span
# 29-103; generated ones are held near the middle so that the work of a
# file varies little from seed to seed.
PATH_DENSITY = (43.0, 49.0)


def drug_like(rng: Rng, target: int) -> Graph:
    """A connected molecule of 20-70 heavy atoms grown from a fused or
    bridged ring system by linkers, rings and substituents."""
    while True:
        graph = _grow(rng, rng.choice(FUSED_OR_BRIDGED), target)
        n = len(graph.atoms)
        if (20 <= n <= 70 and abs(n - target) <= 3
                and PATH_DENSITY[0] <= path_count(graph) / n <= PATH_DENSITY[1]):
            return graph


SIMPLE_RINGS = tuple(r for r in RINGS if r not in FUSED_OR_BRIDGED)


def small_molecule(rng: Rng, target: int) -> Graph:
    """A molecule of 1-30 heavy atoms grown one chain atom at a time, from
    a single atom or (from 6 atoms up) a simple ring, with an occasional
    second ring: the shapes of a typical small-molecule list.  Growth
    mostly extends the newest atom, so chains are longer than bushy."""
    graph = _fragment(rng.choice(SIMPLE_RINGS)).copy() if target >= 6 else Graph(
        [Atom(rng.choice(CHAIN_ATOMS))])
    while len(graph.atoms) < target:
        sites = _sites(graph)
        if not sites:
            break
        newest = len(graph.atoms) - 1
        at = newest if newest in sites and rng.random() < 0.6 else rng.choice(sites)
        if target - len(graph.atoms) >= 6 and rng.random() < 0.1:
            _attach(graph, at, _fragment(rng.choice(SIMPLE_RINGS)))
            continue
        double = graph.free_valence(at) >= 2 and rng.random() < 0.15
        _attach(graph, at, Graph([Atom(rng.choice(CHAIN_ATOMS))]), 2 if double else 1)
    return graph


def near_miss(rng: Rng, graph: Graph) -> Graph:
    """One small valid edit: add a substituent, swap a bare carbon for N
    or O, or drop a terminal atom."""
    edited = graph.copy()
    kind = rng.below(3)
    if kind == 0 and _sites(edited):
        _attach(edited, rng.choice(_sites(edited)),
                _fragment(rng.choice(("F", "Cl", "C", "O"))))
        return edited
    carbons = [i for i, a in enumerate(edited.atoms)
               if a.element == "C" and not a.aromatic and a.bracket is None
               and edited.free_valence(i) >= 2]
    if kind == 1 and carbons:
        idx = rng.choice(carbons)
        edited.atoms[idx] = Atom("O" if edited.free_valence(idx) >= 3 else "N")
        return edited
    adj = edited.adjacency()
    leaves = [i for i, row in enumerate(adj)
              if len(row) == 1 and edited.atoms[i].bracket is None]
    if len(edited.atoms) > 2 and leaves:
        drop = rng.choice(leaves)
        kept = [i for i in range(len(edited.atoms)) if i != drop]
        remap = {old: new for new, old in enumerate(kept)}
        out = Graph([edited.atoms[i] for i in kept])
        for (a, b), order in edited.bonds.items():
            if drop not in (a, b):
                out.add_bond(remap[a], remap[b], order)
        return out
    if edited.free_valence(0):
        _attach(edited, 0, _fragment("C"))
    return edited


def corrupt(rng: Rng, text: str) -> str:
    """An invalid SMILES made from a valid one: an unknown symbol, an
    unclosed branch, or an unclosed ring bond."""
    kind = rng.below(3)
    pos = rng.between(1, len(text))
    if kind == 0:
        return text[:pos] + "Q" + text[pos:]
    if kind == 1:
        return text[:pos] + "(" + text[pos:]
    return text + "%97"


def _stratified(rng: Rng, low: int, high: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over [low, high], in random order, so
    the size mix (and with it the work) is the same for every seed."""
    sizes = [low + round(i * (high - low) / max(count - 1, 1)) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _size_neighbours(refs: list[tuple[str, Graph]], sizes: list[int]) -> list[str]:
    """For each reference, a different reference of about its size: the
    "other valid drug" a hypothesis may name instead, at similar cost."""
    by_size = sorted(range(len(refs)), key=lambda i: (sizes[i], i))
    out = [""] * len(refs)
    for rank, idx in enumerate(by_size):
        step = 1 if rank + 1 < len(by_size) else -1
        for near in by_size[rank + step::step]:
            if refs[near][0] != refs[idx][0]:
                out[idx] = refs[near][0]
                break
    return out


def _kinds(rng: Rng, weights: dict[str, int], sizes: list[int]) -> list[str]:
    """One hypothesis kind per row, in the given proportions.  Rows are
    taken in blocks of similar size and each block gets every kind once,
    so which kinds land on the largest references varies little by seed."""
    pattern = [kind for kind, weight in weights.items() for _ in range(weight)]
    by_size = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    kinds = [""] * len(sizes)
    for start in range(0, len(by_size), len(pattern)):
        block = list(pattern)
        rng.shuffle(block)
        for idx, kind in zip(by_size[start:start + len(pattern)], block):
            kinds[idx] = kind
    return kinds


def _hypothesis(rng: Rng, kind: str, ref_text: str, ref_graph: Graph,
                other: str) -> str:
    if kind == "copy":
        return ref_text
    if kind == "reroot":
        return write_smiles(ref_graph, rng.below(len(ref_graph.atoms)), rng)
    if kind == "near_miss":
        return write_smiles(near_miss(rng, ref_graph))
    if kind == "other":
        return other
    if kind == "invalid":
        return corrupt(rng, ref_text)
    return ""


I2D_DRUG_ROWS = 48
I2D_DRUG_KINDS = {"copy": 1, "reroot": 1, "near_miss": 1, "other": 1,
                  "invalid": 1, "empty": 1}
I2D_SMALL_ROWS = 240
I2D_SMALL_POOL = 60
I2D_SMALL_KINDS = {"copy": 2, "reroot": 1, "near_miss": 1, "other": 2,
                   "invalid": 5, "empty": 1}
FCD_REF_ROWS = 5000
EMBED_DIM = 512


def i2d_drug_rows(rng: Rng) -> list[dict]:
    known = [text for text in KNOWN_DRUGS.values()
             if 20 <= len(read_smiles(text).atoms) <= 70]
    refs = [(text, read_smiles(text)) for text in known]
    seen = set(known)
    for size in _stratified(rng, 20, 70, I2D_DRUG_ROWS - len(refs)):
        while True:
            graph = drug_like(rng, size)
            text = write_smiles(graph)
            if text not in seen:
                break
        seen.add(text)
        refs.append((text, graph))
    rng.shuffle(refs)
    return _i2d_rows(rng, "r", refs, I2D_DRUG_KINDS)


def _i2d_rows(rng: Rng, prefix: str, refs: list[tuple[str, Graph]],
              weights: dict[str, int]) -> list[dict]:
    # Rows are matched by path count, the best predictor of their cost.
    costs = [path_count(graph) for _, graph in refs]
    kinds = _kinds(rng, weights, costs)
    others = _size_neighbours(refs, costs)
    return [{"id": f"{prefix}{i:04d}", "reference": text,
             "hypothesis": _hypothesis(rng, kind, text, graph, other)}
            for i, ((text, graph), kind, other) in enumerate(zip(refs, kinds, others))]


def i2d_small_rows(rng: Rng) -> list[dict]:
    pool = [(text, read_smiles(text)) for text in KNOWN_DRUGS.values()
            if len(read_smiles(text).atoms) <= 15]
    count = I2D_SMALL_POOL - len(pool)
    # Sizes skew small (median about 5 atoms) as in a typical small-molecule
    # list; every seed gets the same sizes.
    sizes = [1 + round(29 * ((i + 0.5) / count) ** 3) for i in range(count)]
    for size in sizes:
        graph = small_molecule(rng, size)
        pool.append((write_smiles(graph, rng.below(len(graph.atoms))), graph))
    repeats = I2D_SMALL_ROWS // len(pool)
    refs = [entry for entry in pool for _ in range(repeats)]
    rng.shuffle(refs)
    return _i2d_rows(rng, "s", refs, I2D_SMALL_KINDS)


# --- indication text ---------------------------------------------------------

ACTIONS = ("treatment", "management", "relief", "prevention", "control",
           "symptomatic treatment", "long term management")
QUALIFIERS = ("mild to moderate", "severe", "chronic", "acute", "recurrent",
              "treatment resistant", "newly diagnosed")
CONDITIONS = (
    "hypertension", "bacterial infections of the skin", "seasonal allergic rhinitis",
    "major depressive disorder", "type 2 diabetes mellitus", "rheumatoid arthritis",
    "gastroesophageal reflux disease", "partial onset seizures", "chronic heart failure",
    "migraine headache", "asthma and bronchospasm", "postoperative nausea and vomiting",
    "iron deficiency anemia", "hypercholesterolemia", "urinary tract infections",
    "glaucoma and ocular hypertension",
)
POPULATIONS = ("in adults", "in children over six years of age", "in elderly patients",
               "in hospitalized patients", "in adults and adolescents",
               "when first line therapy has failed")
JOINERS = ("; ", " and ", ", as well as ")
MAX_GENERATION_WORDS = 256

D2I_ROWS = 20
D2I_KINDS = {"copy": 1, "partial": 1, "other": 1, "truncation": 1, "loop": 1}


_WORD_RE = re.compile(r"\w+|[^\w\s]")

# Words per clause, as the word tokenizer counts them.  Clauses of the
# grammar run from 8 to 21 words; the benchmark draws from the common
# middle in equal shares, so that the METEOR work (which grows with
# length) varies little by seed while clause count still varies by row.
CLAUSE_WORDS = (11, 12, 13)


class Clauses:
    """Clause source: each clause draws its length from a shuffled deck of
    CLAUSE_WORDS, then a random slot combination of that length."""

    def __init__(self, rng: Rng):
        self.rng = rng
        self.deck: list[int] = []
        self.by_length: dict[int, list[str]] = {n: [] for n in CLAUSE_WORDS}
        for parts in itertools.product(ACTIONS, QUALIFIERS, CONDITIONS, POPULATIONS):
            text = "for the {} of {} {} {}".format(*parts)
            words = len(_WORD_RE.findall(text))
            if words in self.by_length:
                self.by_length[words].append(text)

    def __call__(self) -> str:
        if not self.deck:
            self.deck = list(CLAUSE_WORDS)
            self.rng.shuffle(self.deck)
        return self.rng.choice(self.by_length[self.deck.pop()])


def indication(clauses: list[str]) -> str:
    text = clauses[0]
    for i, part in enumerate(clauses[1:]):
        text += JOINERS[i % len(JOINERS)] + part
    return text[0].upper() + text[1:] + "."


def _d2i_hypothesis(rng: Rng, clause: Clauses, kind: str, clauses: list[str],
                    ref: str, other: str) -> str:
    if kind == "copy":
        return ref
    if kind == "partial":
        # Half the clauses kept (at least one replaced), in place.
        replace = list(range(len(clauses)))
        rng.shuffle(replace)
        replace = set(replace[:max(1, len(clauses) // 2)])
        return indication([clause() if i in replace else c for i, c in enumerate(clauses)])
    if kind == "other":
        return other
    words = ref.split()
    if kind == "truncation":
        return " ".join(words[:max(1, (len(words) * rng.between(30, 80)) // 100)])
    loop = clauses[0].split()
    return " ".join((loop * (MAX_GENERATION_WORDS // len(loop) + 1))[:MAX_GENERATION_WORDS])


def d2i_rows(rng: Rng) -> list[dict]:
    clause = Clauses(rng)
    counts = [1 + i % 4 for i in range(D2I_ROWS)]
    rng.shuffle(counts)
    parts = [[clause() for _ in range(n)] for n in counts]
    refs = [indication(p) for p in parts]
    kinds = _kinds(rng, D2I_KINDS, counts)
    # "Other" hypotheses name the next indication with as many clauses.
    other = {}
    for n in set(counts):
        group = [i for i in range(D2I_ROWS) if counts[i] == n]
        for pos, idx in enumerate(group):
            other[idx] = refs[group[(pos + 1) % len(group)]]
    return [{"id": f"t{i:04d}", "reference": ref,
             "hypothesis": _d2i_hypothesis(rng, clause, kind, p, ref, other[i])}
            for i, (p, ref, kind) in enumerate(zip(parts, refs, kinds))]


# --- files -------------------------------------------------------------------

def _vector(draw, dim: int, shift: float = 0.0) -> list[float]:
    """Mean ``shift``, unit variance: the centred, scaled sum of three
    uniforms.  ``draw`` is ``random.Random.random``, whose stream the
    standard library keeps stable across versions for a given seed."""
    return [(draw() + draw() + draw() - 1.5) * 2.0 + shift for _ in range(dim)]


def _fmt(values: list[float]) -> str:
    return " ".join(f"{v:.6f}" for v in values)


def write_embedding_file(path: Path, rng: Rng, rows: int, dim: int,
                         shift: float = 0.0) -> None:
    draw = random.Random(rng.u64()).random
    with path.open("w", encoding="utf-8") as out:
        out.write(f"D={dim}\n")
        for _ in range(rows):
            out.write(_fmt(_vector(draw, dim, shift)) + "\n")


def write_paired_file(path: Path, rng: Rng, rows: int, dim: int) -> None:
    """Text2Mol pairs: the hypothesis vector is the reference plus noise."""
    draw = random.Random(rng.u64()).random
    with path.open("w", encoding="utf-8") as out:
        out.write(f"D={dim}\n")
        for _ in range(rows):
            ref = _vector(draw, dim)
            hyp = [r + 0.8 * n for r, n in zip(ref, _vector(draw, dim))]
            out.write(_fmt(ref) + " " + _fmt(hyp) + "\n")


def write_predictions(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as out:
        for row in rows:
            out.write(json.dumps(row, ensure_ascii=False) + "\n")


WORKLOADS = ("i2d_drug", "i2d_small_embed", "d2i_text")


def generate(workload: str, seed: int, out_dir: Path) -> list[str]:
    """Write one workload's inputs into ``out_dir`` and return the
    ``evalkit`` argument list (without ``--format``) that scores them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Rng(seed * 8 + WORKLOADS.index(workload))
    preds = out_dir / "predictions.jsonl"
    if workload == "i2d_drug":
        write_predictions(preds, i2d_drug_rows(rng))
        return ["eval-i2d", str(preds)]
    if workload == "i2d_small_embed":
        write_predictions(preds, i2d_small_rows(rng))
        files = {name: out_dir / f"{name}.txt" for name in ("fcd_ref", "fcd_hyp", "text2mol")}
        write_embedding_file(files["fcd_ref"], rng, FCD_REF_ROWS, EMBED_DIM)
        write_embedding_file(files["fcd_hyp"], rng, I2D_SMALL_ROWS, EMBED_DIM, shift=0.1)
        write_paired_file(files["text2mol"], rng, I2D_SMALL_ROWS, EMBED_DIM)
        return ["eval-i2d", str(preds),
                "--embeddings-ref", str(files["fcd_ref"]),
                "--embeddings-hyp", str(files["fcd_hyp"]),
                "--text2mol-embeddings", str(files["text2mol"])]
    if workload == "d2i_text":
        write_predictions(preds, d2i_rows(rng))
        return ["eval-d2i", str(preds)]
    raise ValueError(f"unknown workload {workload!r}")
