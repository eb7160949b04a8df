"""Parser, validator, and molecular property tests."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.errors import (
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
from evalkit import smiles
from evalkit.smiles import (
    BondOrder,
    Chirality,
    molecular_formula,
    parse_smiles,
    strict_valence_ok,
    validate,
)

import genmol
import oracles


class TestParsing:
    def test_linear_chain(self):
        mol = parse_smiles("CCO")
        assert [a.element for a in mol.atoms] == ["C", "C", "O"]
        assert len(mol.bonds) == 2
        assert all(b.order is BondOrder.SINGLE for b in mol.bonds)
        assert mol.source == "CCO"

    def test_ring(self):
        mol = parse_smiles("C1CCCCC1")
        assert len(mol.atoms) == 6
        assert len(mol.bonds) == 6
        assert all(mol.ring_atom_flags)

    def test_aromatic_ring(self):
        mol = parse_smiles("c1ccccc1")
        assert all(a.aromatic for a in mol.atoms)
        assert all(a.element == "C" for a in mol.atoms)
        assert all(b.order is BondOrder.AROMATIC for b in mol.bonds)

    def test_branch(self):
        mol = parse_smiles("CC(=O)O")
        assert len(mol.atoms) == 4
        orders = sorted(b.order.name for b in mol.bonds)
        assert orders == ["DOUBLE", "SINGLE", "SINGLE"]
        # the double bond hangs off atom 1
        double = next(b for b in mol.bonds if b.order is BondOrder.DOUBLE)
        assert {double.from_idx, double.to_idx} == {1, 2}

    def test_bond_symbols(self):
        assert parse_smiles("C=C").bonds[0].order is BondOrder.DOUBLE
        assert parse_smiles("C#C").bonds[0].order is BondOrder.TRIPLE
        assert parse_smiles("C$C").bonds[0].order is BondOrder.QUADRUPLE
        assert parse_smiles("C:C").bonds[0].order is BondOrder.AROMATIC
        assert parse_smiles("C-C").bonds[0].order is BondOrder.SINGLE

    def test_directional_bonds_become_single(self):
        mol = parse_smiles("C/C=C\\C")
        orders = [b.order for b in mol.bonds]
        assert orders == [BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.SINGLE]

    def test_two_letter_elements(self):
        mol = parse_smiles("ClCBr")
        assert [a.element for a in mol.atoms] == ["Cl", "C", "Br"]

    def test_bracket_atom_fields(self):
        atom = parse_smiles("[13C@@H2+]").atoms[0]
        assert atom.element == "C"
        assert atom.isotope == 13
        assert atom.chirality is Chirality.CLOCKWISE
        assert atom.explicit_h_count == 2
        assert atom.formal_charge == 1
        assert atom.in_bracket

    def test_bracket_charge_styles(self):
        assert parse_smiles("[O-2]").atoms[0].formal_charge == -2
        assert parse_smiles("[O--]").atoms[0].formal_charge == -2
        assert parse_smiles("[Fe+++]").atoms[0].formal_charge == 3
        assert parse_smiles("[NH4+]").atoms[0].explicit_h_count == 4

    def test_bracket_atom_class_discarded(self):
        mol = parse_smiles("[CH3:7]C")
        assert mol.atoms[0].element == "C"
        assert mol.atoms[0].explicit_h_count == 3

    def test_bracket_aromatic_two_letter(self):
        atom = parse_smiles("[se]").atoms[0]
        assert atom.element == "Se"
        assert atom.aromatic

    def test_dot_separates_fragments(self):
        mol = parse_smiles("[Na+].[Cl-]")
        assert len(mol.atoms) == 2
        assert len(mol.bonds) == 0

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%12CCCCC%12")
        assert len(mol.bonds) == 6
        assert all(mol.ring_atom_flags)

    def test_ring_bond_order_written_on_either_side(self):
        for text in ("C=1CCCCC1", "C1CCCCC=1", "C=1CCCCC=1"):
            mol = parse_smiles(text)
            closure = mol.bonds[-1]
            assert closure.order is BondOrder.DOUBLE

    def test_ring_digit_reuse_after_closing(self):
        mol = parse_smiles("C1CC1C1CC1")
        assert len(mol.atoms) == 6
        # two three-membered rings plus the chain bond joining them
        assert len(mol.bonds) == 7
        assert mol.ring_sizes == frozenset({3})

    def test_implicit_bond_between_aromatic_atoms_is_aromatic(self):
        mol = parse_smiles("cc")
        assert mol.bonds[0].order is BondOrder.AROMATIC

    def test_explicit_single_between_aromatic_atoms(self):
        mol = parse_smiles("c1ccccc1-c1ccccc1")
        bridge = mol.bonds[6]
        assert bridge.order is BondOrder.SINGLE


class TestParseErrors:
    @pytest.mark.parametrize("text,error", [
        ("C1CC", UnmatchedRingClosure),
        ("C11", UnmatchedRingClosure),
        ("C=1CC-1", RingBondConflict),
        ("C(", UnbalancedParenthesis),
        ("CC)C", UnbalancedParenthesis),
        ("(CC)", UnbalancedParenthesis),
        ("C()C", EmptyBranch),
        ("=CC", LeadingBond),
        ("1CC1", LeadingBond),
        ("CC=", DanglingBond),
        ("C==C", DanglingBond),
        ("C=(C)O", DanglingBond),
        ("C(C=)O", DanglingBond),
        ("C=.C", DanglingBond),
        (".CC", EmptyComponent),
        ("CC.", EmptyComponent),
        ("C..C", EmptyComponent),
        ("C12CC12", DuplicateBond),
        ("[C", UnterminatedBracket),
        ("[", UnterminatedBracket),
        ("Cq", UnknownSymbol),
        ("C*", UnknownSymbol),
        ("[Xq]", UnknownSymbol),
        ("[]", UnknownSymbol),
        ("C C", UnknownSymbol),
        ("", SmilesParseError),
    ])
    def test_error_class(self, text, error):
        with pytest.raises(error):
            parse_smiles(text)

    def test_error_offset_reported(self):
        with pytest.raises(UnknownSymbol) as info:
            parse_smiles("CCq")
        assert info.value.offset == 2
        assert "offset 2" in str(info.value)

    def test_after_dot_bond_is_leading(self):
        with pytest.raises(LeadingBond):
            parse_smiles("C.=C")


class TestValidate:
    def test_valid_lenient(self):
        report = validate("CCO")
        assert report.parseable and report.ring_closures_ok and report.parentheses_ok
        assert report.valence_ok is None
        assert report.verdict

    def test_ring_failure_flags(self):
        report = validate("C1CC")
        assert not report.parseable
        assert not report.ring_closures_ok
        assert report.parentheses_ok
        assert not report.verdict
        assert "ring" in report.failure_detail

    def test_paren_failure_flags(self):
        report = validate("C(")
        assert not report.parseable
        assert report.ring_closures_ok
        assert not report.parentheses_ok
        assert not report.verdict

    def test_strict_valence_failure(self):
        report = validate("CC(C)(C)(C)C", strict=True)
        assert report.parseable
        assert report.valence_ok is False
        assert not report.verdict

    def test_lenient_ignores_valence(self):
        report = validate("CC(C)(C)(C)C")
        assert report.valence_ok is None
        assert report.verdict

    def test_strict_valence_pass(self):
        report = validate("c1ccccc1", strict=True)
        assert report.valence_ok is True
        assert report.verdict

    def test_empty_string(self):
        report = validate("")
        assert not report.parseable
        assert not report.verdict

    def test_whitespace_trimmed(self):
        assert validate("  CCO \n").verdict

    def test_bracket_atoms_exempt_from_valence(self):
        # Explicit decorations take responsibility for their own chemistry.
        assert validate("[C](C)(C)(C)(C)C", strict=True).verdict

    def test_verdict_is_conjunction(self, valid_smiles_corpus):
        for text in valid_smiles_corpus[:50]:
            report = validate(text, strict=True)
            flags = [report.parseable, report.ring_closures_ok,
                     report.parentheses_ok]
            if report.valence_ok is not None:
                flags.append(report.valence_ok)
            assert report.verdict == all(flags)

    def test_a_parse_failure_leaves_no_garbage(self, no_garbage_after):
        # The report keeps what it needs of the exception, not the
        # exception, whose traceback holds the caller's frames.
        assert no_garbage_after(lambda: validate("C1CC("))


class TestStrictValence:
    def test_pentavalent_carbon_rejected(self):
        assert not strict_valence_ok(parse_smiles("CC(C)(C)(C)C"))

    def test_sulfur_hexavalent_allowed(self):
        assert strict_valence_ok(parse_smiles("OS(=O)(=O)O"))

    def test_nitrogen_pentavalent_allowed(self):
        assert strict_valence_ok(parse_smiles("O=[N+]([O-])c1ccccc1"))

    def test_halogen_divalent_rejected(self):
        assert not strict_valence_ok(parse_smiles("CClC"))


class TestMolecularFormula:
    @pytest.mark.parametrize("text,formula", [
        ("CCO", "C2H6O"),
        ("c1ccccc1", "C6H6"),
        ("[NH4+]", "H4N+"),
        ("CC(=O)O", "C2H4O2"),
        ("Cc1ccccc1", "C7H8"),
        ("c1ccncc1", "C5H5N"),
        ("c1ccoc1", "C4H4O"),
        ("C[N+](C)(C)C", "C4H12N+"),
        ("[O-2]", "O-2"),
        ("[Na+].[Cl-]", "ClNa"),
        ("[13CH4]", "CH4"),
        ("O", "H2O"),
        ("N#N", "N2"),
        ("OS(=O)(=O)O", "H2O4S"),
    ])
    def test_formula(self, text, formula):
        assert molecular_formula(parse_smiles(text)) == formula

    def test_carbon_first_then_hydrogen_then_alphabetical(self):
        assert molecular_formula(parse_smiles("ClCBr")) == "CH2BrCl"


class TestRingPerception:
    def test_chain_has_no_ring_atoms(self):
        mol = parse_smiles("CCCCC")
        assert not any(mol.ring_atom_flags)
        assert not any(mol.ring_bond_flags)

    def test_ring_sizes(self):
        assert parse_smiles("C1CC1").ring_sizes == frozenset({3})
        assert parse_smiles("c1ccccc1").ring_sizes == frozenset({6})
        assert parse_smiles("C1CC1C1CCCC1").ring_sizes == frozenset({3, 5})

    def test_bridge_not_flagged(self):
        mol = parse_smiles("C1CC1CC1CC1")
        flags = dict(zip(
            [(b.from_idx, b.to_idx) for b in mol.bonds], mol.ring_bond_flags))
        # the two chain bonds joining the rings are bridges
        assert sum(1 for v in flags.values() if not v) == 2

    @staticmethod
    def bridges(mol) -> set[int]:
        return {i for i, in_ring in enumerate(mol.ring_bond_flags) if not in_ring}

    def test_ring_bonds_match_deletion_on_generated_graphs(self):
        rng = random.Random(2525)
        ring_bond_counts = set()
        for _ in range(2000):
            parts = []
            for _ in range(rng.choice((1, 1, 2))):
                gmol = genmol.random_molecule(rng, max_ring_bonds=7)
                parts.append(genmol.write_smiles(gmol, rng=rng)[0])
                ring_bond_counts.add(len(gmol.bonds) - len(gmol.atoms) + 1)
            mol = parse_smiles(".".join(parts))
            assert self.bridges(mol) == oracles.bridges_by_deletion(mol), mol.source
        assert ring_bond_counts == set(range(8))

    @pytest.mark.parametrize("text, bridges", [
        ("C1CCC2CCCCC2C1", 0),      # fused: decalin
        ("C1CCC2(C1)CCC2", 0),      # spiro
        ("C1CC2CCC1C2", 0),         # bridged: norbornane
        ("CC1CC2CC1CC2C", 2),       # bridged, with two methyls
        ("C1CC12CC2.C", 0),         # spiro, beside a lone atom
    ])
    def test_ring_bonds_on_known_shapes(self, text, bridges):
        mol = parse_smiles(text)
        assert len(self.bridges(mol)) == bridges
        assert self.bridges(mol) == oracles.bridges_by_deletion(mol)

    def test_complete_graph_written_with_percent_labels(self):
        # K5: each atom its own component, joined only by ring bonds
        mol = parse_smiles(
            "C%10%11%12%13.C%10%14%15%16.C%11%14%17%18.C%12%15%17%19.C%13%16%18%19")
        assert len(mol.bonds) == 10 and all(mol.ring_bond_flags)
        assert oracles.bridges_by_deletion(mol) == set()
        assert mol.ring_sizes == frozenset({3})

    def test_long_chain_is_all_bridges(self):
        mol = parse_smiles("C" * 30_000)
        assert len(mol.bonds) == 29_999
        assert not any(mol.ring_bond_flags)

    def test_long_ring_is_all_ring_bonds(self):
        mol = parse_smiles("C1" + "C" * 29_998 + "C1")
        assert len(mol.bonds) == 30_000
        assert all(mol.ring_bond_flags)


class TestGeneratedGraphs:
    """The writer in genmol emits SMILES for a known graph; parsing must
    recover exactly that graph (elements, flags, charges, bond orders)."""

    def test_parse_recovers_generated_graph(self):
        rng = random.Random(4242)
        for _ in range(300):
            gmol = genmol.random_molecule(rng)
            text, order = genmol.write_smiles(gmol, rng=rng)
            parsed = parse_smiles(text)
            assert len(parsed.atoms) == len(gmol.atoms), text
            for position, generated_idx in enumerate(order):
                expected = gmol.atoms[generated_idx]
                actual = parsed.atoms[position]
                assert actual.element == expected.element, text
                assert actual.aromatic == expected.aromatic, text
                assert actual.formal_charge == expected.charge, text
            position_of = {g: p for p, g in enumerate(order)}
            expected_bonds = {
                tuple(sorted((position_of[a], position_of[b]))) + (order_name,)
                for (a, b), order_name in gmol.bonds.items()
            }
            actual_bonds = {
                tuple(sorted((b.from_idx, b.to_idx))) + (b.order.name.lower(),)
                for b in parsed.bonds
            }
            assert actual_bonds == expected_bonds, text

    def test_rerooted_writings_parse_to_same_formula(self):
        rng = random.Random(99)
        for _ in range(100):
            gmol = genmol.random_molecule(rng, max_atoms=10)
            text_a, _ = genmol.write_smiles(gmol, root=0)
            root_b = rng.randrange(len(gmol.atoms))
            text_b, _ = genmol.write_smiles(gmol, root=root_b)
            assert (molecular_formula(parse_smiles(text_a))
                    == molecular_formula(parse_smiles(text_b)))


@given(st.one_of(
    st.text(alphabet="CNOPSFIcnos123456789()=#[]+-.%@Hl\\/Br", max_size=40),
    st.text(),
    # '²' and '³' are digits to str.isdigit, '٣' and '١' to int() and \d.
    st.text(alphabet="Cc1%[]+-()²³٣١", max_size=20),
))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_unexpectedly(text):
    """Any input either parses or raises a SmilesParseError; nothing else.
    validate never raises at all."""
    for strict in (False, True):
        validate(text, strict=strict)
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return
    assert len(mol.atoms) >= 1
    for bond in mol.bonds:
        assert 0 <= bond.from_idx < len(mol.atoms)
        assert 0 <= bond.to_idx < len(mol.atoms)
        assert bond.from_idx != bond.to_idx


class TestNonAsciiDigits:
    """Ring-closure, isotope and charge digits are ASCII; any other digit
    character is an unknown symbol at its own offset."""

    @pytest.mark.parametrize("text,offset", [
        ("C²", 1), ("[²C]", 1), ("[C+²]", 3), ("C%²³", 1), ("C٣CC٣", 1),
    ])
    def test_rejected_without_crashing(self, text, offset):
        report = validate(text)
        assert report.verdict is False
        assert not report.parseable
        assert f"offset {offset}" in report.failure_detail
        with pytest.raises(UnknownSymbol) as info:
            parse_smiles(text)
        assert info.value.offset == offset


@given(st.sampled_from([
    "CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[NH4+]", "C1CC2CCC1CC2",
]))
def test_parse_is_deterministic(text):
    first = parse_smiles(text)
    second = parse_smiles(text)
    assert first.atoms == second.atoms
    assert first.bonds == second.bonds


class TestDigitRunBound:
    """Isotope, hydrogen-count and charge digit runs are read up to nine
    digits; a longer run is an unknown symbol at its tenth digit, however
    long it is, so no run is ever converted into a huge number."""

    @pytest.mark.parametrize("text,field,value", [
        ("[123456789C]", "isotope", 123456789),
        ("[CH123456789]", "explicit_h_count", 123456789),
        ("[C+123456789]", "formal_charge", 123456789),
        ("[C-000000009]", "formal_charge", -9),
    ])
    def test_nine_digits_parse(self, text, field, value):
        assert getattr(parse_smiles(text).atoms[0], field) == value

    @pytest.mark.parametrize("text,offset", [
        ("[1234567890C]", 10),
        ("[CH1234567890]", 12),
        ("[C+1234567890]", 12),
        ("C[C-0000000000]", 13),
        ("[" + "1" * 5000 + "C]", 10),
        ("[CH" + "9" * 5000 + "]", 12),
        ("[C+" + "9" * 5000 + "]", 12),
    ], ids=["isotope", "hcount", "charge", "negative", "isotope-5000", "hcount-5000",
            "charge-5000"])
    def test_ten_digits_rejected_at_the_tenth(self, text, offset):
        with pytest.raises(UnknownSymbol) as info:
            parse_smiles(text)
        assert info.value.offset == offset
        report = validate(text)
        assert not report.parseable and not report.verdict

    def test_atom_class_digits_are_not_bounded(self):
        # the class is discarded, never converted, so any run is fine
        assert parse_smiles("[CH3:" + "7" * 5000 + "]").atoms[0].explicit_h_count == 3


# The alphabet of the random strings: every character the bracket grammar
# uses, look-alikes it must reject, and multi-character symbols.
_UNITS = tuple("[]CcNnOoSsHhe@+-:0123456789XxlrBFIPa#=()%.") + (
    "Cl", "Br", "se", "as", "Hg", "Co", "Zn", "Na", "\u0661", "\u00c0", " ", "\n")
_TEN_DIGITS = re.compile(r"[0-9]{10}")


def _random_strings(seed: int, count: int) -> list[str]:
    """Strings of 1-10 units, half of them opening with ``[``; none holds
    a run of ten digits, where the two readers are meant to differ."""
    rng = random.Random(seed)
    out: list[str] = []
    while len(out) < count:
        units = rng.choices(_UNITS, k=rng.randint(1, 10))
        if rng.random() < 0.5:
            units[0] = "["
        text = "".join(units)
        if not _TEN_DIGITS.search(text):
            out.append(text)
    return out


def _bracket_atoms_from_parts() -> list[str]:
    """Every combination of valid and nearly valid bracket-atom parts."""
    parts = (
        ("", "0", "123456789"),
        ("", "C", "c", "Cl", "se", "Hg", "H", "Xx", "l", "@"),
        ("", "@", "@@", "@@@"),
        ("", "H", "H0", "H12", "h"),
        ("", "+", "-", "++", "--", "+2", "-123456789", "+1+"),
        ("", ":", ":12", ":a", ":1:"),
        ("]", "", "x]"),
    )
    return ["[" + "".join(combo) for combo in itertools.product(*parts)]


def _outcomes(texts: list[str]) -> list[tuple]:
    out = []
    for text in texts:
        try:
            mol = parse_smiles(text)
        except SmilesParseError as exc:
            out.append((type(exc), str(exc), exc.offset))
        else:
            out.append((repr(mol.atoms), mol.bonds))
    return out


class TestBracketAtomAgainstCursor:
    """The bracket-atom pattern reads every input exactly as the old
    character-cursor reader (``oracles.bracket_atom_by_cursor``) did: the
    same atoms and bonds, or the same error class, message and offset."""

    def assert_same_as_cursor(self, texts, monkeypatch):
        by_pattern = _outcomes(texts)
        monkeypatch.setattr(smiles, "_bracket_atom", oracles.bracket_atom_by_cursor)
        by_cursor = _outcomes(texts)
        differences = [(text, new, old) for text, new, old
                       in zip(texts, by_pattern, by_cursor) if new != old]
        assert not differences, differences[:5]

    def test_random_strings(self, monkeypatch):
        self.assert_same_as_cursor(_random_strings(6, 50_000), monkeypatch)

    def test_bracket_parts(self, monkeypatch):
        self.assert_same_as_cursor(_bracket_atoms_from_parts(), monkeypatch)

    def test_generated_molecules(self, monkeypatch):
        rng = random.Random(606)
        texts = [genmol.write_smiles(genmol.random_molecule(rng), rng=rng)[0]
                 for _ in range(2000)]
        assert sum("[" in text for text in texts) > 1000
        self.assert_same_as_cursor(texts, monkeypatch)
