"""Fingerprint scheme and similarity tests."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.errors import InputError, SchemeMismatch
from evalkit.fingerprints import (
    DEFAULT_KEYSET,
    Fingerprint,
    KeyDescriptor,
    KeySet,
    _entry_bytes,
    _fnv1a64_extend,
    _path_codes,
    _step_table,
    enumerate_path_descriptors,
    fnv1a64,
    key_fingerprint,
    morgan_fingerprint,
    path_fingerprint,
    tanimoto,
)
from evalkit.smiles import parse_smiles

import genmol
import oracles


class TestFnv1a64:
    """Published reference vectors for the 64-bit FNV-1a function."""

    @pytest.mark.parametrize("data,digest", [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
    ])
    def test_reference_vectors(self, data, digest):
        assert fnv1a64(data) == digest

    def test_takes_bytes_only(self):
        with pytest.raises(TypeError):
            fnv1a64("foobar")


def _fixture_drugs(fixtures_dir):
    lines = (fixtures_dir / "drugs_smiles.txt").read_text().splitlines()
    return [parse_smiles(line) for line in lines if line.strip()]


# Bracket atoms of 36 elements in a chain whose bonds cycle through single,
# double, triple and quadruple (some atoms charged), plus two aromatic rings
# with bracket atoms: over 100 distinct path entries, so path readings are
# ints of more than 64 bits.
_WIDE_CHAIN = "".join(
    ("" if i == 0 else "-=#$"[i % 4]) + f"[{symbol}{'+2' if i % 5 == 0 else ''}]"
    for i, symbol in enumerate((
        "Li", "Be", "Na", "Mg", "Al", "Si", "K", "Ca", "Ti", "V", "Cr", "Mn",
        "Fe", "Co", "Ni", "Cu", "Zn", "Ga", "Ge", "Se", "Br", "Rb", "Sr", "Zr",
        "Mo", "Ru", "Rh", "Pd", "Ag", "Sn", "Sb", "Te", "I", "Pt", "Au", "Hg")))
WIDE_MOLECULES = (
    _WIDE_CHAIN + ".c1cc[se][as]1.[se]1[se][as]([N+](=O)[O-])[as]c1",
    # the same chain closed into rings, so entries repeat along many paths
    _WIDE_CHAIN + "1" + "".join(
        "-=#$"[i % 4] + f"[{symbol}-]" for i, symbol in enumerate(
            ("B", "C", "N", "O", "P", "S", "Cl"))) + "1.[nH]1ccc2[se]ccc12",
)


class TestMorgan:
    def test_single_atom_radius_zero_sets_one_bit(self):
        fp = morgan_fingerprint(parse_smiles("C"), radius=0)
        assert fp.popcount == 1

    def test_bit_growth_is_monotone(self):
        mol = parse_smiles("CCO")
        counts = [morgan_fingerprint(mol, radius=r).popcount
                  for r in range(4)]
        assert counts[0] == 3
        assert counts[1] == 6
        assert counts[2] == 9
        for lo, hi in zip(counts, counts[1:]):
            assert lo <= hi

    def test_radius_bits_are_superset(self):
        mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        previous = morgan_fingerprint(mol, radius=0).bits
        for radius in (1, 2, 3):
            current = morgan_fingerprint(mol, radius=radius).bits
            assert previous & current == previous
            previous = current

    def test_traversal_invariance_simple(self):
        assert (morgan_fingerprint(parse_smiles("CCO")).bits
                == morgan_fingerprint(parse_smiles("OCC")).bits)

    def test_distinct_molecules_differ(self):
        assert (morgan_fingerprint(parse_smiles("CCO")).bits
                != morgan_fingerprint(parse_smiles("CCN")).bits)

    def test_params_recorded(self):
        fp = morgan_fingerprint(parse_smiles("C"), radius=3, width=512)
        assert fp.scheme == "morgan"
        assert dict(fp.params) == {"radius": 3, "width": 512}
        assert fp.width == 512

    def test_width_must_be_power_of_two(self):
        with pytest.raises(InputError):
            morgan_fingerprint(parse_smiles("C"), width=100)
        with pytest.raises(InputError):
            morgan_fingerprint(parse_smiles("C"), width=2)

    def test_width_above_the_limit_rejected(self):
        mol = parse_smiles("CCO")
        assert morgan_fingerprint(mol, width=1 << 16).width == 1 << 16
        with pytest.raises(InputError):
            morgan_fingerprint(mol, width=1 << 17)

    def test_charge_and_hydrogens_feed_invariant(self):
        assert (morgan_fingerprint(parse_smiles("[NH4+]"), radius=0).bits
                != morgan_fingerprint(parse_smiles("N"), radius=0).bits)

    def test_bits_match_payload_bytes_oracle(self, fixtures_dir):
        rng = random.Random(8191)
        mols = _fixture_drugs(fixtures_dir) + [
            parse_smiles(text) for text in WIDE_MOLECULES] + [
            parse_smiles(genmol.write_smiles(
                genmol.random_molecule(rng, max_ring_bonds=4), rng=rng)[0])
            for _ in range(200)]
        for mol in mols:
            for radius in (0, 1, 2, 3):
                for width in (256, 2048):
                    assert (morgan_fingerprint(mol, radius, width).bits
                            == oracles.morgan_bits_by_payload_bytes(
                                mol, radius, width)), (mol.source, radius)


class TestPath:
    def test_three_atom_chain(self):
        fp = path_fingerprint(parse_smiles("CCO"))
        assert fp.popcount == 3   # C-C, C-O, C-C-O

    def test_single_atom_has_no_paths(self):
        assert path_fingerprint(parse_smiles("C")).popcount == 0

    def test_ring_paths_capped_by_length(self):
        fp = path_fingerprint(parse_smiles("C1CC1"), max_path_bonds=2)
        assert fp.popcount == 2   # C-C and C-C-C only

    def test_direction_canonicalization(self):
        assert (path_fingerprint(parse_smiles("CCO")).bits
                == path_fingerprint(parse_smiles("OCC")).bits)

    def test_descriptor_enumeration_matches_permutation_oracle(self):
        for text in ("CCO", "C1CC1", "CC(=O)O", "c1ccccc1", "C#N"):
            mol = parse_smiles(text)
            mine = enumerate_path_descriptors(mol, max_path_bonds=7)
            oracle = oracles.path_descriptors_by_permutation(mol, 7)
            assert mine == oracle, text

    def test_generated_molecules_match_permutation_oracle(self):
        rng = random.Random(6021)
        ringed = 0
        for _ in range(240):
            gmol = genmol.random_molecule(rng, max_atoms=8, max_ring_bonds=4)
            text, _ = genmol.write_smiles(gmol, rng=rng)
            mol = parse_smiles(text)
            ringed += len(mol.bonds) >= len(mol.atoms)
            for max_path_bonds in (7, 3):
                assert (enumerate_path_descriptors(mol, max_path_bonds)
                        == oracles.path_descriptors_by_permutation(
                            mol, max_path_bonds)), (text, max_path_bonds)
        assert ringed >= 60   # rings give the most paths between two atoms

    def test_integer_readings_match_entry_tuple_oracle(self, fixtures_dir):
        """Descriptor sets and bits against the entry-tuple kernel, on drugs,
        generated molecules and molecules whose readings pass 64 bits."""
        rng = random.Random(4099)
        generated = [
            parse_smiles(genmol.write_smiles(
                genmol.random_molecule(rng, max_ring_bonds=4), rng=rng)[0])
            for _ in range(400)]
        wide = [parse_smiles(text) for text in WIDE_MOLECULES]
        for mol in wide:
            codes, ranked = _path_codes(mol, 9)
            assert len(ranked) + 1 > 64
            assert max(codes) >> 64
        for mol in _fixture_drugs(fixtures_dir) + generated + wide:
            for max_path_bonds in (1, 2, 3, 5, 7, 9):
                assert (enumerate_path_descriptors(mol, max_path_bonds)
                        == oracles.path_descriptors_by_entry_tuples(
                            mol, max_path_bonds)), (mol.source, max_path_bonds)
                for width in (256, 2048):
                    assert (path_fingerprint(mol, max_path_bonds, width)
                            == oracles.path_fingerprint_by_entry_tuples(
                                mol, max_path_bonds, width)), (
                        mol.source, max_path_bonds, width)

    def test_huge_max_path_bonds_is_capped_by_atom_count(self):
        mol = parse_smiles("CCOC(=O)c1ccccc1")
        assert (path_fingerprint(mol, max_path_bonds=10 ** 9).bits
                == path_fingerprint(mol, max_path_bonds=len(mol.atoms)).bits)

    def test_step_tables_of_fixture_entries(self, fixtures_dir):
        """The cached table of every entry string the fixture drugs use
        gives the byte loop's state for every low byte."""
        states = random.Random(65537)
        pieces = {b"|" + _entry_bytes(entry)
                  for mol in _fixture_drugs(fixtures_dir)
                  for entry in _path_codes(mol, 7)[1]}
        assert len(pieces) >= 10
        for piece in pieces:
            multiplier, table = _step_table(piece)
            assert table == tuple(_fnv1a64_extend(low, piece)
                                  for low in range(256))
            for _ in range(50):
                value = states.getrandbits(64)
                assert ((value >> 8) * multiplier + table[value & 255]) \
                    & ((1 << 64) - 1) == _fnv1a64_extend(value, piece)

    def test_params_recorded(self):
        fp = path_fingerprint(parse_smiles("CC"), max_path_bonds=5, width=256)
        assert fp.scheme == "path"
        assert dict(fp.params) == {"max_path_bonds": 5, "width": 256}


class TestKeys:
    def test_benzene_key_set(self):
        fp = key_fingerprint(parse_smiles("c1ccccc1"))
        on = {DEFAULT_KEYSET.keys[i].text for i in range(fp.width)
              if fp.bits >> i & 1}
        assert on == {
            "element:C", "count:C:2", "count:C:4", "ring", "ring-size:6",
            "bond:aromatic", "path:C-C", "path:C-C-C", "path:C-C-C-C",
        }

    def test_water_sets_single_key(self):
        fp = key_fingerprint(parse_smiles("O"))
        on = {DEFAULT_KEYSET.keys[i].text for i in range(fp.width)
              if fp.bits >> i & 1}
        assert on == {"element:O"}

    def test_cyclopropane_keys(self):
        fp = key_fingerprint(parse_smiles("C1CC1"))
        on = {DEFAULT_KEYSET.keys[i].text for i in range(fp.width)
              if fp.bits >> i & 1}
        assert on == {
            "element:C", "count:C:2", "ring", "ring-size:3", "bond:single",
            "path:C-C", "path:C-C-C",
        }

    def test_width_is_key_count(self):
        assert key_fingerprint(parse_smiles("C")).width == len(DEFAULT_KEYSET.keys)

    def test_path_key_matches_either_direction(self):
        fp = key_fingerprint(parse_smiles("OCC"))   # keyset lists path:C-C-O
        on = {DEFAULT_KEYSET.keys[i].text for i in range(fp.width)
              if fp.bits >> i & 1}
        assert "path:C-C-O" in on

    def test_path_key_reversed_agrees_on_generated_molecules(self):
        rng = random.Random(515)
        for _ in range(300):
            mol = parse_smiles(genmol.write_smiles(
                genmol.random_molecule(rng, max_ring_bonds=4), rng=rng)[0])
            present = sorted({atom.element for atom in mol.atoms})
            for _ in range(5):
                sequence = rng.choices(present, k=rng.randint(2, 5))
                forward = KeyDescriptor.parse("path:" + "-".join(sequence))
                backward = KeyDescriptor.parse("path:" + "-".join(sequence[::-1]))
                assert forward.matches(mol) == backward.matches(mol), sequence

    @pytest.mark.parametrize("text", [
        "path:C-C=O",                 # a bond symbol is not an element
        "path:c-c",                   # nor is an aromatic spelling
        "element:Xx",
        "count:Xx:2",
        "count:C:\u00b2",              # a digit to str.isdigit, not to int()
        "count:C:0",
        "count:C:1234567890",
        "ring-size:" + "1" * 5000,
        "ring-size:2",
        "path:C",
        "path:C-",
    ], ids=lambda text: text if len(text) < 20 else text[:12] + "...")
    def test_descriptor_rejects_keys_that_never_match(self, text):
        with pytest.raises(InputError):
            KeyDescriptor.parse(text)

    def test_descriptor_accepts_every_element_and_padded_numbers(self):
        mol = parse_smiles("[Na+].[Cl-]")
        assert KeyDescriptor.parse("element:Na").matches(mol)
        assert KeyDescriptor.parse("count:Cl:001").matches(mol)
        assert not KeyDescriptor.parse("path:Na-Cl").matches(mol)

    def test_keyset_load_and_digest(self, tmp_path, fixtures_dir):
        keyset = KeySet.load(fixtures_dir / "keyset_small.tsv")
        assert keyset.name == "keyset_small"
        assert len(keyset.keys) == 5
        assert len(keyset.digest) == 16
        fp = key_fingerprint(parse_smiles("c1ccccc1"), keyset=keyset)
        assert fp.width == 5
        assert dict(fp.params)["keyset"] == keyset.digest
        # hashed once per key set, not once per fingerprint
        assert vars(keyset)["digest"] == keyset.digest

    def test_keyset_load_rejects_sparse_ids(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\telement:C\n2\tring\n")
        with pytest.raises(InputError):
            KeySet.load(path)

    def test_keyset_load_rejects_unknown_grammar(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tfancy:thing\n")
        with pytest.raises(InputError):
            KeySet.load(path)

    def test_descriptor_parse_round_trip(self):
        for text in ("element:N", "count:C:8", "ring", "ring-size:5",
                     "bond:triple", "path:C-N-C"):
            assert KeyDescriptor.parse(text).text == text
            # the compiled predicate takes no part in equality or hashing
            assert KeyDescriptor.parse(text) == KeyDescriptor.parse(text)
            assert hash(KeyDescriptor.parse(text)) == hash(
                KeyDescriptor.parse(text))

    def test_default_keyset_is_stable(self):
        assert DEFAULT_KEYSET.name == "default-40"
        assert len(DEFAULT_KEYSET.keys) == 40
        # digest pins the exact key listing; recompute from scratch
        assert DEFAULT_KEYSET.digest == KeySet(
            name="x", keys=DEFAULT_KEYSET.keys).digest

    def test_default_keyset_digest_literal_is_sha256_of_listing(self):
        listing = "\n".join(f"{i}\t{k.text}" for i, k in enumerate(DEFAULT_KEYSET.keys))
        want = hashlib.sha256(listing.encode("utf-8")).hexdigest()[:16]
        assert DEFAULT_KEYSET.digest == want == "50ae8b502927a1ce"


class TestTanimoto:
    def fp(self, bits, width=16, scheme="morgan", params=(("radius", 2), ("width", 16))):
        return Fingerprint(bits=bits, width=width, scheme=scheme, params=params)

    def test_hand_value(self):
        a = self.fp(0b0111)        # bits {0,1,2}
        b = self.fp(0b1110)        # bits {1,2,3}
        assert tanimoto(a, b) == 0.5

    def test_known_molecule_pair(self):
        a = morgan_fingerprint(parse_smiles("CCO"))
        b = morgan_fingerprint(parse_smiles("CCN"))
        assert tanimoto(a, b) == pytest.approx(0.2)

    def test_identity_is_one(self):
        fp = morgan_fingerprint(parse_smiles("CC(=O)O"))
        assert tanimoto(fp, fp) == 1.0

    def test_empty_empty_is_one(self):
        assert tanimoto(self.fp(0), self.fp(0)) == 1.0

    def test_disjoint_is_zero(self):
        assert tanimoto(self.fp(0b0011), self.fp(0b1100)) == 0.0

    def test_scheme_mismatch_rejected(self):
        a = morgan_fingerprint(parse_smiles("C"))
        b = path_fingerprint(parse_smiles("C"))
        with pytest.raises(SchemeMismatch):
            tanimoto(a, b)

    def test_param_mismatch_rejected(self):
        a = morgan_fingerprint(parse_smiles("C"), radius=1)
        b = morgan_fingerprint(parse_smiles("C"), radius=2)
        with pytest.raises(SchemeMismatch):
            tanimoto(a, b)

    def test_width_mismatch_rejected(self):
        a = morgan_fingerprint(parse_smiles("C"), width=512)
        b = morgan_fingerprint(parse_smiles("C"), width=1024)
        with pytest.raises(SchemeMismatch):
            tanimoto(a, b)


class TestFingerprintValue:
    def test_hex_is_zero_padded(self):
        fp = Fingerprint(bits=1, width=16, scheme="morgan", params=())
        assert fp.to_hex() == "0001"
        assert len(morgan_fingerprint(parse_smiles("C")).to_hex()) == 512

    def test_bits_must_fit_width(self):
        with pytest.raises(ValueError):
            Fingerprint(bits=1 << 20, width=16, scheme="morgan", params=())


class TestRerooting:
    """Writing the same graph from different roots must give bit-identical
    fingerprints under every scheme."""

    def test_generated_pairs(self):
        rng = random.Random(555)
        for _ in range(30):
            gmol = genmol.random_molecule(rng, max_atoms=9)
            text_a, _ = genmol.write_smiles(gmol, root=0)
            text_b, _ = genmol.write_smiles(
                gmol, root=rng.randrange(len(gmol.atoms)))
            mol_a, mol_b = parse_smiles(text_a), parse_smiles(text_b)
            assert (morgan_fingerprint(mol_a).bits
                    == morgan_fingerprint(mol_b).bits), (text_a, text_b)
            assert (path_fingerprint(mol_a).bits
                    == path_fingerprint(mol_b).bits), (text_a, text_b)
            assert (key_fingerprint(mol_a).bits
                    == key_fingerprint(mol_b).bits), (text_a, text_b)


bitvectors = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(bitvectors, st.binary(max_size=32))
@settings(max_examples=300)
def test_fnv_step_table_identity(value, piece):
    """One table lookup and one multiply equal the byte-by-byte FNV-1a loop:
    the XOR only ever touches the low byte of the state."""
    multiplier, table = _step_table.__wrapped__(piece)
    assert (((value >> 8) * multiplier + table[value & 255]) & ((1 << 64) - 1)
            == _fnv1a64_extend(value, piece))


@given(bitvectors, bitvectors)
@settings(max_examples=200)
def test_tanimoto_symmetry_and_bounds(a_bits, b_bits):
    params = (("radius", 2), ("width", 64))
    a = Fingerprint(bits=a_bits, width=64, scheme="morgan", params=params)
    b = Fingerprint(bits=b_bits, width=64, scheme="morgan", params=params)
    forward = tanimoto(a, b)
    assert forward == tanimoto(b, a)
    assert 0.0 <= forward <= 1.0
    assert tanimoto(a, a) == 1.0
