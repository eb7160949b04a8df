"""Grammar tokenizer and vocabulary tests."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.errors import (
    EmptyCorpus,
    IllegalCharacter,
    InputError,
    UndecodableFile,
    UnterminatedBracket,
)
from evalkit.tokenizer import (
    ATOM_KINDS,
    DEFAULT_SPECIALS,
    TokenKind,
    Vocabulary,
    build_vocab,
    decode,
    detokenize,
    encode,
    tokenize,
)

import genmol


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)]


class TestTokenize:
    def test_simple_chain(self):
        seq = tokenize("CCO")
        assert texts("CCO") == ["C", "C", "O"]
        assert all(t.kind is TokenKind.SINGLE_CHAR_ATOM for t in seq)
        assert len(seq) == 3
        assert seq.source == "CCO"

    def test_two_char_element_beats_single(self):
        assert texts("CCl") == ["C", "Cl"]
        assert kinds("CCl")[1] is TokenKind.TWO_CHAR_ELEMENT
        assert texts("BrB") == ["Br", "B"]

    def test_aromatic_atoms(self):
        assert kinds("cn") == [TokenKind.AROMATIC_ATOM, TokenKind.AROMATIC_ATOM]

    def test_bracket_atom_is_one_token(self):
        seq = tokenize("[C@@H](N)C(=O)O")
        assert seq.tokens[0].text == "[C@@H]"
        assert seq.tokens[0].kind is TokenKind.BRACKET_ATOM
        assert texts("[C@@H](N)C(=O)O") == [
            "[C@@H]", "(", "N", ")", "C", "(", "=", "O", ")", "O"]

    def test_percent_ring(self):
        seq = tokenize("C%12CC%12")
        assert seq.tokens[1].text == "%12"
        assert seq.tokens[1].kind is TokenKind.PERCENT_RING

    def test_ring_digit(self):
        assert kinds("C1CC1")[1] is TokenKind.RING_DIGIT

    def test_bonds_and_structure(self):
        assert kinds("C=C") == [
            TokenKind.SINGLE_CHAR_ATOM, TokenKind.BOND,
            TokenKind.SINGLE_CHAR_ATOM]
        assert kinds("C.C")[1] is TokenKind.DOT
        assert kinds("C(C)")[1] is TokenKind.BRANCH_OPEN
        assert kinds("C(C)")[3] is TokenKind.BRANCH_CLOSE
        assert kinds("C/C=C\\C")[1] is TokenKind.BOND

    def test_wildcard_token(self):
        assert kinds("*")[0] is TokenKind.SPECIAL

    def test_atom_kinds_cover_exactly_the_atom_tokens(self):
        seq = tokenize("[13CH3]c1ccncc1Cl")
        atoms = [t for t in seq if t.kind in ATOM_KINDS]
        assert len(atoms) == 8


class TestLosslessness:
    def test_concat_equals_source(self, valid_smiles_corpus):
        for text in valid_smiles_corpus:
            assert detokenize(tokenize(text)) == text

    def test_sequence_guards_its_invariant(self):
        seq = tokenize("CCO")
        from evalkit.tokenizer import TokenSequence
        with pytest.raises(ValueError):
            TokenSequence(source="CCO", tokens=seq.tokens[:2])

    def test_generated_molecules_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            gmol = genmol.random_molecule(rng)
            text, _ = genmol.write_smiles(gmol, rng=rng)
            assert detokenize(tokenize(text)) == text


class TestTokenizeErrors:
    def test_unterminated_bracket(self):
        with pytest.raises(UnterminatedBracket) as info:
            tokenize("CC[CH")
        assert info.value.offset == 2

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter) as info:
            tokenize("CC&O")
        assert info.value.offset == 2

    def test_whitespace_is_illegal(self):
        with pytest.raises(IllegalCharacter):
            tokenize("C C")

    def test_non_ascii_ring_digit_is_illegal(self):
        with pytest.raises(IllegalCharacter) as info:
            tokenize("C٣CC٣")
        assert info.value.offset == 1

    def test_empty_is_fine_and_empty(self):
        assert len(tokenize("")) == 0


class TestVocabulary:
    def test_build_assigns_dense_first_occurrence_ids(self):
        vocab = build_vocab(["CCO", "OCC"], specials=("<pad>", "<unk>"))
        assert vocab.id_of("<pad>") == 0
        assert vocab.id_of("<unk>") == 1
        assert vocab.id_of("C") == 2
        assert vocab.id_of("O") == 3
        assert len(vocab) == 4

    def test_default_specials(self):
        vocab = build_vocab(["CCO"])
        assert vocab.specials == DEFAULT_SPECIALS
        assert vocab.id_of("<mask>") == 4
        assert vocab.id_of("C") == 5

    def test_unk_id_is_second_special(self):
        vocab = build_vocab(["C"], specials=("<pad>", "<unk>"))
        assert vocab.unk_id == 1

    def test_encode_decode_round_trip(self):
        vocab = build_vocab(["CCO", "c1ccccc1"])
        ids = encode(tokenize("OCC"), vocab)
        assert "".join(decode(ids, vocab)) == "OCC"

    def test_encode_unknown_maps_to_unk(self):
        vocab = build_vocab(["CCO"], specials=("<pad>", "<unk>"))
        assert encode(tokenize("CCN"), vocab) == [2, 2, 1]

    def test_decode_rejects_out_of_range(self):
        vocab = build_vocab(["C"], specials=("<pad>", "<unk>"))
        with pytest.raises(InputError):
            decode([99], vocab)

    def test_decode_of_special_renders_token_text(self):
        vocab = build_vocab(["C"], specials=("<pad>", "<unk>"))
        assert decode([1, 2], vocab) == ["<unk>", "C"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([])

    def test_whitespace_line_is_an_error_not_skipped(self):
        with pytest.raises(IllegalCharacter):
            build_vocab(["CCO", " "])

    def test_corpus_error_carries_line_number(self):
        with pytest.raises(IllegalCharacter) as info:
            build_vocab(["CCO", "C!C"])
        assert "corpus line 2" in str(info.value)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["CC(=O)Oc1ccccc1C(=O)O", "[NH4+]"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "<pad>"
        assert len(lines) == len(vocab)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.id_of("c") == vocab.id_of("c")

    # str.splitlines() once cut these tokens in two, which shifted every
    # later id.
    def test_save_load_round_trips_line_breaks_in_brackets(self, tmp_path):
        vocab = build_vocab(["C[C\x85]O", "[N\x0c]", "[O\u2028]C", "CC"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab

    # load splits lines at "\r", "\n" and "\r\n", so save refuses them.
    @pytest.mark.parametrize("token", ["[C\r]", "[C\n]", "[C\r\n]"])
    def test_save_rejects_a_token_holding_a_line_ending(self, tmp_path, token):
        vocab = build_vocab(["CC", token])
        path = tmp_path / "vocab.txt"
        with pytest.raises(InputError, match=re.escape(repr(token))):
            vocab.save(path)
        assert not path.exists()

    def test_load_rejects_wrong_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("C\nO\n")
        with pytest.raises(InputError):
            Vocabulary.load(path)

    def test_load_names_an_undecodable_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"<pad>\n\xff\n")
        with pytest.raises(UndecodableFile, match="vocab.txt: not UTF-8 text"):
            Vocabulary.load(path)

    def test_ids_are_dense_and_stable(self):
        vocab = build_vocab(["c1ccccc1", "CCO"])
        ids = sorted(vocab.id_of(t) for t in vocab.tokens)
        assert ids == list(range(len(vocab)))


@given(st.lists(
    st.sampled_from(["CCO", "c1ccccc1", "[NH4+]", "CC(=O)O", "ClC(Cl)Cl"]),
    min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_vocab_build_deterministic(corpus):
    assert build_vocab(corpus).tokens == build_vocab(corpus).tokens
