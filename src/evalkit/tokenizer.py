"""Grammar-aware SMILES tokenization and vocabulary handling.

Tokenization is purely lexical: it splits a string into grammar units
(bracket atoms, two-letter elements, aromatic atoms, bonds, ring closures,
branch parentheses, dots) without checking that the units form a valid
molecule.  The split is maximal-munch with the precedence

    bracket atom > ``%nn`` ring closure > two-letter element > single char

so ``Cl`` is never read as carbon plus an illegal ``l``.  Concatenating the
tokens always reproduces the input exactly; nothing is dropped or rewritten.

:data:`TOKEN_RE` is the package's one lexical grammar for SMILES: the
parser in :mod:`evalkit.smiles` reads the same matches, so the two always
agree on where each unit ends.  Ring-closure digits are ASCII ``0``-``9``;
any other digit character is illegal.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    EmptyCorpus,
    EvalkitError,
    IllegalCharacter,
    InputError,
    SmilesParseError,
    UnterminatedBracket,
    utf8_lines,
)

DEFAULT_SPECIALS: tuple[str, ...] = ("<pad>", "<unk>", "<s>", "</s>", "<mask>")


class TokenKind(enum.Enum):
    BRACKET_ATOM = "bracket_atom"
    TWO_CHAR_ELEMENT = "two_char_element"
    SINGLE_CHAR_ATOM = "single_char_atom"
    AROMATIC_ATOM = "aromatic_atom"
    BOND = "bond"
    RING_DIGIT = "ring_digit"
    PERCENT_RING = "percent_ring"
    BRANCH_OPEN = "branch_open"
    BRANCH_CLOSE = "branch_close"
    DOT = "dot"
    SPECIAL = "special"


# Kinds that correspond to exactly one atom in the parsed graph.
ATOM_KINDS: frozenset[TokenKind] = frozenset({
    TokenKind.BRACKET_ATOM,
    TokenKind.TWO_CHAR_ELEMENT,
    TokenKind.SINGLE_CHAR_ATOM,
    TokenKind.AROMATIC_ATOM,
})

# The final ``illegal`` alternative matches any one character the others
# miss, so the matches cover the whole string and ``finditer`` never skips
# input silently.
TOKEN_RE = re.compile(
    r"(?P<bracket_atom>\[[^\]]*\])"
    r"|(?P<percent_ring>%[0-9]{2})"
    r"|(?P<two_char_element>Cl|Br)"
    r"|(?P<aromatic_atom>[bcnops])"
    r"|(?P<single_char_atom>[BCNOPSFI])"
    r"|(?P<bond>[-=#$:/\\])"
    r"|(?P<ring_digit>[0-9])"
    r"|(?P<branch_open>\()"
    r"|(?P<branch_close>\))"
    r"|(?P<dot>\.)"
    r"|(?P<special>\*)"
    r"|(?P<illegal>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind


@dataclass(frozen=True)
class TokenSequence:
    """Tokens of one string together with the string they came from.

    Instances always satisfy ``"".join(t.text for t in tokens) == source``.
    """

    tokens: tuple[Token, ...]
    source: str

    def __post_init__(self) -> None:
        joined = "".join(token.text for token in self.tokens)
        if joined != self.source:
            raise ValueError("token texts do not concatenate to the source")

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str) -> TokenSequence:
    """Split ``text`` into grammar tokens.

    Raises :class:`UnterminatedBracket` for a ``[`` with no ``]`` and
    :class:`IllegalCharacter` for anything outside the SMILES alphabet,
    each carrying the character offset.
    """
    tokens: list[Token] = []
    for match in TOKEN_RE.finditer(text):
        if match.lastgroup == "illegal":
            pos, ch = match.start(), match.group()
            if ch == "[":
                raise UnterminatedBracket("bracket atom never closed", pos)
            raise IllegalCharacter(f"character {ch!r} is not legal in SMILES", pos)
        tokens.append(Token(match.group(), TokenKind(match.lastgroup)))
    return TokenSequence(tuple(tokens), text)


def detokenize(seq: TokenSequence) -> str:
    """Exact inverse of :func:`tokenize`: the concatenated token texts."""
    return "".join(token.text for token in seq.tokens)


@dataclass(frozen=True)
class Vocabulary:
    """A frozen token-to-id mapping with dense ids starting at zero.

    Special tokens occupy the lowest ids in the order given; by convention
    the special at index 1 is the unknown token, which absorbs every
    out-of-vocabulary text during encoding.
    """

    tokens: tuple[str, ...]
    specials: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.tokens[:len(self.specials)] != self.specials:
            raise ValueError("special tokens must occupy the lowest ids")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary entries must be unique")

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {text: i for i, text in enumerate(self.tokens)}

    @property
    def unk_id(self) -> int | None:
        return 1 if len(self.specials) > 1 else None

    def id_of(self, text: str) -> int:
        """The id for ``text``, or the unknown id when absent."""
        found = self._ids.get(text)
        if found is not None:
            return found
        if self.unk_id is None:
            raise EvalkitError(
                f"token {text!r} not in vocabulary and no unknown special exists")
        return self.unk_id

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise InputError(f"token id {token_id} out of range 0..{len(self.tokens) - 1}")
        return self.tokens[token_id]

    def save(self, path: str | Path) -> None:
        """Write one token per line; the line number (from zero) is the id."""
        Path(path).write_text(
            "".join(f"{t}\n" for t in self.tokens), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path,
             specials: Iterable[str] = DEFAULT_SPECIALS) -> "Vocabulary":
        """Read a vocabulary written by :meth:`save`.

        The file must begin with exactly the given specials, since the file
        format itself does not mark which entries are special.
        """
        specials = tuple(specials)
        lines = [line.removesuffix("\n") for line in utf8_lines(path)]
        if tuple(lines[:len(specials)]) != specials:
            raise InputError(
                f"vocabulary file {path} does not begin with specials {specials}")
        return cls(tokens=tuple(lines), specials=specials)


def build_vocab(corpus: Iterable[str],
                specials: Iterable[str] = DEFAULT_SPECIALS) -> Vocabulary:
    """Collect token texts from ``corpus`` in first-occurrence order.

    Specials take the lowest ids.  Tokenization errors propagate with the
    offending line number (starting at 1) prepended.
    """
    specials = tuple(specials)
    seen: dict[str, None] = dict.fromkeys(specials)
    count = 0
    for lineno, text in enumerate(corpus, start=1):
        count += 1
        try:
            seq = tokenize(text)
        except SmilesParseError as exc:
            raise type(exc)(f"corpus line {lineno}: {exc}") from exc
        for token in seq.tokens:
            seen.setdefault(token.text, None)
    if count == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    return Vocabulary(tokens=tuple(seen), specials=specials)


def encode(seq: TokenSequence, vocab: Vocabulary) -> list[int]:
    """Map each token text to its id (unknowns go to the unknown id)."""
    return [vocab.id_of(token.text) for token in seq.tokens]


def decode(ids: Iterable[int], vocab: Vocabulary) -> list[str]:
    """Map ids back to token texts.  Out-of-range ids are an error."""
    return [vocab.token_of(i) for i in ids]
