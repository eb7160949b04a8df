"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: :class:`InputError` covers anything a
user can fix (bad files, bad SMILES handed to an operation that requires
parseable input, mismatched schemes), and :class:`NumericError` covers
internal numerical failures.  The command line maps the former to exit code 1
and the latter to exit code 2.

The toolkit reads every user text file through :func:`read_utf8` or
:func:`utf8_lines`, so that bytes which are not UTF-8 raise an
:class:`InputError` naming the file.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path


class EvalkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(EvalkitError):
    """The input (file, string, or argument combination) is invalid."""


class NumericError(EvalkitError):
    """A numerical routine failed on well-formed input."""


# --- SMILES / tokenizer ----------------------------------------------------

class SmilesParseError(InputError):
    """A SMILES string violates the grammar.

    ``offset`` is the character position of the offending input, when known;
    it is appended to the message so the plain string form is self-contained.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class UnknownSymbol(SmilesParseError):
    """A character or element symbol that the grammar does not recognise."""


class UnmatchedRingClosure(SmilesParseError):
    """A ring-bond number opened but never closed, or closed twice on one atom."""


class RingBondConflict(SmilesParseError):
    """Both ends of a ring closure carry bond symbols that disagree."""


class UnbalancedParenthesis(SmilesParseError):
    """A branch parenthesis with no partner, or a branch in an illegal spot."""


class EmptyBranch(SmilesParseError):
    """``()`` with no atom inside."""


class LeadingBond(SmilesParseError):
    """A bond or ring closure that appears before any atom exists to bond from."""


class DanglingBond(SmilesParseError):
    """A bond symbol that is never followed by an atom or ring closure."""


class DuplicateBond(SmilesParseError):
    """Two bonds between the same pair of atoms."""


class EmptyComponent(SmilesParseError):
    """A dot separator with nothing on one of its sides."""


class UnterminatedBracket(SmilesParseError):
    """``[`` without a closing ``]``."""


class IllegalCharacter(SmilesParseError):
    """A character outside the SMILES alphabet (tokenizer-level)."""


# --- vocabulary / text metrics ---------------------------------------------

class EmptyCorpus(InputError):
    """An operation that needs at least one corpus entry received none."""


class LengthMismatch(InputError):
    """Paired sequences (references vs hypotheses) differ in length."""


# --- fingerprints -----------------------------------------------------------

class SchemeMismatch(InputError):
    """Tanimoto between fingerprints of different scheme, parameters, or width."""


# --- embeddings / Frechet ---------------------------------------------------

class TooFewSamples(InputError):
    """An embedding set has fewer than two rows; no covariance exists."""


class NonFiniteInput(InputError):
    """An embedding file contains NaN or infinite values."""


class DimensionMismatch(InputError):
    """Two embedding sets (or Gaussians) disagree on dimensionality."""


class EigenFailure(NumericError):
    """The eigendecomposition inside the Frechet distance did not converge."""


# --- datasets / harness -----------------------------------------------------

class SchemaMismatch(InputError):
    """An input file is missing required columns or keys."""


class DuplicateId(InputError):
    """Two records share an identifier that must be unique."""


class EmptySet(InputError):
    """A dataset operation received zero records."""


class DegenerateSplit(InputError):
    """A requested split would leave the train or test side empty."""


class TaskMismatch(InputError):
    """A prediction file was loaded for one task and evaluated as another."""


class EmbeddingRowMismatch(InputError):
    """An embedding file's row count disagrees with the prediction file."""


class UndecodableFile(InputError):
    """A text file holds bytes that are not valid UTF-8."""


def read_utf8(path: str | Path, data: bytes | None = None) -> str:
    """The UTF-8 text of the file at ``path``, or of ``data`` when given
    (its bytes after decompression, say), with line endings as they are.

    Bytes that do not decode raise :class:`UndecodableFile` naming ``path``.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFile(f"{path}: not UTF-8 text ({exc})") from exc


def utf8_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """The lines of ``path``, read one at a time as from ``open(path,
    encoding="utf-8", newline=newline)``.

    Bytes that do not decode raise :class:`UndecodableFile` naming ``path``.
    """
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield from handle
        except UnicodeDecodeError as exc:
            raise UndecodableFile(f"{path}: not UTF-8 text ({exc})") from exc
