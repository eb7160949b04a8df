"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: :class:`InputError` covers anything a
user can fix (bad files, bad SMILES handed to an operation that requires
parseable input, mismatched schemes), and :class:`NumericError` covers
internal numerical failures.  The command line maps the former to exit code 1
and the latter to exit code 2.

Every user text file, embedding files included, is read through
:func:`utf8_lines`, which splits it into lines as ``open()`` does, a line
at a time, and raises :class:`UndecodableFile` naming the file and the
position of a byte that is not UTF-8.  A JSONL file (a dataset or a
prediction file) is read through :func:`read_jsonl_objects`, which raises
:class:`SchemaMismatch` naming the line of any object it cannot use.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO


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


def _not_utf8(path: str | Path, exc: UnicodeDecodeError,
              offset: int) -> UndecodableFile:
    """The error for the bytes of ``path`` that ``exc`` could not decode,
    when ``exc.object`` starts ``offset`` bytes into the file: worded as a
    decode of the whole file words it."""
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
             if end - start == 1 else f"bytes in position {start}-{end - 1}")
    return UndecodableFile(f"{path}: not UTF-8 text ('{exc.encoding}' codec "
                           f"can't decode {where}: {exc.reason})")


# Bytes read from a file per piece.  Kept small: once the first matrix a
# process reads is freed, glibc raises its mmap threshold, so later matrices
# are placed in the heap, and larger reader temporaries would fragment the
# heap around them and raise peak memory.
_PIECE_BYTES = 1 << 14


def _whole_lines(stream: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``stream``, read a fixed-size piece at a time, in runs
    that each end where a line does (at ``\n``, ``\r\n`` or ``\r``).  A run
    is shorter than two pieces unless one line is longer than a piece."""
    rest: list[bytes] = []  # bytes read that do not end a line yet
    while piece := stream.read(_PIECE_BYTES):
        # Cut after the piece's last line ending, unless that is a "\r" at
        # its very end: the next piece may start with the "\n" of "\r\n".
        cut = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield b"".join([*rest, piece[:cut]])
            rest = []
        rest.append(piece[cut:])
    yield b"".join(rest)


def utf8_lines(path: str | Path, newline: str | None = None,
               stream: BinaryIO | None = None) -> Iterator[str]:
    """The lines of ``path``, or of the bytes of ``stream`` when given (its
    name is then ``path``), one at a time: the lines of ``open(path,
    encoding="utf-8", newline=newline)``, split at ``\n``, ``\r\n`` and
    ``\r`` alone and at no other character.  The file is read in
    fixed-size pieces, so whatever its line endings it is never held whole.

    A byte that is not UTF-8 raises :class:`UndecodableFile` naming ``path``
    and the byte's position in the file, once the lines before it are read.
    """
    if stream is None:
        with open(path, "rb") as raw:
            yield from utf8_lines(path, newline, raw)
        return
    offset = 0
    # A run of whole lines decodes as it would within the whole file: no
    # line ending byte is ever part of a multi-byte character.
    for data in _whole_lines(stream):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            ends = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start))
            yield from io.StringIO(data[:ends + 1].decode("utf-8"), newline=newline)
            raise _not_utf8(path, exc, offset) from exc
        yield from io.StringIO(text, newline=newline)
        offset += len(data)


def read_jsonl_objects(path: Path,
                       text_keys: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL file.

    Each line must be a JSON object with a string or numeric ``id``, yielded
    as a string, and a string under every key in ``text_keys``.  Any other
    line raises :class:`SchemaMismatch` naming the file and line.
    """
    for lineno, line in enumerate(utf8_lines(path), start=1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        # ValueError: JSONDecodeError, or an int literal past int()'s digit limit.
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise SchemaMismatch(f"{where}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise SchemaMismatch(f"{where}: not a JSON object")
        if not isinstance(payload.get("id"), (str, int, float)):
            raise SchemaMismatch(f"{where}: 'id' missing or not a string or number")
        bad = [k for k in text_keys if not isinstance(payload.get(k), str)]
        if bad:
            raise SchemaMismatch(f"{where}: keys {bad} missing or not strings")
        payload["id"] = str(payload["id"])
        yield lineno, payload
