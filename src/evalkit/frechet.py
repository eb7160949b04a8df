"""Frechet distance between Gaussians fitted to embedding sets.

The toolkit never runs an embedding network; embeddings arrive in text
files.  The file format is one header line ``D=<dim>`` followed by one
space-separated vector per line.  Files whose first two bytes are the gzip
magic number are decompressed transparently.

A file is read in 16 KiB pieces and never held whole; only a file the
pieces do not parse (a fault, or values only ``float()`` reads) is read
again whole, as bytes, and parsed a line at a time, to name the fault or
read those values.  :func:`fcd_from_files` never holds a file's rows
whole: it parses them in blocks of ``_BLOCK_VALUES`` values (two rows at
least) and folds each block into a column sum and a ``D x D`` scatter, so
it holds one row block plus ``D x D`` arrays, however many rows the file
has.  A file that fits in one block is fitted by :func:`gaussian_fit`
exactly as a whole matrix is.

    d^2 = ||mu_a - mu_b||^2 + Tr(S_a) + Tr(S_b) - 2 Tr((S_a^1/2 S_b S_a^1/2)^1/2)

Matrix square roots come from symmetric eigendecomposition with negative
eigenvalues (numerical noise on near-singular fits) clamped to zero, and
the final distance is clamped to zero as well.  Finite values so large that
the distance overflows raise :class:`NonFiniteInput`.
"""

from __future__ import annotations

import codecs
import gzip
import io
import math
import re
import warnings
import zlib
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    InputError,
    NonFiniteInput,
    TooFewSamples,
    read_utf8,
)


@dataclass(frozen=True)
class EmbeddingSet:
    """A matrix of row vectors, at least two rows, all finite."""

    vectors: np.ndarray
    source_label: str = ""

    def __post_init__(self) -> None:
        array = np.asarray(self.vectors, dtype=np.float64)
        if array.ndim != 2:
            raise InputError("embeddings must form a 2-D array of row vectors")
        if array.shape[0] < 2:
            raise TooFewSamples(
                f"need at least 2 embedding rows, got {array.shape[0]}")
        if not np.isfinite(array).all():
            raise NonFiniteInput("embeddings contain NaN or infinite values")
        object.__setattr__(self, "vectors", array)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class GaussianStats:
    """Mean vector and symmetrised unbiased covariance of an embedding set."""

    mean: np.ndarray
    covariance: np.ndarray


def gaussian_fit(embeddings: EmbeddingSet, *,
                 overwrite_input: bool = False) -> GaussianStats:
    """Column means and the (N-1)-normalised covariance, symmetrised.

    The rows are centred in a copy, or, with ``overwrite_input``, in
    ``embeddings.vectors`` itself, which saves a matrix of memory and
    leaves the set holding the centred rows."""
    vectors = embeddings.vectors
    mean = vectors.mean(axis=0)
    # order="K" keeps the layout ``vectors - mean`` would have.
    centered = vectors if overwrite_input else vectors.copy(order="K")
    centered -= mean
    # A product that overflows leaves inf here and a non-finite distance in
    # frechet_distance, which raises; NumPy's warning would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        covariance = centered.T @ centered / (vectors.shape[0] - 1)
        covariance = (covariance + covariance.T) / 2.0
    return GaussianStats(mean=mean, covariance=covariance)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition failed: {exc}") from exc
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    root = (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T
    return (root + root.T) / 2.0


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """Squared Frechet distance between two Gaussians.

    Never returns a negative value: eigenvalues of the inner product matrix
    and the final sum are both clamped at zero, so two fits of the same
    sample differ only by accumulated rounding.
    """
    if a.mean.shape != b.mean.shape:
        raise DimensionMismatch(
            f"gaussians of dimension {a.mean.shape[0]} vs {b.mean.shape[0]}")
    # Overflow shows as a non-finite distance, checked below, instead of
    # as NumPy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a.mean - b.mean
        root_a = _psd_sqrt(a.covariance)
        inner = root_a @ b.covariance @ root_a
        inner = (inner + inner.T) / 2.0
        try:
            eigenvalues = np.linalg.eigvalsh(inner)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"eigendecomposition failed: {exc}") from exc
        trace_root = np.sqrt(np.clip(eigenvalues, 0.0, None)).sum()
        distance = (float(diff @ diff)
                    + float(np.trace(a.covariance))
                    + float(np.trace(b.covariance))
                    - 2.0 * float(trace_root))
    if not math.isfinite(distance):
        raise NonFiniteInput(
            "the Frechet distance overflows: embedding values too large")
    return max(distance, 0.0)


# ``D=`` and 1-9 ASCII digits, the digit rule of key ids and bracket atoms:
# no header names a dimension too large to shape an array with.
_DIM_HEADER = re.compile(r"D=[ \t]*([0-9]{1,9})[ \t]*")

# Bytes read from the file per piece.  Kept small: once the first matrix a
# process reads is freed, glibc raises its mmap threshold, so later matrices
# are placed in the heap, and larger reader temporaries would fragment the
# heap around them and raise peak memory.
_PIECE_BYTES = 1 << 14

# Values in one row block of an FCD fit: 1 MiB of float64, 256 rows at
# D = 512.  The fit holds one block at a time, so this bounds its memory.
_BLOCK_VALUES = 1 << 17

# What makes the piece route give up on a file and leave it to the
# whole-text route, which names the fault.
_STREAM_FAULTS = (EOFError, OSError, ValueError, zlib.error, InputError)


def read_vector_rows(path: str | Path, row_multiplier: int = 1) -> tuple[int, np.ndarray]:
    """Parse a ``D=<dim>`` vector file into (dim, float64 rows).

    Each data line must hold ``dim * row_multiplier`` whitespace-separated
    floats (paired-embedding files store two vectors per line), read as
    ``float()`` reads them; blank lines are skipped.  Gzip-compressed files
    are detected by magic number and decompressed.

    The file is read and parsed in pieces, never held whole.  Only a file
    the pieces do not parse (a fault, or values ``float()`` reads and NumPy
    does not) is read again whole and parsed a line at a time, which names
    the fault or reads those values.
    """
    path = Path(path)
    with _open(path) as raw:
        return _read_rows(path, raw, row_multiplier)


def _open(path: Path) -> BinaryIO:
    # The whole-text route reads the source again from its start.  A pipe
    # can be read only once, so its bytes are read into memory first.
    return open(path, "rb") if path.is_file() else io.BytesIO(path.read_bytes())


def _read_rows(path: Path, raw: BinaryIO, row_multiplier: int) -> tuple[int, np.ndarray]:
    read = _stream_rows(path, raw, row_multiplier)
    if read is None:
        raw.seek(0)
        read = _rows_from_text(path, _text_pieces(path, raw.read()), row_multiplier)
    return read


def _stream_lines(raw: BinaryIO) -> Iterator[str]:
    """The lines of the file, gunzipped when it starts with the gzip magic
    and decoded a piece at a time."""
    gzipped = raw.read(2) == b"\x1f\x8b"
    raw.seek(0)
    stream = gzip.GzipFile(fileobj=raw) if gzipped else raw
    return _split_pieces(_decoded_pieces(stream))


def _stream_rows(path: Path, raw: BinaryIO,
                 row_multiplier: int) -> tuple[int, np.ndarray] | None:
    """The rows ``np.loadtxt`` reads from the file's lines, decoded a piece
    at a time; None when anything in the file is not as it should be."""
    lines = _stream_lines(raw)
    try:
        dim = _header_dim(path, next(lines, None))
        with warnings.catch_warnings():
            # A body with no data is not an error here: callers count rows.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except _STREAM_FAULTS:
        return None
    return (dim, rows) if rows.shape[1] == dim * row_multiplier else None


def _stream_blocks(path: Path, raw: BinaryIO) -> Iterator[np.ndarray]:
    """The rows :func:`_stream_rows` reads, parsed a block of
    :func:`_block_rows` rows at a time from the same lines.  Raises one of
    ``_STREAM_FAULTS`` where that function returns None."""
    lines = _stream_lines(raw)
    dim = _header_dim(path, next(lines, None))
    # Only the lines np.loadtxt does not skip, so that every block but the
    # last holds exactly _block_rows rows wherever the blank lines fall.
    rows = (line for line in lines if line and not line.isspace())
    size = _block_rows(dim)
    for line in rows:
        block = np.loadtxt(chain((line,), islice(rows, size - 1)),
                           dtype=np.float64, comments=None, ndmin=2)
        if block.shape[1] != dim:
            raise ValueError(f"{path}: rows of {block.shape[1]} values, not {dim}")
        yield block
        del block  # freed while the next block is parsed


def _block_rows(dim: int) -> int:
    # Two rows at least, so that the first block can be fitted on its own.
    return max(2, _BLOCK_VALUES // dim)


def _decoded_pieces(stream: BinaryIO) -> Iterator[str]:
    decoder = codecs.getincrementaldecoder("utf-8")()
    while piece := stream.read(_PIECE_BYTES):
        yield decoder.decode(piece)
    yield decoder.decode(b"", final=True)


def _split_pieces(pieces: Iterable[str]) -> Iterator[str]:
    """The lines of ``"".join(pieces).splitlines()``, a piece at a time.

    Each piece is cut just after its last ``\n`` and the rest carried into
    the next.  No line break spans the cut (``\n`` ends ``\r\n``), so the
    text before it splits into whole lines."""
    carry: list[str] = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            carry.append(piece[:cut])
            yield from "".join(carry).splitlines()
            carry = [piece[cut:]]
        else:
            carry.append(piece)
    yield from "".join(carry).splitlines()


def _header_dim(path: Path, first: str | None) -> int:
    if first is None or not first.startswith("D="):
        raise InputError(f"{path}: first line must be 'D=<dim>'")
    header = _DIM_HEADER.fullmatch(first)
    if header is None:
        raise InputError(f"{path}: malformed dimension header {first!r}")
    dim = int(header[1])
    if dim < 1:
        raise InputError(f"{path}: dimension must be positive")
    return dim


def _text_pieces(path: Path, raw: bytes) -> Iterator[str]:
    """The text of the file's bytes, a piece at a time, gunzipped first
    when they start with the gzip magic.  Bytes that do not decode raise
    here, before any line is read, with :func:`read_utf8`'s message."""
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise InputError(f"{path}: truncated or corrupt gzip data ({exc})") from exc
    # Decoded twice, a piece at a time, so that the text is never held
    # whole next to the bytes: once to find a fault, and once to read.
    try:
        for _ in _decoded_pieces(io.BytesIO(raw)):
            pass
    except UnicodeDecodeError:
        read_utf8(path, raw)  # raises, giving the offset in the whole text
    return _decoded_pieces(io.BytesIO(raw))


def _rows_from_text(path: Path, pieces: Iterable[str],
                    row_multiplier: int) -> tuple[int, np.ndarray]:
    """The whole-text route: the file's text, from its pieces, read a line
    at a time."""
    lines = _split_pieces(pieces)
    dim = _header_dim(path, next(lines, None))
    expected = dim * row_multiplier
    return dim, _rows_by_line(path, lines, expected).reshape(-1, expected)


def _rows_by_line(path: Path, lines: Iterator[str], expected: int) -> np.ndarray:
    """The values ``np.loadtxt`` cannot give, from the lines after the
    header: this names the first bad line, and reads what ``float()`` reads
    and NumPy does not (``1_0``, digits of other scripts).  Each row goes
    straight into float64 storage, so no row is held as Python floats."""
    values = array("d")
    for lineno, line in enumerate(lines, start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != expected:
            raise InputError(
                f"{path} line {lineno}: expected {expected} values, got {len(fields)}")
        try:
            values.extend(map(float, fields))
        except ValueError:
            raise InputError(
                f"{path} line {lineno}: non-numeric value") from None
    return np.frombuffer(values, dtype=np.float64)


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read an embedding file (``D=<dim>`` header, one vector per line)."""
    _, rows = read_vector_rows(path)
    return _embedding_set(path, rows)


def _embedding_set(path: str | Path, rows: np.ndarray) -> EmbeddingSet:
    if len(rows) < 2:
        raise TooFewSamples(
            f"{path}: need at least 2 embedding rows, got {len(rows)}")
    return EmbeddingSet(rows, source_label=str(path))


def fcd_from_files(path_a: str | Path, path_b: str | Path) -> float:
    """Frechet distance between Gaussians fitted to two embedding files.

    Each file is fitted in one pass over blocks of its rows, so neither
    file's rows are ever held whole (see :func:`_fit_file`)."""
    fit_a = _fit_file(Path(path_a))
    fit_b = _fit_file(Path(path_b))
    if fit_a.mean.shape != fit_b.mean.shape:
        raise DimensionMismatch(
            f"embedding dimensions differ: {len(fit_a.mean)} vs {len(fit_b.mean)}")
    return frechet_distance(fit_a, fit_b)


def _fit_file(path: Path) -> GaussianStats:
    """The Gaussian of an embedding file's rows, folded block by block as
    they are parsed.

    A file the blocks do not read (one :func:`_stream_rows` rejects, one
    with a non-finite value, or one with fewer than two rows) is read as
    :func:`load_embeddings` reads it, which raises its error, and its
    matrix is folded in the same blocks, so the fit depends on the values
    and not on the route."""
    with _open(path) as raw:
        try:
            return _fit_blocks(_stream_blocks(path, raw))
        except _STREAM_FAULTS:
            pass
        raw.seek(0)
        dim, rows = _read_rows(path, raw, 1)
    vectors = _embedding_set(path, rows).vectors
    size = _block_rows(dim)
    return _fit_blocks(vectors[start:start + size]
                       for start in range(0, len(vectors), size))


def _fit_blocks(blocks: Iterator[np.ndarray]) -> GaussianStats:
    """The Gaussian of the rows of ``blocks``, which it overwrites.

    The first block is fitted by :func:`gaussian_fit`, and when it is the
    only block that is the fit.  Otherwise every row is shifted by the
    first block's mean, the shifted rows are summed into a column sum and a
    scatter ``BᵀB`` a block at a time, and the scatter is centred once at
    the end (Chan, Golub & LeVeque 1983).  The shift keeps the sums small,
    so the centring cancels little."""
    first = next(blocks, None)
    if first is None:
        raise TooFewSamples("need at least 2 embedding rows, got 0")
    fit = gaussian_fit(EmbeddingSet(first), overwrite_input=True)
    # gaussian_fit left ``first`` centred on the shift, its mean.
    count, total = len(first), first.sum(axis=0)
    del first
    block = next(blocks, None)
    if block is None:
        return fit
    # The first block's scatter, made in the covariance's own array.
    shift, scatter = fit.mean, fit.covariance
    scatter *= count - 1
    # Overflow shows as a non-finite distance in frechet_distance, as it
    # does for gaussian_fit.
    with np.errstate(over="ignore", invalid="ignore"):
        while block is not None:
            if not np.isfinite(block).all():
                raise NonFiniteInput("embeddings contain NaN or infinite values")
            block -= shift
            total += block.sum(axis=0)
            scatter += block.T @ block
            count += len(block)
            del block  # freed before the next block is parsed
            block = next(blocks, None)
        centre = total / count
        scatter -= np.outer(centre, centre) * count
        covariance = scatter / (count - 1)
        covariance = (covariance + covariance.T) / 2.0
    return GaussianStats(mean=shift + centre, covariance=covariance)
