"""Frechet distance between Gaussians fitted to embedding sets.

The toolkit never runs an embedding network; embeddings arrive in text
files.  The file format is one header line ``D=<dim>`` followed by one
space-separated vector per line.  Files whose first two bytes are the gzip
magic number are decompressed transparently.

A file is read once, through :func:`evalkit.errors.utf8_lines`, the line
reader of every user file, so its lines end at ``\n``, ``\r\n`` or a lone
``\r`` and at no other character, its text is never held whole, and a pipe
is read as a regular file is.  Its lines are parsed in chunks of
bounded text by ``np.loadtxt``, or, where NumPy rejects a chunk, a line at
a time by ``float()``.  Wherever they are in the file, faults raise in this
order: gzip, UTF-8, the header, the first bad line, too few rows, a
non-finite value.  :func:`fcd_from_files` never holds a file's rows whole:
it regroups them into blocks of ``_BLOCK_VALUES`` values (two rows at
least) and folds each block into a column sum and a ``D x D`` scatter.  A
file that fits in one block is fitted exactly as a whole matrix is.

    d^2 = ||mu_a - mu_b||^2 + Tr(S_a) + Tr(S_b) - 2 Tr((S_a^1/2 S_b S_a^1/2)^1/2)

Matrix square roots come from symmetric eigendecomposition with negative
eigenvalues (numerical noise on near-singular fits) clamped to zero, and
the final distance is clamped to zero as well.  Finite values so large that
the distance overflows raise :class:`NonFiniteInput`.
"""

from __future__ import annotations

import gzip
import math
import re
import zlib
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    InputError,
    NonFiniteInput,
    TooFewSamples,
    UndecodableFile,
    _PIECE_BYTES,
    utf8_lines,
)


@dataclass(frozen=True)
class EmbeddingSet:
    """A matrix of row vectors, at least two rows, all finite.  A fault's
    message starts with ``source_label``, when there is one."""

    vectors: np.ndarray
    source_label: str = ""

    def __post_init__(self) -> None:
        label = f"{self.source_label}: " if self.source_label else ""
        array = np.asarray(self.vectors, dtype=np.float64)
        if array.ndim != 2:
            raise InputError(f"{label}embeddings must form a 2-D array of row vectors")
        if array.shape[0] < 2:
            raise TooFewSamples(
                f"{label}need at least 2 embedding rows, got {array.shape[0]}")
        if not np.isfinite(array).all():
            raise NonFiniteInput(f"{label}embeddings contain NaN or infinite values")
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

# Values in one row block of an FCD fit: 1 MiB of float64, 256 rows at
# D = 512.  The fit holds one block at a time, so this bounds its memory.
_BLOCK_VALUES = 1 << 17

# Characters of non-blank lines parsed by one ``np.loadtxt`` call: 32 KiB.
# Kept small, like the pieces the file is read in: 128 KiB chunks raised
# the peak memory of a process that scores embedding files call after call.
_CHUNK_CHARS = 1 << 15


def read_vector_rows(path: str | Path, row_multiplier: int = 1) -> tuple[int, np.ndarray]:
    """Parse a ``D=<dim>`` vector file into (dim, float64 rows).

    Each data line must hold ``dim * row_multiplier`` whitespace-separated
    floats (paired-embedding files store two vectors per line), read as
    ``float()`` reads them; blank lines are skipped.  Gzip-compressed files
    are detected by magic number and decompressed.

    The file is read once, a line at a time, so a pipe is read as a file
    is, and its text is never held whole.  Lines end where ``open()`` ends
    them; a form feed or U+2028 is whitespace within its line.  Wherever
    they are in the file, faults raise in this order: gzip, UTF-8, the
    header, the first bad line.
    """
    chunks = _read_chunks(Path(path), row_multiplier)
    dim, values = next(chunks), array("d")
    for rows in chunks:
        values.frombytes(rows.data.cast("B"))
    return dim, np.frombuffer(values, dtype=np.float64).reshape(-1, dim * row_multiplier)


class _Rejoined:
    """``head``, then the rest of ``stream``: the file from its start again
    after its first bytes were read to look for the gzip magic."""

    def __init__(self, head: bytes, stream: BinaryIO):
        self.head, self.stream = head, stream

    def read(self, size: int) -> bytes:
        if not self.head:
            return self.stream.read(size)
        head, self.head = self.head[:size], self.head[size:]
        return head + self.stream.read(size - len(head))


def _lines(path: Path) -> Iterator[str]:
    """The lines of the file, gunzipped when it starts with the gzip magic,
    as :func:`utf8_lines` splits and decodes them."""
    with open(path, "rb") as raw:
        head = raw.read(2)
        if head != b"\x1f\x8b":
            yield from utf8_lines(path, stream=_Rejoined(head, raw))
            return
        stream = gzip.GzipFile(fileobj=_Rejoined(head, raw))
        try:
            try:
                yield from utf8_lines(path, stream=stream)
            except UndecodableFile:
                while stream.read(_PIECE_BYTES):  # a gzip fault later comes first
                    pass
                raise
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise InputError(f"{path}: truncated or corrupt gzip data ({exc})") from exc


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


def _read_chunks(path: Path, row_multiplier: int) -> Iterator[int | np.ndarray]:
    """The file's dimension, then its rows, parsed a chunk of about
    ``_CHUNK_CHARS`` characters of non-blank lines at a time.  A fault in
    the header or a line raises once the rest of the file is decoded."""
    lines = (line.removesuffix("\n") for line in _lines(path))
    chunk: list[tuple[int, str]] = []
    chars = 0
    try:
        dim = _header_dim(path, next(lines, None))
        yield dim
        expected = dim * row_multiplier
        for lineno, line in enumerate(lines, start=2):
            if line and not line.isspace():
                chunk.append((lineno, line))
                chars += len(line)
                if chars >= _CHUNK_CHARS:
                    # The lines, then the rows, are freed before the next chunk.
                    rows, chunk, chars = _chunk_rows(path, chunk, expected), [], 0
                    yield rows
                    del rows
        if chunk:
            yield _chunk_rows(path, chunk, expected)
    except InputError:
        for _ in lines:  # a gzip or UTF-8 fault later in the file comes first
            pass
        raise


def _chunk_rows(path: Path, chunk: list[tuple[int, str]], expected: int) -> np.ndarray:
    """The rows of numbered non-blank lines: ``np.loadtxt``'s, when it reads
    one row of ``expected`` values from each line, else :func:`_rows_by_line`'s."""
    try:
        rows = np.loadtxt([line for _, line in chunk], dtype=np.float64,
                          comments=None, ndmin=2)
        if rows.shape == (len(chunk), expected):
            return rows
    except ValueError:
        pass
    return _rows_by_line(path, chunk, expected)


def _rows_by_line(path: Path, chunk: list[tuple[int, str]], expected: int) -> np.ndarray:
    """The rows of numbered non-blank lines, read by ``float()``: this names
    the first bad line, and reads what NumPy does not (``1_0``, digits of
    other scripts) straight into float64 storage, never as Python floats."""
    values = array("d")
    for lineno, line in chunk:
        fields = line.split()
        if len(fields) != expected:
            raise InputError(
                f"{path} line {lineno}: expected {expected} values, got {len(fields)}")
        try:
            values.extend(map(float, fields))
        except ValueError:
            raise InputError(
                f"{path} line {lineno}: non-numeric value") from None
    return np.frombuffer(values, dtype=np.float64).reshape(-1, expected)


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read an embedding file (``D=<dim>`` header, one vector per line)."""
    _, rows = read_vector_rows(path)
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
    """The Gaussian of an embedding file's rows, folded a block at a time as
    they are parsed (see :func:`_row_blocks`), so that the fit depends only
    on the values.  It raises what :func:`load_embeddings` raises."""
    chunks = _read_chunks(path, 1)
    try:
        return _fit_blocks(path, _row_blocks(chunks, next(chunks)))
    except NonFiniteInput:
        for _ in chunks:  # a fault later in the file comes first
            pass
        raise


def _row_blocks(chunks: Iterator[np.ndarray], dim: int) -> Iterator[np.ndarray]:
    """The rows of ``chunks`` in blocks of ``_BLOCK_VALUES`` values, the
    last one shorter, all made in one buffer: each block is overwritten by
    the next.  Two rows at least, so that the first block can be fitted on
    its own."""
    size, block, filled = max(2, _BLOCK_VALUES // dim), None, 0
    for rows in chunks:
        if block is None:
            block = np.empty((size, dim))
        while len(rows):
            take = min(size - filled, len(rows))
            block[filled:filled + take] = rows[:take]
            rows, filled = rows[take:], filled + take
            if filled == size:
                yield block
                filled = 0
        del rows  # freed before the next chunk is read
    if filled:
        yield block[:filled]


def _fit_blocks(path: Path, blocks: Iterator[np.ndarray]) -> GaussianStats:
    """The Gaussian of the rows of ``blocks``, which it overwrites.

    The first block is fitted by :func:`gaussian_fit`, and when it is the
    only block that is the fit.  Otherwise every row is shifted by the
    first block's mean, the shifted rows are summed into a column sum and a
    scatter ``BᵀB`` a block at a time, and the scatter is centred once at
    the end (Chan, Golub & LeVeque 1983).  The shift keeps the sums small,
    so the centring cancels little."""
    first = EmbeddingSet(next(blocks, np.empty((0, 0))), source_label=str(path))
    fit = gaussian_fit(first, overwrite_input=True)
    # gaussian_fit left the rows centred on the shift, their mean.
    count, total = len(first), first.vectors.sum(axis=0)
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
                raise NonFiniteInput(
                    f"{path}: embeddings contain NaN or infinite values")
            block -= shift
            total += block.sum(axis=0)
            scatter += block.T @ block
            count += len(block)
            block = next(blocks, None)
        centre = total / count
        scatter -= np.outer(centre, centre) * count
        covariance = scatter / (count - 1)
        covariance = (covariance + covariance.T) / 2.0
    return GaussianStats(mean=shift + centre, covariance=covariance)
