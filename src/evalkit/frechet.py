"""Frechet distance between Gaussians fitted to embedding sets.

The toolkit never runs an embedding network; embeddings arrive in text
files.  The file format is one header line ``D=<dim>`` followed by one
space-separated vector per line.  Files whose first two bytes are the gzip
magic number are decompressed transparently.

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
import warnings
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

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


def gaussian_fit(embeddings: EmbeddingSet) -> GaussianStats:
    """Column means and the (N-1)-normalised covariance, symmetrised."""
    vectors = embeddings.vectors
    mean = vectors.mean(axis=0)
    centered = vectors - mean
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


def read_vector_rows(path: str | Path, row_multiplier: int = 1) -> tuple[int, np.ndarray]:
    """Parse a ``D=<dim>`` vector file into (dim, float64 rows).

    Each data line must hold ``dim * row_multiplier`` whitespace-separated
    floats (paired-embedding files store two vectors per line), read as
    ``float()`` reads them; blank lines are skipped.  Gzip-compressed files
    are detected by magic number and decompressed.
    """
    path = Path(path)
    text = _read_text(path)
    lines = _iter_lines(text)
    first = next(lines, None)
    if first is None or not first.startswith("D="):
        raise InputError(f"{path}: first line must be 'D=<dim>'")
    header = _DIM_HEADER.fullmatch(first)
    if header is None:
        raise InputError(f"{path}: malformed dimension header {first!r}")
    dim = int(header[1])
    if dim < 1:
        raise InputError(f"{path}: dimension must be positive")

    expected = dim * row_multiplier
    try:
        with warnings.catch_warnings():
            # A body with no data is not an error here: callers count rows.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != expected:
        rows = np.array(_rows_by_line(path, text.splitlines(), expected),
                        dtype=np.float64).reshape(-1, expected)
    return dim, rows


def _iter_lines(text: str, block: int = 1 << 16) -> Iterator[str]:
    """The lines of ``text.splitlines()``, a piece of about ``block``
    characters at a time.  Each piece ends just after a ``\n``, and no line
    break spans one, so the pieces split into the same lines.

    The reader never holds every line of a large file at once: their freed
    space, fragmented by whatever else is live, could not hold the arrays
    that come next, so peak memory would hang on the heap's layout."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + block)
        end = len(text) if cut < 0 else cut + 1
        yield from text[start:end].splitlines()
        start = end


def _read_text(path: Path) -> str:
    """The file's text, gunzipped first when it starts with the gzip magic.
    The bytes are freed on return, before the caller reads the lines."""
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise InputError(f"{path}: truncated or corrupt gzip data ({exc})") from exc
    return read_utf8(path, raw)


def _rows_by_line(path: Path, lines: list[str], expected: int) -> list[list[float]]:
    """The rows ``np.loadtxt`` cannot give: this names the first bad line,
    and reads what ``float()`` reads and NumPy does not (``1_0``, digits
    of other scripts)."""
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != expected:
            raise InputError(
                f"{path} line {lineno}: expected {expected} values, got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise InputError(
                f"{path} line {lineno}: non-numeric value") from None
    return rows


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read an embedding file (``D=<dim>`` header, one vector per line)."""
    _, rows = read_vector_rows(path)
    if len(rows) < 2:
        raise TooFewSamples(
            f"{path}: need at least 2 embedding rows, got {len(rows)}")
    return EmbeddingSet(rows, source_label=str(path))


def fcd_from_files(path_a: str | Path, path_b: str | Path) -> float:
    """Frechet distance between Gaussians fitted to two embedding files."""
    set_a = load_embeddings(path_a)
    set_b = load_embeddings(path_b)
    if set_a.dim != set_b.dim:
        raise DimensionMismatch(
            f"embedding dimensions differ: {set_a.dim} vs {set_b.dim}")
    return frechet_distance(gaussian_fit(set_a), gaussian_fit(set_b))
