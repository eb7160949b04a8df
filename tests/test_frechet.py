"""Frechet distance numerics and embedding file parsing tests."""

import gzip
import io
import os
import random
import re
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evalkit import frechet
from evalkit.errors import (
    DimensionMismatch,
    InputError,
    NonFiniteInput,
    TooFewSamples,
    UndecodableFile,
    _PIECE_BYTES,
)
from evalkit.frechet import (
    _fit_file,
    EmbeddingSet,
    GaussianStats,
    fcd_from_files,
    frechet_distance,
    gaussian_fit,
    load_embeddings,
    read_vector_rows,
)
from evalkit.harness import _mean_paired_cosine

import oracles


def stats(mean, cov):
    return GaussianStats(mean=np.asarray(mean, dtype=np.float64),
                         covariance=np.asarray(cov, dtype=np.float64))


def write_embedding_file(path, rows, dim=None):
    dim = dim if dim is not None else len(rows[0])
    lines = [f"D={dim}"] + [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEmbeddingSet:
    def test_shape_and_dim(self):
        emb = EmbeddingSet(np.zeros((3, 4)))
        assert len(emb) == 3
        assert emb.dim == 4

    def test_rejects_one_row(self):
        with pytest.raises(TooFewSamples):
            EmbeddingSet(np.zeros((1, 4)))

    def test_rejects_non_2d(self):
        with pytest.raises(InputError):
            EmbeddingSet(np.zeros(4))

    def test_rejects_nan(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            EmbeddingSet(bad)

    def test_rejects_infinity(self):
        bad = np.zeros((2, 2))
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            EmbeddingSet(bad)


class TestGaussianFit:
    def test_hand_value(self):
        fit = gaussian_fit(EmbeddingSet(np.array([[0.0, 0.0], [2.0, 2.0]])))
        assert fit.mean.tolist() == [1.0, 1.0]
        assert fit.covariance.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_covariance_is_unbiased(self):
        # three samples of a single coordinate: var = sum(d^2)/(N-1)
        fit = gaussian_fit(EmbeddingSet(np.array([[0.0], [3.0], [6.0]])))
        assert fit.mean.tolist() == [3.0]
        assert fit.covariance.tolist() == [[9.0]]

    def test_covariance_symmetric(self):
        rng = np.random.default_rng(5)
        fit = gaussian_fit(EmbeddingSet(rng.normal(size=(20, 6))))
        assert np.array_equal(fit.covariance, fit.covariance.T)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overwrite_input_fits_the_same_bits(self, order):
        vectors = np.asarray(np.random.default_rng(7).normal(size=(30, 5)), order=order)
        before = vectors.copy(order="K")
        kept = gaussian_fit(EmbeddingSet(vectors))
        assert np.array_equal(vectors, before)
        overwritten = gaussian_fit(EmbeddingSet(vectors), overwrite_input=True)
        assert np.array_equal(vectors, before - kept.mean)
        # The same arithmetic on a separate centred array.
        centered = before - before.mean(axis=0)
        covariance = centered.T @ centered / (len(before) - 1)
        want = (before.mean(axis=0), (covariance + covariance.T) / 2.0)
        for fit in (kept, overwritten):
            for got, expected in zip((fit.mean, fit.covariance), want):
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestFrechetDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(17)
        fit = gaussian_fit(EmbeddingSet(rng.normal(size=(40, 5))))
        assert frechet_distance(fit, fit) <= 1e-8

    def test_one_dimensional_closed_form(self):
        # d^2 = (m1-m2)^2 + s1 + s2 - 2*sqrt(s1*s2); unit shift, equal
        # variance: exactly 1
        a = stats([0.0], [[1.0]])
        b = stats([1.0], [[1.0]])
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_one_dimensional_variance_term(self):
        a = stats([0.0], [[4.0]])
        b = stats([0.0], [[1.0]])
        # 4 + 1 - 2*sqrt(4) = 1
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        a = stats([0.0, 0.0], np.diag([1.0, 4.0]))
        b = stats([3.0, 0.0], np.diag([4.0, 1.0]))
        # 9 + (1+4) + (4+1) - 2*(2+2) = 11
        assert frechet_distance(a, b) == pytest.approx(11.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        a = gaussian_fit(EmbeddingSet(rng.normal(size=(30, 4))))
        b = gaussian_fit(EmbeddingSet(rng.normal(size=(25, 4)) + 1.0))
        forward = frechet_distance(a, b)
        backward = frechet_distance(b, a)
        assert forward == pytest.approx(backward, rel=1e-9)

    def test_translation_moves_distance_by_shift_norm(self):
        rng = np.random.default_rng(29)
        base = rng.normal(size=(50, 3))
        shift = np.array([1.0, -2.0, 0.5])
        a = gaussian_fit(EmbeddingSet(base))
        b = gaussian_fit(EmbeddingSet(base + shift))
        # same covariance, shifted mean: distance is exactly |shift|^2
        assert frechet_distance(a, b) == pytest.approx(
            float(shift @ shift), rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frechet_distance(stats([0.0], [[1.0]]),
                             stats([0.0, 0.0], np.eye(2)))

    def test_never_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rows = rng.normal(size=(10, 4))
            a = gaussian_fit(EmbeddingSet(rows))
            b = gaussian_fit(EmbeddingSet(rows + rng.normal(size=4) * 1e-9))
            assert frechet_distance(a, b) >= 0.0

    def test_agrees_with_jacobi_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            xs = rng.normal(size=(30, 3))
            ys = rng.normal(size=(30, 3)) * 1.5 + 0.3
            a = gaussian_fit(EmbeddingSet(xs))
            b = gaussian_fit(EmbeddingSet(ys))
            mine = frechet_distance(a, b)
            reference = oracles.frechet_distance_jacobi(
                a.mean.tolist(), a.covariance.tolist(),
                b.mean.tolist(), b.covariance.tolist())
            assert mine == pytest.approx(reference, rel=1e-8, abs=1e-10)


class TestVectorFiles:
    def test_round_trip(self, tmp_path):
        path = write_embedding_file(tmp_path / "e.txt",
                                    [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        emb = load_embeddings(path)
        assert emb.dim == 2
        assert len(emb) == 3
        assert emb.vectors[2].tolist() == [4.0, 5.0]

    def test_gzip_detected_by_magic(self, tmp_path):
        path = tmp_path / "e.txt.gz"
        payload = "D=2\n1 2\n3 4\n"
        path.write_bytes(gzip.compress(payload.encode()))
        emb = load_embeddings(path)
        assert emb.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_input_error(self, tmp_path, damage):
        data = gzip.compress(b"D=2\n1 2\n3 4\n" * 50)
        if damage == "truncated":
            data = data[:len(data) // 2]
        else:
            data = data[:12] + bytes(b ^ 0xFF for b in data[12:20]) + data[20:]
        path = tmp_path / "e.txt.gz"
        path.write_bytes(data)
        with pytest.raises(InputError, match="gzip"):
            read_vector_rows(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2\n3 4\n")
        with pytest.raises(InputError):
            load_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=two\n1 2\n")
        with pytest.raises(InputError):
            load_embeddings(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n1 2\n1 2 3\n")
        with pytest.raises(InputError) as info:
            load_embeddings(path)
        assert "line 3" in str(info.value)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n1 x\n")
        with pytest.raises(InputError) as info:
            load_embeddings(path)
        assert "line 2" in str(info.value)

    def test_single_row_rejected(self, tmp_path):
        path = write_embedding_file(tmp_path / "e.txt", [[1.0, 2.0]])
        with pytest.raises(TooFewSamples):
            load_embeddings(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=1\n1\n\n2\n")
        assert len(load_embeddings(path)) == 2

    def test_row_multiplier_for_paired_files(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("D=2\n1 2 3 4\n5 6 7 8\n")
        dim, rows = read_vector_rows(path, row_multiplier=2)
        assert dim == 2
        assert rows.dtype == np.float64
        assert rows.shape == (2, 4)
        assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]

    # Only "\n", "\r\n" and a lone "\r" end a line, as in every user file:
    # a form feed or a U+2028 is whitespace within its line.
    @pytest.mark.parametrize("text,error", [
        ("D=2\n1 2{}3 4\n5 6\n", "line 2: expected 2 values, got 4"),
        ("D=2\n1{}2\n5 6\n7 8 9\n", "line 4: expected 2 values, got 3"),
    ], ids=["in-bad-line", "before-bad-line"])
    @pytest.mark.parametrize("space", ["\x0c", "\u2028"], ids=["form-feed", "u2028"])
    @pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("read", [read_vector_rows, _fit_file], ids=["rows", "fit"])
    def test_separator_inside_a_line_does_not_end_it(self, tmp_path, text, error,
                                                     space, gzipped, read):
        data = text.format(space).encode("utf-8")
        path = tmp_path / "e"
        path.write_bytes(gzip.compress(data, mtime=0) if gzipped else data)
        with pytest.raises(InputError) as info:
            read(path)
        assert str(info.value) == f"{path} {error}"

    @pytest.mark.parametrize("header,dim", [
        ("D=8", 8), ("D= 8", 8), ("D=\t8 \t", 8), ("D=000000008", 8),
        ("D=999999999", 999999999),
    ])
    def test_header_accepted(self, tmp_path, header, dim):
        path = tmp_path / "e.txt"
        path.write_text(header + "\n")
        got, rows = read_vector_rows(path, row_multiplier=2)
        assert got == dim
        assert rows.shape == (0, 2 * dim)

    # int() reads all but the last two of these.  The header takes 1-9
    # ASCII digits, so no dimension is too large to shape an array with.
    @pytest.mark.parametrize("header", [
        "D=\u0661\u0662", "D=+8", "D=-8", "D=1_0", "D=\u00a08",
        "D=" + "9" * 20, "D=1234567890", "D=", "D=8 x",
    ])
    def test_header_malformed(self, tmp_path, header):
        path = tmp_path / "e.txt"
        path.write_text(header + "\n")
        with pytest.raises(InputError, match="malformed dimension header"):
            read_vector_rows(path)

    @pytest.mark.parametrize("header", ["D=0", "D=000000000"])
    def test_header_dimension_zero(self, tmp_path, header):
        path = tmp_path / "e.txt"
        path.write_text(header + "\n")
        with pytest.raises(InputError, match="dimension must be positive"):
            read_vector_rows(path)


# Values, separators, line ends and blank lines, many of which float()
# and str.split() treat differently from np.loadtxt.  A line ends only at
# "\n", "\r\n" or "\r"; the other characters str.splitlines() splits at
# are separators within a line.
_NUMBERS = ["0", "-0", "1", "-2.5", ".5", "5.", "1e5", "1E-3", "1e999", "-1e-400",
            "nan", "-nan", "+NaN", "inf", "-Infinity", "iNf"]
_HOSTILE = ["1_0", "\u0661", "\u0661.5", "0x10", "'1'", '"2"', "#", "#1", "1,5",
            "nan(1)", "\x00", "\ufeff1", "1d5", "--1", "e5", "\x001", "\u0e51"]
_SPACES = [" ", " ", " ", "\t", "  ", "\xa0", "\u3000", "\x1f", "\u2003",
           "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
_BLANKS = ["", " ", "\t", "\xa0", "\x1f", "\u3000"]


def _lines_of(text: str) -> list[str]:
    """The lines ``open()`` reads from ``text``, without their line ends."""
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


def _hostile_body(rng: random.Random, expected: int) -> str:
    lines = []
    for _ in range(rng.randrange(6)):
        if rng.random() < 0.15:
            lines.append(rng.choice(_BLANKS))
            continue
        count = expected if rng.random() < 0.85 else rng.choice(
            [max(expected - 1, 0), expected + 1])
        fields = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.5:
                fields.append(repr(rng.uniform(-10, 10)))
            elif roll < 0.92:
                fields.append(rng.choice(_NUMBERS))
            else:
                fields.append(rng.choice(_HOSTILE))
        line = rng.choice(_SPACES).join(fields)
        if rng.random() < 0.2:
            line = rng.choice(_SPACES) + line + rng.choice(_SPACES)
        lines.append(line)
    ends = [rng.choice(_LINE_ENDS) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def test_reader_agrees_with_line_oracle(tmp_path):
    """``read_vector_rows`` against the per-line ``float()`` reader on
    5,000 seeded files: equal bits, or an equal error class and message."""
    rng = random.Random(47)
    accepted = rejected = 0
    for case in range(5000):
        dim = rng.randint(1, 3)
        row_multiplier = rng.choice((1, 2))
        expected = dim * row_multiplier
        text = f"D={dim}" + rng.choice(("\n", "\r\n")) + _hostile_body(rng, expected)
        data = text.encode("utf-8")
        path = tmp_path / ("e.gz" if case % 4 == 0 else "e.txt")
        path.write_bytes(gzip.compress(data, mtime=0) if case % 4 == 0 else data)
        try:
            oracle = oracles.vector_rows_by_line(path, _lines_of(text), expected)
        except InputError as exc:
            with pytest.raises(type(exc)) as info:
                read_vector_rows(path, row_multiplier)
            assert str(info.value) == str(exc), text
            rejected += 1
            continue
        got_dim, rows = read_vector_rows(path, row_multiplier)
        want = np.array(oracle, dtype=np.float64).reshape(-1, expected)
        assert got_dim == dim
        assert rows.dtype == np.float64
        assert rows.shape == want.shape, text
        assert np.array_equal(rows.view(np.uint64), want.view(np.uint64)), text
        accepted += 1
    assert accepted > 1000 and rejected > 1000


def test_fit_depends_on_values_not_route(tmp_path, monkeypatch):
    """On 2,000 seeded files in blocks of two rows, the FCD fit raises what
    ``load_embeddings`` raises, or gives the bits of the fit of the same
    values written plainly: the file's text (blank lines, ``1_0``, gzip)
    moves no block boundary."""
    monkeypatch.setattr(frechet, "_BLOCK_VALUES", 1)
    rng = random.Random(79)
    outcomes = {"fitted": 0, "multi-block": 0, "NonFiniteInput": 0, "InputError": 0}
    for case in range(2000):
        dim = rng.randint(1, 3)
        text = f"D={dim}" + rng.choice(("\n", "\r\n")) + _hostile_body(rng, dim)
        data = text.encode("utf-8")
        path = tmp_path / ("e.gz" if case % 4 == 0 else "e.txt")
        path.write_bytes(gzip.compress(data, mtime=0) if case % 4 == 0 else data)
        try:
            rows = load_embeddings(path).vectors
        except InputError as exc:
            with pytest.raises(InputError) as info:
                _fit_file(path)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc)), text
            outcomes["NonFiniteInput" if type(exc) is NonFiniteInput else "InputError"] += 1
            continue
        plain = write_embedding_file(tmp_path / "plain.txt", rows.tolist(), dim)
        got, want = _fit_file(path), _fit_file(plain)
        for a, b in ((got.mean, want.mean), (got.covariance, want.covariance)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), text
        outcomes["fitted"] += 1
        outcomes["multi-block"] += len(rows) > 2
    assert min(outcomes.values()) > 50, outcomes


def test_reader_spanning_many_pieces_agrees_with_line_oracle(tmp_path):
    """A file of about 0.5 MB, read in several pieces, with every kind of
    line break and blank line between its rows."""
    rng = random.Random(53)
    rows = [[rng.uniform(-10, 10) for _ in range(8)] for _ in range(4000)]
    parts = ["D=8\n"]
    for row in rows:
        parts.append(" ".join(repr(v) for v in row) + rng.choice(_LINE_ENDS))
        if rng.random() < 0.05:
            parts.append(rng.choice(_BLANKS) + rng.choice(_LINE_ENDS))
    text = "".join(parts)
    assert len(text) > 6 * (1 << 16)
    path = tmp_path / "e.txt"
    path.write_text(text, encoding="utf-8", newline="")
    dim, got = read_vector_rows(path)
    want = np.array(oracles.vector_rows_by_line(path, _lines_of(text), 8))
    assert dim == 8
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _whole_text_result(path, data: bytes, expected: int) -> np.ndarray:
    """What reading ``data`` as a whole text gives: the per-line oracle's
    rows, or the error a reader of the whole text raises."""
    if data[:2] == b"\x1f\x8b":
        try:
            # gzip.decompress as Python 3.10 has it: the CRC fault names
            # both checksums on every version.
            data = gzip.GzipFile(fileobj=io.BytesIO(data)).read()
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise InputError(f"{path}: truncated or corrupt gzip data ({exc})") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFile(f"{path}: not UTF-8 text ({exc})") from None
    rows = oracles.vector_rows_by_line(path, _lines_of(text), expected)
    return np.array(rows, dtype=np.float64).reshape(-1, expected)


def _assert_reads_as_whole_text(path, data: bytes, dim: int) -> None:
    """``read_vector_rows`` on ``data`` gives :func:`_whole_text_result`'s
    rows bit for bit, or its error class and message."""
    path.write_bytes(data)
    try:
        want = _whole_text_result(path, data, dim)
    except InputError as exc:
        with pytest.raises(type(exc)) as info:
            read_vector_rows(path)
        assert str(info.value) == str(exc)
        return
    got_dim, rows = read_vector_rows(path)
    assert got_dim == dim
    assert rows.shape == want.shape
    assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))


def _starting_at(offset: int, text: str) -> bytes:
    """A ``D=2`` file whose bytes from ``offset`` on are ``text``, padded
    before it by a blank line of spaces."""
    head = "D=2\n"
    return (head + " " * (offset - len(head) - 1) + "\n" + text).encode("utf-8")


def _many_rows(rng: random.Random, count: int, end: str = "\n") -> str:
    return "".join(f"{rng.uniform(-9, 9)!r} {rng.uniform(-9, 9)!r}{end}"
                   for _ in range(count))


class TestReaderPieces:
    """Files read in pieces: piece boundaries inside a character or a line
    break, and faults that show only after the first piece."""

    # ``split`` of the text's bytes end the first piece.
    @pytest.mark.parametrize("text,split", [
        ("1\xa02\n3 4\n", 2),        # between the two bytes of NBSP
        ("1 2\r\n3 4\r\n", 4),       # between "\r" and "\n"
        ("1 2\r3 4\n", 4),            # just after a lone "\r"
        ("1_0 2\n3 4\n", 2),          # inside a value only float() reads
        ("1 2 3\n3 4\n", 4),          # inside a line with a field too many
    ], ids=["nbsp", "crlf", "cr", "float-only", "fields"])
    @pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
    def test_boundary_inside_separator_or_line_break(self, tmp_path, text, split,
                                                     gzipped):
        data = _starting_at(_PIECE_BYTES - split, text)
        assert data[_PIECE_BYTES - split:] == text.encode("utf-8")
        if gzipped:
            data = gzip.compress(data, mtime=0)
        _assert_reads_as_whole_text(tmp_path / "e", data, 2)

    @pytest.mark.parametrize("fault", [b"\xff", b"\xc2 ", b"\xe2\x82", b"\xed\xa0\x80"])
    @pytest.mark.parametrize("where", ["second-piece", "end"])
    def test_undecodable_byte_after_first_piece(self, tmp_path, fault, where):
        data = ("D=2\n" + _many_rows(random.Random(61), 3000)).encode("utf-8")
        assert len(data) > 2 * _PIECE_BYTES
        at = _PIECE_BYTES + 100 if where == "second-piece" else len(data)
        data = data[:at] + fault + data[at:]
        _assert_reads_as_whole_text(tmp_path / "e", data, 2)
        with pytest.raises(UndecodableFile, match=f"in position {at}[:-]"):
            read_vector_rows(tmp_path / "e")

    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "garbage", "zeros",
                                        "two-members", "bad-second-member"])
    def test_gzip_fault_after_first_piece(self, tmp_path, damage):
        rng = random.Random(67)
        data = gzip.compress(("D=2\n" + _many_rows(rng, 3000)).encode(), mtime=0)
        assert len(data) > 2 * _PIECE_BYTES
        more = gzip.compress(_many_rows(rng, 5).encode(), mtime=0)
        at = len(data) * 3 // 4
        data = {
            "truncated": data[:at],
            "corrupt": data[:at] + bytes(b ^ 0x55 for b in data[at:at + 8]) + data[at + 8:],
            "garbage": data + b"garbage",
            "zeros": data + bytes(8),
            "two-members": data + more,
            "bad-second-member": data + more[:len(more) // 2],
        }[damage]
        _assert_reads_as_whole_text(tmp_path / "e.gz", data, 2)

    def test_only_carriage_returns(self, tmp_path):
        rng = random.Random(71)
        data = ("D=2\r" + _many_rows(rng, 3000, end="\r")).encode("utf-8")
        assert b"\n" not in data and len(data) > 2 * _PIECE_BYTES
        _assert_reads_as_whole_text(tmp_path / "e", data, 2)
        _, rows = read_vector_rows(tmp_path / "e")
        assert rows.shape == (3000, 2)

    @pytest.mark.parametrize("body", ["1 2\n3 4\n", "1_0 2\n3 4\n", "1 2 3\n"],
                             ids=["plain", "float-only", "fields"])
    def test_pipe_is_read_once(self, tmp_path, body):
        # A pipe can be read only once, so every value and every fault must
        # come from the one pass over it.
        data = ("D=2\n" + body).encode()
        path = tmp_path / "fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            want = _whole_text_result(path, data, 2)
        except InputError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                read_vector_rows(path)
        else:
            _, rows = read_vector_rows(path)
            assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
        writer.join(timeout=10)
        assert not writer.is_alive()

    # A fault in the content of the first piece, then a fault of the stream
    # pieces later, past the first chunk of lines: one pass must read on
    # past the first fault to raise the second.
    @pytest.mark.parametrize("content,stream", [
        (b"D=two\n", "undecodable"), (b"D=two\n", "truncated"),
        (b"D=2\n1 x\n", "undecodable"), (b"D=2\n1 x\n", "truncated"),
        (b"D=2\n1 \xff\n", "truncated"),
    ], ids=["header-utf8", "header-gzip", "line-utf8", "line-gzip", "utf8-gzip"])
    def test_stream_fault_after_content_fault(self, tmp_path, content, stream):
        data = content + _many_rows(random.Random(101), 3000).encode()
        at = len(data) * 3 // 4
        assert at > 4 * _PIECE_BYTES
        if stream == "undecodable":
            data = data[:at] + b"\xff" + data[at:]
        else:
            data = gzip.compress(data, mtime=0)
            data = data[:len(data) * 3 // 4]
        path = tmp_path / "e"
        path.write_bytes(data)
        with pytest.raises(InputError) as want:
            _whole_text_result(path, data, 2)
        assert type(want.value) is UndecodableFile or "gzip" in str(want.value)
        for read in (read_vector_rows, _fit_file):
            with pytest.raises(type(want.value)) as info:
                read(path)
            assert str(info.value) == str(want.value)

    def test_fcd_line_fault_after_non_finite_block(self, tmp_path, monkeypatch):
        """A NaN row in a block the FCD fit folds before it parses a bad
        line in a later chunk: the fit raises the line's error."""
        monkeypatch.setattr(frechet, "_BLOCK_VALUES", 4)  # two rows at D = 2
        rng = random.Random(103)
        text = ("D=2\n" + _many_rows(rng, 10) + "nan 1\n" + _many_rows(rng, 3000)
                + "1 2 3\n")
        assert len(text) > 2 * _PIECE_BYTES
        data = text.encode()
        path = tmp_path / "e"
        path.write_bytes(data)
        with pytest.raises(InputError, match="line 3013: expected 2 values") as want:
            _whole_text_result(path, data, 2)
        with pytest.raises(InputError) as info:
            _fit_file(path)
        assert (type(info.value), str(info.value)) == (type(want.value), str(want.value))


class TestMemoryBound:
    """Peak traced memory of a read or a fit stays near the float64 matrix
    (NumPy reports its buffers to tracemalloc)."""

    ROWS, DIM = 8000, 64
    MATRIX_BYTES = ROWS * DIM * 8

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("large")
        rng = np.random.default_rng(73)
        matrix = rng.normal(size=(self.ROWS, self.DIM))
        paths = {"a": folder / "a.txt", "b": folder / "b.txt",
                 "paired": folder / "paired.txt"}
        np.savetxt(paths["a"], matrix, fmt="%.17g", header=f"D={self.DIM}", comments="")
        np.savetxt(paths["b"], matrix + 0.5, fmt="%.17g", header=f"D={self.DIM}", comments="")
        np.savetxt(paths["paired"], matrix, fmt="%.17g", header=f"D={self.DIM // 2}",
                   comments="")
        return paths

    def peak_ratio(self, call) -> float:
        call()  # anything imported or cached on a first call is not counted
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / self.MATRIX_BYTES

    def test_read_vector_rows(self, files):
        assert self.peak_ratio(lambda: read_vector_rows(files["a"])) <= 1.5

    def test_fcd_from_files(self, files):
        assert self.peak_ratio(lambda: fcd_from_files(files["a"], files["b"])) <= 1.5

    def test_mean_paired_cosine(self, files):
        assert self.peak_ratio(
            lambda: _mean_paired_cosine(files["paired"], self.ROWS)) <= 1.5

    def test_value_only_float_reads(self, files, tmp_path):
        """One ``1_0`` makes ``np.loadtxt`` reject its chunk, which alone is
        read again, from memory, a line at a time by ``float()``: the bound
        is the plain file's."""
        text = files["a"].read_text("ascii")
        plain, underscore = tmp_path / "plain.txt", tmp_path / "underscore.txt"
        last = text.rindex(" ") + 1
        plain.write_text(text[:last] + "10\n", "ascii")
        underscore.write_text(text[:last] + "1_0\n", "ascii")
        assert self.peak_ratio(lambda: read_vector_rows(underscore)) <= 1.5
        dim, rows = read_vector_rows(underscore)
        want_dim, want = read_vector_rows(plain)
        assert (dim, rows.shape, rows.dtype) == (want_dim, want.shape, want.dtype)
        assert rows.tobytes() == want.tobytes()

    def test_fcd_from_files_holds_one_block(self, files):
        """Each file is folded a row block at a time (4 blocks here), so no
        fit holds its matrix."""
        assert self.peak_ratio(lambda: fcd_from_files(files["a"], files["b"])) <= 0.5

    def test_fcd_peak_does_not_grow_with_rows(self, files, tmp_path):
        header, body = files["a"].read_text("ascii").split("\n", 1)
        longer = tmp_path / "longer.txt"
        longer.write_text(header + "\n" + body * 4, "ascii")
        base = self.peak_ratio(lambda: fcd_from_files(files["a"], files["b"]))
        assert self.peak_ratio(lambda: fcd_from_files(longer, files["b"])) <= base + 0.05

    def test_fcd_of_value_only_float_reads(self, files, tmp_path):
        """A ``1_0`` in the last block is read by ``float()`` into the same
        block as ``10`` would be: the FCD bits of the file with ``10``."""
        text = files["a"].read_text("ascii")
        plain, underscore = tmp_path / "plain.txt", tmp_path / "underscore.txt"
        last = text.rindex(" ") + 1
        plain.write_text(text[:last] + "10\n", "ascii")
        underscore.write_text(text[:last] + "1_0\n", "ascii")
        assert fcd_from_files(underscore, files["b"]) == fcd_from_files(plain, files["b"])

    @staticmethod
    def through_fifo(folder, data: bytes, read):
        """A call of ``read`` on a FIFO that a thread fills with ``data``."""
        def call():
            path = folder / "fifo"
            path.unlink(missing_ok=True)
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
            writer.start()
            try:
                return read(path)
            finally:
                writer.join(timeout=10)
                assert not writer.is_alive()
        return call

    def test_read_through_fifo(self, files, tmp_path):
        """A pipe is read in one pass, as a file is, not copied whole into
        memory first."""
        call = self.through_fifo(tmp_path, files["a"].read_bytes(), read_vector_rows)
        assert self.peak_ratio(call) <= 1.5

    def test_fcd_of_value_only_float_reads_holds_one_block(self, files, tmp_path):
        text = files["a"].read_text("ascii")
        underscore = tmp_path / "underscore.txt"
        underscore.write_text(text[:text.rindex(" ") + 1] + "1_0\n", "ascii")
        assert self.peak_ratio(lambda: fcd_from_files(underscore, files["b"])) <= 0.5

    def test_fcd_through_fifo_holds_one_block(self, files, tmp_path):
        call = self.through_fifo(tmp_path, files["a"].read_bytes(),
                                 lambda path: fcd_from_files(path, files["b"]))
        assert self.peak_ratio(call) <= 0.5


class TestBlockFold:
    """FCD fits folded over row blocks, made 32 rows long here so that
    small files span many of them."""

    DIM = 6

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(frechet, "_BLOCK_VALUES", 32 * self.DIM)

    def write(self, path, rows):
        np.savetxt(path, rows, fmt="%.17g", header=f"D={self.DIM}", comments="")
        return path

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_fold_agrees_with_exact_fit(self, tmp_path, offset):
        """Against the fit in exact arithmetic.  ``gaussian_fit`` of the
        whole matrix is no oracle on the offset sets: it sums each column a
        row at a time, and misses their exact means by many ulps."""
        rng = np.random.default_rng(83)
        sets = {"a": rng.normal(size=(300, self.DIM)) + offset,
                "b": rng.normal(size=(250, self.DIM)) * 1.3 + 0.2 + offset}
        exact = {}
        for name, rows in sets.items():
            fit = _fit_file(self.write(tmp_path / name, rows))
            exact[name] = stats(*oracles.gaussian_fit_exact(rows.tolist()))
            spacing = np.spacing(1.0 + np.abs(exact[name].mean))
            assert np.all(np.abs(fit.mean - exact[name].mean) <= 4 * spacing)
            assert np.abs(fit.covariance - exact[name].covariance).max() <= 1e-13
            assert np.array_equal(fit.covariance, fit.covariance.T)
        assert fcd_from_files(tmp_path / "a", tmp_path / "b") == pytest.approx(
            frechet_distance(exact["a"], exact["b"]), rel=1e-9)

    def test_one_full_block_is_gaussian_fit(self, tmp_path):
        rows = np.random.default_rng(89).normal(size=(32, self.DIM))
        got = _fit_file(self.write(tmp_path / "e", rows))
        want = gaussian_fit(EmbeddingSet(rows))
        for a, b in ((got.mean, want.mean), (got.covariance, want.covariance)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("source", ["gzip", "fifo"])
    def test_source_kind_keeps_the_bits(self, tmp_path, source):
        rng = np.random.default_rng(97)
        plain = self.write(tmp_path / "plain", rng.normal(size=(300, self.DIM)))
        hyp = self.write(tmp_path / "hyp", rng.normal(size=(40, self.DIM)))
        data, writer = plain.read_bytes(), None
        if source == "gzip":
            other = tmp_path / "e.gz"
            other.write_bytes(gzip.compress(data, mtime=0))
        else:
            other = tmp_path / "fifo"
            os.mkfifo(other)
            writer = threading.Thread(target=other.write_bytes, args=(data,), daemon=True)
            writer.start()
        got = fcd_from_files(other, hyp)
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert got == fcd_from_files(plain, hyp)


class TestFcdFromFiles:
    def test_same_file_twice_is_zero(self, tmp_path):
        rng = np.random.default_rng(41)
        path = write_embedding_file(
            tmp_path / "e.txt", rng.normal(size=(20, 4)).tolist())
        assert fcd_from_files(path, path) <= 1e-8

    def test_shifted_sets_positive(self, tmp_path):
        rng = np.random.default_rng(43)
        base = rng.normal(size=(20, 4))
        a = write_embedding_file(tmp_path / "a.txt", base.tolist())
        b = write_embedding_file(tmp_path / "b.txt", (base + 2.0).tolist())
        assert fcd_from_files(a, b) > 1.0

    def test_dimension_mismatch(self, tmp_path):
        a = write_embedding_file(tmp_path / "a.txt", [[1.0, 2.0], [3.0, 4.0]])
        b = write_embedding_file(tmp_path / "b.txt", [[1.0], [2.0]])
        with pytest.raises(DimensionMismatch):
            fcd_from_files(a, b)

    # Blocks of two rows: row 0 lies in the first block, row 5 in the third.
    @pytest.mark.parametrize("row", [0, 5], ids=["first-block", "later-block"])
    def test_non_finite_value_names_the_file(self, tmp_path, monkeypatch, row):
        monkeypatch.setattr(frechet, "_BLOCK_VALUES", 1)
        rows = [[float(i), 1.0] for i in range(8)]
        rows[row][1] = float("nan")
        path = write_embedding_file(tmp_path / "e.txt", rows)
        other = write_embedding_file(tmp_path / "o.txt", [[0.0, 1.0], [1.0, 0.0]])
        message = f"{path}: embeddings contain NaN or infinite values"
        with pytest.raises(NonFiniteInput) as loaded:
            load_embeddings(path)
        with pytest.raises(NonFiniteInput) as fitted:
            fcd_from_files(other, path)
        assert str(loaded.value) == str(fitted.value) == message

    def test_fixtures_equal_fcd_of_line_oracle_rows(self, fixtures_dir):
        fits = []
        for name in ("embeddings_ref.txt", "embeddings_hyp.txt"):
            path = fixtures_dir / name
            lines = path.read_text("utf-8").splitlines()
            rows = oracles.vector_rows_by_line(path, lines, int(lines[0][2:]))
            fits.append(gaussian_fit(EmbeddingSet(np.array(rows, dtype=np.float64))))
        assert fcd_from_files(fixtures_dir / "embeddings_ref.txt",
                              fixtures_dir / "embeddings_hyp.txt") == frechet_distance(*fits)


finite_rows = arrays(
    np.float64, (6, 3),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False))


@given(finite_rows, finite_rows)
@settings(max_examples=50, deadline=None)
def test_distance_symmetric_and_nonnegative(xs, ys):
    a = gaussian_fit(EmbeddingSet(xs))
    b = gaussian_fit(EmbeddingSet(ys))
    forward = frechet_distance(a, b)
    backward = frechet_distance(b, a)
    assert forward >= 0.0
    assert forward == pytest.approx(backward, rel=1e-6, abs=1e-9)
