"""Frechet distance numerics and embedding file parsing tests."""

import gzip
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evalkit.errors import (
    DimensionMismatch,
    InputError,
    NonFiniteInput,
    TooFewSamples,
)
from evalkit.frechet import (
    EmbeddingSet,
    GaussianStats,
    _iter_lines,
    fcd_from_files,
    frechet_distance,
    gaussian_fit,
    load_embeddings,
    read_vector_rows,
)

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


# Values, separators, line ends and blank lines, many of which float(),
# str.split() and str.splitlines() treat differently from np.loadtxt.
_NUMBERS = ["0", "-0", "1", "-2.5", ".5", "5.", "1e5", "1E-3", "1e999", "-1e-400",
            "nan", "-nan", "+NaN", "inf", "-Infinity", "iNf"]
_HOSTILE = ["1_0", "\u0661", "\u0661.5", "0x10", "'1'", '"2"', "#", "#1", "1,5",
            "nan(1)", "\x00", "\ufeff1", "1d5", "--1", "e5", "\x001", "\u0e51"]
_SPACES = [" ", " ", " ", "\t", "  ", "\xa0", "\u3000", "\x1f", "\u2003"]
_LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
              "\x1e", "\x85", "\u2028", "\u2029"]
_BLANKS = ["", " ", "\t", "\xa0", "\x1f", "\u3000"]


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
            oracle = oracles.vector_rows_by_line(path, text.splitlines(), expected)
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


@given(st.text(alphabet="ab \t\xa0" + "".join(_LINE_ENDS), max_size=60),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=500)
def test_lines_read_in_pieces_are_splitlines(text, block):
    assert list(_iter_lines(text, block)) == text.splitlines()


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
    want = np.array(oracles.vector_rows_by_line(path, text.splitlines(), 8))
    assert dim == 8
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
