"""Ingestion, statistics, and split tests for the dataset module."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import dataset
from evalkit.dataset import (
    DrugRecord,
    PairSet,
    SplitSpec,
    ingest,
    split,
    stats,
    write_jsonl,
)
from evalkit.errors import (
    DegenerateSplit,
    DuplicateId,
    EmptySet,
    InputError,
    SchemaMismatch,
    utf8_lines,
)

import oracles

SRC = Path(dataset.__file__).resolve().parents[1]


def make_pairs(n, prefix="r"):
    return PairSet(tuple(
        DrugRecord(id=f"{prefix}{i}", smiles="C" * (i % 5 + 1),
                   indication=f"indication {i}")
        for i in range(n)))


class TestGenericJsonl:
    def test_reads_fixture(self, fixtures_dir):
        pairs, report = ingest(fixtures_dir / "pairs_small.jsonl",
                               "generic_jsonl")
        assert report.kept == 5
        assert report.dropped == 0
        assert len(pairs) == 5
        assert pairs.records[0].id == "p1"
        assert pairs.provenance.startswith("generic_jsonl:pairs_small.jsonl:sha256:")
        assert len(pairs.provenance.rsplit(":", 1)[1]) == 16

    def test_unknown_source_becomes_other(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({
            "id": "x", "smiles": "C", "indication": "pain",
            "source": "mystery"}) + "\n")
        pairs, _ = ingest(path, "generic_jsonl")
        assert pairs.records[0].source == "other"

    def test_empty_fields_drop_with_line_numbers(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"id": "a", "smiles": "C", "indication": "pain"}\n'
            '{"id": "b", "smiles": "", "indication": "fever"}\n'
            '{"id": "c", "smiles": "N", "indication": "  "}\n')
        pairs, report = ingest(path, "generic_jsonl")
        assert report.kept == 1
        assert report.dropped == 2
        assert report.messages == (
            "line 2: empty smiles", "line 3: empty indication")

    def test_missing_key_raises(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "smiles": "C"}\n')
        with pytest.raises(SchemaMismatch) as info:
            ingest(path, "generic_jsonl")
        assert "line 1" in str(info.value)
        assert "indication" in str(info.value)

    def test_invalid_json_raises_with_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "smiles": "C", "indication": "x"}\n{oops\n')
        with pytest.raises(SchemaMismatch) as info:
            ingest(path, "generic_jsonl")
        assert "line 2" in str(info.value)

    def test_duplicate_ids_raise(self, tmp_path):
        path = tmp_path / "p.jsonl"
        row = '{"id": "same", "smiles": "C", "indication": "x"}\n'
        path.write_text(row + row)
        with pytest.raises(DuplicateId):
            ingest(path, "generic_jsonl")

    @pytest.mark.parametrize("line", [
        '5',
        '{"id": "a", "smiles": null, "indication": "x"}',
        '{"id": "a", "smiles": "C", "indication": ["x"]}',
        # Past int()'s 4,300-digit limit json.loads raises a plain ValueError.
        pytest.param('{"id": ' + "9" * 5000 + ', "smiles": "C", "indication": "x"}',
                     id="5000-digit-id"),
    ])
    def test_non_object_or_non_string_line_raises_with_line(self, tmp_path, line):
        path = tmp_path / "p.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SchemaMismatch, match="line 1"):
            ingest(path, "generic_jsonl")


class TestDrugbankCsv:
    def test_reads_fixture(self, fixtures_dir):
        pairs, report = ingest(fixtures_dir / "drugbank_like.csv",
                               "drugbank_csv")
        assert report.kept == 8
        assert report.dropped == 0
        assert all(r.source == "drugbank" for r in pairs)
        first = pairs.records[0]
        assert first.id == "DB0001"
        assert first.smiles == "CC(=O)Oc1ccccc1C(=O)O"

    def test_dirty_fixture_drops_and_reports(self, fixtures_dir):
        pairs, report = ingest(fixtures_dir / "drugbank_dirty.csv",
                               "drugbank_csv")
        assert report.kept == 2
        assert report.dropped == 1
        assert report.messages == ("line 3: empty indication",)

    def test_name_column_discarded(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,name,smiles,indication\n"
                        "D1,Aspirin,CC,Pain\n")
        pairs, _ = ingest(path, "drugbank_csv")
        record = pairs.records[0]
        assert record.smiles == "CC"
        assert record.indication == "Pain"
        assert not hasattr(record, "name")

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,smiles,indication\nD1,CC,Pain\n")
        with pytest.raises(SchemaMismatch):
            ingest(path, "drugbank_csv")

    def test_wrong_column_count_raises_with_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,name,smiles,indication\nD1,Aspirin,CC\n")
        with pytest.raises(SchemaMismatch) as info:
            ingest(path, "drugbank_csv")
        assert "line 2" in str(info.value)

    def test_quoted_commas_survive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('id,name,smiles,indication\n'
                        'D1,X,CC,"Pain, acute"\n')
        pairs, _ = ingest(path, "drugbank_csv")
        assert pairs.records[0].indication == "Pain, acute"

    def test_field_over_csv_limit_raises_with_line(self, tmp_path):
        # csv.field_size_limit() is 131,072 characters.
        path = tmp_path / "d.csv"
        path.write_text("id,name,smiles,indication\n"
                        "D1,X,CC,Pain\n"
                        f"D2,Y,{'C' * 200_000},Pain\n")
        with pytest.raises(SchemaMismatch, match="line 3: field larger"):
            ingest(path, "drugbank_csv")


class TestChemblTsv:
    def test_merges_repeated_ids(self, fixtures_dir):
        pairs, report = ingest(fixtures_dir / "chembl_like.tsv", "chembl_tsv")
        assert report.kept == 4
        assert report.dropped == 1
        by_id = {r.id: r for r in pairs}
        assert by_id["CHEMBL25"].indication == "Pain; Fever; Inflammation"
        assert by_id["CHEMBL112"].indication == "Pain; Fever"
        assert all(r.source == "chembl" for r in pairs)

    def test_first_smiles_wins_for_an_id(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("chembl_id\tcanonical_smiles\tmesh_heading\n"
                        "C1\tCCO\tPain\n"
                        "C1\tCCC\tFever\n")
        pairs, _ = ingest(path, "chembl_tsv")
        assert pairs.records[0].smiles == "CCO"
        assert pairs.records[0].indication == "Pain; Fever"

    def test_first_occurrence_order_kept(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("chembl_id\tcanonical_smiles\tmesh_heading\n"
                        "B\tC\tx\nA\tN\ty\nB\tC\tz\n")
        pairs, _ = ingest(path, "chembl_tsv")
        assert [r.id for r in pairs] == ["B", "A"]

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("id\tsmiles\theading\nC1\tCC\tPain\n")
        with pytest.raises(SchemaMismatch):
            ingest(path, "chembl_tsv")

    def test_header_field_over_csv_limit_raises_with_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"chembl_id\t{'x' * 200_000}\tmesh_heading\n")
        with pytest.raises(SchemaMismatch, match="line 1: field larger"):
            ingest(path, "chembl_tsv")


class TestIngestDispatch:
    # Per layout: a file with blank lines among its rows, and the records
    # it keeps.
    BLANK_LINES = {
        "generic_jsonl": (
            '\n{"id": "a", "smiles": "C", "indication": "x"}\n\n', 1),
        "drugbank_csv": (
            "id,name,smiles,indication\nDB1,a,C,pain\n\nDB2,b,N,fever\n", 2),
        # Both rows carry one id, so they merge into one record.
        "chembl_tsv": (
            "chembl_id\tcanonical_smiles\tmesh_heading\n"
            "CHEMBL1\tC\tPain\n\nCHEMBL1\tC\tFever\n", 1),
    }

    @pytest.mark.parametrize("layout", BLANK_LINES)
    def test_blank_lines_skipped(self, tmp_path, layout):
        text, kept = self.BLANK_LINES[layout]
        path = tmp_path / "p.txt"
        path.write_text(text)
        _, report = ingest(path, layout)
        assert report.kept == kept
        assert report.dropped == 0

    def test_unknown_layout(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("")
        with pytest.raises(InputError):
            ingest(path, "parquet")

    def test_missing_file(self, fixtures_dir):
        with pytest.raises(OSError):
            ingest(fixtures_dir / "no_such_file.jsonl", "generic_jsonl")

    def test_digest_reads_the_file_in_pieces(self, tmp_path):
        path = tmp_path / "drugbank.csv"
        path.write_bytes(b"id,name,smiles,indication\r\n" + b"".join(
            b"DB%06d,aspirin,CC(=O)Oc1ccccc1C(=O)O,pain and fever\r\n" % i
            for i in range(80_000)))  # 4.5 MB
        want = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        # The digest is fed by the stream the records are read from: reading
        # the lines through it holds no more than a piece of the file.
        digest = hashlib.sha256()
        tracemalloc.start()
        try:
            with path.open("rb") as raw:
                for _ in utf8_lines(path, stream=dataset._Hashed(raw, digest)):
                    pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest.hexdigest()[:16] == want
        assert peak < 500_000
        pairs, _ = ingest(path, "drugbank_csv")
        assert pairs.provenance == f"drugbank_csv:drugbank.csv:sha256:{want}"

    @pytest.mark.parametrize("layout,name", [
        ("generic_jsonl", "pairs_small.jsonl"), ("drugbank_csv", "drugbank_like.csv"),
        ("chembl_tsv", "chembl_like.tsv")])
    def test_piped_file_has_the_provenance_of_the_file(self, fixtures_dir, layout,
                                                       name):
        """A pipe can be read only once: its digest is of the bytes its
        records were read from, as a file's is, not of what is left after
        them."""
        data = (fixtures_dir / name).read_bytes()
        sha = hashlib.sha256(data).hexdigest()[:16]
        on_disk = ingest(fixtures_dir / name, layout)
        assert on_disk[0].provenance == f"{layout}:{name}:sha256:{sha}"
        program = ("import sys; from evalkit.dataset import ingest; "
                   "pairs, report = ingest('/dev/stdin', sys.argv[1]); "
                   "print(pairs.provenance, len(pairs), report.dropped)")
        done = subprocess.run([sys.executable, "-c", program, layout], input=data,
                              capture_output=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode() == (f"{layout}:stdin:sha256:{sha} "
                                        f"{len(on_disk[0])} {on_disk[1].dropped}\n")


# Pieces of generated dataset files: SMILES and indications, a blank
# (empty or whitespace-only) one now and then; JSONL ids and sources that
# are not strings; and the header each delimited layout expects.
SMILES = ["C", " CCO ", "c1ccccc1", "N#N"]
INDICATIONS = ["Pain", " fever ", "Pain, acute", 'say "when"', "été"]
BLANKS = ["", "  ", "\t"]
SOURCES = [None, "drugbank", "chembl", "other", "mystery", " chembl", 5, True,
           ["drugbank"], {"a": 1}]
HEADERS = {"drugbank_csv": (["id", "name", "smiles", "indication"], ","),
           "chembl_tsv": (["chembl_id", "canonical_smiles", "mesh_heading"], "\t")}


def generated_file(rng: random.Random, layout: str) -> bytes:
    """A small file in ``layout``: blank lines, ``\n``, ``\r\n`` and lone
    ``\r`` line ends, padded, numeric, blank and repeated ids, and now and
    then a bad header or a bad line."""
    ids: list = []

    def field(values):
        return rng.choice(BLANKS if rng.random() < 0.08 else values)

    def next_id():
        # ChEMBL repeats ids on purpose; elsewhere a repeat is an error.
        if ids and rng.random() < (0.4 if layout == "chembl_tsv" else 0.03):
            return rng.choice(ids)
        n = len(ids)
        ids.append(field([f"D{n}", f" D{n} ", str(n), f"{n:03d}", f"{n} "]))
        return ids[-1]

    lines = []
    if layout == "generic_jsonl":
        for _ in range(rng.randrange(8)):
            row = {"id": next_id(), "smiles": field(SMILES),
                   "indication": field(INDICATIONS)}
            if rng.random() < 0.2:
                row["id"] = rng.choice([len(ids), len(ids) + 0.5, -1])
            source = rng.choice(SOURCES)
            if source is not None:
                row["source"] = source
            roll = rng.random()
            if roll < 0.01:
                row["smiles"] = 5
            elif roll < 0.02:
                del row["indication"]
            lines.append(json.dumps(row, ensure_ascii=rng.random() < 0.5))
            if roll > 0.99:
                lines[-1] = rng.choice(["{oops", "[1, 2]", '{"id": null}'])
    else:
        header, delimiter = HEADERS[layout]
        if rng.random() < 0.03:
            header = rng.choice([header[:-1], header[::-1],
                                 [" " + header[0], *header[1:]]])
        stream = io.StringIO()
        writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for _ in range(rng.randrange(8)):
            row = [next_id(), field(SMILES), field(INDICATIONS)]
            if layout == "drugbank_csv":
                row.insert(1, rng.choice(["aspirin", "", "x,y"]))
            if rng.random() < 0.02:
                row = row[:-1] if rng.random() < 0.5 else [*row, "extra"]
            writer.writerow(row)
        lines = stream.getvalue().splitlines()
    # A blank line before a header is a bad header.
    first = 0 if layout == "generic_jsonl" or rng.random() < 0.02 else 1
    for _ in range(rng.randrange(3)):
        lines.insert(rng.randrange(first, len(lines) + 1), "")
    ends = [rng.choice(["\n", "\r\n", "\r"])]
    if rng.random() < 0.2:
        ends = ["\n", "\r\n", "\r"]
    text = "".join(line + rng.choice(ends) for line in lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


class TestIngestAgainstLayoutFunctions:
    """``ingest`` reads every file exactly as the per-layout functions it
    replaced (``oracles.ingest_by_layout_functions``) did: equal records,
    provenance and report, or the same error class and message."""

    @staticmethod
    def outcome(read, path, layout):
        try:
            pairs, report = read(path, layout)
        except InputError as exc:
            return type(exc), str(exc)
        return pairs.records, pairs.provenance, report

    @pytest.mark.parametrize("layout", dataset.LAYOUTS)
    def test_generated_files(self, tmp_path, layout):
        rng = random.Random(2800 + dataset.LAYOUTS.index(layout))
        path = tmp_path / "pairs.txt"
        differences = []
        kinds = Counter()
        for _ in range(1000):
            path.write_bytes(generated_file(rng, layout))
            new = self.outcome(ingest, path, layout)
            old = self.outcome(oracles.ingest_by_layout_functions, path, layout)
            if new != old:
                differences.append((path.read_bytes(), new, old))
            kinds["error" if isinstance(new[0], type)
                  else "dropped" if new[2].dropped else "clean"] += 1
        assert not differences, differences[:3]
        # Errors, dropped rows and clean files are all common, so each
        # path is compared.
        assert min(kinds["error"], kinds["dropped"], kinds["clean"]) > 50, kinds


class TestPairSet:
    def test_duplicate_ids_rejected(self):
        record = DrugRecord(id="a", smiles="C", indication="x")
        with pytest.raises(DuplicateId):
            PairSet((record, record))

    def test_record_validates_source(self):
        with pytest.raises(ValueError):
            DrugRecord(id="a", smiles="C", indication="x", source="junk")


class TestStats:
    def test_hand_values(self):
        pairs = PairSet((
            DrugRecord(id="a", smiles="CC", indication="abcd"),
            DrugRecord(id="b", smiles="CCCCCC", indication="ab"),
        ))
        result = stats(pairs)
        assert result.pair_count == 2
        assert result.smiles_min == 2
        assert result.smiles_avg == 4.0
        assert result.smiles_max == 6
        assert result.indication_min == 2
        assert result.indication_avg == 3.0
        assert result.indication_max == 4

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            stats(PairSet(()))


class TestSplit:
    def test_sizes_for_ten_records(self):
        train, test = split(make_pairs(10), SplitSpec(test_fraction=0.2, seed=3))
        assert (len(train), len(test)) == (8, 2)

    def test_round_half_up_decides_odd_cases(self):
        # 0.25 of 10 is 2.5; half rounds up, so the test side gets 3
        train, test = split(make_pairs(10), SplitSpec(test_fraction=0.25, seed=3))
        assert (len(train), len(test)) == (7, 3)

    def test_paper_scale_sizes(self):
        train, test = split(make_pairs(3004), SplitSpec(test_fraction=0.2, seed=0))
        assert (len(train), len(test)) == (2403, 601)

    def test_no_overlap_and_full_coverage(self):
        pairs = make_pairs(57)
        train, test = split(pairs, SplitSpec(test_fraction=0.3, seed=11))
        train_ids = {r.id for r in train}
        test_ids = {r.id for r in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {r.id for r in pairs}

    def test_same_seed_reproduces(self):
        pairs = make_pairs(40)
        spec = SplitSpec(test_fraction=0.2, seed=77)
        first = split(pairs, spec)
        second = split(pairs, spec)
        assert [r.id for r in first[0]] == [r.id for r in second[0]]
        assert [r.id for r in first[1]] == [r.id for r in second[1]]

    def test_different_seeds_differ(self):
        pairs = make_pairs(40)
        first = split(pairs, SplitSpec(test_fraction=0.2, seed=1))
        second = split(pairs, SplitSpec(test_fraction=0.2, seed=2))
        assert [r.id for r in first[1]] != [r.id for r in second[1]]

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(DegenerateSplit):
            split(make_pairs(3), SplitSpec(test_fraction=0.1, seed=0))
        with pytest.raises(DegenerateSplit):
            split(make_pairs(3), SplitSpec(test_fraction=0.9, seed=0))

    def test_fraction_bounds_validated(self):
        with pytest.raises(InputError):
            SplitSpec(test_fraction=0.0)
        with pytest.raises(InputError):
            SplitSpec(test_fraction=1.0)

    def test_tiny_set_rejected(self):
        with pytest.raises(EmptySet):
            split(make_pairs(1), SplitSpec(test_fraction=0.5))

    def test_provenance_stamped(self):
        train, test = split(make_pairs(10), SplitSpec(test_fraction=0.2, seed=5))
        assert train.provenance.endswith("split:seed=5:fraction=0.2:train")
        assert test.provenance.endswith("split:seed=5:fraction=0.2:test")


class TestWriteJsonl:
    def test_round_trip(self, tmp_path, fixtures_dir):
        pairs, _ = ingest(fixtures_dir / "drugbank_like.csv", "drugbank_csv")
        out = tmp_path / "out.jsonl"
        write_jsonl(pairs, out)
        reloaded, report = ingest(out, "generic_jsonl")
        assert report.dropped == 0
        assert reloaded.records == pairs.records

    def test_output_is_valid_jsonl(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_jsonl(make_pairs(3), out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        payload = json.loads(lines[0])
        assert set(payload) == {"id", "smiles", "indication", "source"}


@given(st.integers(min_value=4, max_value=400),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_split_partition_property(n, fraction, seed):
    pairs = make_pairs(n)
    try:
        train, test = split(pairs, SplitSpec(test_fraction=fraction, seed=seed))
    except DegenerateSplit:
        return
    assert len(train) + len(test) == n
    assert {r.id for r in train}.isdisjoint(r.id for r in test)
