"""Ingestion, statistics, and split tests for the dataset module."""

import hashlib
import json
import tracemalloc

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
)


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
        tracemalloc.start()
        try:
            got = dataset._digest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 500_000
        pairs, _ = ingest(path, "drugbank_csv")
        assert pairs.provenance == f"drugbank_csv:drugbank.csv:sha256:{want}"


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
