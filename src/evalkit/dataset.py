"""Dataset ingestion, statistics, and deterministic splitting.

Three input layouts are understood:

* ``generic_jsonl`` — one JSON object per line with keys ``id``, ``smiles``,
  ``indication``, and optional ``source``.  This doubles as the canonical
  output format.
* ``drugbank_csv`` — comma-separated with header ``id,name,smiles,indication``
  (the name column is read and discarded).
* ``chembl_tsv`` — tab-separated with header
  ``chembl_id,canonical_smiles,mesh_heading``; multiple rows per id are
  merged into one record whose indication joins the headings with "; ".

Rows with an empty SMILES or empty indication are dropped and counted, never
silently discarded.  Splitting shuffles indices with the package's own PRNG
(seeded, cross-platform stable) and takes the first ``round(fraction * N)``
indices as the test side, halves rounding up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import (
    DegenerateSplit,
    DuplicateId,
    EmptySet,
    InputError,
    SchemaMismatch,
    read_jsonl_objects,
    utf8_lines,
)

LAYOUTS = ("generic_jsonl", "drugbank_csv", "chembl_tsv")
_SOURCES = ("drugbank", "chembl", "other")


@dataclass(frozen=True)
class DrugRecord:
    id: str
    smiles: str
    indication: str
    source: str = "other"

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}")


@dataclass(frozen=True)
class PairSet:
    """An ordered collection of records with unique ids."""

    records: tuple[DrugRecord, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        seen = set()
        for record in self.records:
            if record.id in seen:
                raise DuplicateId(f"duplicate record id {record.id!r}")
            seen.add(record.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class IngestReport:
    kept: int
    dropped: int
    messages: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetStats:
    """Length statistics; averages are exact, rounding happens at render time."""

    pair_count: int
    indication_min: int
    indication_avg: float
    indication_max: int
    smiles_min: int
    smiles_avg: float
    smiles_max: int


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise InputError(
                f"test fraction must lie strictly between 0 and 1, "
                f"got {self.test_fraction}")


class _Hashed:
    """The bytes of a binary stream, fed to ``digest`` as they are read, so
    that a file is hashed in the one pass that reads its records."""

    def __init__(self, stream: BinaryIO, digest):
        self.stream, self.digest = stream, digest

    def read(self, size: int) -> bytes:
        piece = self.stream.read(size)
        self.digest.update(piece)
        return piece


def _read_table_rows(path: Path, header: list[str], delimiter: str,
                     stream: BinaryIO | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, row)`` for each non-empty data row of a
    delimited file, or of the bytes of ``stream`` when given.  A header
    other than ``header``, a row with another number of columns, or a field
    over ``csv.field_size_limit()`` (kept: it bounds each field's memory)
    raises :class:`SchemaMismatch`."""
    import csv

    reader = csv.reader(utf8_lines(path, newline="", stream=stream), delimiter=delimiter)
    try:
        found = next(reader, None)
        if found != header:
            raise SchemaMismatch(f"{path}: expected header {header}, got {found}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaMismatch(
                    f"{path} line {lineno}: expected {len(header)} columns, "
                    f"got {len(row)}")
            yield lineno, row
    except csv.Error as exc:
        raise SchemaMismatch(f"{path} line {reader.line_num}: {exc}") from exc


def _layout_rows(path: Path, layout: str,
                 digest) -> Iterator[tuple[int, str, str, str, str]]:
    """Yield ``(line number, id, smiles, indication, source)`` for each
    record line of ``path`` in ``layout``, the fields as the file holds
    them, and feed the file's bytes to ``digest`` as they are read.  An
    unknown layout raises :class:`InputError` before the file is opened."""
    if layout not in LAYOUTS:
        raise InputError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
    with path.open("rb") as raw:
        stream = _Hashed(raw, digest)
        if layout == "generic_jsonl":
            for lineno, payload in read_jsonl_objects(path, ("smiles", "indication"),
                                                      stream):
                source = payload.get("source")
                yield (lineno, payload["id"], payload["smiles"], payload["indication"],
                       source if source in _SOURCES else "other")
        elif layout == "drugbank_csv":
            header = ["id", "name", "smiles", "indication"]
            for lineno, row in _read_table_rows(path, header, ",", stream):
                yield lineno, row[0], row[2], row[3], "drugbank"
        else:
            header = ["chembl_id", "canonical_smiles", "mesh_heading"]
            for lineno, row in _read_table_rows(path, header, "\t", stream):
                yield lineno, row[0], row[1], row[2], "chembl"


def ingest(path: str | Path, layout: str) -> tuple[PairSet, IngestReport]:
    """Read ``path`` in the named layout.

    Returns the kept records plus a report counting dropped rows.  Schema
    problems (wrong header, missing keys) raise; empty required fields drop
    the row.  Duplicate ids raise except in the ChEMBL layout, where
    repeated ids are the documented multi-indication representation.
    """
    import hashlib  # loads OpenSSL: only ingest needs it

    path = Path(path)
    digest = hashlib.sha256()
    # A dropped row's message names the empty field as the layout does.
    names = (("canonical_smiles", "mesh_heading") if layout == "chembl_tsv"
             else ("smiles", "indication"))
    records: list[DrugRecord] = []
    dropped: list[str] = []
    for lineno, raw_id, smiles, indication, source in _layout_rows(path, layout, digest):
        smiles, indication = smiles.strip(), indication.strip()
        if smiles and indication:
            records.append(DrugRecord(raw_id.strip(), smiles, indication, source))
        else:
            missing = names[0] if not smiles else names[1]
            dropped.append(f"line {lineno}: empty {missing}")
    if layout == "chembl_tsv":
        # One record per id, in first-occurrence order: its first SMILES,
        # and its indications joined.
        merged: dict[str, list[DrugRecord]] = {}
        for record in records:
            merged.setdefault(record.id, []).append(record)
        records = [replace(rows[0], indication="; ".join(r.indication for r in rows))
                   for rows in merged.values()]
    pairs = PairSet(
        records=tuple(records),
        provenance=f"{layout}:{path.name}:sha256:{digest.hexdigest()[:16]}",
    )
    return pairs, IngestReport(kept=len(records), dropped=len(dropped),
                               messages=tuple(dropped))


def stats(pairs: PairSet) -> DatasetStats:
    """Pair count and min/avg/max lengths of indication and SMILES strings."""
    if len(pairs) == 0:
        raise EmptySet("cannot compute statistics of an empty pair set")
    indication_lengths = [len(r.indication) for r in pairs]
    smiles_lengths = [len(r.smiles) for r in pairs]
    return DatasetStats(
        pair_count=len(pairs),
        indication_min=min(indication_lengths),
        indication_avg=sum(indication_lengths) / len(pairs),
        indication_max=max(indication_lengths),
        smiles_min=min(smiles_lengths),
        smiles_avg=sum(smiles_lengths) / len(pairs),
        smiles_max=max(smiles_lengths),
    )


def split(pairs: PairSet, spec: SplitSpec) -> tuple[PairSet, PairSet]:
    """Deterministic (train, test) split.

    The test side receives ``round_half_up(fraction * N)`` records chosen by
    a seeded Fisher-Yates shuffle; both sides keep the shuffled order.  The
    same spec on the same set always reproduces the same split.
    """
    from .rng import Xoshiro256StarStar, round_half_up

    n = len(pairs)
    if n < 2:
        raise EmptySet(f"cannot split {n} record(s)")
    test_size = round_half_up(spec.test_fraction * n)
    if test_size == 0 or test_size == n:
        raise DegenerateSplit(
            f"fraction {spec.test_fraction} of {n} records leaves one side empty")
    indices = list(range(n))
    Xoshiro256StarStar(spec.seed).shuffle(indices)
    test_records = tuple(pairs.records[i] for i in indices[:test_size])
    train_records = tuple(pairs.records[i] for i in indices[test_size:])
    stamp = f"split:seed={spec.seed}:fraction={spec.test_fraction}"
    return (
        PairSet(train_records, provenance=f"{pairs.provenance}|{stamp}:train"),
        PairSet(test_records, provenance=f"{pairs.provenance}|{stamp}:test"),
    )


def write_jsonl(pairs: PairSet, path: str | Path) -> None:
    """Write records in the canonical generic_jsonl layout, one per line."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in pairs:
            handle.write(json.dumps({
                "id": record.id,
                "smiles": record.smiles,
                "indication": record.indication,
                "source": record.source,
            }, ensure_ascii=False) + "\n")
