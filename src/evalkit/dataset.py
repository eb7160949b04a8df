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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import (
    DegenerateSplit,
    DuplicateId,
    EmptySet,
    InputError,
    SchemaMismatch,
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


# Bytes hashed per read in _digest: the file is never held whole.
_DIGEST_PIECE = 1 << 16


def _digest(path: Path) -> str:
    import hashlib  # loads OpenSSL: only ingest needs it

    digest = hashlib.sha256()
    with path.open("rb") as stream:
        while piece := stream.read(_DIGEST_PIECE):
            digest.update(piece)
    return digest.hexdigest()[:16]


def _clean_row(raw_id: str, smiles: str, indication: str, source: str,
               dropped: list[str], context: str) -> DrugRecord | None:
    smiles = smiles.strip()
    indication = indication.strip()
    if not smiles or not indication:
        missing = "smiles" if not smiles else "indication"
        dropped.append(f"{context}: empty {missing}")
        return None
    return DrugRecord(id=raw_id.strip(), smiles=smiles,
                      indication=indication, source=source)


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
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
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


def _ingest_generic_jsonl(path: Path) -> tuple[list[DrugRecord], list[str]]:
    records: list[DrugRecord] = []
    dropped: list[str] = []
    for lineno, payload in read_jsonl_objects(path, ("smiles", "indication")):
        source = payload.get("source")
        record = _clean_row(payload["id"], payload["smiles"], payload["indication"],
                            source if source in _SOURCES else "other",
                            dropped, f"line {lineno}")
        if record:
            records.append(record)
    return records, dropped


def _read_table_rows(path: Path, header: list[str],
                     delimiter: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, row)`` for each non-empty data row of a
    delimited file.  A header other than ``header``, or a row with another
    number of columns, raises :class:`SchemaMismatch`."""
    import csv

    reader = csv.reader(utf8_lines(path, newline=""), delimiter=delimiter)
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


def _ingest_drugbank_csv(path: Path) -> tuple[list[DrugRecord], list[str]]:
    records: list[DrugRecord] = []
    dropped: list[str] = []
    header = ["id", "name", "smiles", "indication"]
    for lineno, row in _read_table_rows(path, header, ","):
        record = _clean_row(row[0], row[2], row[3], "drugbank",
                            dropped, f"line {lineno}")
        if record:
            records.append(record)
    return records, dropped


def _ingest_chembl_tsv(path: Path) -> tuple[list[DrugRecord], list[str]]:
    dropped: list[str] = []
    merged: dict[str, tuple[str, list[str]]] = {}
    header = ["chembl_id", "canonical_smiles", "mesh_heading"]
    for lineno, row in _read_table_rows(path, header, "\t"):
        raw_id, smiles, heading = (f.strip() for f in row)
        if not smiles or not heading:
            missing = "canonical_smiles" if not smiles else "mesh_heading"
            dropped.append(f"line {lineno}: empty {missing}")
            continue
        if raw_id in merged:
            merged[raw_id][1].append(heading)
        else:
            merged[raw_id] = (smiles, [heading])
    records = [
        DrugRecord(id=raw_id, smiles=smiles, indication="; ".join(headings),
                   source="chembl")
        for raw_id, (smiles, headings) in merged.items()
    ]
    return records, dropped


def ingest(path: str | Path, layout: str) -> tuple[PairSet, IngestReport]:
    """Read ``path`` in the named layout.

    Returns the kept records plus a report counting dropped rows.  Schema
    problems (wrong header, missing keys) raise; empty required fields drop
    the row.  Duplicate ids raise except in the ChEMBL layout, where
    repeated ids are the documented multi-indication representation.
    """
    path = Path(path)
    if layout == "generic_jsonl":
        records, dropped = _ingest_generic_jsonl(path)
    elif layout == "drugbank_csv":
        records, dropped = _ingest_drugbank_csv(path)
    elif layout == "chembl_tsv":
        records, dropped = _ingest_chembl_tsv(path)
    else:
        raise InputError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
    pairs = PairSet(
        records=tuple(records),
        provenance=f"{layout}:{path.name}:sha256:{_digest(path)}",
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
