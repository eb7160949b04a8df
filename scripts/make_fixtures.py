#!/usr/bin/env python3
"""Regenerate the generated test fixtures, deterministically.

Reads tests/fixtures/valid_smiles.txt (hand-curated, not generated) and
writes:

    tests/fixtures/pairs_100.jsonl        100 drug/indication records
    tests/fixtures/embeddings_ref.txt     100 x 8 embedding file
    tests/fixtures/embeddings_hyp.txt     100 x 8 embedding file (different)
    tests/fixtures/text2mol_identity.txt  100 paired rows, ref == hyp
    tests/fixtures/predictions_d2i_long.jsonl
                                          10 drug->indication rows, 3-4 clauses

Byte-identical on every run: the only randomness is the package's own
seeded PRNG and all floats are fixed-format.
"""

from __future__ import annotations

import json
from pathlib import Path

from evalkit.rng import Xoshiro256StarStar

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

ACTIONS = ("treatment", "management", "relief", "prevention", "control",
           "symptomatic treatment", "long term management")
QUALIFIERS = ("mild to moderate", "severe", "chronic", "acute", "recurrent",
              "treatment resistant", "newly diagnosed")
CONDITIONS = (
    "hypertension", "bacterial infections of the skin", "seasonal allergic rhinitis",
    "major depressive disorder", "type 2 diabetes mellitus", "rheumatoid arthritis",
    "gastroesophageal reflux disease", "partial onset seizures", "chronic heart failure",
    "migraine headache", "asthma and bronchospasm", "postoperative nausea and vomiting",
    "iron deficiency anemia", "hypercholesterolemia", "urinary tract infections",
    "glaucoma and ocular hypertension",
)
POPULATIONS = ("in adults", "in children over six years of age", "in elderly patients",
               "in hospitalized patients", "in adults and adolescents",
               "when first line therapy has failed")
SOURCES = ("drugbank", "chembl", "other")
JOINERS = ("; ", " and ", ", as well as ")
D2I_KINDS = ("copy", "partial", "other", "truncation", "loop")
LOOP_WORDS = 200


def _uniform(rng: Xoshiro256StarStar, low: float, high: float) -> float:
    return low + (high - low) * (rng.next_u64() / 2.0 ** 64)


def _pick(rng: Xoshiro256StarStar, options):
    return options[rng.below(len(options))]


def make_pairs(smiles: list[str]) -> None:
    rng = Xoshiro256StarStar(2024)
    with (FIXTURES / "pairs_100.jsonl").open("w", encoding="utf-8") as out:
        for i, s in enumerate(smiles[:100], start=1):
            indication = (
                f"For the {_pick(rng, ACTIONS)} of {_pick(rng, QUALIFIERS)} "
                f"{_pick(rng, CONDITIONS)} {_pick(rng, POPULATIONS)}"
            )
            record = {
                "id": f"d{i:03d}",
                "smiles": s,
                "indication": indication,
                "source": _pick(rng, SOURCES),
            }
            out.write(json.dumps(record, ensure_ascii=False) + "\n")


def _clause(rng: Xoshiro256StarStar) -> str:
    return (f"for the {_pick(rng, ACTIONS)} of {_pick(rng, QUALIFIERS)} "
            f"{_pick(rng, CONDITIONS)} {_pick(rng, POPULATIONS)}")


def _indication(clauses: list[str]) -> str:
    text = clauses[0]
    for i, part in enumerate(clauses[1:]):
        text += JOINERS[i % len(JOINERS)] + part
    return text[0].upper() + text[1:] + "."


def make_d2i_long(rows: int = 10) -> None:
    """Long indications whose METEOR alignment search is large: hypotheses
    copy the reference, replace half its clauses, name another indication,
    truncate it, or loop its first clause."""
    rng = Xoshiro256StarStar(2007)
    parts = [[_clause(rng) for _ in range(3 + i % 2)] for i in range(rows)]
    refs = [_indication(p) for p in parts]
    with (FIXTURES / "predictions_d2i_long.jsonl").open("w", encoding="utf-8") as out:
        for i, (clauses, ref) in enumerate(zip(parts, refs)):
            kind = D2I_KINDS[i % len(D2I_KINDS)]
            if kind == "copy":
                hyp = ref
            elif kind == "partial":
                kept = [c if j % 2 else _clause(rng) for j, c in enumerate(clauses)]
                hyp = _indication(kept)
            elif kind == "other":
                hyp = refs[(i + 2) % rows]
            elif kind == "truncation":
                words = ref.split()
                hyp = " ".join(words[:len(words) * (40 + rng.below(40)) // 100])
            else:
                loop = clauses[0].split()
                hyp = " ".join((loop * (LOOP_WORDS // len(loop) + 1))[:LOOP_WORDS])
            record = {"id": f"l{i + 1:02d}", "reference": ref, "hypothesis": hyp}
            out.write(json.dumps(record, ensure_ascii=False) + "\n")


def make_embeddings(name: str, seed: int, rows: int = 100, dim: int = 8,
                    shift: float = 0.0) -> None:
    rng = Xoshiro256StarStar(seed)
    with (FIXTURES / name).open("w", encoding="utf-8") as out:
        out.write(f"D={dim}\n")
        for _ in range(rows):
            values = [_uniform(rng, -1.0, 1.0) + shift for _ in range(dim)]
            out.write(" ".join(f"{v:.6f}" for v in values) + "\n")


def make_text2mol_identity(rows: int = 100, dim: int = 8) -> None:
    rng = Xoshiro256StarStar(7)
    with (FIXTURES / "text2mol_identity.txt").open("w", encoding="utf-8") as out:
        out.write(f"D={dim}\n")
        for _ in range(rows):
            vector = [f"{_uniform(rng, -1.0, 1.0):.6f}" for _ in range(dim)]
            out.write(" ".join(vector + vector) + "\n")


def main() -> None:
    smiles = [
        line.strip()
        for line in (FIXTURES / "valid_smiles.txt").read_text().splitlines()
        if line.strip()
    ]
    if len(smiles) < 100:
        raise SystemExit("valid_smiles.txt must hold at least 100 strings")
    make_pairs(smiles)
    make_embeddings("embeddings_ref.txt", seed=11)
    make_embeddings("embeddings_hyp.txt", seed=12, shift=0.25)
    make_text2mol_identity()
    make_d2i_long()
    print("fixtures written to", FIXTURES)


if __name__ == "__main__":
    main()
