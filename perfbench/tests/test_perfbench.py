"""Tests of the benchmark itself: seeded inputs, wrapper coverage,
workload shape, output checks, and the contract of run.py.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from evalkit import cli  # noqa: E402
from evalkit.smiles import parse_smiles, validate  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    argv_a = gen.generate(workload, 7, tmp_path / "a")
    argv_b = gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert [a.replace("/a/", "/b/") for a in argv_a] == argv_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert (_files(tmp_path / "a")["predictions.jsonl"]
            != _files(tmp_path / "c")["predictions.jsonl"])


def test_known_drugs_parse_with_evalkit():
    gen.check_known_drugs()
    for name in ("atorvastatin", "paclitaxel", "morphine", "caffeine", "imatinib"):
        assert parse_smiles(gen.KNOWN_DRUGS[name]).atoms


def test_writer_round_trips_through_evalkit():
    rng = gen.Rng(3)
    for text in gen.KNOWN_DRUGS.values():
        graph = gen.read_smiles(text)
        for root in (0, len(graph.atoms) - 1):
            mol = parse_smiles(gen.write_smiles(graph, root, rng))
            ref = parse_smiles(text)
            assert len(mol.atoms) == len(ref.atoms)
            assert len(mol.bonds) == len(ref.bonds)


def _rows(workload: str, seed: int = 0) -> list[dict]:
    rng = gen.Rng(seed * 8 + gen.WORKLOADS.index(workload))
    return {"i2d_drug": gen.i2d_drug_rows, "i2d_small_embed": gen.i2d_small_rows,
            "d2i_text": gen.d2i_rows}[workload](rng)


def _ring_count(text: str) -> int:
    mol = parse_smiles(text)
    return len(mol.bonds) - len(mol.atoms) + 1


def test_i2d_drug_shape():
    rows = _rows("i2d_drug")
    refs = [r["reference"] for r in rows]
    assert len(set(refs)) == len(refs) == gen.I2D_DRUG_ROWS
    assert all(20 <= len(parse_smiles(r).atoms) <= 70 for r in refs)
    # fused or bridged ring systems: at least two rings in one molecule
    assert sum(_ring_count(r) >= 2 for r in refs) >= len(refs) // 2
    hyps = [r["hypothesis"] for r in rows]
    share = len(rows) // len(gen.I2D_DRUG_KINDS)
    assert hyps.count("") == share
    assert sum(h == r for h, r in zip(hyps, refs)) >= share
    invalid = [h for h in hyps if h and not validate(h).verdict]
    assert len(invalid) == share


def test_i2d_small_embed_shape():
    rows = _rows("i2d_small_embed")
    refs = [r["reference"] for r in rows]
    assert len(rows) == gen.I2D_SMALL_ROWS
    assert len(set(refs)) < len(refs) // 2  # references repeat
    assert all(1 <= len(parse_smiles(r).atoms) <= 30 for r in refs)
    failing = sum(not validate(r["hypothesis"]).verdict for r in rows)
    assert failing / len(rows) >= 0.4  # a weak model's output


def test_d2i_text_shape():
    rows = _rows("d2i_text")
    clause_counts = {r["reference"].count("for the ") + r["reference"].count("For the ")
                     for r in rows}
    assert clause_counts == {1, 2, 3, 4}
    lengths = [len(r["hypothesis"].split()) for r in rows]
    assert max(lengths) == gen.MAX_GENERATION_WORDS
    assert any(r["hypothesis"] == r["reference"] for r in rows)
    # an "other" hypothesis is another indication with as many clauses
    for seed in range(4):
        rows = _rows("d2i_text", seed)
        refs = {r["reference"] for r in rows}
        others = [r for r in rows if r["hypothesis"] in refs - {r["reference"]}]
        assert others
        assert all(r["hypothesis"].lower().count("for the ")
                   == r["reference"].lower().count("for the ") for r in others)


@pytest.fixture(scope="module")
def default_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    return {w: gen.generate(w, run.DEFAULT_SEED, base / w) for w in gen.WORKLOADS}


def _traced_call(argv: list[str]) -> tuple[str, dict, list[str]]:
    tracer = spans.Tracer()
    tracer.invocation = 0
    absent = tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--format", "json"]) == 0
    finally:
        tracer.uninstall()
    return out.getvalue(), spans.layer_stats(tracer.spans, 1), absent


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_wrappers_cover_workload_and_keep_golden_bytes(workload, default_inputs):
    report, layers, absent = _traced_call(default_inputs[workload])
    assert absent == []
    missing = [n for n in run.REQUIRED_LAYERS[workload] if n not in layers]
    assert missing == []
    golden = (BENCH / "golden" / f"{workload}.json").read_text(encoding="utf-8")
    assert worker.matches_golden(report, golden)
    modules = {name.split(".")[0] for name in layers}
    if workload == "d2i_text":
        assert not modules & {"smiles", "fingerprints", "frechet"}
    if workload == "i2d_drug":
        assert "frechet" not in modules
    if workload == "i2d_small_embed":
        assert {"frechet.read_vector_rows", "frechet.frechet_distance"} <= set(layers)


def test_uninstall_restores_every_reference():
    from evalkit import harness, smiles, textmetrics

    before = (cli.main, harness.parse_smiles, smiles.parse_smiles,
              textmetrics.CorpusPair.__dict__["from_strings"])
    tracer = spans.Tracer()
    tracer.install()
    assert harness.parse_smiles is not before[1]
    assert smiles.parse_smiles.__wrapped__ is before[2]
    tracer.uninstall()
    after = (cli.main, harness.parse_smiles, smiles.parse_smiles,
             textmetrics.CorpusPair.__dict__["from_strings"])
    assert after == before


def test_layer_stats_self_time_and_busy():
    # outer [0, 10] holds child [1, 4] and a recursive same-name [5, 7]
    recorded = [
        ("a", 0.0, 10.0, -1, 0, True, False, "x"),
        ("b", 1.0, 4.0, 0, 0, True, True, "y "),
        ("a", 5.0, 7.0, 0, 0, False, False, "x"),
    ]
    stats = spans.layer_stats(recorded, invocations=1)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["busy"] == 10.0  # the inner call is not counted twice
    assert stats["a"]["self"] == (10.0 - 3.0 - 2.0) + 2.0
    assert stats["a"]["distinct_ratio"] == 0.5
    assert stats["b"]["fail_ratio"] == 1.0


def test_check_report_rejects_bad_output():
    good = json.dumps({"scores": {"bleu": 0.5, "fcd": None}, "rows": 3})
    assert worker.check_report(good, 3, ["fcd"]) is None
    assert worker.check_report(good, 4, ["fcd"]) is not None
    assert worker.check_report(good.replace("0.5", "NaN"), 3, ["fcd"]) is not None
    assert worker.check_report(good, 3, []) is not None
    assert worker.check_report("not json", 3, []) is not None


def test_golden_tolerance_covers_fcd_only():
    golden = json.dumps({"scores": {"fcd": 100.0, "bleu": 0.5}})
    assert worker.matches_golden(json.dumps({"scores": {"fcd": 100.0 + 1e-8, "bleu": 0.5}}), golden)
    assert not worker.matches_golden(json.dumps({"scores": {"fcd": 100.1, "bleu": 0.5}}), golden)
    assert not worker.matches_golden(json.dumps({"scores": {"fcd": 100.0, "bleu": 0.51}}), golden)


def test_every_listed_metric_is_computed():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in config["per_layer"]]
    extra = {"cli.main.trace_overhead_ratio": 1.0,
             "textmetrics.meteor.pair_p50_us": 1.0, "textmetrics.meteor.pair_p99_ms": 1.0}
    values = run.layer_metrics(names, {}, extra)
    assert set(values) == set(names)
    assert {m["name"] for m in config["end_to_end"]} == {"setup_s", "rows_per_s", "peak_rss_mb"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "i2d_drug",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_run_takes_every_setup_sample_between_invocations():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "i2d_small_embed", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert f"median of {run.SETUP_SAMPLES} fresh interpreters" in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0
