"""Evaluation harness tests: loading, scoring, rendering."""

import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import evalkit
from evalkit import cli, fingerprints, harness, smiles
from evalkit.errors import (
    DuplicateId,
    EmbeddingRowMismatch,
    EmptySet,
    InputError,
    SchemaMismatch,
    TaskMismatch,
)
from evalkit.harness import (
    D2I_COLUMNS,
    I2D_COLUMNS,
    D2IReport,
    I2DReport,
    PredictionFile,
    PredictionRow,
    Task,
    eval_d2i,
    eval_i2d,
    load_predictions,
    render_report,
    report_from_json,
)
from evalkit.fingerprints import (
    key_fingerprint,
    morgan_fingerprint,
    path_fingerprint,
    tanimoto,
)
from evalkit.smiles import parse_smiles
from evalkit.textmetrics import (
    CorpusPair,
    TokenMode,
    bleu,
    meteor,
    rouge_l,
    rouge_n,
)


@pytest.fixture
def i2d_preds(fixtures_dir):
    return load_predictions(fixtures_dir / "predictions_i2d_small.jsonl",
                            Task.INDICATION_TO_DRUG)


@pytest.fixture
def d2i_preds(fixtures_dir):
    return load_predictions(fixtures_dir / "predictions_d2i_small.jsonl",
                            Task.DRUG_TO_INDICATION)


def _i2d_file(tmp_path, pairs):
    path = tmp_path / "p.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"r{i}", "reference": r, "hypothesis": h}) + "\n"
        for i, (r, h) in enumerate(pairs)))
    return load_predictions(path, Task.INDICATION_TO_DRUG)


@pytest.fixture
def parsed(monkeypatch):
    """Every string handed to the SMILES parser during the test, in order."""
    calls = []
    real = smiles.parse_smiles

    def recording(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(smiles, "parse_smiles", recording)
    # harness must parse only through validate; record a direct import too
    monkeypatch.setattr(harness, "parse_smiles", recording, raising=False)
    return calls


class TestLoadPredictions:
    def test_reads_rows_in_order(self, i2d_preds):
        assert len(i2d_preds) == 5
        assert [r.id for r in i2d_preds.rows] == ["m1", "m2", "m3", "m4", "m5"]
        assert i2d_preds.task is Task.INDICATION_TO_DRUG

    def test_empty_hypothesis_is_legal(self, d2i_preds):
        assert d2i_preds.rows[3].hypothesis == ""

    def test_missing_key_raises_with_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "reference": "x"}\n')
        with pytest.raises(SchemaMismatch) as info:
            load_predictions(path, Task.DRUG_TO_INDICATION)
        assert "line 1" in str(info.value)

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(SchemaMismatch):
            load_predictions(path, Task.DRUG_TO_INDICATION)

    def test_duplicate_id_raises(self, tmp_path):
        path = tmp_path / "p.jsonl"
        row = '{"id": "a", "reference": "x", "hypothesis": "y"}\n'
        path.write_text(row + row)
        with pytest.raises(DuplicateId):
            load_predictions(path, Task.DRUG_TO_INDICATION)

    def test_empty_reference_raises(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "reference": " ", "hypothesis": "y"}\n')
        with pytest.raises(InputError):
            load_predictions(path, Task.DRUG_TO_INDICATION)

    @pytest.mark.parametrize("line", [
        '5',
        '["a", "x", "y"]',
        '{"id": "a", "reference": "x", "hypothesis": null}',
        '{"id": "a", "reference": 3, "hypothesis": "y"}',
        '{"id": null, "reference": "x", "hypothesis": "y"}',
    ])
    def test_non_object_or_non_string_line_raises_with_line(self, tmp_path, line):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "reference": "x", "hypothesis": "y"}\n'
                        + line + "\n")
        with pytest.raises(SchemaMismatch, match="line 2"):
            load_predictions(path, Task.DRUG_TO_INDICATION)

    def test_numeric_id_becomes_string(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": 7, "reference": "x", "hypothesis": "y"}\n')
        assert load_predictions(path, Task.DRUG_TO_INDICATION).rows[0].id == "7"

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("\n")
        with pytest.raises(EmptySet):
            load_predictions(path, Task.DRUG_TO_INDICATION)


class TestEvalI2d:
    def test_hand_countable_scores(self, i2d_preds):
        report = eval_i2d(i2d_preds)
        assert report.exact == 0.4          # m1, m2 of 5
        assert report.validity == 0.8       # m4's hypothesis cannot parse
        assert report.skipped_invalid == 1
        # edit distances 0, 0, 1, 4, 1
        assert report.levenshtein == pytest.approx(1.2, abs=1e-12)
        assert report.rows == 5
        assert report.fcd is None
        assert report.text2mol is None

    def test_fingerprint_means_compose_from_module_calls(self, i2d_preds):
        report = eval_i2d(i2d_preds)
        parseable = [("CCO", "CCO"), ("c1ccccc1", "c1ccccc1"),
                     ("CC(=O)O", "CC(=O)N"), ("CCN", "CC")]
        expected = {"maccs": 0.0, "rdk": 0.0, "morgan": 0.0}
        for ref_text, hyp_text in parseable:
            ref, hyp = parse_smiles(ref_text), parse_smiles(hyp_text)
            expected["maccs"] += tanimoto(key_fingerprint(ref),
                                          key_fingerprint(hyp))
            expected["rdk"] += tanimoto(path_fingerprint(ref),
                                        path_fingerprint(hyp))
            expected["morgan"] += tanimoto(morgan_fingerprint(ref),
                                           morgan_fingerprint(hyp))
        assert report.maccs_fts == pytest.approx(expected["maccs"] / 4, abs=1e-12)
        assert report.rdk_fts == pytest.approx(expected["rdk"] / 4, abs=1e-12)
        assert report.morgan_fts == pytest.approx(expected["morgan"] / 4, abs=1e-12)

    def test_text_scores_compose_from_module_calls(self, i2d_preds):
        report = eval_i2d(i2d_preds)
        refs = [r.reference for r in i2d_preds.rows]
        hyps = [r.hypothesis for r in i2d_preds.rows]
        corpus = CorpusPair.from_strings(refs, hyps, TokenMode.CHAR)
        assert report.bleu == pytest.approx(bleu(corpus, max_n=4), abs=1e-15)

    def test_identity_subset_scores_one(self, fixtures_dir, tmp_path):
        path = tmp_path / "identity.jsonl"
        rows = [{"id": f"x{i}", "reference": s, "hypothesis": s}
                for i, s in enumerate(["CCO", "c1ccccc1", "CC(=O)O"])]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = eval_i2d(load_predictions(path, Task.INDICATION_TO_DRUG))
        assert report.exact == 1.0
        assert report.levenshtein == 0.0
        assert report.validity == 1.0
        assert report.maccs_fts == 1.0
        assert report.rdk_fts == 1.0
        assert report.morgan_fts == 1.0
        assert report.skipped_invalid == 0

    def test_all_unparseable_leaves_fts_absent(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rows = [{"id": "a", "reference": "C1CC", "hypothesis": "C(("},
                {"id": "b", "reference": "xx", "hypothesis": "yy"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = eval_i2d(load_predictions(path, Task.INDICATION_TO_DRUG))
        assert report.maccs_fts is None
        assert report.rdk_fts is None
        assert report.morgan_fts is None
        assert report.skipped_invalid == 2
        assert report.validity == 0.0

    def test_strict_validity_flag(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rows = [{"id": "a", "reference": "CC", "hypothesis": "CC(C)(C)(C)C"}]
        path.write_text(json.dumps(rows[0]) + "\n")
        preds = load_predictions(path, Task.INDICATION_TO_DRUG)
        assert eval_i2d(preds).validity == 1.0
        strict = eval_i2d(preds, strict_validity=True)
        assert strict.validity == 0.0
        assert strict.metadata["validity_mode"] == "strict"
        # the hypothesis still parses, so fingerprints are computed
        assert strict.skipped_invalid == 0
        lenient = eval_i2d(preds)
        for attr in ("maccs_fts", "rdk_fts", "morgan_fts"):
            assert getattr(strict, attr) is not None
            assert getattr(strict, attr) == getattr(lenient, attr)

    def test_each_distinct_stripped_string_parsed_once(self, fixtures_dir,
                                                       parsed):
        preds = load_predictions(
            fixtures_dir / "predictions_i2d_repeated.jsonl",
            Task.INDICATION_TO_DRUG)
        eval_i2d(preds)
        # every reference in this file has a row whose hypothesis parses,
        # so every non-empty string is graded exactly once
        distinct = {text.strip() for row in preds.rows
                    for text in (row.reference, row.hypothesis)} - {""}
        assert sorted(parsed) == sorted(distinct)

    def test_invalid_hypothesis_never_grades_its_reference(self, tmp_path,
                                                           parsed):
        preds = _i2d_file(tmp_path, [("CCN", "C1CC("), ("CCS", ""),
                                     ("CCO", "CCO")])
        report = eval_i2d(preds)
        assert parsed == ["C1CC(", "CCO"]
        assert report.skipped_invalid == 2

    def test_padded_and_bare_strings_share_one_record(self, tmp_path, parsed):
        preds = _i2d_file(tmp_path, [("CCO", " CCO "), (" CCO ", "CCO")])
        report = eval_i2d(preds)
        assert parsed == ["CCO"]
        assert report.validity == 1.0
        assert report.skipped_invalid == 0
        assert (report.maccs_fts, report.rdk_fts, report.morgan_fts) == (
            1.0, 1.0, 1.0)

    def test_fcd_requires_both_files(self, i2d_preds, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n1 2\n3 4\n")
        with pytest.raises(InputError):
            eval_i2d(i2d_preds, embeddings_ref=path)
        with pytest.raises(InputError):
            eval_i2d(i2d_preds, embeddings_hyp=path)

    def test_fcd_identity_from_same_file(self, i2d_preds, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n1 2\n3 4\n0 1\n")
        report = eval_i2d(i2d_preds, embeddings_ref=path, embeddings_hyp=path)
        assert report.fcd is not None
        assert report.fcd <= 1e-8

    def test_text2mol_row_count_must_match(self, i2d_preds, fixtures_dir):
        with pytest.raises(EmbeddingRowMismatch):
            eval_i2d(i2d_preds,
                     text2mol_embeddings=fixtures_dir / "text2mol_small.txt")

    def test_text2mol_mean_with_zero_vector(self, fixtures_dir, tmp_path):
        # cosines on the fixture: 1, 0 (orthogonal), -1, 0 (zero vector)
        path = tmp_path / "p.jsonl"
        rows = [{"id": f"t{i}", "reference": "C", "hypothesis": "C"}
                for i in range(4)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = eval_i2d(load_predictions(path, Task.INDICATION_TO_DRUG),
                          text2mol_embeddings=fixtures_dir / "text2mol_small.txt")
        assert report.text2mol == 0.0

    def test_bad_embedding_file_fails_before_fingerprints(self, i2d_preds,
                                                          tmp_path, monkeypatch):
        bad = tmp_path / "e.txt"
        bad.write_text("no header\n")

        def unexpected(*args):
            raise AssertionError("fingerprint computed before the embedding read")

        monkeypatch.setattr(fingerprints, "path_fingerprint", unexpected)
        with pytest.raises(InputError):
            eval_i2d(i2d_preds, embeddings_ref=bad, embeddings_hyp=bad)
        with pytest.raises(InputError):
            eval_i2d(i2d_preds, text2mol_embeddings=bad)

    def test_task_mismatch(self, d2i_preds):
        with pytest.raises(TaskMismatch):
            eval_i2d(d2i_preds)

    def test_metadata_records_defaults(self, i2d_preds):
        metadata = eval_i2d(i2d_preds).metadata
        assert metadata["bleu_max_n"] == 4
        assert metadata["morgan_radius"] == 2
        assert metadata["fingerprint_width"] == 2048
        assert metadata["max_path_bonds"] == 7
        assert metadata["keyset"] == "default-40"
        assert metadata["validity_mode"] == "lenient"
        assert metadata["fcd"] == "not computed"
        assert metadata["zero_zero_tanimoto_pairs"] == {
            "maccs": 0, "rdk": 0, "morgan": 0}


# Runs evalkit.cli.main on argv, prints its stdout, and writes the number
# of processes it forked to stderr.
FORK_COUNTING_CLI = """
import os, sys
forks = []
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
from evalkit import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(str(len(forks)))
sys.exit(code)
"""

SRC = Path(evalkit.__file__).resolve().parents[1]
HAS_HELPER = hasattr(os, "fork") and harness._cpu_count() >= 2
needs_helper = pytest.mark.skipif(
    not HAS_HELPER, reason="the fingerprint helper needs fork and two CPUs")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process forked during the test, in order."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _chain_pairs(count):
    """Rows whose plan is count chains, plan[k] being k + 1 carbons long."""
    return [("C" * (2 * i + 2), "C" * (2 * i + 1)) for i in range(count // 2)]


class TestFingerprintHelper:
    """eval_i2d fingerprints on two CPUs with one forked helper that works
    from the back of the plan; the reports and errors are those of one CPU."""

    ARGVS = {
        "small": ["predictions_i2d_small.jsonl"],
        "small_strict": ["predictions_i2d_small.jsonl", "--strict-validity"],
        "small_keyset": ["predictions_i2d_small.jsonl", "--keyset",
                         "keyset_small.tsv"],
        "repeated": ["predictions_i2d_repeated.jsonl"],
        "repeated_strict": ["predictions_i2d_repeated.jsonl",
                            "--strict-validity"],
        "repeated_keyset": ["predictions_i2d_repeated.jsonl", "--keyset",
                            "keyset_small.tsv"],
    }

    @pytest.mark.parametrize("name", sorted(ARGVS))
    def test_one_cpu_and_two_give_the_same_bytes(self, name, fixtures_dir,
                                                 forks):
        fixture, *flags = self.ARGVS[name]
        flags = [str(fixtures_dir / f) if f.endswith(".tsv") else f
                 for f in flags]
        argv = ["eval-i2d", str(fixtures_dir / fixture), *flags,
                "--format", "json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        cpu = min(os.sched_getaffinity(0))
        pinned = subprocess.run(
            [sys.executable, "-c", FORK_COUNTING_CLI, *argv], env=env,
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert pinned.returncode == 0, pinned.stderr
        assert pinned.stderr == "0"  # no helper on one CPU
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert len(forks) == HAS_HELPER
        assert out.getvalue() == pinned.stdout
        golden = fixtures_dir / "golden" / f"i2d_{name}.json"
        if golden.exists():
            assert out.getvalue() == golden.read_text(encoding="utf-8")
        _no_child_left()

    # fault -> what the injected fingerprint does at the chosen molecule,
    # given whether it runs in the helper
    @staticmethod
    def _kill_helper(in_helper, k):
        if in_helper:
            os.kill(os.getpid(), signal.SIGKILL)

    @staticmethod
    def _raise_in_helper(in_helper, k):
        if in_helper:
            raise RuntimeError(f"helper fault at {k}")

    @staticmethod
    def _raise_everywhere(in_helper, k):
        raise RuntimeError(f"no fingerprint for molecule {k}")

    @staticmethod
    def _interrupt_everywhere(in_helper, k):
        raise KeyboardInterrupt

    FAULTS = {
        "helper_killed": _kill_helper,
        "helper_raises": _raise_in_helper,
        "main_raises": _raise_everywhere,
        "main_interrupted": _interrupt_everywhere,
    }

    def _run(self, preds, one_cpu, monkeypatch, escaped):
        """eval_i2d's JSON report, or its exception's (class, message).

        A helper that came back out of eval_i2d touches ``escaped`` and
        exits, rather than run the rest of the test session."""
        caller = os.getpid()
        with monkeypatch.context() as patch:
            if one_cpu:
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            try:
                return render_report(eval_i2d(preds), "json")
            except (Exception, KeyboardInterrupt) as exc:
                return type(exc), str(exc)
            finally:
                if os.getpid() != caller:
                    escaped.touch()
                    os._exit(1)

    @needs_helper
    @pytest.mark.parametrize("at", [(0,), (1,), (4,), (7,), (2, 6)])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_faults_give_the_one_cpu_outcome(self, fault, at, tmp_path,
                                             monkeypatch, forks):
        preds = _i2d_file(tmp_path, _chain_pairs(8))
        main = os.getpid()
        real = fingerprints.path_fingerprint
        inject = self.FAULTS[fault]

        def faulty(mol, *args):
            in_helper = os.getpid() != main
            if not in_helper:
                time.sleep(0.01)  # so the helper gets well into the plan
            if len(mol.atoms) - 1 in at:
                inject(in_helper, len(mol.atoms) - 1)
            return real(mol, *args)

        monkeypatch.setattr(fingerprints, "path_fingerprint", faulty)
        escaped = tmp_path / "escaped"
        serial = self._run(preds, True, monkeypatch, escaped)
        assert forks == []
        two_cpus = self._run(preds, False, monkeypatch, escaped)
        assert len(forks) == 1
        _no_child_left()
        assert not escaped.exists()
        assert two_cpus == serial
        # A helper's fault never reaches the caller; otherwise the first
        # failing molecule in plan order is the one reported.
        if fault.startswith("helper"):
            assert isinstance(serial, str)
        elif fault == "main_raises":
            assert serial == (RuntimeError, f"no fingerprint for molecule {at[0]}")
        else:
            assert serial == (KeyboardInterrupt, "")

    @needs_helper
    def test_helper_takes_part_of_the_plan(self, tmp_path, monkeypatch, forks):
        preds = _i2d_file(tmp_path, _chain_pairs(8))
        main = os.getpid()
        real = fingerprints.morgan_fingerprint
        in_main = []

        def slow_in_main(mol, *args):
            if os.getpid() == main:
                in_main.append(len(mol.atoms))
                time.sleep(0.02)
            return real(mol, *args)

        monkeypatch.setattr(fingerprints, "morgan_fingerprint", slow_in_main)
        report = eval_i2d(preds)
        _no_child_left()
        assert len(forks) == 1
        assert in_main[0] == 1  # the main process starts at plan[0]
        assert in_main == sorted(in_main) and len(in_main) < 8
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert render_report(eval_i2d(preds), "json") == render_report(
            report, "json")

    def test_one_molecule_forks_no_helper(self, tmp_path, forks):
        eval_i2d(_i2d_file(tmp_path, [("CCO", "CCO"), ("CCO", "CC(")]))
        assert forks == []


class TestEvalD2i:
    def test_scores_compose_from_module_calls(self, d2i_preds):
        report = eval_d2i(d2i_preds)
        refs = [r.reference for r in d2i_preds.rows]
        hyps = [r.hypothesis for r in d2i_preds.rows]
        corpus = CorpusPair.from_strings(refs, hyps, TokenMode.WORD)
        assert report.bleu2 == pytest.approx(bleu(corpus, max_n=2), abs=1e-15)
        assert report.bleu4 == pytest.approx(bleu(corpus, max_n=4), abs=1e-15)
        assert report.rouge1 == pytest.approx(rouge_n(corpus, 1), abs=1e-15)
        assert report.rouge2 == pytest.approx(rouge_n(corpus, 2), abs=1e-15)
        assert report.rouge_l == pytest.approx(rouge_l(corpus), abs=1e-15)
        assert report.meteor == pytest.approx(meteor(corpus), abs=1e-15)
        assert report.rows == 4
        assert report.text2mol is None

    def test_identity_rows_score_one(self, tmp_path):
        path = tmp_path / "p.jsonl"
        text = "For treatment of mild to moderate pain"
        rows = [{"id": f"t{i}", "reference": text, "hypothesis": text}
                for i in range(3)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = eval_d2i(load_predictions(path, Task.DRUG_TO_INDICATION))
        assert report.bleu2 == 1.0
        assert report.bleu4 == 1.0
        assert report.rouge1 == 1.0
        assert report.rouge2 == 1.0
        assert report.rouge_l == 1.0

    def test_text2mol_mean(self, d2i_preds, fixtures_dir):
        report = eval_d2i(
            d2i_preds,
            text2mol_embeddings=fixtures_dir / "text2mol_small.txt")
        assert report.text2mol == 0.0

    def test_bad_embedding_file_fails_before_text_metrics(self, d2i_preds,
                                                          tmp_path, monkeypatch):
        bad = tmp_path / "e.txt"
        bad.write_text("no header\n")

        def unexpected(*args):
            raise AssertionError("n-grams counted before the embedding read")

        monkeypatch.setattr(harness, "ngram_overlaps", unexpected)
        with pytest.raises(InputError):
            eval_d2i(d2i_preds, text2mol_embeddings=bad)

    def test_task_mismatch(self, i2d_preds):
        with pytest.raises(TaskMismatch):
            eval_d2i(i2d_preds)


class TestRendering:
    def test_table_headers_match_paper_columns(self, d2i_preds, i2d_preds):
        d2i_table = render_report(eval_d2i(d2i_preds), "table")
        assert d2i_table.splitlines()[0].split() == [
            "BLEU-2", "BLEU-4", "ROUGE-1", "ROUGE-2", "ROUGE-L", "METEOR",
            "Text2Mol"]
        i2d_table = render_report(eval_i2d(i2d_preds), "table")
        assert i2d_table.splitlines()[0].split() == [
            "BLEU", "Exact", "Levenshtein", "MACCS", "RDK", "Morgan", "FCD",
            "Text2Mol", "Validity"]

    def test_table_formats_four_decimals_and_absent_cells(self, i2d_preds):
        table = render_report(eval_i2d(i2d_preds), "table")
        values = table.splitlines()[2].split()
        assert values[1] == "0.4000"        # Exact
        assert values[2] == "1.2000"        # Levenshtein
        assert values[6] == "—"             # FCD not computed
        assert values[7] == "—"             # Text2Mol not computed
        assert "skipped_invalid: 1" in table

    def test_table_metadata_footer(self, i2d_preds):
        table = render_report(eval_i2d(i2d_preds), "table")
        footers = [l for l in table.splitlines() if l.startswith("# ")]
        assert "# task: indication_to_drug" in footers
        assert any(l.startswith("# keyset_digest: ") for l in footers)

    def test_csv_two_lines_full_precision(self, i2d_preds):
        text = render_report(eval_i2d(i2d_preds), "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == "BLEU,Exact,Levenshtein,MACCS,RDK,Morgan,FCD,Text2Mol,Validity"
        cells = lines[1].split(",")
        assert cells[1] == "0.4"
        assert cells[6] == ""               # absent FCD is an empty cell
        assert float(cells[2]) == 1.2

    def test_json_round_trips_through_report_from_json(self, i2d_preds, d2i_preds):
        for report in (eval_i2d(i2d_preds), eval_d2i(d2i_preds)):
            text = render_report(report, "json")
            rebuilt = report_from_json(text)
            assert render_report(rebuilt, "json") == text
            assert render_report(rebuilt, "table") == render_report(report, "table")

    def test_json_is_byte_stable(self, i2d_preds):
        report = eval_i2d(i2d_preds)
        assert render_report(report, "json") == render_report(report, "json")
        payload = json.loads(render_report(report, "json"))
        assert payload["task"] == "indication_to_drug"
        assert payload["skipped_invalid"] == 1
        assert payload["scores"]["fcd"] is None

    def test_unknown_format_rejected(self, d2i_preds):
        with pytest.raises(InputError):
            render_report(eval_d2i(d2i_preds), "yaml")

    def test_report_from_json_rejects_garbage(self, i2d_preds):
        for text in ("not json", '{"task": "indication_to_drug"}',
                     "[]", "5", '"report"', "null"):
            with pytest.raises(SchemaMismatch):
                report_from_json(text)
        good = json.loads(render_report(eval_i2d(i2d_preds), "json"))
        damaged = [
            ("scores", []),
            ("scores", dict(good["scores"], bleu="0.5")),
            ("scores", dict(good["scores"], exact=True)),
            ("scores", dict(good["scores"], validity=[1])),
            ("scores", dict(good["scores"], bleu=float("inf"))),
            ("scores", dict(good["scores"], bleu=10 ** 400)),
            ("metadata", []),
            ("metadata", {}),
            ("rows", float("nan")),
            ("metadata", dict(good["metadata"], fcd=float("inf"))),
            ("skipped_invalid", -float("inf")),
        ]
        for key, value in damaged:
            with pytest.raises(SchemaMismatch):
                report_from_json(json.dumps(dict(good, **{key: value})))
        # A float literal too large for a double reads as infinity.
        with pytest.raises(SchemaMismatch):
            report_from_json(json.dumps(good).replace('"rows": 5', '"rows": 1e999', 1))
        assert report_from_json(json.dumps(good)) == eval_i2d(i2d_preds)

    def test_report_from_json_missing_score_raises_schema_mismatch(
            self, i2d_preds, d2i_preds):
        for report, columns in ((eval_i2d(i2d_preds), I2D_COLUMNS),
                                (eval_d2i(d2i_preds), D2I_COLUMNS)):
            for _, attr in columns:
                payload = json.loads(render_report(report, "json"))
                del payload["scores"][attr]
                with pytest.raises(SchemaMismatch, match=attr):
                    report_from_json(json.dumps(payload))

    def test_column_tables_cover_report_fields(self):
        d2i_attrs = {attr for _, attr in D2I_COLUMNS}
        assert d2i_attrs <= set(D2IReport.__dataclass_fields__)
        i2d_attrs = {attr for _, attr in I2D_COLUMNS}
        assert i2d_attrs <= set(I2DReport.__dataclass_fields__)


class TestPredictionFileConstruction:
    def test_rows_are_frozen(self):
        row = PredictionRow(id="a", reference="x", hypothesis="y")
        preds = PredictionFile(rows=(row,), task=Task.DRUG_TO_INDICATION)
        assert len(preds) == 1
        with pytest.raises(AttributeError):
            row.id = "b"
