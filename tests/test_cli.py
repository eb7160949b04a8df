"""Command-line interface tests (in-process through main(argv))."""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evalkit
from evalkit.cli import main
from evalkit.errors import EigenFailure

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(evalkit.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_reports_counts(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "ingest",
                           str(fixtures_dir / "drugbank_like.csv"),
                           "--layout", "drugbank_csv")
        assert code == 0
        assert out.strip() == "kept 8 dropped 0"

    def test_drop_messages_go_to_stderr(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "ingest",
                             str(fixtures_dir / "drugbank_dirty.csv"),
                             "--layout", "drugbank_csv")
        assert code == 0
        assert out.strip() == "kept 2 dropped 1"
        assert "line 3: empty indication" in err

    def test_out_writes_jsonl(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "converted.jsonl"
        code, _, _ = run(capsys, "ingest",
                         str(fixtures_dir / "chembl_like.tsv"),
                         "--layout", "chembl_tsv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["source"] == "chembl"

    def test_bad_layout_content_exits_one(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "ingest",
                           str(fixtures_dir / "drugbank_like.csv"),
                           "--layout", "chembl_tsv")
        assert code == 1
        assert "error:" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", str(tmp_path / "none.jsonl"),
                           "--layout", "generic_jsonl")
        assert code == 1
        assert "error:" in err

    def test_layout_choices_are_the_dataset_layouts(self, capsys):
        """The parser spells the layouts out, so that commands that read no
        dataset do not load the dataset module; it lists just its names."""
        from evalkit.cli import build_parser
        from evalkit.dataset import LAYOUTS

        for layout in LAYOUTS:
            args = build_parser().parse_args(["ingest", "x", "--layout", layout])
            assert args.layout == layout
        for other in ("parquet", "CHEMBL_TSV", ""):
            with pytest.raises(SystemExit) as info:
                main(["ingest", "x", "--layout", other])
            assert info.value.code == 2
            assert "{" + ",".join(LAYOUTS) + "}" in capsys.readouterr().err

    def test_field_over_csv_limit_exits_one(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"id,name,smiles,indication\nD1,X,{'C' * 200_000},Pain\n")
        code, _, err = run(capsys, "ingest", str(path), "--layout", "drugbank_csv")
        assert code == 1
        assert err.startswith(f"error: {path} line 2: field larger than field limit")


class TestStats:
    def test_table_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "stats",
                           str(fixtures_dir / "pairs_small.jsonl"))
        assert code == 0
        assert out.splitlines()[0].startswith("pairs")
        assert "smiles length max" in out

    def test_json_output_keeps_exact_averages(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "stats",
                           str(fixtures_dir / "pairs_small.jsonl"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pair_count"] == 5
        assert isinstance(payload["smiles_avg"], float)


class TestSplit:
    def test_split_writes_both_sides(self, capsys, fixtures_dir, tmp_path):
        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        code, out, _ = run(capsys, "split",
                           str(fixtures_dir / "pairs_small.jsonl"),
                           "--fraction", "0.2", "--seed", "7",
                           "--out-train", str(train),
                           "--out-test", str(test))
        assert code == 0
        assert out.strip() == "train 4 test 1"
        assert len(train.read_text().splitlines()) == 4
        assert len(test.read_text().splitlines()) == 1

    def test_split_is_seed_stable(self, capsys, fixtures_dir, tmp_path):
        outputs = []
        for attempt in ("a", "b"):
            train = tmp_path / f"train_{attempt}.jsonl"
            test = tmp_path / f"test_{attempt}.jsonl"
            run(capsys, "split", str(fixtures_dir / "pairs_small.jsonl"),
                "--seed", "3", "--out-train", str(train),
                "--out-test", str(test))
            outputs.append(test.read_text())
        assert outputs[0] == outputs[1]

    def test_degenerate_split_exits_one(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(capsys, "split",
                           str(fixtures_dir / "pairs_small.jsonl"),
                           "--fraction", "0.01",
                           "--out-train", str(tmp_path / "a"),
                           "--out-test", str(tmp_path / "b"))
        assert code == 1
        assert "error:" in err


class TestTokenizeValidate:
    def test_tokenize_prints_tokens(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("CCl\n[NH4+]\n")
        code, out, _ = run(capsys, "tokenize", str(path))
        assert code == 0
        assert out.splitlines() == ["C Cl", "[NH4+]"]

    def test_tokenize_bad_input_exits_one(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("C&C\n")
        code, _, err = run(capsys, "tokenize", str(path))
        assert code == 1
        assert "error:" in err

    def test_validate_lines_and_summary(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("CCO\nC1CC\nc1ccccc1\nC(\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "OK"
        assert lines[1].startswith("FAIL")
        assert lines[2] == "OK"
        assert lines[3].startswith("FAIL")
        assert lines[4] == "validity 0.5000 (2/4)"

    def test_validate_strict_flag(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("CC(C)(C)(C)C\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert out.splitlines()[0] == "OK"
        code, out, _ = run(capsys, "validate", str(path), "--strict-validity")
        assert out.splitlines()[0].startswith("FAIL")

    def test_validate_empty_input_exits_one(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1

    # U+2028 is not a line break in a file; str.splitlines() once made two
    # lines of this one.
    @pytest.mark.parametrize("command,expected", [
        ("validate", ["FAIL unexpected character '\\u2028' (at offset 2)",
                      "validity 0.0000 (0/1)"]),
        ("tokenize", None),
        ("fingerprint", None),
    ])
    def test_line_holding_line_separator_is_one_line(self, capsys, tmp_path,
                                                     command, expected):
        path = tmp_path / "in.txt"
        path.write_bytes("CC\u2028CC\n".encode("utf-8"))
        code, out, err = run(capsys, command, str(path))
        if expected is None:
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0
            assert out.splitlines() == expected


class TestFingerprint:
    def test_hex_line_per_molecule(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("CCO\nCCN\n")
        code, out, _ = run(capsys, "fingerprint", str(path),
                           "--scheme", "morgan", "--bits", "64")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(len(l) == 16 for l in lines)
        assert lines[0] != lines[1]

    def test_keys_scheme_with_custom_keyset(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "in.txt"
        path.write_text("c1ccccc1\n")
        code, out, _ = run(capsys, "fingerprint", str(path),
                           "--scheme", "keys",
                           "--keyset", str(fixtures_dir / "keyset_small.tsv"))
        assert code == 0
        assert len(out.strip()) == 2   # ceil(5/4) hex digits

    @pytest.mark.parametrize("scheme", ["morgan", "path"])
    def test_keyset_is_read_only_for_the_keys_scheme(self, capsys, tmp_path,
                                                     fixtures_dir, scheme):
        argv = ("fingerprint", str(fixtures_dir / "valid_smiles.txt"),
                "--scheme", scheme)
        without = run(capsys, *argv)
        assert without[0] == 0
        assert run(capsys, *argv, "--keyset", str(tmp_path / "missing.tsv")) == without

    def test_unparseable_line_exits_one_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("CCO\nC1CC\n")
        code, _, err = run(capsys, "fingerprint", str(path))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("body", ["CC\n\nXX\n", "CC\r\n \r\nXX\r\n", "CC\r\rXX"],
                             ids=["lf", "crlf", "cr"])
    def test_line_number_counts_blank_lines(self, capsys, tmp_path, body):
        path = tmp_path / "in.txt"
        path.write_bytes(body.encode("utf-8"))
        code, out, err = run(capsys, "fingerprint", str(path))
        assert code == 1
        assert len(out.splitlines()) == 1
        assert err.startswith("error: input line 3: ")

    # Lines are read one at a time, so the lines before a bad byte are
    # fingerprinted before it is found.
    def test_bad_byte_stops_after_the_lines_before_it(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"CC\n\xff\n")
        code, out, err = run(capsys, "fingerprint", str(path))
        assert code == 1
        assert len(out.splitlines()) == 1
        assert err == (f"error: {path}: not UTF-8 text ('utf-8' codec can't decode "
                       f"byte 0xff in position 3: invalid start byte)\n")

    @pytest.mark.parametrize("scheme,flag,value,message", [
        ("morgan", "--bits", "3", "fingerprint width must be a power of two >= 4, got 3"),
        ("path", "--bits", "3", "fingerprint width must be a power of two >= 4, got 3"),
        ("morgan", "--radius", "-1", "radius must be non-negative"),
        ("path", "--max-path", "0", "max_path_bonds must be at least 1"),
        ("morgan", "--bits", "131072",
         "fingerprint width must be at most 65536, got 131072"),
        ("path", "--bits", "131072",
         "fingerprint width must be at most 65536, got 131072"),
        ("morgan", "--radius", "33", "radius must be at most 32, got 33"),
    ], ids=["morgan-bits", "path-bits", "radius", "max-path", "morgan-bits-max",
            "path-bits-max", "radius-max"])
    def test_bad_option_exits_one_on_empty_input(self, capsys, tmp_path,
                                                 scheme, flag, value, message):
        # The exit code must not depend on whether the input holds a line.
        path = tmp_path / "in.txt"
        path.write_text("")
        code, out, err = run(capsys, "fingerprint", str(path),
                             "--scheme", scheme, flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("scheme,flag,value", [
        ("morgan", "--max-path", "0"), ("path", "--radius", "-1"),
        ("keys", "--bits", "3"), ("keys", "--radius", "-1"),
    ])
    def test_option_of_another_scheme_is_not_checked(self, capsys, tmp_path,
                                                     scheme, flag, value):
        path = tmp_path / "in.txt"
        path.write_text("CCO\n")
        code, out, _ = run(capsys, "fingerprint", str(path),
                           "--scheme", scheme, flag, value)
        assert code == 0
        assert len(out.splitlines()) == 1


class TestFcd:
    def test_same_file_prints_near_zero(self, capsys, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n1 2\n3 4\n5 6\n")
        code, out, _ = run(capsys, "fcd",
                           "--embeddings-ref", str(path),
                           "--embeddings-hyp", str(path))
        assert code == 0
        assert float(out.strip()) <= 1e-8

    def test_numeric_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "e.txt"
        path.write_text("D=1\n1\n2\n")

        def explode(a, b):
            raise EigenFailure("eigendecomposition failed: synthetic")

        monkeypatch.setattr("evalkit.cli.fcd_from_files", explode)
        code, _, err = run(capsys, "fcd",
                           "--embeddings-ref", str(path),
                           "--embeddings-hyp", str(path))
        assert code == 2
        assert "error:" in err

    def test_out_of_memory_exits_one(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "e.txt"
        path.write_text("D=1\n1\n2\n")

        def explode(a, b):
            raise MemoryError

        monkeypatch.setattr("evalkit.cli.fcd_from_files", explode)
        code, out, err = run(capsys, "fcd",
                             "--embeddings-ref", str(path),
                             "--embeddings-hyp", str(path))
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_out_of_memory_under_a_cap_exits_one(self, tmp_path):
        # Two rows of 20,000 values: the D x D covariance alone is 2.98 GiB,
        # past the child's 1.5 GiB address-space limit.
        import resource

        path = tmp_path / "e.txt"
        row = " ".join(["1"] * 20_000)
        path.write_text(f"D=20000\n{row}\n{row}\n")
        cap = 3 << 29
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "evalkit.cli", "fcd",
             "--embeddings-ref", str(path), "--embeddings-hyp", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in done.stderr

    def test_dimension_mismatch_exits_one(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("D=2\n1 2\n3 4\n")
        b.write_text("D=3\n1 2 3\n4 5 6\n")
        code, _, _ = run(capsys, "fcd", "--embeddings-ref", str(a),
                         "--embeddings-hyp", str(b))
        assert code == 1

    def test_u2028_inside_a_reference_line_exits_one(self, capsys, tmp_path):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        ref.write_text("D=2\n1 2\u20283 4\n5 6\n7 8\n", encoding="utf-8")
        hyp.write_text("D=2\n1 2\n3 4\n", encoding="utf-8")
        code, out, err = run(capsys, "fcd", "--embeddings-ref", str(ref),
                             "--embeddings-hyp", str(hyp))
        assert (code, out) == (1, "")
        assert f"{ref} line 2: expected 2 values, got 4" in err


class TestEvalCommands:
    def test_eval_i2d_table(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval-i2d",
                           str(fixtures_dir / "predictions_i2d_small.jsonl"))
        assert code == 0
        assert out.splitlines()[0].split()[0] == "BLEU"
        assert "skipped_invalid: 1" in out

    def test_eval_i2d_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval-i2d",
                           str(fixtures_dir / "predictions_i2d_small.jsonl"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["scores"]["exact"] == 0.4

    def test_eval_i2d_embedding_flags_must_pair(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n1 2\n3 4\n")
        code, _, err = run(capsys, "eval-i2d",
                           str(fixtures_dir / "predictions_i2d_small.jsonl"),
                           "--embeddings-ref", str(path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("hypothesis", ["CCO", "C1"], ids=["parses", "unparseable"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--bits", "3", "fingerprint width must be a power of two >= 4, got 3"),
        ("--radius", "-1", "radius must be non-negative"),
        ("--max-path", "0", "max_path_bonds must be at least 1"),
        ("--bits", "131072", "fingerprint width must be at most 65536, got 131072"),
        ("--radius", "33", "radius must be at most 32, got 33"),
        ("--bleu-max-n", "0", "max_n must be at least 1"),
        ("--bleu-max-n", "33", "max_n must be at most 32, got 33"),
    ], ids=["bits", "radius", "max-path", "bits-max", "radius-max", "bleu-max-n",
            "bleu-max-n-max"])
    def test_eval_i2d_bad_fingerprint_option_exits_one(self, capsys, tmp_path,
                                                       flag, value, message,
                                                       hypothesis):
        # The exit code must not depend on whether any hypothesis parses.
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps(
            {"id": "a", "reference": "CCO", "hypothesis": hypothesis}) + "\n")
        code, out, err = run(capsys, "eval-i2d", str(preds), flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_eval_i2d_bad_bleu_order_beats_a_bad_embedding_file(self, capsys,
                                                                 fixtures_dir,
                                                                 tmp_path):
        bad = tmp_path / "e.txt"
        bad.write_text("no header\n")
        code, out, err = run(capsys, "eval-i2d",
                             str(fixtures_dir / "predictions_i2d_small.jsonl"),
                             "--text2mol-embeddings", str(bad), "--bleu-max-n", "0")
        assert (code, out) == (1, "")
        assert err == "error: max_n must be at least 1\n"

    @pytest.mark.parametrize("argv,message", [
        (("{missing}", "--bits", "3"),
         "fingerprint width must be a power of two >= 4, got 3"),
        (("{preds}", "--keyset", "{missing}", "--radius", "99"),
         "radius must be at most 32, got 99"),
        (("{missing}", "--bleu-max-n", "0"), "max_n must be at least 1"),
        (("{missing}", "--embeddings-ref", "{preds}"),
         "FCD needs both reference and hypothesis embedding files"),
    ], ids=["bits", "radius-keyset", "bleu-max-n", "lone-embeddings-ref"])
    def test_eval_i2d_checks_options_before_reading_files(self, capsys, tmp_path,
                                                          fixtures_dir, argv,
                                                          message):
        paths = {"missing": tmp_path / "missing",
                 "preds": fixtures_dir / "predictions_i2d_small.jsonl"}
        code, out, err = run(capsys, "eval-i2d",
                             *(arg.format(**paths) for arg in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_eval_d2i_csv(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval-d2i",
                           str(fixtures_dir / "predictions_d2i_small.jsonl"),
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("BLEU-2,BLEU-4,ROUGE-1")
        assert len(lines) == 2

    def test_render_round_trip(self, capsys, fixtures_dir, tmp_path):
        code, json_out, _ = run(
            capsys, "eval-i2d",
            str(fixtures_dir / "predictions_i2d_small.jsonl"),
            "--format", "json")
        report_path = tmp_path / "report.json"
        report_path.write_text(json_out)

        code, table_out, _ = run(capsys, "render", str(report_path),
                                 "--format", "table")
        assert code == 0
        code, direct_table, _ = run(
            capsys, "eval-i2d",
            str(fixtures_dir / "predictions_i2d_small.jsonl"))
        assert table_out == direct_table

    def test_render_rejects_non_report(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, err = run(capsys, "render", str(path))
        assert code == 1
        assert "error:" in err


class TestHostileFiles:
    """Malformed input files exit 1 with a message, never a traceback."""

    GOOD = b'{"id": "a", "reference": "CCO", "hypothesis": "CCO", "smiles": "CCO", "indication": "x"}\n'
    BAD_LINES = {
        "non_object": b"5\n",
        "null_text": b'{"id": "b", "reference": null, "hypothesis": null, "smiles": null, "indication": null}\n',
        "undecodable": b'{"id": "b", "reference": "C\xff", "hypothesis": "C", "smiles": "C\xff", "indication": "x"}\n',
        # Past int()'s 4,300-digit limit json.loads raises a plain ValueError.
        "long_int": b'{"id": ' + b"9" * 5000 + b', "reference": "C", "hypothesis": "C", "smiles": "C", "indication": "x"}\n',
    }

    @pytest.mark.parametrize("bad", sorted(BAD_LINES))
    @pytest.mark.parametrize("command", [
        ("eval-i2d",), ("eval-d2i",), ("ingest", "--layout", "generic_jsonl"),
    ])
    def test_bad_line_exits_one(self, capsys, tmp_path, command, bad):
        path = tmp_path / "p.jsonl"
        path.write_bytes(self.GOOD + self.BAD_LINES[bad])
        code, _, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,predictions", [
        ("eval-d2i", "predictions_d2i_small.jsonl"),
        ("eval-i2d", "predictions_i2d_small.jsonl"),
    ])
    def test_non_finite_text2mol_exits_one(self, capsys, tmp_path, fixtures_dir,
                                           command, predictions, value):
        preds = fixtures_dir / predictions
        rows = sum(1 for line in preds.read_text().splitlines() if line.strip())
        path = tmp_path / "t2m.txt"
        path.write_text(f"D=2\n{value} 0 1 0\n" + "1 0 1 0\n" * (rows - 1))
        code, out, err = run(capsys, command, str(preds),
                             "--text2mol-embeddings", str(path), "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("value", ["1e200", "1e153"])
    def test_overflowing_fcd_exits_one(self, capsys, tmp_path, value):
        # Finite values whose covariance (1e200) or Frechet product (1e153)
        # overflows once gave "nan" with exit 0, and later NumPy warnings
        # before the error line.
        path = tmp_path / "e.txt"
        path.write_text(f"D=2\n{value} 0\n0 {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fcd", "--embeddings-ref", str(path),
                                 "--embeddings-hyp", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("body", ["", "\n \n\t\n"], ids=["header-only", "blank-only"])
    @pytest.mark.parametrize("argv,message", [
        (("fcd", "--embeddings-ref", "{path}", "--embeddings-hyp", "{path}"),
         "{path}: need at least 2 embedding rows, got 0"),
        (("eval-d2i", "{fixtures}/predictions_d2i_small.jsonl",
          "--text2mol-embeddings", "{path}"),
         "{path}: 0 embedding rows for 4 predictions"),
    ], ids=["fcd", "text2mol"])
    def test_empty_embedding_body_exits_one_without_warning(
            self, capsys, tmp_path, fixtures_dir, argv, message, body):
        path = tmp_path / "e.txt"
        path.write_text("D=2\n" + body)
        names = {"path": path, "fixtures": fixtures_dir}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 1
        assert out == ""
        assert err == f"error: {message.format(**names)}\n"

    @pytest.mark.parametrize("value", ["1e200", "1e-200"])
    def test_extreme_text2mol_row_scores_finitely(self, capsys, tmp_path,
                                                   fixtures_dir, value):
        # Squares that overflow (1e200) or underflow (1e-200) once gave
        # NaN or a zero-vector 0; each pair below is parallel.
        preds = fixtures_dir / "predictions_d2i_small.jsonl"
        rows = sum(1 for line in preds.read_text().splitlines() if line.strip())
        path = tmp_path / "t2m.txt"
        path.write_text(f"D=2\n{value} 0 {value} 0\n" + "1 0 1 0\n" * (rows - 1))
        code, out, _ = run(capsys, "eval-d2i", str(preds),
                           "--text2mol-embeddings", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["scores"]["text2mol"] == pytest.approx(1.0)

    @pytest.mark.parametrize("argv", [
        ("eval-i2d", "{bad}"),
        ("eval-d2i", "{bad}"),
        ("eval-i2d", "{i2d}", "--keyset", "{bad}"),
        ("eval-i2d", "{i2d}", "--embeddings-ref", "{bad}", "--embeddings-hyp", "{bad}"),
        ("eval-d2i", "{d2i}", "--text2mol-embeddings", "{bad}"),
        ("tokenize", "{bad}"),
        ("validate", "{bad}"),
        ("fingerprint", "{bad}"),
        ("render", "{bad}"),
        ("fcd", "--embeddings-ref", "{bad}", "--embeddings-hyp", "{bad}"),
        ("ingest", "{bad}", "--layout", "generic_jsonl"),
        ("ingest", "{bad}", "--layout", "drugbank_csv"),
        ("ingest", "{bad}", "--layout", "chembl_tsv"),
    ], ids=" ".join)
    def test_undecodable_file_is_named(self, capsys, tmp_path, fixtures_dir, argv):
        bad = tmp_path / "input"
        bad.write_bytes(b"C\xff\n")
        names = {"bad": bad,
                 "i2d": fixtures_dir / "predictions_i2d_small.jsonl",
                 "d2i": fixtures_dir / "predictions_d2i_small.jsonl"}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: not UTF-8 text")

    # In UTF-8 mode, the default in a POSIX locale, sys.stdin decodes with
    # surrogateescape; PYTHONIOENCODING can make it Latin-1.  Either way
    # the stream's text would pass bytes that are not UTF-8.  The stream is
    # set up at start-up, so each case runs in a fresh interpreter.
    @pytest.mark.parametrize("setting", [
        ("PYTHONUTF8", "1"), ("PYTHONIOENCODING", "latin-1"),
    ], ids="=".join)
    def test_undecodable_stdin_exits_one(self, setting):
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        env.update([setting])
        done = subprocess.run(
            [sys.executable, "-m", "evalkit.cli", "validate"],
            input=b"C\xffC\n", env=env, capture_output=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: standard input: not UTF-8 text")

    GOLDEN_I2D = (FIXTURES / "golden" / "i2d_small.json").read_text()

    @pytest.mark.parametrize("text", [
        "[]", '{"task": "indication_to_drug", "scores": 5}',
        pytest.param(GOLDEN_I2D.replace('"rows": 5,', '"rows": NaN,', 1),
                     id="rows-nan"),
        pytest.param(GOLDEN_I2D.replace('"fcd": "not computed"', '"fcd": Infinity'),
                     id="metadata-infinity"),
    ])
    def test_render_non_report_json_exits_one(self, capsys, tmp_path, text):
        path = tmp_path / "r.json"
        path.write_text(text)
        code, out, err = run(capsys, "render", str(path), "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


# Every subcommand that reads a file, with that file as "{path}"; the
# fixture named after it seeds the mutated inputs.
FUZZED_FILES = {
    "eval-i2d": (("eval-i2d", "{path}"), "predictions_i2d_small.jsonl"),
    "eval-d2i": (("eval-d2i", "{path}"), "predictions_d2i_small.jsonl"),
    "eval-d2i text2mol": (("eval-d2i", "{fixtures}/predictions_d2i_small.jsonl",
                           "--text2mol-embeddings", "{path}"), "text2mol_small.txt"),
    "ingest generic_jsonl": (("ingest", "{path}", "--layout", "generic_jsonl"),
                             "pairs_small.jsonl"),
    "ingest drugbank_csv": (("ingest", "{path}", "--layout", "drugbank_csv"),
                            "drugbank_like.csv"),
    "ingest chembl_tsv": (("ingest", "{path}", "--layout", "chembl_tsv"),
                          "chembl_like.tsv"),
    "stats": (("stats", "{path}"), "pairs_small.jsonl"),
    "tokenize": (("tokenize", "{path}"), "smiles_grammar.txt"),
    "validate": (("validate", "{path}", "--strict-validity"), "smiles_grammar.txt"),
    "fingerprint": (("fingerprint", "{path}", "--scheme", "path"), "valid_smiles.txt"),
    "fingerprint keyset": (("fingerprint", "{fixtures}/valid_smiles.txt", "--scheme",
                            "keys", "--keyset", "{path}"), "keyset_small.tsv"),
    "fcd": (("fcd", "--embeddings-ref", "{path}", "--embeddings-hyp",
             "{fixtures}/embeddings_hyp.txt"), "embeddings_ref.txt"),
    "eval-i2d fcd": (("eval-i2d", "{fixtures}/predictions_i2d_small.jsonl",
                      "--embeddings-ref", "{path}", "--embeddings-hyp",
                      "{fixtures}/embeddings_hyp.txt"), "embeddings_ref.txt"),
    "render": (("render", "{path}"), "golden/d2i_small.json"),
}
# The embedding readers again, on two CPUs, with the file cut into pieces of
# a few bytes: a fault in any piece, the helper's included, exits cleanly.
SPLIT = {f"{name} split": FUZZED_FILES[name]
         for name in ("eval-d2i text2mol", "fcd", "eval-i2d fcd")}
FUZZED_FILES.update(SPLIT)


def _file_bytes(seed: bytes):
    """Arbitrary bytes, or the seed's first 256 with one span replaced."""
    seed = seed[:256]
    spliced = st.tuples(
        st.integers(0, len(seed)), st.integers(0, len(seed)),
        st.binary(max_size=16),
    ).map(lambda t: (seed[:min(t[:2])] + t[2] + seed[max(t[:2]):])[:256])
    return st.one_of(st.binary(max_size=256), spliced)


@pytest.mark.parametrize("name", sorted(FUZZED_FILES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_file_bytes_exit_cleanly(tmp_path, fixtures_dir, monkeypatch, name, data):
    argv, seed = FUZZED_FILES[name]
    if name in SPLIT:
        from evalkit import frechet, harness

        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        monkeypatch.setattr(frechet, "_SPLIT_PIECE_BYTES", 8)
        monkeypatch.setattr(frechet, "_SPLIT_MIN_BYTES", 0)
    content = data.draw(_file_bytes((fixtures_dir / seed).read_bytes()))
    path = tmp_path / "input"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(path=path, fixtures=fixtures_dir) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    with pytest.raises(ChildProcessError):  # no helper is left running
        os.waitpid(-1, os.WNOHANG)


# Key-set rows that once ended in a ValueError traceback (a digit int() does
# not read, a run too long for it) or loaded as keys that can never match.
# Ids may be zero-padded, and comment lines still count.
@pytest.mark.parametrize("listing", [
    "\u00b2\telement:C\n",
    "0\tcount:C:\u00b2\n",
    "0\tring-size:" + "9" * 5000 + "\n",
    "1234567890\tring\n",
    "0\tpath:C-C=O\n",
    "00\tring\n# comment\n01\telement:Xx\n",
    "0\tring\n1\tpath:c-c\n",
], ids=["superscript-id", "superscript-count", "long-ring-size", "ten-digit-id",
        "bond-in-path", "unknown-element", "aromatic-path"])
def test_bad_keyset_exits_one_naming_the_line(capsys, tmp_path, fixtures_dir, listing):
    path = tmp_path / "keys.tsv"
    path.write_text(listing, encoding="utf-8")
    code, out, err = run(capsys, "fingerprint", str(fixtures_dir / "valid_smiles.txt"),
                         "--scheme", "keys", "--keyset", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path} line {listing.count(chr(10))}: ")


@pytest.mark.parametrize("run_text", ["1" * 5000 + "C", "CH" + "9" * 5000, "C+" + "9" * 5000],
                         ids=["isotope", "hcount", "charge"])
def test_overlong_bracket_digit_run_is_an_invalid_row(capsys, tmp_path, run_text):
    hypothesis = f"[{run_text}]"
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        json.dumps({"id": "a", "reference": "CCO", "hypothesis": "CCO"}) + "\n"
        + json.dumps({"id": "b", "reference": "CCO", "hypothesis": hypothesis}) + "\n")
    code, out, err = run(capsys, "eval-i2d", str(preds), "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["scores"]["validity"] == 0.5
    assert report["skipped_invalid"] == 1

    lines = tmp_path / "lines.txt"
    lines.write_text(hypothesis + "\n")
    code, out, _ = run(capsys, "validate", str(lines))
    assert code == 0
    assert out.splitlines()[-1] == "validity 0.0000 (0/1)"


class TestArgumentErrors:
    def test_unknown_command_exits_two_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag(self, capsys, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("{}\n")
        with pytest.raises(SystemExit):
            main(["ingest", str(path)])   # --layout is required
