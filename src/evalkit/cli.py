"""Command-line interface.

Exit codes: 0 on success, 1 for input errors (bad files, bad SMILES where
parseable input is required, bad argument combinations) and for running
out of memory, 2 for internal numeric failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterator

from . import harness
from .errors import EvalkitError, InputError, NumericError, utf8_lines

# The other evalkit modules are imported by the commands that use them, so
# a process loads only what its command runs: eval-d2i never loads the
# SMILES parser, the fingerprints or NumPy.


def _read_lines(path: str | None) -> Iterator[tuple[int, str]]:
    """Each non-blank line of the file, or of standard input, stripped and
    with its line number in the file."""
    if path is None or path == "-":
        # Decode the bytes here: the text stream's decoding follows the
        # locale and may pass bytes that are not UTF-8.  A stream without
        # bytes underneath (a StringIO, say) is read as text.
        buffer = getattr(sys.stdin, "buffer", None)
        lines = (sys.stdin if buffer is None
                 else utf8_lines("standard input", stream=buffer))
    else:
        lines = utf8_lines(path)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _cmd_ingest(args: argparse.Namespace) -> int:
    from . import dataset as ds

    pairs, report = ds.ingest(args.path, args.layout)
    if args.out:
        ds.write_jsonl(pairs, args.out)
    print(f"kept {report.kept} dropped {report.dropped}")
    for message in report.messages:
        print(f"  dropped {message}", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import dataset as ds

    pairs, _ = ds.ingest(args.path, "generic_jsonl")
    result = ds.stats(pairs)
    if args.format == "json":
        import dataclasses
        import json
        print(json.dumps(dataclasses.asdict(result), indent=2))
        return 0
    from .rng import round_half_up
    rows = (
        ("pairs", result.pair_count),
        ("indication length min", result.indication_min),
        ("indication length avg", round_half_up(result.indication_avg)),
        ("indication length max", result.indication_max),
        ("smiles length min", result.smiles_min),
        ("smiles length avg", round_half_up(result.smiles_avg)),
        ("smiles length max", result.smiles_max),
    )
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    from . import dataset as ds

    pairs, _ = ds.ingest(args.path, "generic_jsonl")
    spec = ds.SplitSpec(test_fraction=args.fraction, seed=args.seed)
    train, test = ds.split(pairs, spec)
    ds.write_jsonl(train, args.out_train)
    ds.write_jsonl(test, args.out_test)
    print(f"train {len(train)} test {len(test)}")
    return 0


def _cmd_tokenize(args: argparse.Namespace) -> int:
    from .tokenizer import tokenize

    for _, line in _read_lines(args.path):
        seq = tokenize(line)
        print(" ".join(token.text for token in seq.tokens))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .smiles import validate

    lines = [line for _, line in _read_lines(args.path)]
    if not lines:
        raise InputError("no input lines to validate")
    valid = 0
    for line in lines:
        report = validate(line, strict=args.strict_validity)
        if report.verdict:
            valid += 1
            print("OK")
        else:
            print(f"FAIL {report.failure_detail}")
    print(f"validity {valid / len(lines):.4f} ({valid}/{len(lines)})")
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from . import fingerprints as fp
    from .smiles import parse_smiles

    # The scheme's options are checked, and its key set read, before any
    # line is read, so the exit code does not depend on the input.
    if args.scheme == "morgan":
        fp._require_width(args.bits)
        fp._require_radius(args.radius)
        make = functools.partial(fp.morgan_fingerprint, radius=args.radius,
                                 width=args.bits)
    elif args.scheme == "path":
        fp._require_width(args.bits)
        fp._require_max_path(args.max_path)
        make = functools.partial(fp.path_fingerprint,
                                 max_path_bonds=args.max_path, width=args.bits)
    else:
        keyset = fp.KeySet.load(args.keyset) if args.keyset else fp.DEFAULT_KEYSET
        make = functools.partial(fp.key_fingerprint, keyset=keyset)
    for lineno, line in _read_lines(args.path):
        try:
            mol = parse_smiles(line)
        except EvalkitError as exc:
            raise InputError(f"input line {lineno}: {exc}") from exc
        print(make(mol).to_hex())
    return 0


def fcd_from_files(path_a: str, path_b: str) -> float:
    """:func:`evalkit.frechet.fcd_from_files`, imported on the first call so
    that commands without FCD never load NumPy."""
    from .frechet import fcd_from_files

    return fcd_from_files(path_a, path_b)


def _cmd_fcd(args: argparse.Namespace) -> int:
    print(repr(fcd_from_files(args.embeddings_ref, args.embeddings_hyp)))
    return 0


def _cmd_eval_d2i(args: argparse.Namespace) -> int:
    preds = harness.load_predictions(args.predictions,
                                     harness.Task.DRUG_TO_INDICATION)
    report = harness.eval_d2i(preds, text2mol_embeddings=args.text2mol_embeddings)
    sys.stdout.write(harness.render_report(report, args.format))
    return 0


def _cmd_eval_i2d(args: argparse.Namespace) -> int:
    harness.check_i2d_options(args.embeddings_ref, args.embeddings_hyp,
                              args.radius, args.bits, args.max_path,
                              args.bleu_max_n)
    preds = harness.load_predictions(args.predictions,
                                     harness.Task.INDICATION_TO_DRUG)
    if args.keyset:
        from .fingerprints import KeySet
        keyset = KeySet.load(args.keyset)
    else:
        keyset = None
    report = harness.eval_i2d(
        preds,
        embeddings_ref=args.embeddings_ref,
        embeddings_hyp=args.embeddings_hyp,
        text2mol_embeddings=args.text2mol_embeddings,
        strict_validity=args.strict_validity,
        radius=args.radius,
        bits=args.bits,
        max_path_bonds=args.max_path,
        keyset=keyset,
        bleu_max_n=args.bleu_max_n,
    )
    sys.stdout.write(harness.render_report(report, args.format))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    text = "".join(utf8_lines(args.report, newline=""))
    report = harness.report_from_json(text)
    sys.stdout.write(harness.render_report(report, args.format))
    return 0


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and kept: parsing leaves
    it as it was, and rebuilding it on each in-process ``main`` call
    churns the heap."""
    from .dataset import LAYOUTS

    parser = argparse.ArgumentParser(
        prog="evalkit",
        description="Evaluate drug/indication translation predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read a dataset file, report drop counts")
    p.add_argument("path")
    p.add_argument("--layout", choices=LAYOUTS, required=True)
    p.add_argument("--out", help="write kept records as generic JSONL")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="length statistics of a JSONL pair file")
    p.add_argument("path")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("split", help="deterministic train/test split")
    p.add_argument("path")
    p.add_argument("--fraction", type=float, default=0.2,
                   help="test-side fraction (default 0.2)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("tokenize", help="print grammar tokens per input line")
    p.add_argument("path", nargs="?", help="file of SMILES lines (default stdin)")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("validate", help="grade SMILES lines")
    p.add_argument("path", nargs="?", help="file of SMILES lines (default stdin)")
    p.add_argument("--strict-validity", action="store_true",
                   help="also check valence limits")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fingerprint", help="print hex fingerprints per line")
    p.add_argument("path", nargs="?", help="file of SMILES lines (default stdin)")
    p.add_argument("--scheme", choices=("morgan", "path", "keys"),
                   default="morgan")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--bits", type=int, default=2048)
    p.add_argument("--max-path", type=int, default=7)
    p.add_argument("--keyset", help="key set file (id<TAB>descriptor lines)")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("fcd", help="Frechet distance between two embedding files")
    p.add_argument("--embeddings-ref", required=True)
    p.add_argument("--embeddings-hyp", required=True)
    p.set_defaults(func=_cmd_fcd)

    p = sub.add_parser("eval-d2i", help="score drug-to-indication predictions")
    p.add_argument("predictions", help="JSONL with id/reference/hypothesis")
    p.add_argument("--text2mol-embeddings", help="paired embedding file")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_eval_d2i)

    p = sub.add_parser("eval-i2d", help="score indication-to-drug predictions")
    p.add_argument("predictions", help="JSONL with id/reference/hypothesis")
    p.add_argument("--embeddings-ref", help="embedding file for references")
    p.add_argument("--embeddings-hyp", help="embedding file for hypotheses")
    p.add_argument("--text2mol-embeddings", help="paired embedding file")
    p.add_argument("--strict-validity", action="store_true")
    p.add_argument("--radius", type=int, default=2, help="Morgan radius")
    p.add_argument("--bits", type=int, default=2048, help="fingerprint width")
    p.add_argument("--max-path", type=int, default=7, help="path length cap")
    p.add_argument("--keyset", help="key set file (default: built-in 40 keys)")
    p.add_argument("--bleu-max-n", type=int, default=4)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_eval_i2d)

    p = sub.add_parser("render", help="re-render a JSON report")
    p.add_argument("report", help="report written by --format json")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvalkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
