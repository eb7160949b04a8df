"""Evaluation flows for both translation directions, and report rendering.

A prediction file is JSONL: one object per line with keys ``id``,
``reference``, and ``hypothesis``.  The harness turns one prediction file
into one report row whose columns mirror the paper-style results tables:

* drug→indication: BLEU-2, BLEU-4, ROUGE-1, ROUGE-2, ROUGE-L, METEOR,
  Text2Mol
* indication→drug: BLEU, Exact, Levenshtein, MACCS, RDK, Morgan, FCD,
  Text2Mol, Validity

Optional columns stay None ("not computed") unless their inputs were
supplied; in particular FCD is never silently reported as 0.  Text2Mol is a
cosine over externally produced paired embeddings (file format: ``D=<dim>``
header, then per prediction row the reference vector followed by the
hypothesis vector on one line).

Rendering is deterministic byte for byte: fixed column orders, fixed float
formatting, no timestamps.
"""

from __future__ import annotations

import enum
import json
import marshal
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .dataset import read_jsonl_objects
from .errors import (
    DuplicateId,
    EmbeddingRowMismatch,
    EmptySet,
    InputError,
    NonFiniteInput,
    SchemaMismatch,
    TaskMismatch,
)
from .textmetrics import (
    BLEU_EPSILON,
    CorpusPair,
    TokenMode,
    _mean,
    _require_bleu_order,
    bleu,
    exact_match,
    levenshtein,
    meteor,
    rouge_l,
    rouge_n,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from . import fingerprints as fp
    from .smiles import Molecule

FLOAT_FORMAT = "{:.4f}"
ABSENT_CELL = "—"


class Task(enum.Enum):
    DRUG_TO_INDICATION = "drug_to_indication"
    INDICATION_TO_DRUG = "indication_to_drug"


@dataclass(frozen=True)
class PredictionRow:
    id: str
    reference: str
    hypothesis: str


@dataclass(frozen=True)
class PredictionFile:
    rows: tuple[PredictionRow, ...]
    task: Task

    def __len__(self) -> int:
        return len(self.rows)


def load_predictions(path: str | Path, task: Task) -> PredictionFile:
    """Read a JSONL prediction file.

    Every line is a JSON object with ``id``, ``reference``, and
    ``hypothesis``, the last two strings; ids must be unique and references
    non-empty.  Hypotheses may be empty (a model can fail to produce output),
    and for the indication→drug task they may be arbitrarily malformed
    SMILES; grading that is the point.
    """
    path = Path(path)
    rows: list[PredictionRow] = []
    seen: set[str] = set()
    for lineno, payload in read_jsonl_objects(path, ("reference", "hypothesis")):
        row = PredictionRow(payload["id"], payload["reference"], payload["hypothesis"])
        if row.id in seen:
            raise DuplicateId(f"{path} line {lineno}: duplicate id {row.id!r}")
        if not row.reference.strip():
            raise InputError(f"{path} line {lineno}: empty reference")
        seen.add(row.id)
        rows.append(row)
    if not rows:
        raise EmptySet(f"{path}: no prediction rows")
    return PredictionFile(rows=tuple(rows), task=task)


def _score(header: str):
    """A score column, shown under the paper table's ``header``."""
    return field(metadata={"header": header})


# Score fields come in table order.  The fields after them are written to
# JSON as top-level keys in declaration order.
@dataclass(frozen=True)
class D2IReport:
    bleu2: float = _score("BLEU-2")
    bleu4: float = _score("BLEU-4")
    rouge1: float = _score("ROUGE-1")
    rouge2: float = _score("ROUGE-2")
    rouge_l: float = _score("ROUGE-L")
    meteor: float = _score("METEOR")
    text2mol: float | None = _score("Text2Mol")
    rows: int
    metadata: dict


@dataclass(frozen=True)
class I2DReport:
    bleu: float = _score("BLEU")
    exact: float = _score("Exact")
    levenshtein: float = _score("Levenshtein")
    maccs_fts: float | None = _score("MACCS")
    rdk_fts: float | None = _score("RDK")
    morgan_fts: float | None = _score("Morgan")
    fcd: float | None = _score("FCD")
    text2mol: float | None = _score("Text2Mol")
    validity: float = _score("Validity")
    rows: int
    skipped_invalid: int
    metadata: dict


def _require_task(preds: PredictionFile, expected: Task) -> None:
    if preds.task is not expected:
        raise TaskMismatch(
            f"prediction file loaded for {preds.task.value}, "
            f"evaluated as {expected.value}")


def _cosine(ref: list[float], hyp: list[float]) -> float:
    """Cosine of two finite vectors; 0 when either is the zero vector.

    A vector whose squares overflow or underflow is first divided by its
    largest magnitude; every other pair keeps the plain arithmetic.
    """
    # One plain loop, summed in order as every other score is: sum() of
    # floats rounds differently from Python 3.12 on.
    dot = ref_sq = hyp_sq = 0.0
    for r, h in zip(ref, hyp):
        dot += r * h
        ref_sq += r * r
        hyp_sq += h * h
    norms = math.sqrt(ref_sq) * math.sqrt(hyp_sq)
    if 0.0 < norms < math.inf:
        cosine = dot / norms
        if math.isfinite(cosine):
            return cosine
    scale_r = max(map(abs, ref))
    scale_h = max(map(abs, hyp))
    if scale_r == 0.0 or scale_h == 0.0:
        return 0.0
    # Largest entries of 1 put both norms in [1, sqrt(dim)]: one more call.
    return _cosine([x / scale_r for x in ref], [x / scale_h for x in hyp])


def _mean_paired_cosine(path: str | Path, n_rows: int) -> float:
    """Mean cosine similarity over a paired-embedding file.

    A zero vector has no direction; its pair contributes 0.  A NaN or
    infinite value raises :class:`NonFiniteInput`, as it does for FCD.
    """
    from .frechet import read_vector_rows  # loads NumPy: embedding paths only

    dim, rows = read_vector_rows(path, row_multiplier=2)
    if len(rows) != n_rows:
        raise EmbeddingRowMismatch(
            f"{path}: {len(rows)} embedding rows for {n_rows} predictions")

    def cosines():
        for number, array_row in enumerate(rows, start=1):
            # One row at a time: the matrix as Python floats is 3-4x its size.
            row = array_row.tolist()
            if not all(map(math.isfinite, row)):
                raise NonFiniteInput(
                    f"{path}: embedding row {number} holds NaN or infinite values")
            yield _cosine(row[:dim], row[dim:])

    return _mean(cosines())


def eval_d2i(preds: PredictionFile,
             text2mol_embeddings: str | Path | None = None) -> D2IReport:
    """Score a drug→indication prediction file (word-level text metrics)."""
    _require_task(preds, Task.DRUG_TO_INDICATION)
    # Embedding file first, as in eval_i2d.
    text2mol = None
    if text2mol_embeddings is not None:
        text2mol = _mean_paired_cosine(text2mol_embeddings, len(preds))

    references = [row.reference for row in preds.rows]
    hypotheses = [row.hypothesis for row in preds.rows]
    corpus = CorpusPair.from_strings(references, hypotheses, TokenMode.WORD)

    metadata = {
        "task": Task.DRUG_TO_INDICATION.value,
        "rows": len(preds),
        "tokenization": TokenMode.WORD.value,
        "bleu_smoothing_epsilon": BLEU_EPSILON,
        "rouge_scoring": "f1",
        "meteor_matching": "exact unigrams, no stemming or synonyms",
        "text2mol": ("mean cosine over paired embeddings"
                     if text2mol is not None else "not computed"),
    }
    return D2IReport(
        bleu2=bleu(corpus, max_n=2),
        bleu4=bleu(corpus, max_n=4),
        rouge1=rouge_n(corpus, 1),
        rouge2=rouge_n(corpus, 2),
        rouge_l=rouge_l(corpus),
        meteor=meteor(corpus),
        text2mol=text2mol,
        rows=len(preds),
        metadata=metadata,
    )


# --- fingerprint sweep -------------------------------------------------------

def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _sweep(items: list, fn: Callable[[Any], Any]) -> list:
    """``[fn(item) for item in items]``, on two CPUs when there are two.

    This process works from ``items[0]`` forward. One forked helper works
    from the back and sends each value down a pipe as a 4-byte length and
    its ``marshal`` bytes; ``marshal`` is built in, so the helper loads no
    module to send them. This process takes what has arrived after each
    item, without waiting, so the two stop where they meet and at most one
    item is computed twice. ``fn`` must therefore return plain values that
    ``marshal`` gives back equal. A value it cannot write stops the helper,
    and this process then does every item itself.

    This process never waits for the helper: a helper that dies or raises
    only leaves more of the items to this process, so any error is raised
    here, for the first failing item in order, as without a helper. Each
    item leaves ``items`` once its value is in, and what it holds goes with
    it.
    """
    results: list = [None] * len(items)
    start, end = 0, len(items)  # results[:start] made here, results[end:] sent
    pid = None  # the helper's, once forked
    if len(items) >= 2 and hasattr(os, "fork") and _cpu_count() >= 2:
        try:
            fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(write_fd)
                raise
        except OSError:  # no process or pipe to spare: one CPU's sweep
            pass
    if pid == 0:
        # The helper: a copy of the caller, stack and all, so it must never
        # return into it. Whatever happens, it ends here.
        try:
            import gc

            os.close(fd)
            gc.disable()  # a collection would touch, and so copy, every page
            for item in reversed(items):
                value = marshal.dumps(fn(item))
                out = memoryview(len(value).to_bytes(4, "little") + value)
                while out:
                    out = out[os.write(write_fd, out):]
        finally:
            os._exit(0)
    if pid:
        os.close(write_fd)
        os.set_blocking(fd, False)
    pending = bytearray()
    try:
        while start < end:
            results[start] = fn(items[start])
            items[start] = None
            start += 1
            if not pid:
                continue
            try:
                while chunk := os.read(fd, 1 << 16):
                    pending += chunk
            except BlockingIOError:
                pass
            while len(pending) >= 4 and start < end:
                size = 4 + int.from_bytes(pending[:4], "little")
                if len(pending) < size:
                    break
                end -= 1
                results[end] = marshal.loads(pending[4:size])
                items[end] = None
                del pending[:size]
    finally:
        if pid:
            import signal

            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already: the caller ignores SIGCHLD
    return results


def check_i2d_options(embeddings_ref: str | Path | None,
                      embeddings_hyp: str | Path | None,
                      radius: int, bits: int, max_path_bonds: int,
                      bleu_max_n: int) -> None:
    """Raise :class:`InputError` for a bad :func:`eval_i2d` option.

    Checked before any file is read, so the exit code does not depend on
    the files, and not only where a molecule is fingerprinted, so a bad
    option fails the same way whether or not any SMILES parses.
    """
    from . import fingerprints as fp

    fp._require_width(bits)
    fp._require_radius(radius)
    fp._require_max_path(max_path_bonds)
    _require_bleu_order(bleu_max_n)
    if (embeddings_ref is None) != (embeddings_hyp is None):
        raise InputError(
            "FCD needs both reference and hypothesis embedding files")


def eval_i2d(preds: PredictionFile,
             embeddings_ref: str | Path | None = None,
             embeddings_hyp: str | Path | None = None,
             text2mol_embeddings: str | Path | None = None,
             strict_validity: bool = False,
             radius: int = 2,
             bits: int = 2048,
             max_path_bonds: int = 7,
             keyset: fp.KeySet | None = None,
             bleu_max_n: int = 4) -> I2DReport:
    """Score an indication→drug prediction file (SMILES metrics).

    Fingerprint similarities average only over pairs where both sides
    parse; the excluded pair count is reported as ``skipped_invalid``.  FCD
    requires both embedding files and is otherwise reported as not computed.

    Each distinct SMILES string (after stripping whitespace) is validated
    once per call, however many rows repeat it.  Its molecule is
    fingerprinted once by :func:`_sweep`, on two CPUs when there are two,
    except that the molecule where the two sweeps meet may be done twice.
    A reference is graded only when its row's hypothesis parses.
    """
    _require_task(preds, Task.INDICATION_TO_DRUG)
    check_i2d_options(embeddings_ref, embeddings_hyp, radius, bits,
                      max_path_bonds, bleu_max_n)
    # Imported here, so eval-d2i never loads the SMILES parser or the
    # fingerprint code, and before the embedding files are read (see below).
    from . import fingerprints as fp
    from .smiles import validate

    if keyset is None:
        keyset = fp.DEFAULT_KEYSET

    # The embedding files are read before the row metrics. A bad one then
    # fails before the fingerprint work, and NumPy, imported by a process's
    # first read, is loaded before this call's temporaries, not among them:
    # loaded after the fingerprints, it left the peak RSS of some inputs
    # about 20% higher, because malloc reused their freed space less well.
    fcd = None
    if embeddings_ref is not None and embeddings_hyp is not None:
        from .frechet import fcd_from_files  # loads NumPy: embedding paths only

        fcd = fcd_from_files(embeddings_ref, embeddings_hyp)

    text2mol = None
    if text2mol_embeddings is not None:
        text2mol = _mean_paired_cosine(text2mol_embeddings, len(preds))

    references = [row.reference for row in preds.rows]
    hypotheses = [row.hypothesis for row in preds.rows]

    # No name holds the corpus, so it and its n-gram counts are freed here.
    bleu_score = bleu(CorpusPair.from_strings(references, hypotheses, TokenMode.CHAR),
                      max_n=bleu_max_n)
    exact = exact_match(references, hypotheses)
    mean_lev = _mean(map(levenshtein, references, hypotheses))

    # Looked up here, not at import, so a module attribute swapped at run
    # time (a tracer, a test double) is the one called.
    schemes = (
        ("maccs", fp.key_fingerprint, (keyset,)),
        ("rdk", fp.path_fingerprint, (max_path_bonds, bits)),
        ("morgan", fp.morgan_fingerprint, (radius, bits)),
    )
    # The validation pass: stripped string -> (verdict, its molecule's
    # index in the plan or None when unparseable). The plan holds the
    # parseable molecules in first-seen order.
    records: dict[str, tuple[bool, int | None]] = {}
    plan: list[Molecule] = []

    def grade(text: str) -> tuple[bool, int | None]:
        stripped = text.strip()
        record = records.get(stripped)
        if record is None:
            report = validate(stripped, strict=strict_validity)
            slot = None
            if report.molecule is not None:
                slot = len(plan)
                plan.append(report.molecule)
            record = records[stripped] = (report.verdict, slot)
        return record

    verdicts = []
    pairs = []  # (reference slot, hypothesis slot) of rows where both parse
    for ref_text, hyp_text in zip(references, hypotheses):
        verdict, hyp_slot = grade(hyp_text)
        verdicts.append(verdict)
        if hyp_slot is None:
            continue
        _, ref_slot = grade(ref_text)
        if ref_slot is not None:
            pairs.append((ref_slot, hyp_slot))

    def kernel(mol: Molecule) -> tuple:
        # Plain fields, which the helper can send; rebuilt below.
        return tuple((f.bits, f.width, f.scheme, f.params)
                     for f in (make(mol, *args) for _, make, args in schemes))

    prints = [tuple(fp.Fingerprint(*fields) for fields in record)
              for record in _sweep(plan, kernel)]

    zero_zero, means = {}, []  # means over the rows where both sides parse
    for i, (label, _, _) in enumerate(schemes):
        both = [(prints[ref_slot][i], prints[hyp_slot][i])
                for ref_slot, hyp_slot in pairs]
        zero_zero[label] = sum(ref.bits == hyp.bits == 0 for ref, hyp in both)
        means.append(_mean(fp.tanimoto(ref, hyp) for ref, hyp in both)
                     if both else None)
    maccs_fts, rdk_fts, morgan_fts = means

    metadata = {
        "task": Task.INDICATION_TO_DRUG.value,
        "rows": len(preds),
        "tokenization": TokenMode.CHAR.value,
        "bleu_max_n": bleu_max_n,
        "bleu_smoothing_epsilon": BLEU_EPSILON,
        "levenshtein": "character level on raw strings",
        "validity_mode": "strict" if strict_validity else "lenient",
        "fingerprint_hash": "fnv1a-64",
        "morgan_radius": radius,
        "fingerprint_width": bits,
        "max_path_bonds": max_path_bonds,
        "keyset": keyset.name,
        "keyset_digest": keyset.digest,
        "zero_zero_tanimoto_pairs": zero_zero,
        "fcd": ("unbiased covariance (N-1), clamped eigenvalues"
                if fcd is not None else "not computed"),
        "text2mol": ("mean cosine over paired embeddings"
                     if text2mol is not None else "not computed"),
    }
    return I2DReport(
        bleu=bleu_score,
        exact=exact,
        levenshtein=mean_lev,
        maccs_fts=maccs_fts,
        rdk_fts=rdk_fts,
        morgan_fts=morgan_fts,
        fcd=fcd,
        text2mol=text2mol,
        validity=_mean(verdicts),
        rows=len(preds),
        skipped_invalid=len(preds) - len(pairs),
        metadata=metadata,
    )


# --- rendering ---------------------------------------------------------------

def _columns(report_type: type) -> tuple[tuple[str, str], ...]:
    """(paper table header, report attribute) for each score, in table order."""
    return tuple((f.metadata["header"], f.name) for f in fields(report_type)
                 if "header" in f.metadata)


D2I_COLUMNS = _columns(D2IReport)
I2D_COLUMNS = _columns(I2DReport)


def _columns_for(report: D2IReport | I2DReport) -> tuple[tuple[str, str], ...]:
    return D2I_COLUMNS if isinstance(report, D2IReport) else I2D_COLUMNS


def _render_table(report: D2IReport | I2DReport) -> str:
    columns = _columns_for(report)
    cells = []
    for header, attr in columns:
        value = getattr(report, attr)
        cells.append(ABSENT_CELL if value is None else FLOAT_FORMAT.format(value))
    widths = [max(len(h), len(c)) for (h, _), c in zip(columns, cells)]
    header_line = "  ".join(h.ljust(w) for (h, _), w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    value_line = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [header_line.rstrip(), rule, value_line.rstrip()]
    if isinstance(report, I2DReport):
        lines.append(f"skipped_invalid: {report.skipped_invalid}")
    for key, value in report.metadata.items():
        lines.append(f"# {key}: {value}")
    return "\n".join(lines) + "\n"


def _render_csv(report: D2IReport | I2DReport) -> str:
    columns = _columns_for(report)
    headers = ",".join(header for header, _ in columns)
    values = ",".join(
        "" if getattr(report, attr) is None else repr(getattr(report, attr))
        for _, attr in columns)
    return f"{headers}\n{values}\n"


def _render_json(report: D2IReport | I2DReport) -> str:
    payload: dict = {
        "task": report.metadata["task"],
        "scores": {attr: getattr(report, attr)
                   for _, attr in _columns_for(report)},
    }
    for f in fields(report):
        if "header" not in f.metadata:
            payload[f.name] = getattr(report, f.name)
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def render_report(report: D2IReport | I2DReport, format: str = "table") -> str:
    """Render a report as ``table`` (4-decimal fixed point, absent cells
    "—"), ``csv`` (header row plus value row, full precision), or ``json``
    (full precision plus metadata, byte-stable across identical runs)."""
    if format == "table":
        return _render_table(report)
    if format == "csv":
        return _render_csv(report)
    if format == "json":
        return _render_json(report)
    raise InputError(f"unknown format {format!r}; choose table, csv, or json")


def _finite(text: str) -> float:
    # Reads every JSON float and constant: NaN, Infinity and literals
    # such as 1e999 that overflow to infinity are not finite numbers.
    value = float(text)
    if not math.isfinite(value):
        raise SchemaMismatch(f"report JSON holds {text}, which is not a finite number")
    return value


def report_from_json(text: str) -> D2IReport | I2DReport:
    """Rebuild a report from its JSON rendering (used by the render command).

    The report must be an object whose ``scores`` object holds a finite
    number or null for every score column and whose ``metadata`` object
    names the report's task; anything else, including a ``NaN`` or
    ``Infinity`` anywhere in it, raises :class:`SchemaMismatch`.
    """
    # ValueError: JSONDecodeError, or an int literal past int()'s digit limit.
    try:
        payload = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"report is not valid JSON: {exc}") from exc
    scores = payload.get("scores") if isinstance(payload, dict) else None
    if not isinstance(scores, dict):
        raise SchemaMismatch("report is not a JSON object with a 'scores' object")
    try:
        task = Task(payload["task"])
        report_type = (D2IReport if task is Task.DRUG_TO_INDICATION
                       else I2DReport)
        values = {
            f.name: scores[f.name] if "header" in f.metadata else payload[f.name]
            for f in fields(report_type)}
    except (KeyError, ValueError) as exc:
        raise SchemaMismatch(f"report JSON missing fields: {exc}") from exc
    # The magnitude test rejects ints too large for a float.
    not_numbers = [attr for _, attr in _columns(report_type)
                   if values[attr] is not None
                   and not (type(values[attr]) in (int, float)
                            and abs(values[attr]) <= sys.float_info.max)]
    if not_numbers:
        raise SchemaMismatch(f"report scores {not_numbers} are not finite numbers")
    metadata = values["metadata"]
    if not isinstance(metadata, dict) or metadata.get("task") != task.value:
        raise SchemaMismatch("report 'metadata' is not an object naming its task")
    return report_type(**values)
