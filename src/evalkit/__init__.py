"""Evaluation toolkit for drug/indication translation models."""

from .dataset import (
    DatasetStats,
    DrugRecord,
    IngestReport,
    PairSet,
    SplitSpec,
    ingest,
    split,
    stats,
    write_jsonl,
)
from .fingerprints import (
    DEFAULT_KEYSET,
    Fingerprint,
    KeyDescriptor,
    KeySet,
    fnv1a64,
    key_fingerprint,
    morgan_fingerprint,
    path_fingerprint,
    tanimoto,
)
from .frechet import (
    EmbeddingSet,
    GaussianStats,
    fcd_from_files,
    frechet_distance,
    gaussian_fit,
    load_embeddings,
)
from .harness import (
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
from .smiles import (
    Atom,
    Bond,
    BondOrder,
    Chirality,
    Molecule,
    ValidityReport,
    molecular_formula,
    parse_smiles,
    strict_valence_ok,
    validate,
)
from .textmetrics import (
    CorpusPair,
    TokenMode,
    bleu,
    exact_match,
    levenshtein,
    meteor,
    ngram_overlaps,
    rouge_l,
    rouge_n,
    tokenize_text,
)
from .tokenizer import (
    DEFAULT_SPECIALS,
    Token,
    TokenKind,
    TokenSequence,
    Vocabulary,
    build_vocab,
    decode,
    detokenize,
    encode,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Bond", "BondOrder", "Chirality", "CorpusPair", "D2IReport",
    "DEFAULT_KEYSET", "DEFAULT_SPECIALS", "DatasetStats", "DrugRecord",
    "EmbeddingSet", "Fingerprint", "GaussianStats", "I2DReport",
    "IngestReport", "KeyDescriptor", "KeySet", "Molecule", "PairSet",
    "PredictionFile", "PredictionRow", "SplitSpec", "Task", "Token",
    "TokenKind", "TokenMode", "TokenSequence", "ValidityReport",
    "Vocabulary", "bleu", "build_vocab", "decode", "detokenize", "encode",
    "eval_d2i", "eval_i2d", "exact_match", "fcd_from_files", "fnv1a64",
    "frechet_distance", "gaussian_fit", "ingest", "key_fingerprint",
    "levenshtein", "load_embeddings", "load_predictions", "meteor",
    "molecular_formula", "morgan_fingerprint", "ngram_overlaps",
    "parse_smiles", "path_fingerprint", "render_report", "report_from_json",
    "rouge_l", "rouge_n", "split", "stats", "strict_valence_ok", "tanimoto",
    "tokenize", "tokenize_text", "validate", "write_jsonl",
]
