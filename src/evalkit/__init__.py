"""Evaluation toolkit for drug/indication translation models.

Every public name is loaded on first use: ``_LAZY`` maps it to the
submodule that defines it, and module ``__getattr__`` imports that module
then.  ``import evalkit`` therefore loads no submodule, and a command loads
only what it runs; ``eval-d2i`` never loads the SMILES parser, the
fingerprints or NumPy (which only :mod:`evalkit.frechet` imports).
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_LAZY = {
    **dict.fromkeys((
        "DatasetStats", "DrugRecord", "IngestReport", "PairSet", "SplitSpec",
        "ingest", "split", "stats", "write_jsonl",
    ), "dataset"),
    **dict.fromkeys((
        "DEFAULT_KEYSET", "Fingerprint", "KeyDescriptor", "KeySet", "fnv1a64",
        "key_fingerprint", "morgan_fingerprint", "path_fingerprint", "tanimoto",
    ), "fingerprints"),
    **dict.fromkeys((
        "EmbeddingSet", "GaussianStats", "fcd_from_files", "frechet_distance",
        "gaussian_fit", "load_embeddings",
    ), "frechet"),
    **dict.fromkeys((
        "D2IReport", "I2DReport", "PredictionFile", "PredictionRow", "Task",
        "eval_d2i", "eval_i2d", "load_predictions", "render_report",
        "report_from_json",
    ), "harness"),
    **dict.fromkeys((
        "Atom", "Bond", "BondOrder", "Chirality", "Molecule", "ValidityReport",
        "molecular_formula", "parse_smiles", "strict_valence_ok", "validate",
    ), "smiles"),
    **dict.fromkeys((
        "CorpusPair", "TokenMode", "bleu", "exact_match", "levenshtein",
        "meteor", "rouge_l", "rouge_n", "tokenize_text",
    ), "textmetrics"),
    **dict.fromkeys((
        "DEFAULT_SPECIALS", "Token", "TokenKind", "TokenSequence", "Vocabulary",
        "build_vocab", "decode", "detokenize", "encode", "tokenize",
    ), "tokenizer"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
