"""Spans around the calls into evalkit's layers, recorded from outside.

The program is not edited.  ``Tracer.install`` replaces each traced
function, in every evalkit module that holds a reference to it, with a
wrapper that records one span per call; ``Tracer.uninstall`` puts the
originals back.  Replacing every reference matters because callers look
names up in their own module (``harness`` calls ``parse_smiles`` through
its own global, ``smiles.validate`` through ``smiles``'s).

A span is (name, start, end, parent span, invocation id, outermost call of
this name, raised, first argument if it is a string).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "harness", "smiles", "fingerprints", "textmetrics", "frechet")

# The public functions on the two eval commands' path.  Functions called
# once per path or per key inside a fingerprint (fnv1a64, KeyDescriptor
# matching) are left out: a wrapper there would cost more than the call.
TRACED = (
    "cli.main",
    "harness.load_predictions", "harness.eval_i2d", "harness.eval_d2i",
    "harness.render_report",
    "smiles.parse_smiles", "smiles.validate",
    "fingerprints.path_fingerprint", "fingerprints.morgan_fingerprint",
    "fingerprints.key_fingerprint", "fingerprints.tanimoto",
    "textmetrics.CorpusPair.from_strings", "textmetrics.bleu",
    "textmetrics.rouge_n", "textmetrics.rouge_l", "textmetrics.meteor",
    "textmetrics.levenshtein", "textmetrics.exact_match",
    "frechet.fcd_from_files", "frechet.load_embeddings",
    "frechet.read_vector_rows", "frechet.gaussian_fit",
    "frechet.frechet_distance",
)

NAME, START, END, PARENT, INVOCATION, OUTER, RAISED, TEXT = range(8)


def _module(short: str):
    return importlib.import_module(f"evalkit.{short}")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer = depth[name] == 0
            depth[name] += 1
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                text = args[0] if args and isinstance(args[0], str) else None
                spans[index] = (name, start, end, parent, self.invocation,
                                outer, raised, text)

        traced.__wrapped__ = fn
        return traced

    def install(self, names: tuple[str, ...] = TRACED) -> list[str]:
        """Wrap each named function wherever evalkit refers to it; return
        the names that do not exist in this version of the program."""
        absent = []
        modules = [_module(m) for m in MODULES]
        for name in names:
            short, *path = name.split(".")
            owner = _module(short)
            for part in path[:-1]:
                owner = getattr(owner, part)
            # vars(), not getattr(): a classmethod must stay a classmethod.
            original = vars(owner).get(path[-1])
            if original is None:
                absent.append(name)
                continue
            if isinstance(original, classmethod):
                self._restore.append((owner, path[-1], original))
                setattr(owner, path[-1], classmethod(self.wrap(name, original.__func__)))
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return absent

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def write_spans(recorded: list[tuple], path: str) -> None:
    """One JSON line per span: name, start, end, parent, invocation."""
    with open(path, "w", encoding="utf-8") as out:
        for span in recorded:
            out.write(json.dumps(span[:OUTER]) + "\n")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a lone value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_stats(spans: list[tuple], invocations: int) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds per invocation, per-call
    p50/p99 seconds, and the share of calls that raised or repeated an
    argument already seen in the same invocation.

    busy counts only the outermost call of a name, so recursion is not
    counted twice; self is a span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    grouped: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = grouped.setdefault(span[NAME], {
            "calls": 0, "busy": 0.0, "self": 0.0, "raised": 0,
            "durations": [], "distinct": set()})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["durations"].append(duration)
        entry["self"] += duration - child_time[index]
        if span[OUTER]:
            entry["busy"] += duration
        entry["raised"] += span[RAISED]
        if span[TEXT] is not None:
            entry["distinct"].add((span[INVOCATION], span[TEXT].strip()))
    stats = {}
    for name, entry in grouped.items():
        calls = entry["calls"]
        stats[name] = {
            "calls": calls / invocations,
            "busy": entry["busy"] / invocations,
            "self": entry["self"] / invocations,
            "p50": percentile(entry["durations"], 50),
            "p99": percentile(entry["durations"], 99),
            "fail_ratio": entry["raised"] / calls,
            "distinct_ratio": len(entry["distinct"]) / calls,
        }
    return stats
