"""One workload's closed loop, run in a child process of ``run.py``.

The child imports evalkit, then calls ``evalkit.cli.main`` with the
workload's arguments and ``--format json`` again and again, one call at a
time, until it has spent ``seconds`` in them.  The first call warms up and
fixes the reference report; every call's output is checked against it.
With tracing on, traced and untraced calls alternate so that both see the
same machine state.  Without, the loop pauses at even steps through the
run for the parent's set-up samples: it writes ``setup N`` on stdout and
waits for a line on stdin.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_JSON
The spec holds argv, rows, seconds, trace, setup_samples, expect_null
(score columns that must be null), golden (a stored report to match, or
null) and spans_out (where a traced run writes its spans).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

# A run times at least this many calls, however long each one takes.
MIN_SAMPLES = 3

# Relative error allowed between a fresh FCD value and the stored golden
# one.  FCD is the one score computed by BLAS/LAPACK, whose last digits can
# depend on the CPU's kernels; every other byte must match exactly.
FCD_GOLDEN_RTOL = 1e-9


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def check_report(text: str, rows: int, expect_null: list[str]) -> str | None:
    """Return what is wrong with one JSON report, or None."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"report is not valid JSON: {exc}"
    if report.get("rows") != rows:
        return f"report has rows={report.get('rows')}, expected {rows}"
    for column, value in report.get("scores", {}).items():
        if column in expect_null:
            if value is not None:
                return f"score {column} should be null, got {value!r}"
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"score {column} is {value!r}, expected a finite number"
    if not report.get("scores"):
        return "report has no scores"
    return None


def matches_golden(text: str, golden: str) -> bool:
    if text == golden:
        return True
    fresh, stored = json.loads(text), json.loads(golden)
    fcd, gold_fcd = fresh["scores"].pop("fcd", None), stored["scores"].pop("fcd", None)
    if fresh != stored or (fcd is None) != (gold_fcd is None):
        return False
    return fcd is None or abs(fcd - gold_fcd) <= FCD_GOLDEN_RTOL * abs(gold_fcd)


class Loop:
    def __init__(self, spec: dict):
        from evalkit import cli

        self.cli = cli
        self.spec = spec
        self.argv = spec["argv"] + ["--format", "json"]
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self) -> float:
        """One CLI call; returns its wall time.  Failures are recorded."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps going and reports it
            code = "exception: " + traceback.format_exc(limit=3)
        wall = perf_counter() - start
        problem = None
        if code != 0:
            problem = f"exit {code}; stderr: {err.getvalue().strip()[:300]}"
        else:
            text = out.getvalue()
            problem = check_report(text, self.spec["rows"], self.spec["expect_null"])
            if problem is None:
                if self.reference is None:
                    golden = self.spec.get("golden")
                    if golden is not None and not matches_golden(text, golden):
                        problem = "report differs from the stored golden report"
                    self.reference = text
                elif text != self.reference:
                    problem = "report differs from the first report of this run"
        if problem is not None:
            self.failures.append(problem)
        return wall


def meteor_probe(predictions: str) -> list[float]:
    """Seconds per single-pair METEOR call over a d2i prediction file."""
    from evalkit.textmetrics import CorpusPair, TokenMode, meteor

    times = []
    with open(predictions, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            pair = CorpusPair.from_strings([row["reference"]], [row["hypothesis"]],
                                           TokenMode.WORD)
            start = perf_counter()
            meteor(pair)
            times.append(perf_counter() - start)
    return times


def pause_for_setup(count: int) -> float:
    """Ask the parent for ``count`` set-up samples; return the time paused."""
    start = perf_counter()
    print(f"setup {count}", flush=True)
    sys.stdin.readline()
    return perf_counter() - start


def run(spec: dict) -> dict:
    loop = Loop(spec)
    loop.invoke()  # warm-up: fills lazy state, fixes the reference report
    samples = spec["setup_samples"]
    step = spec["seconds"] / max(samples, 1)
    taken = 0
    start = perf_counter()
    paused = 0.0
    plain: list[float] = []
    traced: list[float] = []
    tracer = spans.Tracer()
    result: dict = {}
    while perf_counter() - start - paused < spec["seconds"] or len(plain) < MIN_SAMPLES:
        # Set-up sample k is due once k steps of the run have passed.
        due = min(samples, int((perf_counter() - start - paused) / step) + 1) - taken
        if due > 0:
            paused += pause_for_setup(due)
            taken += due
        plain.append(loop.invoke())
        if spec["trace"]:
            tracer.invocation += 1
            result["absent"] = tracer.install()
            try:
                traced.append(loop.invoke())
            finally:
                tracer.uninstall()
    if taken < samples:
        pause_for_setup(samples - taken)
    result.update(attempted=loop.attempted, failures=loop.failures, walls=plain)
    if spec["trace"]:
        result["traced_walls"] = traced
        result["layers"] = spans.layer_stats(tracer.spans, len(traced))
        spans.write_spans(tracer.spans, spec["spans_out"])
        if spec["argv"][0] == "eval-d2i":
            result["meteor_pairs"] = meteor_probe(spec["argv"][1])
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
