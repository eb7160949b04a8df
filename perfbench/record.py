#!/usr/bin/env python3
"""Write the benchmark's golden reports and its environment record.

Usage, from the root of a checkout:

    python3 perfbench/record.py

* ``perfbench/golden/<workload>.json``: the JSON report of each workload
  at the default seed.  Written only when absent: ``run.py`` compares
  every default-seed run against these bytes, and they serve as the
  before/after diff of a refactor that must not change reports.  Delete
  a file to re-record it.
* ``perfbench/ENVIRONMENT.json``: Python, NumPy and BLAS versions, the
  BLAS thread setting, CPU count and commit, and for each workload the
  layer shares and purpose checks of a traced run at the default seed,
  as long as ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread variables before NumPy is imported

sys.path.insert(0, str(run.ROOT / "src"))
import gen  # noqa: E402


def record_goldens() -> None:
    from evalkit import cli

    work = run.ROOT / ".perfbench_work" / "record"
    golden_dir = run.HERE / "golden"
    golden_dir.mkdir(exist_ok=True)
    for workload in gen.WORKLOADS:
        path = golden_dir / f"{workload}.json"
        if path.exists():
            print(f"kept {path}")
            continue
        argv = gen.generate(workload, run.DEFAULT_SEED, work / workload)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--format", "json"])
        if code != 0:
            raise SystemExit(f"{workload}: evalkit exited with {code}")
        path.write_text(out.getvalue(), encoding="utf-8")
        print(f"wrote {path}")
    shutil.rmtree(work, ignore_errors=True)


def traced_run(workload: str, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", str(seconds), "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    record = {"purpose": [], "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("layer_shares "):
            record["layer_shares"] = json.loads(line.split(" ", 1)[1])
        elif line.startswith("purpose: "):
            record["purpose"].append(line.split(" ", 1)[1])
        elif line.startswith("MISSING") or line.startswith("FAILED"):
            record["purpose"].append(line)
    metrics = record.pop("result")["metrics"]
    record["trace_overhead_ratio"] = metrics["cli.main.trace_overhead_ratio"]["value"]
    return record


def main() -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    record_goldens()
    record = {
        "environment": run.environment(),
        "seed": run.DEFAULT_SEED,
        "seconds": seconds,
        "workloads": {w: traced_run(w, seconds) for w in gen.WORKLOADS},
    }
    path = run.HERE / "ENVIRONMENT.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
