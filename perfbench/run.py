#!/usr/bin/env python3
"""Benchmark of ``evalkit eval-i2d`` and ``evalkit eval-d2i``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload i2d_drug --seed 0 --seconds 30 --trace 0

It generates the workload's inputs from the seed, then runs the workload in
one child process: a closed loop with one caller, one CLI invocation at a
time, every report checked.  With ``--trace 0`` the child pauses at even
steps through the run while a fresh interpreter's set-up is timed, so the
set-up samples see the same machine as the invocations.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  The last line of output is one JSON
object; the lines before it say the same for a human reader.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: the benchmark is a single closed-loop caller on a
# 2-CPU machine, and one thread keeps FCD's last digits reproducible.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

DEFAULT_SEED = 0
SETUP_SAMPLES = 15
# Time allowed to the child beyond --seconds before it is stopped.
CHILD_GRACE_S = 120

# Score columns each workload does not compute: they must be null.
EXPECT_NULL = {
    "i2d_drug": ["fcd", "text2mol"],
    "i2d_small_embed": [],
    "d2i_text": ["text2mol"],
}

# Layers each workload exists to exercise.  One that sees no call in the
# traced run is reported missing and makes the run incorrect: the
# workload would no longer measure what it was chosen for.
_ALL_LAYERS = ("cli.main", "harness.load_predictions", "harness.render_report",
               "textmetrics.CorpusPair.from_strings", "textmetrics.bleu")
_I2D_LAYERS = _ALL_LAYERS + (
    "harness.eval_i2d", "smiles.parse_smiles", "smiles.validate",
    "fingerprints.path_fingerprint", "fingerprints.morgan_fingerprint",
    "fingerprints.key_fingerprint", "fingerprints.tanimoto", "textmetrics.levenshtein")
REQUIRED_LAYERS = {
    "i2d_drug": _I2D_LAYERS,
    "i2d_small_embed": _I2D_LAYERS + ("frechet.read_vector_rows", "frechet.gaussian_fit",
                                      "frechet.frechet_distance"),
    "d2i_text": _ALL_LAYERS + ("harness.eval_d2i", "textmetrics.meteor",
                               "textmetrics.rouge_l", "textmetrics.rouge_n"),
}

# Per-layer statistic suffix -> (key in the worker's layer stats, scale).
STATS = {
    "calls": ("calls", 1.0), "busy_s": ("busy", 1.0), "self_s": ("self", 1.0),
    "p50_ms": ("p50", 1e3), "p99_ms": ("p99", 1e3),
    "p50_us": ("p50", 1e6), "p99_us": ("p99", 1e6),
    "distinct_ratio": ("distinct_ratio", 1.0), "fail_ratio": ("fail_ratio", 1.0),
}

SETUP_CODE = "import time, evalkit.cli; print(repr(time.monotonic()))"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed hash seed keeps set and dict layouts, and with them the
    # fingerprint code's timings, the same from process to process.
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_sample(env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter to ``import evalkit.cli``
    done."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout) - start


def run_child(spec_path: Path, result_path: Path, env: dict[str, str],
              timeout: float) -> tuple[int, float, list[float]]:
    """Run the worker; return its exit code, peak RSS in MiB and the
    set-up samples it paused for.

    The worker writes ``setup N`` on its stdout when N set-up samples are
    due and waits; the samples are taken here, where they do not count in
    the worker's resource usage, and an empty line lets it go on."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path),
                             str(result_path)], env=env, cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + timeout
    setup: list[float] = []
    ended = False
    try:
        while select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            line = proc.stdout.readline()
            if not line:
                ended = True  # the worker closed its stdout: it is exiting
                break
            if line.startswith("setup "):
                setup.extend(setup_sample(env) for _ in range(int(line.split()[1])))
                proc.stdin.write("\n")
                proc.stdin.flush()
    finally:
        if not ended:
            proc.kill()  # timed out, or a set-up sample failed
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdin.close()
        proc.stdout.close()
    return (proc.returncode if ended else -1), usage.ru_maxrss / 1024.0, setup


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "commit": commit,
    }


def layer_metrics(names: list[str], layers: dict, extra: dict[str, float]) -> dict[str, float]:
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
            continue
        layer, stat = name.rsplit(".", 1)
        key, scale = STATS[stat]
        values[name] = layers.get(layer, {}).get(key, 0.0) * scale
    return values


def purpose_checks(workload: str, layers: dict) -> list[str]:
    """Does the traced run still show what the workload was chosen for?"""
    main = layers.get("cli.main", {}).get("busy", 0.0) or float("nan")
    share = {name: stats["busy"] / main for name, stats in layers.items()}
    checks = []
    if workload == "i2d_drug":
        value = share.get("fingerprints.path_fingerprint", 0.0)
        checks.append(f"path_fingerprint share {value:.3f} (chosen for > 0.5): "
                      + ("ok" if value > 0.5 else "NOT MET"))
    if workload == "d2i_text":
        value = share.get("textmetrics.meteor", 0.0)
        checks.append(f"meteor share {value:.3f} (chosen for > 0.5): "
                      + ("ok" if value > 0.5 else "NOT MET"))
        touched = sorted(n for n in layers if n.split(".")[0] in ("smiles", "fingerprints"))
        checks.append(f"smiles/fingerprints calls: {touched or 'none'}")
    frechet = sorted(n for n in layers if n.startswith("frechet."))
    if workload == "i2d_small_embed":
        checks.append(f"frechet layers called: {frechet or 'NONE'}")
    else:
        checks.append(f"frechet layers called: {frechet or 'none'} (expected none)")
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECT_NULL))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evalkit" / "cli.py").is_file():
        return fail(f"no evalkit sources under {ROOT / 'src'}; run from a checkout")
    config_path = ROOT / "BENCHMARK.json"
    if not config_path.is_file():
        return fail(f"{config_path} not found")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gen

    gen.check_known_drugs()
    work = ROOT / ".perfbench_work"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        argv_eval = gen.generate(args.workload, args.seed, run_dir)
        rows = Path(argv_eval[1]).read_text(encoding="utf-8").count("\n")
        golden_path = HERE / "golden" / f"{args.workload}.json"
        golden = None
        if args.seed == DEFAULT_SEED:
            if not golden_path.is_file():
                return fail(f"golden report {golden_path} is missing")
            golden = golden_path.read_text(encoding="utf-8")
        spec = {"argv": argv_eval, "rows": rows, "seconds": args.seconds,
                "trace": args.trace, "golden": golden,
                "setup_samples": 0 if args.trace else SETUP_SAMPLES,
                "expect_null": EXPECT_NULL[args.workload],
                "spans_out": str(work / f"spans-{args.workload}-{args.seed}.jsonl")}
        spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        env = child_env()
        if not args.trace:
            setup_sample(env)  # warms the bytecode and page caches; not kept
        code, peak_rss_mb, setup = run_child(spec_path, result_path, env,
                                             args.seconds + CHILD_GRACE_S)
        if code != 0 or not result_path.is_file():
            return fail(f"worker exited with code {code}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = result["walls"]
    attempted, failures = result["attempted"], result["failures"]
    correct = not failures
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rows} rows per invocation, {len(walls)} timed invocations "
          f"(one caller, closed loop), {attempted} attempted")
    for problem in sorted(set(failures)):
        print(f"FAILED: {problem}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup),
            "rows_per_s": rows / statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)} fresh "
              f"interpreters spread over the run; min {min(setup):.4f}, "
              f"max {max(setup):.4f})")
        print(f"rows_per_s {metrics['rows_per_s']:.3f} rows/s (median of {len(walls)} "
              f"invocations; invocation wall min {min(walls):.4f} s, max {max(walls):.4f} s)")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MiB (workload process, getrusage)")
        print(f"failed_ratio {len(failures) / attempted:.4f} ratio "
              f"({len(failures)}/{attempted} invocations)")
        specs = config["end_to_end"]
    else:
        layers = result["layers"]
        if result["absent"]:
            print(f"not in this version of evalkit, so not traced: {result['absent']}")
        missing = [n for n in REQUIRED_LAYERS[args.workload] if n not in layers]
        for name in missing:
            print(f"MISSING layer {name}: no calls on a workload chosen to exercise it")
        correct = correct and not missing
        traced = result["traced_walls"]
        pairs = result.get("meteor_pairs")
        from spans import percentile

        extra = {
            "cli.main.trace_overhead_ratio": statistics.median(traced) / statistics.median(walls),
            "textmetrics.meteor.pair_p50_us": percentile(pairs, 50) * 1e6 if pairs else 0.0,
            "textmetrics.meteor.pair_p99_ms": percentile(pairs, 99) * 1e3 if pairs else 0.0,
        }
        specs = config["per_layer"]
        metrics = layer_metrics([m["name"] for m in specs], layers, extra)
        print(f"traced invocations {len(traced)}; trace_overhead_ratio "
              f"{extra['cli.main.trace_overhead_ratio']:.4f}")
        main_busy = layers.get("cli.main", {}).get("busy", 0.0)
        shares = {name: round(stats["busy"] / main_busy, 4)
                  for name, stats in sorted(layers.items()) if main_busy}
        print(f"layer_shares {json.dumps(shares)}")
        for check in purpose_checks(args.workload, layers):
            print(f"purpose: {check}")
        for spec_ in specs:
            print(f"{spec_['name']} {metrics[spec_['name']]:.6g} {spec_['unit']}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
