"""Training benchmark of slim: one workload per invocation.

    python3 bench/run.py --workload standin-k100 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory and nothing is installed. The run

  1. generates the workload's graphs from ``--seed`` and writes them as TU
     files under ``.bench_work/`` (see ``workloads.py``),
  2. drives them through ``load_tu_dataset`` -> ``prepare_bundle`` ->
     ``train`` -> ``accuracy`` in a fresh worker process with the BLAS
     thread count pinned (see ``worker.py``),
  3. checks the outputs: finite and falling epoch losses, accuracy above the
     class prior, and identical results from repeated set-ups and trainings,
  4. prints a report line, then one JSON line with ``correct``,
     ``attempted``, ``failed`` and the metrics: the end-to-end ones with
     ``--trace 0``, the per-layer spans of ``tracing.py`` with ``--trace 1``.

It exits 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
TIME_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread per worker, so that a BLAS pool does not compete with the
# interpreter for the same two cores and add to the run-to-run spread
BLAS_THREADS = 1


def source_identity() -> dict:
    """Git sha when the checkout is a repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "slim", "*.py"))):
        digest.update(os.path.basename(path).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_worker(args, data_root: str, out_path: str, budget: float) -> dict:
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--data", data_root, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_path]
    # the worker's own output goes to stderr so that stdout ends with the result
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    try:
        status = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        return {"worker": {"status": None, "error": f"killed after {budget:.0f} s"}}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = {}
    if os.path.isfile(out_path):
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
    result["worker"] = {"status": status, **result.get("error", {})}
    if status < 0:
        result["worker"]["signal"] = signal.Signals(-status).name
    return result


def check(result: dict, inputs: dict, margin: float) -> dict[str, bool]:
    """Correctness checks, by name."""
    checks = {"worker.exit_0": result["worker"]["status"] == 0}
    setups, cycles = result.get("setups", []), result.get("cycles", [])
    checks["worker.completed_a_cycle"] = bool(cycles)
    expected = (inputs["graphs"], inputs["nodes"], inputs["edges"])
    for i, s in enumerate(setups):
        checks[f"setup{i}.inputs_match"] = (s["graphs"], s["nodes"], s["edges"]) == expected
    checks["setups.identical_substructures"] = len({s["z_sha256"] for s in setups}) <= 1
    for i, c in enumerate(cycles):
        losses = c["losses"]
        checks[f"cycle{i}.repeated_scores_agree"] = c["accuracies_agree"]
        checks[f"cycle{i}.losses_finite"] = all(math.isfinite(v) for v in losses)
        checks[f"cycle{i}.loss_fell"] = len(losses) >= 2 and losses[-1] < losses[0]
        checks[f"cycle{i}.accuracy_above_prior"] = (
            c["accuracy"] >= inputs["class_prior"] + margin)
    if len(cycles) > 1:
        first = cycles[0]
        checks["cycles.identical_training"] = all(
            (c["losses"], c["accuracy"]) == (first["losses"], first["accuracy"])
            for c in cycles)
    return checks


def end_to_end(result: dict, epochs: int) -> dict:
    cycles, setups = result["cycles"], result["setups"]
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "train_graphs_per_s": (statistics.median(
            c["train_graphs"] * epochs / c["train_s"] for c in cycles), "graphs/s"),
        "infer_graphs_per_s": (statistics.median(
            c["graphs"] / t for c in cycles for t in c["infer_s"]), "graphs/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    # a terminated run unwinds through run_worker, which stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update({k: "1" for k in BLAS_ENV})  # generators need no BLAS threads
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, generate, write_tu

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "slim", "__init__.py")):
        print(f"no slim sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    run_dir = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        inputs = write_tu(generate(wl, args.seed), run_dir, "BENCH")
        result = run_worker(args, run_dir, os.path.join(run_dir, "worker.json"),
                            TIME_LIMIT_S - (perf_counter() - started))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = check(result, inputs, wl.accuracy_margin)
    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    cycles = result.get("cycles", [])
    steps = sum(c["steps"] for c in cycles)
    evals = sum(c["evals"] for c in cycles)
    correct = not failed_checks
    metrics = {}
    if cycles and not args.trace:
        metrics = end_to_end(result, wl.epochs)
    elif cycles:
        metrics = result.get("trace", {})
    report = {
        "workload": wl.name,
        "source": source_identity(),
        "env": result.get("env"),
        "worker": result["worker"],
        "inputs": inputs,
        "config": result.get("config"),
        "seconds": args.seconds,
        "counts": {"steps": steps, "evals": evals, "checks": len(checks),
                   "failed_checks": failed_checks},
        "samples": {
            "setup_s": [t["setup_s"] for t in result.get("setups", [])],
            "train_s": [c["train_s"] for c in cycles],
            "infer_s": [t for c in cycles for t in c["infer_s"]],
        },
        "final": [{"loss": c["losses"][-1], "accuracy": c["accuracy"]} for c in cycles],
        "peak_rss_mb": result.get("peak_rss_mb"),
        "spans": result.get("spans"),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": steps + evals + len(checks),
        "failed": len(failed_checks),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
