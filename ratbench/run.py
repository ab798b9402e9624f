#!/usr/bin/env python3
"""ratspec benchmark: one command, one workload, one result line.

    python3 ratbench/run.py --budget-s 10 --workload verify_corpus \\
        --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The program is used from ``src``
as it stands (pure Python, nothing to build). Untraced runs print the
end-to-end metrics, traced runs the per-layer metrics; the last line of
stdout is the result object.

``setup_s`` is timed here: a fresh workload process starts, imports ratspec
and generates one round of the workload's documents (one per cell), and the
time until it reports READY is one set-up. An untraced run makes
SETUP_REPEATS of them and reports the median. It is not calibrated by the
reference task (speed.py): over many runs set-up time did not follow the
reference's speed. The measured workload process makes the same set-up,
which the context line records as ``ready_s``, and generates further rounds
as its run needs them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 170
UNITS = {
    "docs_per_s": "1/s", "doc_p50_ms": "ms", "doc_tail_ms": "ms",
    "docs_ok_frac": "fraction", "peak_rss_mb": "MB", "setup_s": "s",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("calls", "constructions", "entries")):
        return "count"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("frac"):
        return "fraction"
    return "s"


def _spawn(root: Path, worker_args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start one workload process; (seconds until READY, stdout lines after)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *worker_args],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: workload process ran past its deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"error: workload process failed (exit {proc.returncode})")
    return ready, rest.splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ratspec benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget-s", type=float, required=True,
                        help="per-document budget; a document past it fails")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through _spawn's cleanup so no worker outlives us
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "ratspec" / "cli.py").is_file():
        print(f"error: no ratspec sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + PROCESS_TIMEOUT_S
    work = root / ".ratbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--budget-s", str(args.budget_s), "--workdir", str(work)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(_spawn(root, common + ["--setup-only"], deadline)[0])
        ready_s, lines = _spawn(root, common, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".ratbench_work").iterdir()):
            (root / ".ratbench_work").rmdir()
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    for r in result["records"]:
        if not r["ok"]:
            print(f"failed: {r['doc']}: {r['reason']}"
                  + (f" witness={json.dumps(r['witness'])}" if "witness" in r else ""),
                  file=sys.stderr)
    for p in result["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    context = result["context"]
    context.update({"attempted": result["attempted"], "rounds": result.get("rounds"),
                    "raw": result.get("raw"), "speed": result.get("speed"),
                    "setups_s": setups, "ready_s": ready_s})
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": not result["problems"] and all(
            r["ok"] or r["reason"] == "over budget" for r in result["records"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
