"""The workload process: one interpreter, one thread, one closed-loop caller.

Started by run.py with ``src`` on the path. It generates the seed's first
round of documents (set-up), prints ``READY``, then calls
``ratspec.cli.main([...])`` in-process on one document at a time with stdout
captured, gates every verdict, and prints one JSON line of results. A per-document budget is enforced with a
real-time interval timer; an expired document records a witness.

    python3 ratbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --budget-s B --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import gate
import speed
from tracer import Tracer, summarize
from workloads import WORKLOADS, Document, Workload, iter_rounds

REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")


class BudgetExpired(BaseException):
    """Raised by the interval timer inside a document that ran too long.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _innermost_ratspec_frame(frame) -> str | None:
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("ratspec"):
            return f"{module}.{frame.f_code.co_name}"
        frame = frame.f_back
    return None


class Runner:
    """Runs documents through the CLI with the budget and the gate."""

    def __init__(self, workload: Workload, budget_s: float,
                 tracer: Tracer | None = None):
        from ratspec import cli
        self.cli = cli
        self.workload = workload
        self.budget_s = budget_s
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        if REFERENCE_DIGESTS.exists():
            self.digests.update(json.loads(REFERENCE_DIGESTS.read_text()))
        self.witness: dict | None = None

    def _on_alarm(self, signum, frame):
        self.witness = {
            "frame": _innermost_ratspec_frame(frame),
            "span": self.tracer.innermost_open() if self.tracer else None,
        }
        raise BudgetExpired()

    def run(self, doc: Document) -> dict:
        """One closed-loop request: returns latency_s, ok, reason, witness."""
        argv = [self.workload.command, str(doc.path), *self.workload.flags]
        out, err = io.StringIO(), io.StringIO()
        self.witness = None
        if self.tracer:
            self.tracer.doc = doc.doc_id
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        rc = None
        reason = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.budget_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
        except BudgetExpired:
            elapsed = self.budget_s
            reason = "over budget"
        except Exception as exc:  # the program raised: a failed operation
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            reason = f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if reason is None:
            reason = self.judge(doc, rc, out.getvalue())
        record = {"doc": doc.doc_id, "latency_s": elapsed, "ok": reason is None,
                  "reason": reason}
        if reason == "over budget":
            record["witness"] = {"doc": doc.doc_id, "template": doc.template,
                                 "dim": doc.dim, "seed": doc.gen_seed,
                                 **(self.witness or {})}
        return record

    def judge(self, doc: Document, rc: int, out: str) -> str | None:
        if self.workload.command == "verify":
            return gate.check_verify(doc.conforming, rc, out)
        key = hashlib.sha256(doc.path.read_bytes()).hexdigest()
        reason, digest = gate.check_report(rc, out, self.digests.get(key))
        if digest is not None and reason is None:
            self.digests.setdefault(key, digest)
        return reason


def _percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def timed_phase(runner: Runner, rounds: Iterator[list[Document]],
                seconds: float) -> dict:
    """Closed loop over whole rounds for about `seconds`; the end-to-end metrics.

    The first document runs once untimed, as warm-up. Every run measures
    whole rounds, so the same mix of cells, and starts another while half a
    mean round still fits in `seconds` (a round's time includes generating
    it). After each document the reference task runs for ``speed.DUTY`` of
    its latency, and the time metrics are scaled by the run's reference
    speed (see speed.py).
    """
    reference = speed.Reference()
    records = []
    n_rounds = 0
    t0 = time.perf_counter()
    for docs in rounds:
        if n_rounds == 0:
            runner.run(docs[0])
        for doc in docs:
            record = runner.run(doc)
            records.append(record)
            reference.sample(speed.DUTY * record["latency_s"])
        n_rounds += 1
        if (time.perf_counter() - t0) * (1 + 0.5 / n_rounds) >= seconds:
            break
    lat_ms = [r["latency_s"] * 1e3 for r in records]
    ok = sum(r["ok"] for r in records)
    busy_s = sum(r["latency_s"] for r in records)
    tail_ms = _percentile(lat_ms, runner.workload.tail_pct)
    raw = {"docs_per_s": ok / busy_s, "doc_p50_ms": statistics.median(lat_ms),
           "doc_tail_ms": tail_ms}
    scale = reference.scale()
    return {
        "attempted": len(records),
        "failed": len(records) - ok,
        "records": records,
        "rounds": n_rounds,
        "beyond_tail": sum(x > tail_ms for x in lat_ms),
        "raw": raw,
        "speed": {"scale": scale, "reference_samples": len(reference.samples),
                  "wall_s": time.perf_counter() - t0},
        "metrics": {
            "docs_per_s": raw["docs_per_s"] / scale,
            "doc_p50_ms": raw["doc_p50_ms"] * scale,
            "doc_tail_ms": raw["doc_tail_ms"] * scale,
            "docs_ok_frac": ok / len(records),
        },
    }


def _layer_metrics(summary: dict, operands: dict, docs: set) -> dict[str, float]:
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def total(names: tuple[str, ...], key: str) -> float:
        return sum(get(n, key) for n in names)

    m: dict[str, float] = {}
    for k in ("rref", "matmul"):
        m[f"kernels.{k}.calls"] = get(f"kernels.{k}", "calls")
        m[f"kernels.{k}.self_s"] = get(f"kernels.{k}", "self_s")
    m["kernels.max_operand_bits"] = max(
        (operands[d][1] for d in docs if d in operands), default=0)
    m["kernels.entries"] = sum(operands[d][0] for d in docs if d in operands)
    ratmat_ops = {"image": "image", "kernel": "kernel",
                  "intersect": "Subspace.intersect", "sum": "Subspace.sum",
                  "preimage": "preimage", "solve": "solve",
                  "charpoly": "charpoly", "matpow": "Mat.__pow__"}
    for short, path in ratmat_ops.items():
        m[f"ratmat.{short}.calls"] = get(f"ratmat.{path}", "calls")
    m["ratmat.self_s"] = sum(v["self_s"] for n, v in summary.items()
                             if n.startswith("ratmat."))
    m["invariants.profile.calls"] = get("invariants.profile", "calls")
    m["invariants.profile.s"] = get("invariants.profile", "s")
    m["invariants.sigma_memberships.calls"] = get("invariants.sigma_memberships", "calls")
    m["invariants.rational_eigenvalues.calls"] = get("invariants.rational_eigenvalues", "calls")
    m["invariants.rational_eigenvalues.self_s"] = get("invariants.rational_eigenvalues", "self_s")
    m["intertwine.triple.constructions"] = get("intertwine.OperatorTriple.__init__", "calls")
    builders = ("intertwine.gamma_map", "intertwine.psi_map", "intertwine.phi_map")
    m["intertwine.quotient_map.calls"] = total(builders, "calls")
    m["intertwine.quotient_map.s"] = total(
        builders + ("intertwine.QuotientMap.injective_by_rank",
                    "intertwine.QuotientMap.injective_by_preimage"), "s")
    for short, name in (("sequence", "verify_sequence_equalities"),
                        ("theorem", "verify_theorem"),
                        ("inclusion_lemma", "inclusion_lemma"),
                        ("shift_polys", "shift_polys"),
                        ("default_probes", "default_probes")):
        m[f"intertwine.{short}.s"] = get(f"intertwine.{name}", "s")
    m["drazin.drazin_inverse.calls"] = get("drazin.drazin_inverse", "calls")
    m["drazin.transfer.s"] = get("drazin.transfer", "s")
    m["drazin.proof_identities.s"] = get("drazin.proof_identities", "s")
    m["cli.parse.s"] = get("cli.parse_triple_document", "s")
    m["cli.battery.s"] = total(("cli.run_verification", "cli.build_report"), "s")
    m["cli.emit.s"] = get("cli.emit", "s")
    return m


COUNT_METRICS = ("calls", "constructions", "max_operand_bits", "entries")


def traced_phase(runner: Runner, docs: list[Document]) -> dict:
    """Untraced pass, then two traced passes, over the same documents.

    Per-layer counts must repeat exactly between the two traced passes; an
    unwrapped alias or a count that differs makes the run incorrect.
    """
    tracer = runner.tracer
    untraced = [runner.run(d) for d in docs]
    tracer.install()
    problems = [f"unwrapped alias {a}" for a in tracer.unwrapped_aliases()]
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            records = [runner.run(d) for d in docs]
            passes.append((records, dict(tracer.kernel_operands),
                           list(tracer.spans)))
    finally:
        tracer.uninstall()
    all_records = untraced + [r for p in passes for r in p[0]]
    done = {d.doc_id for d in docs} - {r["doc"] for r in all_records if not r["ok"]}
    layer = []
    for records, operands, spans in passes:
        layer.append(_layer_metrics(summarize(spans, done), operands, done))
    for key in layer[0]:
        if key.rsplit(".", 1)[-1] in COUNT_METRICS and layer[0][key] != layer[1][key]:
            problems.append(f"{key} differs between traced passes: "
                            f"{layer[0][key]} vs {layer[1][key]}")
    metrics = {k: (v if k.rsplit(".", 1)[-1] in COUNT_METRICS
                   else (v + layer[1][k]) / 2) for k, v in layer[0].items()}

    def wall(records):
        return sum(r["latency_s"] for r in records if r["doc"] in done)

    base = wall(untraced)
    traced = (wall(passes[0][0]) + wall(passes[1][0])) / 2
    metrics["trace.overhead_frac"] = (traced - base) / base if base else 0.0
    return {"attempted": len(all_records),
            "failed": sum(not r["ok"] for r in all_records),
            "records": all_records, "problems": problems, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget-s", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    from ratspec import kernels  # the import is part of set-up
    rounds = iter_rounds(workload, args.seed, args.workdir)
    gen_tracer = Tracer(layers=("genlab",)) if args.trace else None
    if gen_tracer:
        gen_tracer.install()
    try:
        first = next(rounds)
    finally:
        if gen_tracer:
            gen_tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        docs = list(first)
        while len(docs) < workload.traced_docs:
            docs += next(rounds)
        runner = Runner(workload, args.budget_s, Tracer())
        result = traced_phase(runner, docs[:workload.traced_docs])
        gen = summarize(gen_tracer.spans)
        result["metrics"]["genlab.generate.s"] = sum(
            v["s"] for n, v in gen.items() if n.startswith("genlab."))
    else:
        runner = Runner(workload, args.budget_s)
        result = timed_phase(runner, itertools.chain([first], rounds), args.seconds)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["problems"] = []
        if result["beyond_tail"] < 10:
            print(f"note: only {result['beyond_tail']} documents beyond "
                  f"p{workload.tail_pct}", file=sys.stderr)
    result["context"] = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "backend": kernels.BACKEND, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "budget_s": args.budget_s,
        "tail_pct": workload.tail_pct,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
