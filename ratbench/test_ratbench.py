"""Self-tests of the benchmark harness.

    python3 -m pytest ratbench/test_ratbench.py -q

They cover the tracer's alias coverage, self time on a synthetic span tree,
the correctness gate on tampered output, the budget witness, the speed
calibration, and a short run of every workload on a held-out seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Document, iter_rounds  # noqa: E402

# never used while the workloads were tuned
HELD_OUT_SEED = 7_340_117


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_alias_is_wrapped(tracer):
    from ratspec import _kernels_py, cli, drazin, intertwine, invariants, kernels, ratmat

    assert tracer.unwrapped_aliases() == []
    # bindings copied by "from ... import" into other modules
    for alias in (cli.profile, intertwine.image, intertwine.rational_eigenvalues,
                  drazin.kernel, invariants.charpoly, kernels.rref,
                  _kernels_py.matmul, cli.OperatorTriple.__init__):
        assert hasattr(alias, "__wrapped__"), alias
    for method in (ratmat.Mat.__pow__, ratmat.Subspace.intersect,
                   ratmat.Subspace.from_vectors.__func__,
                   intertwine.OperatorTriple.__init__):
        assert hasattr(method, "__wrapped__"), method


def test_a_missed_alias_is_reported(tracer):
    from ratspec import drazin

    original = drazin.image.__wrapped__
    drazin.image = original
    assert tracer.unwrapped_aliases() == ["ratspec.drazin.image"]


def test_uninstall_restores_the_originals():
    from ratspec import intertwine, ratmat

    before = (intertwine.image, ratmat.Mat.__pow__, intertwine.OperatorTriple.__init__)
    t = Tracer()
    t.install()
    t.uninstall()
    assert (intertwine.image, ratmat.Mat.__pow__,
            intertwine.OperatorTriple.__init__) == before


def test_spans_are_recorded_through_the_aliases(tracer):
    from ratspec.genlab import GenSpec, generate
    from ratspec.invariants import profile

    t = generate(GenSpec(template="c_equals_b", block_dim=3, seed=1))
    tracer.reset()
    tracer.doc = "d"
    profile(t.ac)
    names = {s[0] for s in tracer.spans}
    assert {"invariants.profile", "ratmat.image", "ratmat.kernel",
            "ratmat.Subspace.intersect", "ratmat.rref", "kernels.rref",
            "kernels.matmul", "ratmat.Mat.__matmul__"} <= names
    entries, bits = tracer.kernel_operands["d"]
    assert entries > 0 and bits > 0


def test_self_time_on_a_synthetic_span_tree():
    # [name, start, end, parent, doc]
    spans = [
        ["a.root", 0.0, 10.0, -1, "x"],   # 0: children 1 (3 s) and 3 (4 s)
        ["b.f", 1.0, 4.0, 0, "x"],        # 1: child 2 (1 s)
        ["c.g", 2.0, 3.0, 1, "x"],        # 2: leaf
        ["b.f", 5.0, 9.0, 0, "x"],        # 3: child 4 (2 s), same name
        ["b.f", 6.0, 8.0, 3, "x"],        # 4: nested in a span of its name
        ["a.root", 20.0, 21.0, -1, "y"],  # 5: another document
    ]
    s = summarize(spans)
    assert s["a.root"] == {"calls": 2, "s": 11.0, "self_s": 3.0 + 1.0}
    # inclusive time counts only the outermost b.f spans: 3 + 4
    assert s["b.f"] == {"calls": 3, "s": 7.0, "self_s": 2.0 + 2.0 + 2.0}
    assert s["c.g"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    only_y = summarize(spans, {"y"})
    assert set(only_y) == {"a.root"} and only_y["a.root"]["calls"] == 1


def _one_doc(tmp_path: Path, workload: str, template: str) -> Document:
    docs = next(iter_rounds(WORKLOADS[workload], HELD_OUT_SEED, tmp_path))
    return next(d for d in docs if d.template == template)


def test_a_tampered_report_fails(tmp_path):
    doc = _one_doc(tmp_path, "report_auto", "c_equals_b")
    runner = worker.Runner(WORKLOADS["report_auto"], budget_s=60)
    assert runner.run(doc)["ok"]
    from ratspec import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["report", str(doc.path), "--json"]) == 0
    report = json.loads(out.getvalue())
    assert runner.judge(doc, 0, json.dumps(report)) is None

    # a flag flipped consistently on both sides keeps every identity, so
    # only the digest recorded for the document catches it
    flipped = json.loads(json.dumps(report))
    sig = flipped["probes"][0]["sigma_memberships"]
    sig["ac"][3] = sig["ba"][3] = not sig["ac"][3]
    assert gate._identities(flipped) is None
    assert "digest" in runner.judge(doc, 0, json.dumps(flipped))

    one_side = json.loads(json.dumps(report))
    one_side["probes"][0]["rows"][0]["c"][0] += 1
    assert runner.judge(doc, 0, json.dumps(one_side)) is not None
    assert runner.judge(doc, 1, json.dumps(report)) is not None
    assert runner.judge(doc, 0, "not json") is not None


def test_a_flipped_verify_verdict_fails(tmp_path):
    runner = worker.Runner(WORKLOADS["verify_corpus"], budget_s=60)
    good = _one_doc(tmp_path, "verify_corpus", "c_equals_b")
    bad = _one_doc(tmp_path, "verify_corpus", "nonconforming")
    assert runner.run(good)["ok"] and runner.run(bad)["ok"]
    checks = [{"name": n, "passed": True, "detail": ""} for n in gate.VERIFY_CHECKS]
    passing = {"checks": checks, "passed": True}
    assert gate.check_verify(True, 0, json.dumps(passing)) is None
    assert gate.check_verify(True, 1, json.dumps(passing)) is not None
    flipped = json.loads(json.dumps(passing))
    flipped["checks"][4]["passed"] = False
    assert gate.check_verify(True, 0, json.dumps(flipped)) is not None
    short = {"checks": checks[:8], "passed": True}
    assert gate.check_verify(True, 0, json.dumps(short)) is not None
    # a nonconforming control must be rejected on the condition
    assert gate.check_verify(False, 0, json.dumps(passing)) is not None
    rejected = {"checks": [{"name": "condition", "passed": False, "detail": ""}],
                "passed": False}
    assert gate.check_verify(False, 1, json.dumps(rejected)) is None


def _expire(doc: Document, budget_s: float) -> dict:
    tracer = Tracer()
    runner = worker.Runner(WORKLOADS["report_auto"], budget_s=budget_s, tracer=tracer)
    tracer.install()
    try:
        return runner.run(doc)
    finally:
        tracer.uninstall()


def test_an_expired_document_records_its_witness(tmp_path):
    doc = _one_doc(tmp_path, "report_auto", "c_equals_b")
    record = _expire(doc, budget_s=0.05)
    assert not record["ok"] and record["reason"] == "over budget"
    assert record["latency_s"] == 0.05
    w = record["witness"]
    assert (w["doc"], w["template"], w["dim"], w["seed"]) == (
        doc.doc_id, doc.template, doc.dim, doc.gen_seed)
    layer, _, _ = w["span"].partition(".")
    assert layer in LAYERS
    assert w["frame"].startswith("ratspec.")


def test_the_eigenvalue_stall_is_witnessed(tmp_path):
    # aba_eq_aca at dim 11 from generator seed 3 stalls in the trial division
    # of rational_eigenvalues, a known defect of default-probe discovery
    from ratspec import cli
    from workloads import make_triple

    path = tmp_path / "stall.json"
    cli.write_triple_document(make_triple("aba_eq_aca", 11, 2, 3), str(path))
    record = _expire(Document("stall", "aba_eq_aca", 11, 3, path), budget_s=3)
    if record["ok"]:
        pytest.skip("the eigenvalue search no longer stalls on this document")
    assert record["witness"]["span"] == "invariants.rational_eigenvalues"
    assert record["witness"]["frame"] == "ratspec.invariants._divisors_up_to"


@pytest.mark.parametrize("name,count", [("verify_corpus", 6), ("verify_wide", 1),
                                        ("report_auto", 4)])
def test_held_out_seed_passes_the_gate(tmp_path, name, count):
    workload = WORKLOADS[name]
    docs = next(iter_rounds(workload, HELD_OUT_SEED, tmp_path))[:count]
    runner = worker.Runner(workload, budget_s=60, tracer=Tracer())
    result = worker.traced_phase(runner, docs)
    assert [r["reason"] for r in result["records"] if not r["ok"]] == []
    assert result["problems"] == []
    m = result["metrics"]
    assert m["kernels.rref.calls"] > 0 and m["intertwine.triple.constructions"] > 0
    if name == "verify_wide":
        assert m["invariants.rational_eigenvalues.calls"] == 0
    if name == "report_auto":
        assert m["intertwine.quotient_map.calls"] == 0
        assert m["drazin.drazin_inverse.calls"] == 0
        # every report here was compared with a digest committed in
        # reference_digests.json, not only with one recorded in this run
        reference = json.loads(worker.REFERENCE_DIGESTS.read_text())
        keys = [hashlib.sha256(d.path.read_bytes()).hexdigest() for d in docs]
        assert all(k in reference for k in keys)


def test_the_reference_scales_by_its_mean_time():
    reference = speed.Reference()
    reference.sample(0.0)
    assert len(reference.samples) == 1 and gc.isenabled()
    reference.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert reference.scale() == 0.5


def test_timed_phase_reports_calibrated_times(tmp_path):
    workload = dataclasses.replace(
        WORKLOADS["verify_corpus"],
        cells=(("c_equals_b", 2, 3), ("nonconforming", 3, 3)))
    rounds = iter_rounds(workload, HELD_OUT_SEED, tmp_path)
    result = worker.timed_phase(worker.Runner(workload, budget_s=60), rounds, 0)
    assert result["attempted"] == 2 and result["failed"] == 0
    assert result["rounds"] == 1
    scale = result["speed"]["scale"]
    assert result["speed"]["reference_samples"] >= 2
    m, raw = result["metrics"], result["raw"]
    assert m["docs_per_s"] == raw["docs_per_s"] / scale
    assert m["doc_p50_ms"] == raw["doc_p50_ms"] * scale
    assert m["doc_tail_ms"] == raw["doc_tail_ms"] * scale
