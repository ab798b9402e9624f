"""Kernel call counts of `verify --json` and `report --json`, held as upper
bounds.

Every rank decision and every product goes through kernels.rref and
kernels.matmul, but a product with a zero or an identity operand, which is
known without one, and their call counts on a fixed document are
deterministic.
A change that makes verify or report do more linear algebra raises a count
past its bound here, even where the timings are too noisy to show it. A
change that lowers a count records the new count as the bound. The
invertibility decisions and the quotient-map builds of `run_verification`
are pinned exactly on the same documents.

The kernels compute over the integers: a Mat is integer numerators over one
common denominator, and what reaches a kernel is numerators only. A Fraction
operand would still compute, slowly, so a test checks the operand types on a
document whose entries are not integers.
"""

import importlib.util
from pathlib import Path

import pytest

from ratspec import kernels
from ratspec.cli import EXIT_OK, main, write_triple_document
from ratspec.genlab import GenSpec, generate

TRACER = Path(__file__).resolve().parent.parent / "ratbench" / "tracer.py"
DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"

# document -> (rref calls, matmul calls) of one `verify --json`; the matmul
# calls include the products of the one characteristic polynomial computed,
# BA's, and each kernel is one row reduction
BOUNDS = {"paper_ex1": (14, 80), "rational_spectrum": (17, 60),
          "c_equals_b_fractional": (16, 47)}

# document -> (rref calls, matmul calls) of one `report --json`, whose
# profiles read every sequence and the hyper-spaces off the chain's ranks;
# every chain ends at the rank the charpoly gives, and its unit drops are
# written down, so a level is row-reduced only when its rank is open
REPORT_BOUNDS = {"rational_spectrum_dim5": (2, 5)}

# document -> (rref calls, matmul calls, evaluations of the cubic) of one
# `verify --json` on the documents whose inclusion lemma meets a singular
# Q(T - I), Q the cubic of INCLUSION_QS (tools/output_digests.py). Its chain
# starts from q(T) itself and stops there, since rank q(T) is already
# dim - hyper_kernel_dim: no power and no rref past the image and kernel of
# q(T). The conjugated document has two such chains, as BA and AC differ
# there.
SINGULAR_INCLUSION_BOUNDS = {"companion": (8, 22, 1), "conjugated": (12, 36, 2)}


# document -> (hyper_kernel_dim decisions, induced_quotient_map builds) of
# one run_verification. The triple's chain accessor looks each (T, q) up
# before it decides anything, and keys each decision by (charpoly, q), the
# charpoly cut to its part prime to x where q(0) != 0: so BA, AC, CA and AB,
# whose charpolys differ by powers of x under the condition, share one
# decision per q. The quotient maps at each index are built once per
# distinct chain pair, however many probes share it (the identity's pair,
# at every probe where BA - lam and AC - lam are invertible)
DECISIONS_AND_BUILDS = {"paper_ex1": (5, 9), "rational_spectrum": (7, 15),
                        "c_equals_b_fractional": (7, 15), "companion": (6, 9),
                        "conjugated": (6, 9)}


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _document(name):
    if name in SINGULAR_INCLUSION_BOUNDS:
        return dict(_load(DIGESTS, "_output_digests").singular_inclusion_triples())[name]
    if name == "paper_ex1":
        return generate(GenSpec(template="paper_ex1", block_dim=2))
    if name == "c_equals_b_fractional":
        return generate(GenSpec(template="c_equals_b", block_dim=3, seed=0,
                                entry_bound=3))
    if name == "rational_spectrum_dim5":
        return generate(GenSpec(template="rational_spectrum", block_dim=5,
                                seed=0, entry_bound=2))
    return generate(GenSpec(template="rational_spectrum", block_dim=3, seed=1,
                            entry_bound=2))


def _run_recording_kernel_calls(name, tmp_path, monkeypatch, capsys,
                                command="verify"):
    """Run `<command> --json` on the document; {kernel: [args of each call]}."""
    path = tmp_path / f"{name}.json"
    write_triple_document(_document(name), str(path))
    calls = {"rref": [], "matmul": []}
    for kernel in calls:
        real = getattr(kernels, kernel)

        def recorded(*args, kernel=kernel, real=real):
            calls[kernel].append(args)
            return real(*args)

        monkeypatch.setattr(kernels, kernel, recorded)
    assert main([command, str(path), "--json"]) == EXIT_OK
    capsys.readouterr()
    return calls


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_verify_stays_within_its_kernel_calls(name, tmp_path, monkeypatch, capsys):
    calls = _run_recording_kernel_calls(name, tmp_path, monkeypatch, capsys)
    assert len(calls["rref"]) <= BOUNDS[name][0]
    assert len(calls["matmul"]) <= BOUNDS[name][1]


@pytest.mark.parametrize("name", sorted(REPORT_BOUNDS))
def test_report_stays_within_its_kernel_calls(name, tmp_path, monkeypatch, capsys):
    calls = _run_recording_kernel_calls(name, tmp_path, monkeypatch, capsys,
                                        "report")
    assert len(calls["rref"]) <= REPORT_BOUNDS[name][0]
    assert len(calls["matmul"]) <= REPORT_BOUNDS[name][1]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_no_kernel_product_has_an_empty_side(name, tmp_path, monkeypatch, capsys):
    # an empty product, the row reduction of a matrix with no rows or no
    # columns, and a containment with no rows to test or in the whole space,
    # are answered without a kernel call; verify still exits 0, every check
    # passing
    calls = _run_recording_kernel_calls(name, tmp_path, monkeypatch, capsys)
    assert [args[:3] for args in calls["matmul"] if 0 in args[:3]] == []
    assert [args[:2] for args in calls["rref"] if 0 in args[:2]] == []


@pytest.mark.parametrize("name", sorted(SINGULAR_INCLUSION_BOUNDS))
def test_singular_inclusion_route_stays_within_its_kernel_calls(
        name, tmp_path, monkeypatch, capsys):
    # the cubic's Q(T - I) is singular, evaluated once per distinct operator
    from ratspec import intertwine
    cubics = []
    real = intertwine.poly_eval_mat

    def recorded(q, T):
        if q.degree == 3:
            cubics.append(T)
        return real(q, T)

    monkeypatch.setattr(intertwine, "poly_eval_mat", recorded)
    calls = _run_recording_kernel_calls(name, tmp_path, monkeypatch, capsys)
    rrefs, matmuls, evaluations = SINGULAR_INCLUSION_BOUNDS[name]
    assert len(calls["rref"]) <= rrefs and len(calls["matmul"]) <= matmuls
    assert len(cubics) == evaluations


@pytest.mark.parametrize("name", sorted(DECISIONS_AND_BUILDS))
def test_each_probe_is_decided_once_and_each_pair_built_once(name, monkeypatch):
    from ratspec import intertwine, invariants
    from ratspec.cli import run_verification
    t = _document(name)
    asked, decided, deciding, prs = set(), [], [], []
    real_chain = intertwine.OperatorTriple.chain
    real_decide = intertwine.hyper_kernel_dim
    real_gcd = invariants._gcd
    real_build = intertwine.induced_quotient_map

    def chain(self, name, q):
        asked.add((name, q))
        return real_chain(self, name, q)

    def decide(p, q):
        decided.append((p, q))
        deciding.append(q)
        try:
            return real_decide(p, q)
        finally:
            deciding.pop()

    def gcd(a, b):
        prs.extend(deciding[-1:])
        return real_gcd(a, b)

    built = []
    monkeypatch.setattr(intertwine.OperatorTriple, "chain", chain)
    monkeypatch.setattr(intertwine, "hyper_kernel_dim", decide)
    monkeypatch.setattr(invariants, "_gcd", gcd)
    monkeypatch.setattr(intertwine, "induced_quotient_map",
                        lambda *args: built.append(args) or real_build(*args))
    assert run_verification(t)["passed"]
    decisions, builds = DECISIONS_AND_BUILDS[name]
    # one decision for each distinct (charpoly, q) asked for, the charpoly
    # cut to its part prime to x where q(0) != 0, and none twice
    keys = {(t.charpoly(op).strip_zero_roots()[0] if q.num[0] else t.charpoly(op), q)
            for op, q in asked}
    assert len(decided) == len(set(decided)) == len(keys) == decisions
    assert set(decided) == keys
    nonzero = [lam for lam in intertwine.default_probes(t) if lam]
    pairs = dict.fromkeys(t.chains(lam) for lam in nonzero)
    top = max(t.dim_x, t.dim_y)
    assert len(built) == builds == sum(
        3 * (min(top, max(ba.stable, ac.stable)) + 1) for ba, ac in pairs)
    # the PRS runs for the inclusion lemma's cubic and never on a linear q
    assert prs and all(q.degree == 3 for q in prs)


def _operand_stats():
    return _load(TRACER, "_ratbench_tracer")._operand_stats


def test_no_fraction_reaches_the_kernels(tmp_path, monkeypatch, capsys):
    name = "c_equals_b_fractional"
    t = _document(name)
    assert any(M.den > 1 for M in (t.A, t.B, t.C))
    calls = _run_recording_kernel_calls(name, tmp_path, monkeypatch, capsys)
    assert len(calls["rref"]) <= BOUNDS[name][0]
    assert len(calls["matmul"]) <= BOUNDS[name][1]
    operands = ([args[2] for args in calls["rref"]]
                + [data for args in calls["matmul"] for data in args[3:5]])
    assert all(type(x) is int for data in operands for x in data)
    # the benchmark's tracer reads the same operands through .numerator and
    # .denominator, which ints have too
    stats = _operand_stats()
    seen = [stats("kernels.rref", args) for args in calls["rref"]]
    seen += [stats("kernels.matmul", args) for args in calls["matmul"]]
    assert sum(e for e, _ in seen) > 0 and max(b for _, b in seen) > 0
