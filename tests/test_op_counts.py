"""Kernel call counts of `verify --json` and `report --json`, held as upper
bounds.

Every rank decision and every product goes through kernels.rref and
kernels.matmul, and their call counts on a fixed document are deterministic.
A change that makes verify or report do more linear algebra raises a count
past its bound here, even where the timings are too noisy to show it. A
change that lowers a count records the new count as the bound.

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

# document -> (rref calls, matmul calls) of one `verify --json`; the matmul
# calls include the characteristic polynomial's products
BOUNDS = {"paper_ex1": (29, 98), "rational_spectrum": (38, 78),
          "c_equals_b_fractional": (37, 61)}

# document -> (rref calls, matmul calls) of one `report --json`, whose
# profiles count the hyper-spaces by rank
REPORT_BOUNDS = {"rational_spectrum_dim5": (44, 26)}


def _document(name):
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


def _operand_stats():
    spec = importlib.util.spec_from_file_location("_ratbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._operand_stats


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
