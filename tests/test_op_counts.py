"""Kernel call counts of `verify --json`, held as upper bounds.

Every rank decision and every product goes through kernels.rref and
kernels.matmul, and their call counts on a fixed document are deterministic.
A change that makes verify do more linear algebra raises a count past its
bound here, even where the timings are too noisy to show it. A change that
lowers a count records the new count as the bound.
"""

import pytest

from ratspec import kernels
from ratspec.cli import EXIT_OK, main, write_triple_document
from ratspec.genlab import GenSpec, generate, rational_spectrum_instance

# document -> (rref calls, matmul calls) of one `verify --json`
BOUNDS = {"paper_ex1": (146, 298), "rational_spectrum": (199, 377)}


def _document(name):
    if name == "paper_ex1":
        return generate(GenSpec(template="paper_ex1", block_dim=2))
    return rational_spectrum_instance(GenSpec(template="c_equals_b", block_dim=3,
                                              seed=1, entry_bound=2))


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_verify_stays_within_its_kernel_calls(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.json"
    write_triple_document(_document(name), str(path))
    calls = {"rref": 0, "matmul": 0}
    for kernel in calls:
        real = getattr(kernels, kernel)

        def counted(*args, kernel=kernel, real=real):
            calls[kernel] += 1
            return real(*args)

        monkeypatch.setattr(kernels, kernel, counted)
    assert main(["verify", str(path), "--json"]) == EXIT_OK
    capsys.readouterr()
    assert calls["rref"] <= BOUNDS[name][0] and calls["matmul"] <= BOUNDS[name][1]
