"""The names the benchmark's span tracer wraps still exist in ratspec.

ratbench/tracer.py wraps ratspec functions by name (its LAYERS table); its
self-tests read module aliases, and its workloads and worker call generate,
write and run functions by name. Moving or renaming one of them would break
only the benchmark run, so this test resolves every pinned name here. The
tracer module is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "ratbench" / "tracer.py"

# names the benchmark reads besides the LAYERS table: the aliases its
# self-tests check, and what its workloads and worker call to generate, write
# and run a document
ALIASES = ("ratspec.drazin.image", "ratspec.drazin.kernel",
           "ratspec.cli.profile", "ratspec._kernels_py.matmul",
           "ratspec.kernels.BACKEND", "ratspec.invariants.charpoly",
           "ratspec.intertwine.image", "ratspec.intertwine.rational_eigenvalues",
           "ratspec.cli.OperatorTriple", "ratspec.genlab.GenSpec",
           "ratspec.genlab.generate", "ratspec.genlab.paper_example",
           "ratspec.genlab.random_unimodular",
           "ratspec.genlab.rational_spectrum_instance",
           "ratspec.cli.triple_document", "ratspec.cli.write_triple_document",
           "ratspec.cli.main")


def _load_layers() -> dict[str, tuple[str, tuple[str, ...]]]:
    spec = importlib.util.spec_from_file_location("_ratbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()


def _resolve(dotted_module: str, path: str) -> object:
    obj = importlib.import_module(dotted_module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_resolves(layer):
    module, paths = LAYERS[layer]
    missing = []
    for path in paths:
        try:
            _resolve(module, path)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert missing == []


@pytest.mark.parametrize("alias", ALIASES)
def test_every_read_alias_resolves(alias):
    module, attr = alias.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), attr)
