"""Span tracer that wraps ratspec's layer functions from outside the package.

Nothing in ratspec is edited. Installing a Tracer replaces each listed
function with a wrapper that records a span (name, start, end, parent span,
document id) in memory, and rebinds every alias of the original: module
globals copied by ``from ratspec.x import f`` anywhere under ``ratspec.*``,
and methods in class dictionaries. ``unwrapped_aliases()`` is the self-check
that no alias was missed. Metrics (calls, inclusive seconds, self seconds)
are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from time import perf_counter

# layer -> (module, attribute paths) of the public functions and methods that
# get a span. The layer is the module name; a span is named "<layer>.<path>".
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "kernels": ("ratspec.kernels", ("rref", "matmul")),
    "ratmat": ("ratspec.ratmat", (
        "rref", "rank", "kernel", "image", "map_subspace", "preimage",
        "quotient_dim", "solve", "inverse", "charpoly", "poly_eval_mat",
        "Mat.__matmul__", "Mat.__pow__", "Mat.apply", "Mat.shifted",
        "Subspace.from_vectors", "Subspace.sum", "Subspace.intersect",
        "Subspace.contains", "Subspace.contains_vector")),
    "invariants": ("ratspec.invariants", (
        "profile", "regularity_membership", "sigma_memberships",
        "rational_eigenvalues")),
    "intertwine": ("ratspec.intertwine", (
        "OperatorTriple.__init__", "check_condition", "scaled",
        "inclusion_lemma", "gamma_map", "psi_map", "phi_map",
        "induced_quotient_map", "QuotientMap.injective_by_rank",
        "QuotientMap.injective_by_preimage", "verify_sequence_equalities",
        "default_probes", "verify_theorem", "nonzero_charpoly_match",
        "shift_polys")),
    "drazin": ("ratspec.drazin", (
        "drazin_inverse", "transfer", "proof_identities", "nilpotency_index")),
    "cli": ("ratspec.cli", (
        "parse_triple_document", "build_report", "run_verification")),
    "genlab": ("ratspec.genlab", ("generate", "rational_spectrum_instance")),
}

# span name of json.dump as called by the cli (the emit step)
EMIT_SPAN = "cli.emit"
STATS_SPAN = "trace.operand_stats"
KERNEL_SPANS = ("kernels.rref", "kernels.matmul")
_ABSENT = object()


def _operand_stats(name: str, args: tuple) -> tuple[int, int]:
    """(entries, max bit length) of the Fraction operands of a kernel call."""
    operands = args[2:3] if name == "kernels.rref" else args[3:5]
    entries = 0
    bits = 0
    for data in operands:
        entries += len(data)
        for x in data:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    return entries, bits


class Tracer:
    """Records spans around ratspec's layer boundaries while installed."""

    def __init__(self, layers: tuple[str, ...] = tuple(LAYERS)):
        self.layers = layers
        self.spans: list[list] = []   # [name, start, end, parent, doc]
        self.doc: object = None
        self.kernel_operands: dict[object, list[int]] = {}  # doc -> [entries, bits]
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        spans = self.spans
        stack = self._stack
        is_kernel = name in KERNEL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_kernel:
                # a span of its own, so that scanning operands is not
                # charged to the caller's self time
                rec = [STATS_SPAN, perf_counter(), 0.0, parent, tracer.doc]
                spans.append(rec)
                entries, bits = _operand_stats(name, args)
                acc = tracer.kernel_operands.setdefault(tracer.doc, [0, 0])
                acc[0] += entries
                acc[1] = max(acc[1], bits)
                rec[2] = perf_counter()
            rec = [name, perf_counter(), 0.0, parent, tracer.doc]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function and rebind all of its aliases."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        # import every layer first: a module imported after its callee was
        # wrapped would copy the wrapper and keep it after uninstall()
        for modname, _ in LAYERS.values():
            importlib.import_module(modname)
        for layer in self.layers:
            modname, paths = LAYERS[layer]
            module = sys.modules[modname]
            for path in paths:
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrapper = self._wrap(fn, f"{layer}.{path}")
                self._wrapped[id(fn)] = (fn, wrapper)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(wrapper))
                elif isinstance(raw, staticmethod):
                    self._set(owner, attr, staticmethod(wrapper))
                else:
                    self._set(owner, attr, wrapper)
        # aliases: every ratspec module global that holds an original
        for module in _ratspec_modules():
            for key, value in list(vars(module).items()):
                original, wrapper = self._wrapped.get(id(value), (_ABSENT, None))
                if original is value:
                    self._set(module, key, wrapper)
        if "cli" in self.layers:
            cli = sys.modules["ratspec.cli"]
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(json))
            proxy.dump = self._wrap(json.dump, EMIT_SPAN)
            self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        """Restore every binding install() changed, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._wrapped.clear()

    def unwrapped_aliases(self) -> list[str]:
        """Places under ratspec.* that still hold an unwrapped original."""
        def is_original(value) -> bool:
            return self._wrapped.get(id(value), (_ABSENT,))[0] is value

        left = []
        for module in _ratspec_modules():
            for key, value in vars(module).items():
                if is_original(value):
                    left.append(f"{module.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("ratspec"):
                    for attr, raw in vars(value).items():
                        if is_original(getattr(raw, "__func__", raw)):
                            left.append(f"{module.__name__}.{key}.{attr}")
        return left

    # -- metrics -----------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and kernel operand statistics."""
        self.spans.clear()
        self._stack.clear()
        self.kernel_operands.clear()

    def innermost_open(self) -> str | None:
        """Name of the innermost span still open, if any."""
        return self.spans[self._stack[-1]][0] if self._stack else None


def _ratspec_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ratspec" or name.startswith("ratspec."))]


def summarize(spans: list, docs: set | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds of outermost spans, self seconds.

    Only spans whose document id is in ``docs`` count (all when None). A
    span's self time is its duration minus the durations of its direct
    children; single-threaded spans nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, doc in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, doc) in enumerate(spans):
        if docs is not None and doc not in docs:
            continue
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
    return out
