#!/usr/bin/env python3
"""Interleaved in-process A/B timing of two checkouts on ratbench's documents.

    python3 tools/ab_inprocess.py BASE CHANGE [--seed 11]

BASE and CHANGE are source checkouts. Each one's `ratspec` is loaded into
this one process under its own package name (`ratspec_base`,
`ratspec_change`), so both run on the same interpreter, heap and moment of
the machine. The documents are the first ROUNDS rounds of each workload at
SEED, written by `iter_rounds` of BASE's `ratbench/workloads.py` (the only
ratbench file read) with BASE's generators. Every pass runs each document
through both sides, one after the other, `cli.main` with the workload's
command and flags, and alternates which side goes first from document to
document and from pass to pass; there are PASSES timed passes.

A first, untimed pass checks that both sides print the same stdout and
return the same exit code on every document, and stops with status 1 at the
first difference; it also counts each side's `kernels.matmul` and
`kernels.rref` calls and its invertibility decisions (the calls of
`hyper_kernel_dim` that `intertwine` makes), which are deterministic. Then,
per workload, it prints the sum over the documents of each side's fastest
run (the per-document-minimum total, in ms), their ratio, in how many
passes the change's total was the smaller one, and each side's counts.

Separate benchmark runs on a shared, noisy machine can swing by tens of
percent between runs; interleaving both sides document by document in one
process exposes them to the same noise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
import time
from pathlib import Path

#: Rounds of each workload's documents, and timed passes over them.
ROUNDS = 3
PASSES = 9

#: (module, function) of the calls the untimed pass counts, each under its
#: function's name: the two kernels, and the invertibility decisions, which
#: intertwine makes through its own name for hyper_kernel_dim.
COUNTED = (("ratspec.kernels", "matmul"), ("ratspec.kernels", "rref"),
           ("ratspec.intertwine", "hyper_kernel_dim"))


class Side:
    """One checkout's ratspec, kept in sys.modules under its own name and
    put back under the name `ratspec` for the length of each call."""

    def __init__(self, name: str, root: Path):
        self.name = name
        self.modules = _load_ratspec(root / "src")
        for key, module in self.modules.items():
            sys.modules[name + key[len("ratspec"):]] = module
        self.cli = self.modules["ratspec.cli"]

    @contextlib.contextmanager
    def active(self):
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            for key in self.modules:
                sys.modules.pop(key, None)

    @contextlib.contextmanager
    def counting(self, counts: dict[str, int]):
        """Count the calls of each of COUNTED into counts while active."""
        real = {name: getattr(self.modules[module], name) for module, name in COUNTED}

        def counted(name):
            def call(*args):
                counts[name] += 1
                return real[name](*args)
            return call

        for module, name in COUNTED:
            setattr(self.modules[module], name, counted(name))
        try:
            yield
        finally:
            for module, name in COUNTED:
                setattr(self.modules[module], name, real[name])

    def run(self, argv: list[str]) -> tuple[int, str, float]:
        """(exit code, stdout, seconds) of one cli.main call."""
        out = io.StringIO()
        with self.active(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed


def _load_ratspec(src: Path) -> dict[str, object]:
    """Import ratspec and all its modules from src; return them by name and
    leave no `ratspec` entry in sys.modules."""
    for key in [k for k in sys.modules if k == "ratspec" or k.startswith("ratspec.")]:
        del sys.modules[key]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("ratspec")
        for path in sorted((src / "ratspec").glob("*.py")):
            if path.stem != "__init__":
                importlib.import_module(f"ratspec.{path.stem}")
    finally:
        sys.path.remove(str(src))
    modules = {k: m for k, m in sys.modules.items()
               if k == "ratspec" or k.startswith("ratspec.")}
    for key in modules:
        del sys.modules[key]
    return modules


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location(
        "_ab_workloads", root / "ratbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    base = Side("ratspec_base", args.base.resolve())
    change = Side("ratspec_change", args.change.resolve())
    workloads = _load_workloads(args.base.resolve())

    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            where = Path(tmp) / name
            where.mkdir()
            with base.active():
                rounds = workloads.iter_rounds(workload, args.seed, where)
                docs = [doc for _ in range(ROUNDS) for doc in next(rounds)]
            argvs = [[workload.command, str(doc.path), *workload.flags] for doc in docs]
            counts = {side.name: dict.fromkeys([name for _, name in COUNTED], 0)
                      for side in (base, change)}
            for i, argv in enumerate(argvs):
                results = {}
                for side in (base, change):
                    with side.counting(counts[side.name]):
                        results[side.name] = side.run(argv)[:2]
                if results[base.name] != results[change.name]:
                    print(f"{name}: outputs differ on {docs[i].doc_id} "
                          f"({docs[i].template} dim {docs[i].dim})")
                    return 1
            best = {side.name: [float("inf")] * len(argvs) for side in (base, change)}
            wins = 0
            for p in range(PASSES):
                totals = {base.name: 0.0, change.name: 0.0}
                for i, argv in enumerate(argvs):
                    order = (base, change) if (i + p) % 2 == 0 else (change, base)
                    for side in order:
                        elapsed = side.run(argv)[2]
                        totals[side.name] += elapsed
                        best[side.name][i] = min(best[side.name][i], elapsed)
                wins += totals[change.name] < totals[base.name]
            b, c = (sum(best[side.name]) * 1000 for side in (base, change))
            calls = "; ".join(
                f"{label} " + ", ".join(f"{counted} {n}" for counted, n in
                                        counts[side.name].items())
                for label, side in (("base", base), ("change", change)))
            print(f"{name} seed {args.seed}, {len(argvs)} documents: per-document-"
                  f"minimum total base {b:.1f} ms, change {c:.1f} ms "
                  f"(change/base {c / b:.3f}); change faster in {wins} of "
                  f"{PASSES} passes; calls {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
