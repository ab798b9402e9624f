#!/usr/bin/env python3
"""Digests of ratspec's command output, for byte-identity checks.

    python3 tools/output_digests.py [--root CHECKOUT] > digests.txt

Runs `ratspec.cli.main` in-process, with stdout captured, and prints one
line per run: a label, the exit code and the SHA-256 of stdout. The runs are
- `verify`, `verify --json`, `verify --json` with verify_wide's flags,
  `report --json`, `report --json` with verify_wide's flags (explicit
  probes, where the chains still read the charpolys) and `drazin --json`
  on the first-round documents of the three ratbench workloads at seeds 11
  and 12 (36 documents a seed, some of them nonconforming);
- `verify` and `report` on the 202 triples of the acceptance corpus
  (`corpus_triples` in tests/test_acceptance.py);
- `verify --json`, `report --json` and `drazin --json` at the scale
  target: c_equals_b, aba_eq_aca, conjugated and direct_sum at dim 24 and
  rational_spectrum at dim 22, seed 3, entry bound 2, whose operands reach
  hundreds of bits (`report` lists the probes, the rational roots of
  charpolys of degree 22-24, which `verify` does not print);
- `verify --json` and `report --json` on paper_ex1 and paper_ex2 at block
  dim 12 (36 x 36), the templates with ABA != ACA, whose condition
  residuals take every product, and on nonconforming at dim 24, seed 3,
  entry bound 2;
- `generate` to stdout for every template at dims 2, 8 and the cap (24,
  or 22 for rational_spectrum), seeds 0-2, default entry bound;
- `verify`, `verify --json`, `report --json`, `drazin` and `drazin --json`
  on the zero triples with (dim_x, dim_y) = (0, 0), (0, 3) and (3, 0), where
  AC or BA acts on the empty space: its nilpotency index is 0 by convention
  and its Drazin inverse is the empty matrix;
- `verify`, `verify --json`, `report --json` and `drazin --json` on the two
  documents whose inclusion lemma meets a singular Q(T - I) for the cubic
  Q of `cli.INCLUSION_QS` (`singular_inclusion_triples`);
- `report --json`, `report --json --nmax 1`, `report`, `verify --json`
  and `verify` with repeated, interleaved explicit probes on
  rational_spectrum at dim 3, seed 1, whose probes 2, 1 and 3 share the
  identity's chain pair and 1/2 and -1/2 have pairs of their own, and on
  aba_eq_aca at dim 4, seed 2, where every nonzero probe is on the
  identity's pair (`SHARED_BLOCKS`): a chain pair that probes share is met
  again after another pair's. `report --json` runs once more with each
  probe as the word after its `--lambda`, as in `--lambda -1/2`, where the
  others give `--lambda=-1/2`.
The last line counts the runs (964). The documents are generated by the
checkout's own genlab, so a change to generation shows too.

Run it once on each of two checkouts (`--root` names one; the default is
the checkout holding this script) and compare the outputs with `diff`: an
empty diff means every output and exit code is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (11, 12)


def _run(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _ratbench_runs(workdir: Path):
    """(label, argv) of every run on the ratbench first-round documents."""
    workloads = importlib.import_module("workloads")
    wide_flags = list(workloads.WORKLOADS["verify_wide"].flags)
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            where = workdir / f"{name}-{seed}"
            where.mkdir()
            for doc in next(workloads.iter_rounds(workload, seed, where)):
                path = str(doc.path)
                label = f"{doc.doc_id} {doc.template} dim {doc.dim}"
                yield f"{label} verify-text", ["verify", path]
                yield f"{label} verify", ["verify", path, "--json"]
                yield f"{label} verify-wide", ["verify", path, *wide_flags]
                yield f"{label} report", ["report", path, "--json"]
                yield f"{label} report-wide", ["report", path, *wide_flags]
                yield f"{label} drazin", ["drazin", path, "--json"]


def _acceptance_runs(workdir: Path):
    """(label, argv) of `verify` and `report` on the acceptance corpus."""
    acceptance = importlib.import_module("test_acceptance")
    from ratspec import cli

    for i, (template, t) in enumerate(acceptance.corpus_triples()):
        path = workdir / f"acceptance{i:03d}.json"
        cli.write_triple_document(t, str(path))
        label = f"acceptance/{i} {template}"
        yield f"{label} verify", ["verify", str(path)]
        yield f"{label} report", ["report", str(path)]


#: (template, dim) of the scale-target documents, all at seed 3, entry bound 2
SCALE_TARGET = (("c_equals_b", 24), ("aba_eq_aca", 24), ("conjugated", 24),
                ("direct_sum", 24), ("rational_spectrum", 22))


def _scale_target_runs(workdir: Path):
    """(label, argv) of `verify --json`, `report --json` and `drazin --json`
    at the scale target."""
    from ratspec import cli, genlab

    for template, dim in SCALE_TARGET:
        t = genlab.generate(genlab.GenSpec(template=template, block_dim=dim,
                                           seed=3, entry_bound=2))
        path = workdir / f"{template}-{dim}.json"
        cli.write_triple_document(t, str(path))
        label = f"scale/{template} dim {dim}"
        yield f"{label} verify", ["verify", str(path), "--json"]
        yield f"{label} report", ["report", str(path), "--json"]
        yield f"{label} drazin", ["drazin", str(path), "--json"]


#: (template, block dim) of the documents whose condition residuals take
#: every product (ABA != ACA), all at seed 3, entry bound 2
RESIDUAL_PATH = (("paper_ex1", 12), ("paper_ex2", 12), ("nonconforming", 24))


def _residual_path_runs(workdir: Path):
    """(label, argv) of `verify --json` and `report --json` where ABA != ACA."""
    from ratspec import cli, genlab

    for template, dim in RESIDUAL_PATH:
        t = genlab.generate(genlab.GenSpec(template=template, block_dim=dim,
                                           seed=3, entry_bound=2))
        path = workdir / f"{template}-{dim}.json"
        cli.write_triple_document(t, str(path))
        label = f"residuals/{template} dim {dim}"
        yield f"{label} verify", ["verify", str(path), "--json"]
        yield f"{label} report", ["report", str(path), "--json"]


def _generate_runs():
    """(label, argv) of `generate` to stdout for every template."""
    from ratspec import genlab

    for template in genlab.TEMPLATES:
        cap = 22 if template == "rational_spectrum" else 24
        for dim in (2, 8, cap):
            for seed in range(3):
                yield (f"generate/{template} dim {dim} seed {seed}",
                       ["generate", "--template", template, "--dim", str(dim),
                        "--seed", str(seed)])


#: (dim_x, dim_y) of the zero triples with an empty space
ZERO_DIM = ((0, 0), (0, 3), (3, 0))


def _zero_dim_runs(workdir: Path):
    """(label, argv) of every command on the zero triples with an empty space."""
    from ratspec import cli
    from ratspec.intertwine import OperatorTriple
    from ratspec.ratmat import Mat

    for dx, dy in ZERO_DIM:
        t = OperatorTriple(Mat.zero(dy, dx), Mat.zero(dx, dy), Mat.zero(dx, dy))
        path = str(workdir / f"zero-{dx}x{dy}.json")
        cli.write_triple_document(t, path)
        label = f"zero-dim/{dx}x{dy}"
        yield f"{label} verify-text", ["verify", path]
        yield f"{label} verify", ["verify", path, "--json"]
        yield f"{label} report", ["report", path, "--json"]
        yield f"{label} drazin-text", ["drazin", path]
        yield f"{label} drazin", ["drazin", path, "--json"]


def singular_inclusion_triples():
    """(label, triple) of the documents whose inclusion lemma evaluates a
    singular Q(T - I), Q the cubic of cli.INCLUSION_QS.

    A = I_4 and B = C = companion(Q(x - 1)) + [2], with
    Q(x - 1) = x^3 - 9/2 x^2 + 15/2 x - 5/2, so Q(T - I) has rank 1; and a
    genlab.conjugate copy of it, where BA and AC differ.
    """
    import random
    from fractions import Fraction

    from ratspec import genlab
    from ratspec.intertwine import OperatorTriple
    from ratspec.ratmat import Mat

    half = Fraction(1, 2)
    T = Mat.from_rows([[0, 0, 5 * half, 0], [1, 0, -15 * half, 0],
                       [0, 1, 9 * half, 0], [0, 0, 0, 2]])
    t = OperatorTriple(Mat.identity(4), T, T)
    rng = random.Random(0)
    U, V = (genlab.random_unimodular(rng, 4, 1) for _ in range(2))
    return [("companion", t), ("conjugated", genlab.conjugate(t, U, V))]


def _singular_inclusion_runs(workdir: Path):
    """(label, argv) of the commands on the singular inclusion documents."""
    from ratspec import cli

    for name, t in singular_inclusion_triples():
        path = str(workdir / f"singular-inclusion-{name}.json")
        cli.write_triple_document(t, path)
        label = f"singular-inclusion/{name}"
        yield f"{label} verify-text", ["verify", path]
        yield f"{label} verify", ["verify", path, "--json"]
        yield f"{label} report", ["report", path, "--json"]
        yield f"{label} drazin", ["drazin", path, "--json"]


#: (template, block dim, seed, probes) of the documents whose report probes
#: share chain pairs, probes in the order given on the command line
SHARED_BLOCKS = (("rational_spectrum", 3, 1, ("2", "1/2", "1", "0", "2", "-1/2",
                                             "1/2", "3")),
                 ("aba_eq_aca", 4, 2, ("2", "1", "2", "1/2")))


def _shared_block_runs(workdir: Path):
    """(label, argv) of `report` and `verify` with probes that meet one
    chain pair again."""
    from ratspec import cli, genlab

    for template, dim, seed, probes in SHARED_BLOCKS:
        t = genlab.generate(genlab.GenSpec(template=template, block_dim=dim,
                                           seed=seed))
        path = str(workdir / f"shared-{template}-{dim}.json")
        cli.write_triple_document(t, path)
        flags = [f"--lambda={lam}" for lam in probes]
        label = f"shared-blocks/{template} dim {dim} seed {seed}"
        yield f"{label} report", ["report", path, *flags, "--json"]
        # each value after its own --lambda, -1/2 too: the same bytes
        spaced = [arg for lam in probes for arg in ("--lambda", lam)]
        yield f"{label} report-spaced", ["report", path, *spaced, "--json"]
        yield f"{label} report-nmax", ["report", path, *flags, "--nmax", "1", "--json"]
        yield f"{label} report-text", ["report", path, *flags]
        yield f"{label} verify", ["verify", path, *flags, "--json"]
        yield f"{label} verify-text", ["verify", path, *flags]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the source checkout to run (default: this one)")
    root = parser.parse_args().root.resolve()
    for sub in ("src", "ratbench", "tests"):
        sys.path.insert(0, str(root / sub))
    from ratspec import cli

    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for runs in (_ratbench_runs(workdir), _acceptance_runs(workdir),
                     _scale_target_runs(workdir), _residual_path_runs(workdir),
                     _generate_runs(), _zero_dim_runs(workdir),
                     _singular_inclusion_runs(workdir),
                     _shared_block_runs(workdir)):
            for label, argv in runs:
                code, digest = _run(cli, argv)
                print(f"{label} exit {code} {digest}")
                count += 1
    print(f"{count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
