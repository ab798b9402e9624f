"""The three workloads and their seeded documents.

A seed gives an endless sequence of rounds; every round holds one document
per cell (template, block dimension, entry bound) in a fixed cell order, so
every seed gets the same mix and only the random entries change. Documents
are generated with ratspec's own generators (``genlab``) and serializer
(``cli``); generating the first round is part of the set-up the benchmark
reports as ``setup_s``, and later rounds are generated as a run needs them.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # ratspec subcommand; the file goes second
    flags: tuple[str, ...]          # arguments after the file
    cells: tuple[tuple[str, int, int], ...]   # (template, block_dim, entry_bound)
    tail_pct: int                   # percentile reported as doc_tail_ms
    traced_docs: int                # leading documents a traced run uses


# Cell orders interleave cheap and costly documents. rational_spectrum
# documents cost 0.3-1.1 s depending on how many rational eigenvalues a draw
# has, so report_auto has one such cell: its p80 tail then falls among the
# steadier documents instead of on the edge of that spread.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # the tier-1/acceptance shape: every template at dims 2..8 and
    # nonconforming negative controls; quotient maps dominate. By latency the
    # median falls inside the dims-3/4 group (c_equals_b 4 .. rational_spectrum
    # 3, cells 9-13 of 22) and p75 inside the aba_eq_aca 5 .. paper example
    # group (cells 14-17), not on the gap below the dims-6 documents
    Workload(
        name="verify_corpus",
        command="verify", flags=("--json",),
        cells=(("c_equals_b", 3, 3), ("aba_eq_aca", 7, 2),
               ("nonconforming", 3, 3), ("paper_ex1", 2, 2),
               ("conjugated", 4, 2), ("c_equals_b", 6, 2),
               ("aba_eq_aca", 2, 3), ("direct_sum", 6, 2),
               ("rational_spectrum", 3, 2), ("nonconforming", 8, 2),
               ("aba_eq_aca", 4, 3), ("c_equals_b", 8, 2),
               ("conjugated", 2, 2), ("paper_ex2", 2, 2),
               ("c_equals_b", 4, 2), ("nonconforming", 6, 2),
               ("rational_spectrum", 5, 2), ("c_equals_b", 2, 3),
               ("direct_sum", 4, 2), ("aba_eq_aca", 5, 2),
               ("conjugated", 5, 2), ("nonconforming", 5, 2)),
        tail_pct=75, traced_docs=22),
    # larger operators at fixed probes: no eigenvalue search, few quotient
    # map indices, kernel work on wide operands dominates
    Workload(
        name="verify_wide",
        command="verify",
        flags=("--json", "--lambda", "1", "--lambda", "2", "--lambda", "1/2",
               "--nmax", "1"),
        cells=(("c_equals_b", 11, 2), ("aba_eq_aca", 10, 2),
               ("direct_sum", 12, 2), ("paper_ex1", 4, 1),
               ("c_equals_b", 10, 2), ("aba_eq_aca", 11, 2)),
        tail_pct=66, traced_docs=6),
    # default probes without the verifier battery: the invariant profiles and
    # the rational eigenvalue search; no quotient maps, no Drazin code.
    # aba_eq_aca and conjugated stay at dim 9: from dim 10 on, some of their
    # draws stall in the eigenvalue search past any budget
    Workload(
        name="report_auto",
        command="report", flags=("--json",),
        cells=(("aba_eq_aca", 9, 2), ("c_equals_b", 10, 2),
               ("conjugated", 9, 2), ("rational_spectrum", 10, 2),
               ("aba_eq_aca", 9, 2), ("c_equals_b", 9, 2),
               ("conjugated", 9, 2), ("c_equals_b", 10, 2)),
        tail_pct=80, traced_docs=10),
)}


@dataclass(frozen=True)
class Document:
    doc_id: str
    template: str
    dim: int            # dimension of X
    gen_seed: int
    path: Path

    @property
    def conforming(self) -> bool:
        return self.template != "nonconforming"


def _random_idempotent(genlab, ratmat, block_dim: int, rng: random.Random):
    """U diag(1..1, 0..0) U^-1 with a random unimodular U: a nontrivial P."""
    rank = rng.randint(1, block_dim - 1)
    U = genlab.random_unimodular(rng, block_dim, 1)
    D = ratmat.Mat(block_dim, block_dim,
                   [1 if i == j and i < rank else 0
                    for i in range(block_dim) for j in range(block_dim)])
    return U @ D @ ratmat.inverse(U)


def make_triple(template: str, block_dim: int, entry_bound: int, gen_seed: int):
    """One generated OperatorTriple for a cell, deterministic in gen_seed."""
    from ratspec import genlab, ratmat

    if template == "rational_spectrum":
        return genlab.rational_spectrum_instance(genlab.GenSpec(
            template="c_equals_b", block_dim=block_dim, seed=gen_seed,
            entry_bound=entry_bound))
    if template in ("paper_ex1", "paper_ex2") and block_dim > 2:
        P = _random_idempotent(genlab, ratmat, block_dim, random.Random(gen_seed))
        return genlab.paper_example(1 if template == "paper_ex1" else 2, P)
    return genlab.generate(genlab.GenSpec(
        template=template, block_dim=block_dim, seed=gen_seed,
        entry_bound=entry_bound))


def iter_rounds(workload: Workload, seed: int, workdir: Path) -> Iterator[list[Document]]:
    """Generate and write the workload's rounds for one seed, one at a time."""
    from ratspec import cli

    rng = random.Random(f"{workload.name}:{seed}")
    n = 0
    while True:
        docs = []
        for template, block_dim, bound in workload.cells:
            gen_seed = rng.randrange(1 << 30)
            t = make_triple(template, block_dim, bound, gen_seed)
            doc_id = f"{workload.name}/{seed}/{n}"
            path = workdir / f"doc{n:04d}.json"
            meta = {"template": template, "seed": gen_seed}
            path.write_text(json.dumps(cli.triple_document(t, meta)),
                            encoding="utf-8")
            docs.append(Document(doc_id, template, t.dim_x, gen_seed, path))
            n += 1
        yield docs

