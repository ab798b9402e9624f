"""Command-line surface: report, verify, generate, drazin.

Triples travel as JSON documents with every entry a rational string
("p/q" or "p"); floats are rejected so exactness survives serialization.
The machine-readable report dict is the source of truth; the printed tables
are rendered from it and never re-derive a verdict.

Exit codes: 0 = pass, 1 = verification failure, 2 = input/parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Any, Sequence

from ratspec import drazin, genlab, intertwine
from ratspec.intertwine import OperatorTriple
from ratspec.invariants import profile
from ratspec.ratmat import Mat, Poly, rank, rat

ENTRY_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

#: Largest --nmax accepted. Every sequence row past the operator dimension
#: is zero, and each row costs output, so a larger value exits 2.
NMAX_CEILING = 1000


class ParseError(ValueError):
    """Malformed document or unprintable result, with a field-level diagnostic."""


# ---------------------------------------------------------------------------
# document I/O

def _fraction(s: str, where: str) -> Fraction:
    # Python caps int-string conversion (4300 digits by default)
    try:
        return Fraction(s)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_entry(s: Any, where: str) -> tuple[int, int]:
    """The entry "p" or "p/q" as (p, q), not necessarily in lowest terms."""
    if not isinstance(s, str) or not ENTRY_RE.fullmatch(s):
        raise ParseError(f"{where}: {s!r} is not a rational string p or p/q")
    p, _, q = s.partition("/")
    # int() meets the same int-string limit, with the same message, as Fraction()
    try:
        return int(p), int(q) if q else 1
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_matrix(obj: Any, name: str, rows: int, cols: int) -> Mat:
    """The matrix of the entries' numerators over the lcm of their denominators;
    Mat.from_ints reduces it to lowest terms."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{name}: expected {rows} rows")
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{name}[{i}]: expected {cols} entries")
        for j, s in enumerate(row):
            entries.append(_parse_entry(s, f"{name}[{i}][{j}]"))
    den = lcm(*[q for _, q in entries])
    return Mat.from_ints(rows, cols, [p * (den // q) for p, q in entries], den)


def parse_triple_document(text: str) -> tuple[OperatorTriple, dict]:
    """Parse a JSON triple document; returns (triple, metadata)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("dim_x", "dim_y", "A", "B", "C"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    dim_x, dim_y = doc["dim_x"], doc["dim_y"]
    if any(not isinstance(d, int) or isinstance(d, bool) or d < 0
           for d in (dim_x, dim_y)):
        raise ParseError("dim_x and dim_y must be nonnegative integers")
    A = _parse_matrix(doc["A"], "A", dim_y, dim_x)
    B = _parse_matrix(doc["B"], "B", dim_x, dim_y)
    C = _parse_matrix(doc["C"], "C", dim_x, dim_y)
    metadata = doc.get("metadata", {})
    return OperatorTriple(A, B, C), metadata


def _matrix_doc(M: Mat, name: str) -> list[list[str]]:
    return [[_rat_str(x, f"{name}[{i}][{j}]") for j, x in enumerate(M.row(i))]
            for i in range(M.rows)]


def triple_document(t: OperatorTriple, metadata: dict | None = None) -> dict:
    doc = {
        "dim_x": t.dim_x,
        "dim_y": t.dim_y,
        "A": _matrix_doc(t.A, "A"),
        "B": _matrix_doc(t.B, "B"),
        "C": _matrix_doc(t.C, "C"),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def write_triple_document(t: OperatorTriple, path: str,
                          metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(triple_document(t, metadata), fh, indent=1)
        fh.write("\n")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# machine-readable reports

def _rat_str(x: Fraction, where: str) -> str:
    # the int-string limit that _fraction meets on input also caps output
    try:
        return str(x)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def build_report(t: OperatorTriple, lambdas: list[Fraction] | None,
                 n_max: int | None) -> dict:
    """Invariant tables for AC-lam and BA-lam at each probe, plus verdicts."""
    cond = intertwine.check_condition(t)
    report: dict[str, Any] = {
        "dim_x": t.dim_x,
        "dim_y": t.dim_y,
        "condition": {
            "holds": cond.holds,
            "residuals_zero": [m.is_zero() for m in cond.residuals],
        },
        "probes": [],
        "skipped_lambdas": [],
    }
    if not cond.holds:
        return report
    probes = lambdas if lambdas else intertwine.default_probes(t)
    for lam in probes:
        lam = rat(lam)
        if lam == 0:
            report["skipped_lambdas"].append(
                {"lambda": "0", "note": "the theorem excludes 0"})
            continue
        seq = intertwine.verify_sequence_equalities(t, lam, n_max)
        theo = intertwine.verify_theorem(t, [lam]).rows[0]
        ba, ac = t.chains(lam)  # the chains seq was read from
        prof_ac, prof_ba = profile(ac), profile(ba)
        report["probes"].append({
            "lambda": _rat_str(lam, "lambda"),
            "rows": [{"n": r.n, "c": [r.c_ac, r.c_ba], "cp": [r.cp_ac, r.cp_ba],
                      "k": [r.k_ac, r.k_ba], "hold": r.equal} for r in seq.rows],
            "totals": {"ac": list(seq.totals_ac), "ba": list(seq.totals_ba)},
            "asc": [seq.asc_ac, seq.asc_ba],
            "dsc": [seq.dsc_ac, seq.dsc_ba],
            "dis": [prof_ac.dis, prof_ba.dis],
            "essential_degrees": [prof_ac.asc_e, prof_ac.dsc_e, prof_ac.dis_e],
            "hyper_range_dim": [prof_ac.hyper_range.dim, prof_ba.hyper_range.dim],
            "hyper_kernel_dim": [prof_ac.hyper_kernel.dim, prof_ba.hyper_kernel.dim],
            "sequences_hold": seq.all_equal,
            "sigma_memberships": {
                "ac": list(theo.in_sigma_ac),
                "ba": list(theo.in_sigma_ba),
                "hold": theo.equal,
            },
        })
    return report


#: The polynomials Q of the inclusion-lemma check: x, x^2, x^3 and one cubic.
INCLUSION_QS = (Poly([0, 1]), Poly([0, 0, 1]), Poly([0, 0, 0, 1]),
                Poly(["3/2", "3/2", "-3/2", 1]))


def _map_witness(qm: intertwine.QuotientMap) -> str:
    """Why a quotient map fails, or "" when it is well defined and injective
    by both routes: the failure, the quotient dims and the matrix rank."""
    dims = f"source dim {qm.source_dim}, target dim {qm.target_dim}"
    if not qm.well_defined:
        return f"not well defined ({dims})"
    by_rank, by_preimage = qm.injective_by_rank(), qm.injective_by_preimage()
    if by_rank and by_preimage:
        return ""
    why = ("not injective" if by_rank == by_preimage else
           f"routes disagree (injective by rank {by_rank}, by preimage {by_preimage})")
    return f"{why} ({dims}, rank {rank(qm.matrix)})"


def run_verification(t: OperatorTriple, lambdas: list[Fraction] | None = None,
                     n_max: int | None = None) -> dict:
    """The full verifier battery; the exit-status contract reads its verdicts.

    Checks: intertwining condition, inclusion lemma over INCLUSION_QS,
    well-definedness and two-way injectivity of the three quotient maps,
    sequence equalities, pointwise regularity-spectrum agreement, nonzero
    charpoly match, shift operators for n <= 4, Drazin transfer and the
    transfer proof identities.
    """
    checks: list[dict[str, Any]] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    cond = intertwine.check_condition(t)
    add("condition", cond.holds,
        "" if cond.holds else "intertwining condition violated")
    if cond.holds:
        probes = lambdas if lambdas else intertwine.default_probes(t)
        probes = [rat(x) for x in probes]
        nonzero = [x for x in probes if x != 0]
        top = n_max if n_max is not None else max(t.dim_x, t.dim_y)

        qs_ok = all(intertwine.inclusion_lemma(t, q).all_hold for q in INCLUSION_QS)
        add("inclusion_lemma", qs_ok)

        failed: list[str] = []
        for lam in nonzero:
            # once both chains are stable, every later n has the same four
            # subspaces and the same carrier, so the same map as at stop
            ba, ac = t.chains(lam)
            stop = min(top, max(ba.stable, ac.stable))
            for n in range(stop + 1):
                for name, builder in (("gamma", intertwine.gamma_map),
                                      ("psi", intertwine.psi_map),
                                      ("phi", intertwine.phi_map)):
                    witness = _map_witness(builder(t, n, lam))
                    if witness:
                        failed.append(f"{name} at lambda={lam}, n={n}: {witness}")
        add("quotient_maps", not failed,
            f"{len(failed)} map(s) failed; first: {failed[0]}" if failed else "")

        seq_ok = all(intertwine.verify_sequence_equalities(t, lam, top).all_equal
                     for lam in nonzero)
        add("sequence_equalities", seq_ok)

        theo = intertwine.verify_theorem(t, probes)
        failing = [row for row in theo.rows if not row.equal]
        notes = [f"first failing lambda={failing[0].lam}: membership in sigma_Ri(AC) "
                 f"and sigma_Ri(BA) differs for i in {list(failing[0].mismatches)}"
                 ] if failing else []
        if theo.skipped:
            notes.append(f"skipped {len(theo.skipped)} zero probe(s)")
        add("theorem_memberships", theo.all_equal, "; ".join(notes))

        add("charpoly_match", intertwine.nonzero_charpoly_match(t))

        try:
            intertwine.shift_polys(t, 4)  # checks every n = 1..4 on the way
            shift_detail = ""
        except ArithmeticError as exc:
            shift_detail = str(exc)
        add("shift_polys", not shift_detail, shift_detail)

        tr = drazin.transfer(t)
        add("drazin_transfer", tr.verified and tr.matches_direct)
        pi = drazin.proof_identities(t, tr)
        add("drazin_proof_identities",
            pi.commutation and pi.residual_is_bpa and pi.cycle
            and pi.pac_matches and pi.pac_nilpotent)

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


def build_drazin_report(t: OperatorTriple) -> dict:
    tr = drazin.transfer(t)
    pi = drazin.proof_identities(t, tr)
    return {
        "index_ac": tr.s_ac.index,
        "S": _matrix_doc(tr.s_ac.inverse, "S"),
        "T": _matrix_doc(tr.candidate, "T"),
        "identities": {
            "commutes": tr.commutes,
            "inner": tr.inner,
            "residual_nilpotent": tr.residual_nilpotent,
            "matches_direct": tr.matches_direct,
        },
        # a zero residual (index 1, or 0 on a 0x0 space) is reported as 0
        "residual_nilpotency_index": 0 if tr.residual_index == 1 else tr.residual_index,
        "proof_identities": {
            "commutation": pi.commutation,
            "residual_is_bpa": pi.residual_is_bpa,
            "cycle": pi.cycle,
            "pac_matches": pi.pac_matches,
            "pac_nilpotent": pi.pac_nilpotent,
        },
        "verified": tr.verified and tr.matches_direct,
    }


# ---------------------------------------------------------------------------
# rendering (derived strictly from the machine report)

def _render_report(report: dict, out) -> None:
    cond = report["condition"]
    print(f"dims: X = Q^{report['dim_x']}, Y = Q^{report['dim_y']}", file=out)
    print(f"condition: {'HOLDS' if cond['holds'] else 'VIOLATED'}", file=out)
    for probe in report["probes"]:
        lam = probe["lambda"]
        print(f"\nlambda = {lam}", file=out)
        print("   n | c(AC) c(BA) | c'(AC) c'(BA) | k(AC) k(BA) |", file=out)
        for row in probe["rows"]:
            mark = "HOLD" if row["hold"] else "FAIL"
            print(f"  {row['n']:2d} | {row['c'][0]:5d} {row['c'][1]:5d} "
                  f"| {row['cp'][0]:6d} {row['cp'][1]:6d} "
                  f"| {row['k'][0]:5d} {row['k'][1]:5d} | {mark}", file=out)
        tac, tba = probe["totals"]["ac"], probe["totals"]["ba"]
        print(f"  totals (c, c', k): AC-{lam} = {tuple(tac)}, "
              f"BA-{lam} = {tuple(tba)}", file=out)
        print(f"  asc = {probe['asc']}, dsc = {probe['dsc']}, "
              f"dis = {probe['dis']}", file=out)
        print(f"  hyper-range dims = {probe['hyper_range_dim']}, "
              f"hyper-kernel dims = {probe['hyper_kernel_dim']}", file=out)
        sig = probe["sigma_memberships"]
        mark = "HOLD" if sig["hold"] else "FAIL"
        members = [i + 1 for i, v in enumerate(sig["ac"]) if v]
        print(f"  sigma_R membership (i with lambda in sigma_Ri(AC)): "
              f"{members} ... {mark}", file=out)
    for sk in report["skipped_lambdas"]:
        print(f"\nlambda = {sk['lambda']} skipped: {sk['note']}", file=out)


def _render_checks(result: dict, out) -> None:
    for c in result["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        print(f"{mark}  {c['name']}{detail}", file=out)
    print("verification:", "PASS" if result["passed"] else "FAIL", file=out)


def _render_drazin(report: dict, out) -> None:
    print(f"Drazin index of AC: {report['index_ac']}", file=out)
    print("S (Drazin inverse of AC):", file=out)
    for row in report["S"]:
        print("   " + "  ".join(row), file=out)
    print("T = B S^2 A:", file=out)
    for row in report["T"]:
        print("   " + "  ".join(row), file=out)
    for name, val in report["identities"].items():
        print(f"{'PASS' if val else 'FAIL'}  {name}", file=out)
    print(f"nilpotency index of (BA)^2 T - BA: "
          f"{report['residual_nilpotency_index']}", file=out)
    for name, val in report["proof_identities"].items():
        print(f"{'PASS' if val else 'FAIL'}  proof.{name}", file=out)


# ---------------------------------------------------------------------------
# commands

def _lambda_args(values: list[str] | None) -> list[Fraction] | None:
    if not values:
        return None
    out = []
    for v in values:
        if not ENTRY_RE.fullmatch(v):
            raise ParseError(f"--lambda {v!r} is not a rational p or p/q")
        out.append(_fraction(v, "--lambda"))
    return out


def cmd_report(args) -> int:
    t, _ = parse_triple_document(_read(args.file))
    report = build_report(t, _lambda_args(args.lam), args.nmax)
    if not report["condition"]["holds"]:
        print("warning: intertwining condition violated; "
              "sequence tables are not expected to agree", file=sys.stderr)
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        print()
    else:
        _render_report(report, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    t, _ = parse_triple_document(_read(args.file))
    lambdas = _lambda_args(args.lam)
    if not t.condition_holds:
        if args.strict:
            print("condition violated", file=sys.stderr)
            return EXIT_FAIL
        print("warning: intertwining condition violated", file=sys.stderr)
    result = run_verification(t, lambdas, args.nmax)
    if args.json:
        json.dump(result, sys.stdout, indent=1)
        print()
    else:
        _render_checks(result, sys.stdout)
    if not result["passed"]:
        failing = next(c["name"] for c in result["checks"] if not c["passed"])
        print(f"first failing check: {failing}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        if args.template == "rational_spectrum":
            spec = genlab.GenSpec(template="c_equals_b", block_dim=args.dim,
                                  seed=args.seed, entry_bound=args.entry_bound)
            t = genlab.rational_spectrum_instance(spec)
        else:
            spec = genlab.GenSpec(template=args.template, block_dim=args.dim,
                                  seed=args.seed, entry_bound=args.entry_bound)
            t = genlab.generate(spec)
    except (ValueError, genlab.GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    meta = {"template": args.template, "seed": args.seed}
    if args.out:
        try:
            write_triple_document(t, args.out, meta)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote {args.out}")
    else:
        json.dump(triple_document(t, meta), sys.stdout, indent=1)
        print()
    return EXIT_OK


def cmd_drazin(args) -> int:
    t, _ = parse_triple_document(_read(args.file))
    if not t.condition_holds:
        print("condition violated: the transfer theorem hypothesis fails",
              file=sys.stderr)
        return EXIT_FAIL
    report = build_drazin_report(t)
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        print()
    else:
        _render_drazin(report, sys.stdout)
    return EXIT_OK if report["verified"] else EXIT_FAIL


def _nmax(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    if value > NMAX_CEILING:
        raise argparse.ArgumentTypeError(f"{value} exceeds the ceiling {NMAX_CEILING}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as
    it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="ratspec",
        description="Exact verification of common spectral properties of "
                    "operator products AC and BA.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="invariant tables for a triple document")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", action="append", metavar="p/q",
                   help="probe value, repeatable (default: auto)")
    p.add_argument("--nmax", type=_nmax, default=None,
                   help=f"largest sequence index, at most {NMAX_CEILING}")
    p.add_argument("--json", action="store_true", help="emit the machine report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run the full verifier battery")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", action="append", metavar="p/q")
    p.add_argument("--nmax", type=_nmax, default=None)
    p.add_argument("--strict", action="store_true",
                   help="fail immediately if the condition is violated")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a generated triple document")
    p.add_argument("--template", required=True,
                   choices=genlab.TEMPLATES + ("rational_spectrum",))
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("drazin", help="Drazin transfer report for a document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_drazin)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
