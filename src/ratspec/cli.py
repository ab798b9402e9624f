"""Command-line surface: report, verify, generate, drazin.

Triples travel as JSON documents with every entry a rational string
("p/q" or "p"); floats are rejected so exactness survives serialization.
The machine-readable report dict is the source of truth; the printed tables
are rendered from it and never re-derive a verdict.

Every JSON document ratspec writes (a report, a triple document) comes from
one writer, _write_json: the bytes json.dump(obj, fh, indent=1) writes and a
newline, built as one string from C-escaped strings and int reprs and
written at once. A container met again at the same indent, such as the
block that report probes on one chain pair share or a row that blocks on
different pairs share, is rendered once. On input, each matrix entry is
checked against ENTRY_RE and read as integers; its field label, such as
A[1][2], is formed only for the error message. A --lambda value goes
through the same check, and a negative one may be the next word, as in
--lambda -1/2.

Exit codes: 0 = pass, 1 = verification failure, 2 = input/parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Any, Sequence

from ratspec import drazin, genlab, intertwine
from ratspec.intertwine import OperatorTriple
from ratspec.invariants import PowerChain, profile
from ratspec.ratmat import Mat, Poly, rank, rat

ENTRY_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

#: Largest --nmax accepted. Every sequence row past the operator dimension
#: is zero, and each row costs output, so a larger value exits 2.
NMAX_CEILING = 1000

#: Largest dim_x or dim_y a document may declare: the largest that generate
#: writes (paper_ex at block dim 24). The dense work grows about as dim^2.5,
#: so a document of a few KB above it could run for minutes; it exits 2.
DIM_CEILING = 72


class ParseError(ValueError):
    """Malformed document or unprintable result, with a field-level diagnostic."""


# ---------------------------------------------------------------------------
# document I/O

def _parse_matrix(obj: Any, name: str, rows: int, cols: int) -> Mat:
    """The matrix of the entries' numerators over the lcm of their denominators;
    Mat.from_ints reduces it to lowest terms."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{name}: expected {rows} rows")
    match = ENTRY_RE.fullmatch
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{name}[{i}]: expected {cols} entries")
        for j, s in enumerate(row):
            if not isinstance(s, str) or not match(s):
                raise ParseError(f"{name}[{i}][{j}]: {s!r} is not a rational "
                                 "string p or p/q")
            p, _, q = s.partition("/")
            # Python caps int-string conversion (4300 digits by default)
            try:
                entries.append((int(p), int(q) if q else 1))
            except ValueError as exc:
                raise ParseError(f"{name}[{i}][{j}]: {exc}") from exc
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
    if max(dim_x, dim_y) > DIM_CEILING:
        raise ParseError(f"dim_x and dim_y are capped at {DIM_CEILING}, "
                         f"got ({dim_x}, {dim_y})")
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


#: The text of each JSON scalar ratspec writes, by exact type.
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _json_text(obj: Any, newline: str, memo: dict[tuple[int, str], str]) -> str:
    """obj as json.dump(obj, fh, indent=1) writes it; newline is the line
    break and indent before obj's closing bracket. Keys must be strings. A
    float, a Fraction or any other type raises TypeError: ratspec writes
    none of them (json.dump too raises it for a Fraction).

    memo maps (id(container), newline) to the container's text, so a list
    or dict met again at the same indent, such as the block that probes on
    one chain pair share (build_report), is rendered once. It lives for one
    _write_json call, while the document holds every container and so no
    id is reused, and the document must not change during it.
    """
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    memo_key = (id(obj), newline)
    text = memo.get(memo_key)
    if text is not None:
        return text
    inner = newline + " "
    if isinstance(obj, dict):
        text = "{}" if not obj else ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(value, inner, memo)
            for key, value in obj.items()]) + newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            text = "[]"
        else:
            try:  # a list of scalars in one pass
                items = [_SCALAR_TEXT[type(x)](x) for x in obj]
            except KeyError:
                items = [_json_text(x, inner, memo) for x in obj]
            text = "[" + inner + ("," + inner).join(items) + newline + "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    memo[memo_key] = text
    return text


def _write_json(obj: dict, fh) -> None:
    """obj as indented JSON and a newline, in one write: every JSON document
    ratspec writes, byte for byte what json.dump(obj, fh, indent=1) writes
    before the newline (the tests keep json.dump as the oracle)."""
    fh.write(_json_text(obj, "\n", {}) + "\n")


def write_triple_document(t: OperatorTriple, path: str,
                          metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(triple_document(t, metadata), fh)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# machine-readable reports

def _rat_str(x: Fraction, where: str) -> str:
    # the int-string limit that _parse_matrix meets on input also caps output
    try:
        return str(x)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def build_report(t: OperatorTriple, lambdas: list[Fraction] | None,
                 n_max: int | None) -> dict:
    """Invariant tables for AC-lam and BA-lam at each probe, plus verdicts.

    Each probe entry is its "lambda" label and a block read off the chains
    of BA - lam and AC - lam (_probe_block), built once per chain pair, at
    its first probe (intertwine.first_probes): probes with one chain pair,
    as every probe where both are invertible, share one block, its dicts
    and lists, and _write_json renders it once. Blocks on different pairs
    share each equal row through one row table per call: every row of an
    identity block, and every row past both chains' stable index, is
    written once. So a report is read-only once built.
    """
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
    probes = [rat(lam) for lam in (lambdas if lambdas else intertwine.default_probes(t))]
    table: dict[intertwine.SequenceRow, dict] = {}
    blocks = {pair: _probe_block(t, lam, *pair, n_max, table) for pair, lam
              in intertwine.first_probes(t, [lam for lam in probes if lam]).items()}
    for lam in probes:
        if lam == 0:
            report["skipped_lambdas"].append(
                {"lambda": "0", "note": "the theorem excludes 0"})
        else:
            report["probes"].append({"lambda": _rat_str(lam, "lambda"),
                                     **blocks[t.chains(lam)]})
    return report


def _probe_block(t: OperatorTriple, lam: Fraction, ba: PowerChain,
                 ac: PowerChain, n_max: int | None,
                 table: dict[intertwine.SequenceRow, dict]) -> dict:
    """A probe's report entry after its label: the sequence rows and sigma
    rows at lam, with (ba, ac) the chains of BA - lam and AC - lam they are
    read from, and the chains' profiles.

    Each row dict is built once per distinct (n, c, c', k) and kept in
    table, the report's row table keyed by SequenceRow, so every block of
    the report with that row holds that one dict.
    """
    seq = intertwine.verify_sequence_equalities(t, lam, n_max)
    theo = intertwine.verify_theorem(t, [lam]).rows[0]
    prof_ac, prof_ba = profile(ac), profile(ba)
    rows = []
    for r in seq.rows:
        row = table.get(r)
        if row is None:
            row = table[r] = {"n": r.n, "c": [r.c_ac, r.c_ba], "cp": [r.cp_ac, r.cp_ba],
                              "k": [r.k_ac, r.k_ba], "hold": r.equal}
        rows.append(row)
    return {
        "rows": rows,
        "totals": {"ac": list(seq.totals_ac), "ba": list(seq.totals_ba)},
        "asc": [seq.asc_ac, seq.asc_ba],
        "dsc": [seq.dsc_ac, seq.dsc_ba],
        "dis": [prof_ac.dis, prof_ba.dis],
        "essential_degrees": [prof_ac.asc_e, prof_ac.dsc_e, prof_ac.dis_e],
        "hyper_range_dim": [prof_ac.hyper_range_dim, prof_ba.hyper_range_dim],
        "hyper_kernel_dim": [prof_ac.hyper_kernel_dim, prof_ba.hyper_kernel_dim],
        "sequences_hold": seq.all_equal,
        "sigma_memberships": {
            "ac": list(theo.in_sigma_ac),
            "ba": list(theo.in_sigma_ba),
            "hold": theo.equal,
        },
    }


#: The polynomials Q of the inclusion-lemma check: x, x^2, x^3 and one cubic.
INCLUSION_QS = (Poly([0, 1]), Poly([0, 0, 1]), Poly([0, 0, 0, 1]),
                Poly(["3/2", "3/2", "-3/2", 1]))


def _map_witness(qm: intertwine.QuotientMap) -> str:
    """Why a quotient map fails, or "" when it is well defined and injective
    by the rank of its matrix: the failure, the quotient dims and the rank."""
    dims = f"source dim {qm.source_dim}, target dim {qm.target_dim}"
    if not qm.well_defined:
        return f"not well defined ({dims})"
    if qm.injective_by_rank():
        return ""
    return f"not injective ({dims}, rank {rank(qm.matrix)})"


def _map_failures(t: OperatorTriple, lambdas: list[Fraction], top: int) -> list[str]:
    """Every failing quotient map at the nonzero lambdas, in their order:
    which map, lambda, n and the witness. The witnesses are found once per
    chain pair, at its first lambda (intertwine.first_probes); each lambda
    adds its label."""
    witnesses = {pair: _pair_map_witnesses(t, lam, *pair, top)
                 for pair, lam in intertwine.first_probes(t, lambdas).items()}
    return [f"{name} at lambda={lam}, n={n}: {witness}" for lam in lambdas
            for name, n, witness in witnesses[t.chains(lam)]]


def _pair_map_witnesses(t: OperatorTriple, lam: Fraction, ba: PowerChain,
                        ac: PowerChain, top: int) -> list[tuple[str, int, str]]:
    """(map, n, witness) of each failing map at lam for n = 0..top, with
    (ba, ac) the chains of BA - lam and AC - lam."""
    # once both chains are stable, every later n has the same four
    # subspaces and the same carrier, so the same map as at stop
    stop = min(top, max(ba.stable, ac.stable))
    out = []
    for n in range(stop + 1):
        for name, builder in (("gamma", intertwine.gamma_map),
                              ("psi", intertwine.psi_map),
                              ("phi", intertwine.phi_map)):
            witness = _map_witness(builder(t, n, lam))
            if witness:
                out.append((name, n, witness))
    return out


def _sequence_witness(seq: intertwine.SequenceReport) -> str:
    """Where AC - lam and BA - lam part: the first unequal row with its
    (AC, BA) pairs, or else the totals, ascent and descent that differ."""
    row = next((r for r in seq.rows if not r.equal), None)
    if row is not None:
        return (f"first unequal row at lambda={seq.lam}, n={row.n}: (AC, BA) "
                f"c = ({row.c_ac}, {row.c_ba}), c' = ({row.cp_ac}, {row.cp_ba}), "
                f"k = ({row.k_ac}, {row.k_ba})")
    differ = [f"{what} ({ac}, {ba})" for what, ac, ba in (
        ("totals (c, c', k)", seq.totals_ac, seq.totals_ba),
        ("ascent", seq.asc_ac, seq.asc_ba),
        ("descent", seq.dsc_ac, seq.dsc_ba)) if ac != ba]
    return f"at lambda={seq.lam} the rows agree; (AC, BA) differ in " + ", ".join(differ)


def _transfer_identities(tr: drazin.TransferReport) -> dict[str, bool]:
    """The transfer's identities by name; it is verified iff all hold."""
    return {"commutes": tr.commutes, "inner": tr.inner,
            "residual_nilpotent": tr.residual_nilpotent,
            "matches_direct": tr.matches_direct}


def _proof_identities(pi: drazin.ProofIdentitiesReport) -> dict[str, bool]:
    """The proof identities by name."""
    return {"commutation": pi.commutation, "residual_is_bpa": pi.residual_is_bpa,
            "cycle": pi.cycle, "pac_matches": pi.pac_matches,
            "pac_nilpotent": pi.pac_nilpotent}


def _failed(identities: dict[str, bool]) -> str:
    """"failed: " and the names of the identities that fail, or ""."""
    failed = [name for name, holds in identities.items() if not holds]
    return f"failed: {', '.join(failed)}" if failed else ""


def run_verification(t: OperatorTriple, lambdas: list[Fraction] | None = None,
                     n_max: int | None = None) -> dict:
    """The full verifier battery; the exit-status contract reads its verdicts.

    Checks: intertwining condition, inclusion lemma over INCLUSION_QS,
    well-definedness and injectivity (by rank) of the three quotient maps,
    sequence equalities, pointwise regularity-spectrum agreement, nonzero
    charpoly match, shift operators for n <= 4, Drazin transfer and the
    transfer proof identities. A failing check's detail says where it
    fails (for the charpoly match, the first power sum Tr(T^k) on which AC
    and BA differ); a Drazin inverse that raises fails the transfer check
    with its message, and the proof identities, which need the transfer,
    with it.
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

        failed = _map_failures(t, nonzero, top)
        add("quotient_maps", not failed,
            f"{len(failed)} map(s) failed; first: {failed[0]}" if failed else "")

        # every lambda before a pair's first one is on a pair that passed,
        # so the first failing pair's first lambda is the first failing one
        seq_detail = ""
        for lam in intertwine.first_probes(t, nonzero).values():
            seq = intertwine.verify_sequence_equalities(t, lam, top)
            if not seq.all_equal:
                seq_detail = _sequence_witness(seq)
                break
        add("sequence_equalities", not seq_detail, seq_detail)

        theo = intertwine.verify_theorem(t, probes)
        failing = [row for row in theo.rows if not row.equal]
        notes = [f"first failing lambda={failing[0].lam}: membership in sigma_Ri(AC) "
                 f"and sigma_Ri(BA) differs for i in {list(failing[0].mismatches)}"
                 ] if failing else []
        if theo.skipped:
            notes.append(f"skipped {len(theo.skipped)} zero probe(s)")
        add("theorem_memberships", theo.all_equal, "; ".join(notes))

        match = intertwine.nonzero_charpoly_match(t)
        add("charpoly_match", match, "" if match else intertwine.power_sum_witness(t))

        try:
            intertwine.shift_polys(t, 4)  # checks every n = 1..4 on the way
            shift_detail = ""
        except ArithmeticError as exc:
            shift_detail = str(exc)
        add("shift_polys", not shift_detail, shift_detail)

        try:
            tr = drazin.transfer(t)
        except ArithmeticError as exc:
            add("drazin_transfer", False, f"drazin_inverse raised: {exc}")
            add("drazin_proof_identities", False, "not checked: no transfer")
        else:
            detail = _failed(_transfer_identities(tr))
            add("drazin_transfer", not detail, detail)
            detail = _failed(_proof_identities(drazin.proof_identities(t, tr)))
            add("drazin_proof_identities", not detail, detail)

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


def build_drazin_report(t: OperatorTriple) -> dict:
    tr = drazin.transfer(t)
    pi = drazin.proof_identities(t, tr)
    return {
        "index_ac": tr.s_ac.index,
        "S": _matrix_doc(tr.s_ac.inverse, "S"),
        "T": _matrix_doc(tr.candidate, "T"),
        "identities": _transfer_identities(tr),
        # a zero residual (index 1, or 0 on a 0x0 space) is reported as 0
        "residual_nilpotency_index": 0 if tr.residual_index == 1 else tr.residual_index,
        "proof_identities": _proof_identities(pi),
        "verified": tr.verified,
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


def _emit(obj: dict, as_json: bool, render) -> None:
    """Print obj to stdout as indented JSON, or as the text render draws."""
    if as_json:
        _write_json(obj, sys.stdout)
    else:
        render(obj, sys.stdout)


# ---------------------------------------------------------------------------
# commands

def _lambda_args(values: list[str] | None) -> list[Fraction] | None:
    if not values:
        return None
    out = []
    for v in values:
        if not ENTRY_RE.fullmatch(v):
            raise ParseError(f"--lambda {v!r} is not a rational p or p/q")
        try:
            out.append(Fraction(v))
        except ValueError as exc:
            raise ParseError(f"--lambda: {exc}") from exc
    return out


def cmd_report(args) -> int:
    t, _ = parse_triple_document(_read(args.file))
    report = build_report(t, _lambda_args(args.lam), args.nmax)
    if not report["condition"]["holds"]:
        print("warning: intertwining condition violated; "
              "sequence tables are not expected to agree", file=sys.stderr)
    _emit(report, args.json, _render_report)
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
    _emit(result, args.json, _render_checks)
    if not result["passed"]:
        failing = next(c["name"] for c in result["checks"] if not c["passed"])
        print(f"first failing check: {failing}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        t = genlab.generate(genlab.GenSpec(template=args.template, block_dim=args.dim,
                                           seed=args.seed, entry_bound=args.entry_bound))
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
        _write_json(triple_document(t, meta), sys.stdout)
    return EXIT_OK


def cmd_drazin(args) -> int:
    t, _ = parse_triple_document(_read(args.file))
    if not t.condition_holds:
        print("condition violated: the transfer theorem hypothesis fails",
              file=sys.stderr)
        return EXIT_FAIL
    try:
        report = build_drazin_report(t)
    except ArithmeticError as exc:
        print(f"error: drazin_inverse raised: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(report, args.json, _render_drazin)
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
    p.add_argument("--template", required=True, choices=genlab.TEMPLATES)
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


def _joined_lambdas(argv: Sequence[str]) -> list[str]:
    """argv with each "--lambda" and a rational after it joined into one
    word, as "--lambda=-1/2": argparse reads a lone "-1/2" as an option,
    not as a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--lambda" and ENTRY_RE.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(
        _joined_lambdas(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
