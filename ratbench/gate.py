"""Per-document correctness gate for ``verify --json`` and ``report --json``.

A document passes only if the command's exit status and emitted JSON carry
the verdict its construction implies. For ``report`` the mathematical content
(probe list, rows, totals, asc/dsc, sigma flags) is also reduced to a digest
that must match the one recorded for the same document, and its internal
identities must hold.
"""

from __future__ import annotations

import hashlib
import json

VERIFY_CHECKS = ("condition", "inclusion_lemma", "quotient_maps",
                 "sequence_equalities", "theorem_memberships", "charpoly_match",
                 "shift_polys", "drazin_transfer", "drazin_proof_identities")


def check_verify(conforming: bool, rc: int, out: str) -> str | None:
    """None if the verify verdict is right, else the reason it is not."""
    try:
        result = json.loads(out)
        checks = {c["name"]: c["passed"] for c in result["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify output: {exc!r}"
    if not conforming:
        if rc != 1 or checks.get("condition") is not False or result["passed"]:
            return f"nonconforming control not rejected (exit {rc})"
        return None
    if rc != 0 or not result["passed"]:
        return f"conforming triple failed verification (exit {rc})"
    if tuple(sorted(checks)) != tuple(sorted(VERIFY_CHECKS)):
        return f"check list {sorted(checks)} is not the nine named checks"
    failed = [name for name, ok in checks.items() if ok is not True]
    return f"checks failed: {failed}" if failed else None


def report_content(report: dict) -> dict:
    """The mathematical content of a report, the part its digest covers."""
    return {
        "probes": [p["lambda"] for p in report["probes"]],
        "rows": [p["rows"] for p in report["probes"]],
        "totals": [p["totals"] for p in report["probes"]],
        "asc": [p["asc"] for p in report["probes"]],
        "dsc": [p["dsc"] for p in report["probes"]],
        "sigma": [[p["sigma_memberships"]["ac"], p["sigma_memberships"]["ba"]]
                  for p in report["probes"]],
    }


def report_digest(report: dict) -> str:
    text = json.dumps(report_content(report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _identities(report: dict) -> str | None:
    """Internal identities every correct conforming report satisfies."""
    if not report["condition"]["holds"]:
        return "condition reported violated on a conforming triple"
    if not report["probes"]:
        return "no probes"
    for p in report["probes"]:
        lam = p["lambda"]
        if lam == "0":
            return "lambda 0 was probed instead of skipped"
        if not p["sequences_hold"] or not p["sigma_memberships"]["hold"]:
            return f"lambda {lam}: a sequence or sigma verdict failed"
        rows = p["rows"]
        for side in (0, 1):
            c = [r["c"][side] for r in rows]
            cp = [r["cp"][side] for r in rows]
            k = [r["k"][side] for r in rows]
            if any(x < 0 for x in c + cp + k):
                return f"lambda {lam}: negative sequence entry"
            if list(p["totals"]["ac" if side == 0 else "ba"]) != [sum(c), sum(cp), sum(k)]:
                return f"lambda {lam}: totals are not the row sums"
            if p["asc"][side] != next((n for n, x in enumerate(cp) if x == 0), None):
                return f"lambda {lam}: ascent is not the first zero of c'"
            if p["dsc"][side] != next((n for n, x in enumerate(c) if x == 0), None):
                return f"lambda {lam}: descent is not the first zero of c"
            if sum(cp) != p["hyper_kernel_dim"][side]:
                return f"lambda {lam}: c' total is not the hyper-kernel dimension"
        for r in rows:
            same = r["c"][0] == r["c"][1] and r["cp"][0] == r["cp"][1] \
                and r["k"][0] == r["k"][1]
            if r["hold"] != same:
                return f"lambda {lam}: row {r['n']} hold flag contradicts its values"
        sig = p["sigma_memberships"]
        if sig["ac"] != sig["ba"] or len(sig["ac"]) != 19:
            return f"lambda {lam}: sigma flags differ between AC and BA"
    return None


def check_report(rc: int, out: str, expected_digest: str | None) -> tuple[str | None, str | None]:
    """(reason or None, digest) for one report run.

    expected_digest is the digest recorded for this document earlier, if any;
    a mismatch fails the document.
    """
    try:
        report = json.loads(out)
        digest = report_digest(report)
        reason = _identities(report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report output: {exc!r}", None
    if rc != 0:
        return f"report exited {rc}", digest
    if reason is None and expected_digest is not None and digest != expected_digest:
        reason = "report content differs from the digest recorded for this document"
    return reason, digest
