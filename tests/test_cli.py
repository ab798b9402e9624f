"""CLI contract: document round-trips, exit codes, renderer fidelity."""

import json
import os
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratspec.cli import (EXIT_FAIL, EXIT_INPUT, EXIT_OK, NMAX_CEILING,
                         ParseError, build_drazin_report, build_report, main,
                         parse_triple_document, run_verification,
                         triple_document, write_triple_document)
from ratspec.genlab import GenSpec, default_idempotent, generate, paper_example
from ratspec.ratmat import Mat


@pytest.fixture
def ex1_file(tmp_path):
    t = paper_example(1, default_idempotent(2))
    path = tmp_path / "ex1.json"
    write_triple_document(t, str(path), {"name": "worked example 1"})
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    t = generate(GenSpec(template="nonconforming", block_dim=3, seed=5))
    path = tmp_path / "bad.json"
    write_triple_document(t, str(path))
    return str(path)


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("template,seed", [
        ("paper_ex1", 0), ("paper_ex2", 0), ("c_equals_b", 3),
        ("aba_eq_aca", 4), ("direct_sum", 5), ("nonconforming", 6),
    ])
    def test_write_parse_identity(self, tmp_path, template, seed):
        t = generate(GenSpec(template=template, block_dim=3, seed=seed))
        path = tmp_path / "t.json"
        write_triple_document(t, str(path))
        back, _ = parse_triple_document(path.read_text())
        assert (back.A, back.B, back.C) == (t.A, t.B, t.C)

    def test_fractions_survive(self, tmp_path):
        A = Mat.from_rows([[Fraction(1, 3), Fraction(-7, 2)]])
        B = Mat.from_rows([[Fraction(22, 7)], [0]])
        from ratspec.intertwine import OperatorTriple
        t = OperatorTriple(A, B, B)
        doc = triple_document(t)
        assert doc["A"] == [["1/3", "-7/2"]]
        back, _ = parse_triple_document(json.dumps(doc))
        assert back.A == A

    @pytest.mark.parametrize("entries", [["2/4", "-0/3"], ["-6/9", "0/7"],
                                         ["12/8", "5"], ["-0", "21/14"],
                                         ["3/6", "-6/9"]])
    def test_entries_not_in_lowest_terms(self, entries):
        # numerators over the lcm of the written denominators, reduced once,
        # give the matrix that the entries give as Fractions
        doc = {"dim_x": 2, "dim_y": 1, "A": [entries], "B": [["1"], ["0"]],
               "C": [["1"], ["0"]]}
        t, _ = parse_triple_document(json.dumps(doc))
        assert t.A == Mat(1, 2, [Fraction(x) for x in entries])

    def test_metadata_preserved(self, tmp_path, ex1_file):
        with open(ex1_file) as fh:
            _, meta = parse_triple_document(fh.read())
        assert meta == {"name": "worked example 1"}


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_triple_document("{nope")

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing key 'C'"):
            parse_triple_document(json.dumps(
                {"dim_x": 1, "dim_y": 1, "A": [["1"]], "B": [["1"]]}))

    def test_float_entry_rejected(self):
        doc = {"dim_x": 1, "dim_y": 1, "A": [["1.5"]],
               "B": [["1"]], "C": [["1"]]}
        with pytest.raises(ParseError, match=r"A\[0\]\[0\]"):
            parse_triple_document(json.dumps(doc))

    def test_zero_padded_denominator_rejected(self):
        doc = {"dim_x": 1, "dim_y": 1, "A": [["1/01"]],
               "B": [["1"]], "C": [["1"]]}
        with pytest.raises(ParseError):
            parse_triple_document(json.dumps(doc))

    def test_shape_mismatch_diagnosed(self):
        doc = {"dim_x": 2, "dim_y": 1, "A": [["1", "2", "3"]],
               "B": [["1"], ["2"]], "C": [["1"], ["2"]]}
        with pytest.raises(ParseError, match=r"A\[0\]: expected 2 entries"):
            parse_triple_document(json.dumps(doc))

    def test_row_count_mismatch(self):
        doc = {"dim_x": 1, "dim_y": 2, "A": [["1"]],
               "B": [["1", "2"]], "C": [["1", "2"]]}
        with pytest.raises(ParseError, match="A: expected 2 rows"):
            parse_triple_document(json.dumps(doc))

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="top level"):
            parse_triple_document("[1, 2]")

    def test_bad_dims(self, tmp_path):
        # JSON true passes isinstance(..., int) but is not a dimension
        for dim_x, dim_y in ((-1, 1), (True, 1), (1, True)):
            doc = {"dim_x": dim_x, "dim_y": dim_y,
                   "A": [["1"]], "B": [["1"]], "C": [["1"]]}
            with pytest.raises(ParseError, match="nonnegative"):
                parse_triple_document(json.dumps(doc))
            p = tmp_path / "t.json"
            p.write_text(json.dumps(doc))
            assert main(["verify", str(p)]) == EXIT_INPUT


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)

_VALID = {"dim_x": 2, "dim_y": 2,
          "A": [["0", "1"], ["0", "0"]],
          "B": [["1", "0"], ["0", "1"]],
          "C": [["1", "0"], ["0", "1/2"]]}

# a field path into _VALID: a top-level key, a row of A or an entry of B
_FIELDS = [("dim_x",), ("dim_y",), ("A",), ("B",), ("C",), ("metadata",),
           ("A", 1), ("B", 0, 1)]


def _replaced(path, value):
    doc = json.loads(json.dumps(_VALID))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_documents = _json_values | st.builds(_replaced, st.sampled_from(_FIELDS),
                                      _json_values)


class TestParserFuzz:
    @settings(max_examples=300)
    @given(_documents)
    def test_parses_or_raises_parse_error(self, doc):
        try:
            parse_triple_document(json.dumps(doc))
        except ParseError:
            pass

    @settings(max_examples=60)
    @given(_documents)
    def test_commands_exit_0_1_or_2(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for argv in (["verify", path, "--lambda", "2", "--json"],
                         ["report", path, "--lambda", "2"],
                         ["verify", path, "--json"],
                         ["report", path, "--json"],
                         ["drazin", path]):
                assert main(argv) in (EXIT_OK, EXIT_FAIL, EXIT_INPUT)


class TestExitCodes:
    def test_verify_passes_on_example(self, ex1_file):
        assert main(["verify", ex1_file]) == EXIT_OK

    def test_verify_json_mode(self, ex1_file, capsys):
        assert main(["verify", ex1_file, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and all(c["passed"] for c in doc["checks"])

    def test_verify_nonconforming_default(self, bad_file, capsys):
        code = main(["verify", bad_file])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert "warning" in err and "first failing check: condition" in err

    def test_verify_nonconforming_strict(self, bad_file, capsys):
        assert main(["verify", bad_file, "--strict"]) == EXIT_FAIL
        assert "condition violated" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        assert main(["verify", str(p)]) == EXIT_INPUT
        assert main(["report", str(p)]) == EXIT_INPUT
        assert main(["drazin", str(p)]) == EXIT_INPUT

    def test_missing_file(self):
        assert main(["report", "/nonexistent/f.json"]) == EXIT_INPUT

    def test_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"dim_x": 0, "metadata": "\xe9"}')
        for cmd in ("report", "verify", "drazin"):
            assert main([cmd, str(p)]) == EXIT_INPUT
            assert "cannot read" in capsys.readouterr().err

    def test_nesting_past_recursion_limit(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200000)
        for cmd in ("report", "verify", "drazin"):
            assert main([cmd, str(p)]) == EXIT_INPUT
            assert "not valid JSON" in capsys.readouterr().err

    def test_bad_lambda_flag(self, ex1_file):
        assert main(["report", ex1_file, "--lambda", "0.5"]) == EXIT_INPUT

    def test_overlong_numbers(self, tmp_path, ex1_file, capsys):
        # past Python's int-string limit: a diagnosed input error, no traceback
        huge = "7" * 5000
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"dim_x": 1, "dim_y": 1, "A": [[huge]],
                                 "B": [["1"]], "C": [["1"]]}))
        for cmd in ("verify", "report"):
            assert main([cmd, str(p)]) == EXIT_INPUT
            assert "A[0][0]" in capsys.readouterr().err
            assert main([cmd, ex1_file, "--lambda", huge]) == EXIT_INPUT
            assert "--lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["7" * 5000, "-1/" + "3" * 4400,
                                       "7" * 4400 + "/" + "3" * 5000])
    def test_overlong_entry_diagnostic(self, tmp_path, entry, capsys):
        # the message is the one Fraction(entry) raises, numerator first
        with pytest.raises(ValueError) as expected:
            Fraction(entry)
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"dim_x": 1, "dim_y": 1, "A": [["1"]],
                                 "B": [[entry]], "C": [["1"]]}))
        assert main(["verify", str(p)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: B[0][0]: {expected.value}\n"
        assert captured.out == ""

    def test_overlong_results(self, tmp_path, capsys):
        # parses, but S = 1/(AC) has a denominator past the int-string limit
        nines = "9" * 2500
        p = tmp_path / "nines.json"
        p.write_text(json.dumps({"dim_x": 1, "dim_y": 1, "A": [[nines]],
                                 "B": [[nines]], "C": [[nines]]}))
        for flags in ([], ["--json"]):
            assert main(["drazin", str(p)] + flags) == EXIT_INPUT
            captured = capsys.readouterr()
            assert "S[0][0]" in captured.err and captured.out == ""

    def test_default_probes_on_huge_entries(self, tmp_path, capsys):
        # AC = BA = N^2 with N = 10^2500 - 1: the eigenvalue N^2 is found at
        # once; report cannot print its 5000 digits and exits 2
        nines = "9" * 2500
        p = tmp_path / "nines.json"
        p.write_text(json.dumps({"dim_x": 1, "dim_y": 1, "A": [[nines]],
                                 "B": [[nines]], "C": [[nines]]}))
        assert main(["verify", str(p), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"]
        assert main(["report", str(p), "--json"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "lambda:" in captured.err and captured.out == ""

    def test_default_probes_on_a_large_root_bound(self, tmp_path, capsys):
        # the benchmark's witnessed stall document: its charpoly's constant
        # term has a large prime factor below the root bound
        t = generate(GenSpec(template="aba_eq_aca", block_dim=11, seed=3,
                             entry_bound=2))
        path = tmp_path / "stall.json"
        write_triple_document(t, str(path))
        assert main(["verify", str(path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_negative_nmax(self, ex1_file, capsys):
        for cmd, nmax in (("verify", "-1"), ("report", "-3")):
            with pytest.raises(SystemExit) as exc:
                main([cmd, ex1_file, "--nmax", nmax])
            assert exc.value.code == EXIT_INPUT
            assert "--nmax" in capsys.readouterr().err
        assert main(["report", ex1_file, "--nmax", "0", "--json"]) == EXIT_OK

    def test_nmax_past_ceiling(self, ex1_file, capsys):
        # every row past the dimension is zero; a huge --nmax exits 2 at once
        for cmd in ("verify", "report"):
            for nmax in (NMAX_CEILING + 1, 300000):
                with pytest.raises(SystemExit) as exc:
                    main([cmd, ex1_file, "--lambda", "2", "--nmax", str(nmax)])
                assert exc.value.code == EXIT_INPUT
                assert "--nmax" in capsys.readouterr().err
            assert main([cmd, ex1_file, "--lambda", "2", "--nmax",
                         str(NMAX_CEILING), "--json"]) == EXIT_OK
            capsys.readouterr()

    def test_nmax_past_dimension_keeps_rows(self, ex1_file, capsys):
        assert main(["report", ex1_file, "--lambda", "1", "--nmax", "8",
                     "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in doc["probes"][0]["rows"]] == list(range(9))
        assert main(["verify", ex1_file, "--nmax", "8"]) == EXIT_OK

    def test_generate_bad_dim(self, tmp_path):
        code = main(["generate", "--template", "paper_ex1", "--dim", "1",
                     "--out", str(tmp_path / "t.json")])
        assert code == EXIT_INPUT

    def test_generate_into_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "t.json")
        assert main(["generate", "--template", "c_equals_b", "--out", out]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert out in captured.err and captured.out == ""


class TestSharedParser:
    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_consecutive_calls_print_what_each_prints_alone(self, ex1_file,
                                                            command, capsys):
        # the argument parser is built once per process and shared by every
        # main call; a call with --lambda must leave nothing for the next
        from ratspec import cli
        runs = ([command, ex1_file, "--lambda", "2", "--json"],
                [command, ex1_file, "--json"])
        alone = []
        for argv in runs:
            cli._build_parser.cache_clear()
            assert main(argv) == EXIT_OK
            alone.append(capsys.readouterr().out)
        assert alone[0] != alone[1]
        for order in (runs, runs[::-1]):
            cli._build_parser.cache_clear()
            together = []
            for argv in order:
                assert main(argv) == EXIT_OK
                together.append(capsys.readouterr().out)
            assert together == [alone[runs.index(argv)] for argv in order]
        assert cli._build_parser() is cli._build_parser()


class TestGenerateCommand:
    def test_paper_template_dims(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--template", "paper_ex1", "--dim", "2",
                     "--out", str(out)]) == EXIT_OK
        t, meta = parse_triple_document(out.read_text())
        assert t.dim_x == t.dim_y == 6
        assert meta["template"] == "paper_ex1"

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--template", "c_equals_b", "--dim", "3",
              "--seed", "7", "--out", str(p1)])
        main(["generate", "--template", "c_equals_b", "--dim", "3",
              "--seed", "7", "--out", str(p2)])
        assert p1.read_text() == p2.read_text()

    def test_generated_verifies(self, tmp_path):
        out = tmp_path / "g.json"
        main(["generate", "--template", "aba_eq_aca", "--dim", "3",
              "--seed", "2", "--out", str(out)])
        assert main(["verify", str(out)]) == EXIT_OK

    def test_nonconforming_fails_verify(self, tmp_path):
        out = tmp_path / "g.json"
        main(["generate", "--template", "nonconforming", "--dim", "3",
              "--seed", "1", "--out", str(out)])
        assert main(["verify", str(out), "--strict"]) == EXIT_FAIL

    def test_rational_spectrum_template(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "--template", "rational_spectrum",
                     "--dim", "3", "--seed", "4", "--out", str(out)]) == EXIT_OK
        assert main(["verify", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("dim", [23, 24])
    def test_rational_spectrum_past_dim_22_exits_2(self, dim, tmp_path, capsys):
        # the drawn Y pad of 1 or 2 would pass the dimension cap of 24
        out = tmp_path / "g.json"
        assert main(["generate", "--template", "rational_spectrum",
                     "--dim", str(dim), "--out", str(out)]) == EXIT_INPUT
        assert "block_dim above 22" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_json(self, capsys):
        assert main(["generate", "--template", "c_equals_b", "--dim", "2",
                     "--seed", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_x"] == 2


class TestReportCommand:
    def test_report_example_holds(self, ex1_file, capsys):
        assert main(["report", ex1_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "condition: HOLDS" in out
        assert "FAIL" not in out

    def test_report_skips_zero_lambda(self, ex1_file, capsys):
        assert main(["report", ex1_file, "--lambda", "0",
                     "--lambda", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda = 0 skipped" in out

    def test_report_nonconforming_warns(self, bad_file, capsys):
        assert main(["report", bad_file]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning" in captured.err

    def test_nmax_controls_table_depth(self, ex1_file, capsys):
        assert main(["report", ex1_file, "--lambda", "1", "--nmax", "2",
                     "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in doc["probes"][0]["rows"]] == [0, 1, 2]

    def test_json_mode_matches_library(self, ex1_file, capsys):
        assert main(["report", ex1_file, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        with open(ex1_file) as fh:
            t, _ = parse_triple_document(fh.read())
        fresh = build_report(t, None, None)
        assert doc == json.loads(json.dumps(fresh))

    def test_each_chain_profiled_once(self, monkeypatch):
        # profile intersects R(T^n) with N(T) once per n = 0..stable; the
        # sequence rows and the report's own columns share that one profile
        from ratspec.ratmat import Subspace
        calls = []
        real_intersect = Subspace.intersect

        def counting_intersect(self, other):
            calls.append(1)
            return real_intersect(self, other)

        monkeypatch.setattr(Subspace, "intersect", counting_intersect)
        t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=2))
        report = build_report(t, None, None)
        expected = 0
        for probe in report["probes"]:
            ba, ac = t.chains(Fraction(probe["lambda"]))
            expected += ba.stable + ac.stable + 2
        assert report["probes"] and len(calls) == expected


class TestRendererFidelity:
    def test_every_verdict_is_a_library_boolean(self, ex1_file, capsys):
        # rendered HOLD/FAIL marks must match the machine report one-to-one
        with open(ex1_file) as fh:
            t, _ = parse_triple_document(fh.read())
        machine = build_report(t, None, None)
        main(["report", ex1_file])
        rendered = capsys.readouterr().out
        expected_holds = sum(len(p["rows"]) + 1 for p in machine["probes"])
        marks = rendered.count("HOLD") - rendered.count("HOLDS")
        assert marks == expected_holds

    def test_verify_exit_iff_no_fail_rows(self, ex1_file, capsys):
        code = main(["verify", ex1_file])
        out = capsys.readouterr().out
        assert (code == EXIT_OK) == ("FAIL" not in out)


class TestDrazinCommand:
    def test_example(self, ex1_file, capsys):
        assert main(["drazin", ex1_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Drazin index of AC" in out
        assert "FAIL" not in out

    def test_condition_violation_fatal(self, bad_file, capsys):
        assert main(["drazin", bad_file]) == EXIT_FAIL
        assert "condition violated" in capsys.readouterr().err

    def test_invertible_case(self, tmp_path, capsys):
        from ratspec.intertwine import OperatorTriple
        A = Mat.identity(2)
        B = Mat.from_rows([[2, 1], [1, 1]])
        path = tmp_path / "inv.json"
        write_triple_document(OperatorTriple(A, B, B), str(path))
        assert main(["drazin", str(path), "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["index_ac"] == 0
        assert doc["residual_nilpotency_index"] == 0
        assert doc["verified"]

    def test_report_matches_library(self, ex1_file, capsys):
        with open(ex1_file) as fh:
            t, _ = parse_triple_document(fh.read())
        assert main(["drazin", ex1_file, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        fresh = build_drazin_report(t)
        assert doc == json.loads(json.dumps(fresh))


class TestRunVerification:
    def test_all_checks_present(self, monkeypatch):
        from ratspec import intertwine
        scaled_at = []
        real_scaled = intertwine.scaled

        def counting_scaled(t, lam):
            scaled_at.append(lam)
            return real_scaled(t, lam)

        monkeypatch.setattr(intertwine, "scaled", counting_scaled)
        chained = []
        real_chain = intertwine.PowerChain

        def counting_chain(T):
            chained.append(T)
            return real_chain(T)

        monkeypatch.setattr(intertwine, "PowerChain", counting_chain)
        shifted_by = []
        real_shifted = Mat.shifted

        def counting_shifted(M, lam):
            shifted_by.append(lam)
            return real_shifted(M, lam)

        monkeypatch.setattr(Mat, "shifted", counting_shifted)
        read = []
        real_sigma = intertwine.sigma_memberships

        def recording_sigma(chain):
            read.append(chain)
            return real_sigma(chain)

        monkeypatch.setattr(intertwine, "sigma_memberships", recording_sigma)
        theorem_cost = []
        real_theorem = intertwine.verify_theorem

        def watched_theorem(t, lambdas=None):
            before = (len(chained), len(shifted_by))
            report = real_theorem(t, lambdas)
            theorem_cost.append((len(chained) - before[0],
                                 len(shifted_by) - before[1]))
            return report

        monkeypatch.setattr(intertwine, "verify_theorem", watched_theorem)
        from ratspec import drazin
        drazin_of = []
        real_drazin = drazin.drazin_inverse

        def counting_drazin(T):
            drazin_of.append(T)
            return real_drazin(T)

        monkeypatch.setattr(drazin, "drazin_inverse", counting_drazin)
        t = paper_example(2, default_idempotent(2))
        result = run_verification(t)
        # no scaled triple; the chains of BA - lam and AC - lam, built once
        # per nonzero probe and shared by every verifier, and one chain each
        # of CA - 1 and AB - 1 for the inclusion lemma
        assert scaled_at == []
        nonzero = [x for x in intertwine.default_probes(t) if x]
        assert Counter(chained) == Counter(
            [T for lam in nonzero for T in (t.ba.shifted(lam), t.ac.shifted(lam))]
            + [t.ca.shifted(1), t.ab.shifted(1)])
        # the theorem rows read those same chain objects, AC - lam first,
        # and neither shift nor chain anything themselves
        assert theorem_cost == [(0, 0)]
        expected = [chain for lam in nonzero for chain in t.chains(lam)[::-1]]
        assert len(read) == len(expected)
        assert all(a is b for a, b in zip(read, expected))
        # one Drazin inverse of AC and one of BA, shared by the transfer
        # check and the proof identities
        assert drazin_of == [t.ac, t.ba]
        names = [c["name"] for c in result["checks"]]
        assert names == ["condition", "inclusion_lemma", "quotient_maps",
                         "sequence_equalities", "theorem_memberships",
                         "charpoly_match", "shift_polys", "drazin_transfer",
                         "drazin_proof_identities"]
        assert result["passed"]

    def test_charpolys_built_once(self, monkeypatch):
        # the probe search and the charpoly match share one charpoly of BA
        # and one of AC; the search reads them and builds none itself
        from ratspec import intertwine, invariants
        built = []
        real_charpoly = intertwine.charpoly

        def counting_charpoly(M):
            built.append(M)
            return real_charpoly(M)

        monkeypatch.setattr(intertwine, "charpoly", counting_charpoly)
        monkeypatch.setattr(invariants, "charpoly", counting_charpoly)
        t = generate(GenSpec(template="aba_eq_aca", block_dim=4, seed=2))
        assert run_verification(t)["passed"]
        assert built == [t.ba, t.ac]

    def test_condition_failure_short_circuits(self):
        t = generate(GenSpec(template="nonconforming", block_dim=3, seed=3))
        result = run_verification(t)
        assert not result["passed"]
        assert [c["name"] for c in result["checks"]] == ["condition"]


class TestQuotientMapWitness:
    """A failing quotient map names itself in the check's detail.

    On conforming triples every map passes, so each failure is injected: a
    builder with a faulty carrier, or an injectivity route that lies.
    """

    @staticmethod
    def _detail(t):
        result = run_verification(t)
        check = next(c for c in result["checks"] if c["name"] == "quotient_maps")
        assert not check["passed"] and not result["passed"]
        return check["detail"]

    @staticmethod
    def _with_carrier(builder, carrier_of):
        from ratspec import intertwine

        def faulty(t, n, lam):
            qm = builder(t, n, lam)
            return intertwine.induced_quotient_map(
                qm.source_big, qm.source_small, qm.target_big, qm.target_small,
                carrier_of(t))
        return faulty

    def test_passing_detail_is_empty(self):
        t = paper_example(1, default_idempotent(2))
        check = run_verification(t)["checks"][2]
        assert check == {"name": "quotient_maps", "passed": True, "detail": ""}

    def test_not_injective(self, monkeypatch):
        # the zero carrier is well defined on every chain and kills every
        # quotient; gamma at 1, n = 0 is the first map with a nonzero source
        from ratspec import intertwine
        t = paper_example(1, default_idempotent(2))
        real = intertwine.gamma_map(t, 0, 1)
        monkeypatch.setattr(intertwine, "gamma_map", self._with_carrier(
            intertwine.gamma_map, lambda t: Mat.zero(t.dim_x, t.dim_x)))
        detail = self._detail(t)
        assert real.source_dim > 0
        assert detail.endswith(
            f"first: gamma at lambda=1, n=0: not injective (source dim "
            f"{real.source_dim}, target dim {real.target_dim}, rank 0)")

    def test_not_well_defined(self, monkeypatch):
        # a carrier that swaps coordinates does not respect the chains of
        # the worked example at 1
        from ratspec import intertwine
        t = paper_example(1, default_idempotent(2))
        n = t.dim_x
        swap = Mat(n, n, [1 if j == n - 1 - i else 0 for i in range(n) for j in range(n)])
        faulty = self._with_carrier(intertwine.phi_map, lambda t: swap)
        broken = [(lam, k) for lam in intertwine.default_probes(t) if lam
                  for k in range(2) if not faulty(t, k, lam).well_defined]
        assert broken
        monkeypatch.setattr(intertwine, "phi_map", faulty)
        lam, k = broken[0]
        qm = faulty(t, k, lam)
        assert f"first: phi at lambda={lam}, n={k}: not well defined (source dim " \
            f"{qm.source_dim}, target dim {qm.target_dim})" in self._detail(t)

    def test_routes_disagree(self, monkeypatch):
        from ratspec import intertwine
        t = paper_example(2, default_idempotent(2))
        lam = next(x for x in intertwine.default_probes(t) if x)
        first = intertwine.gamma_map(t, 0, lam)
        monkeypatch.setattr(intertwine.QuotientMap, "injective_by_preimage",
                            lambda qm: False)
        detail = self._detail(t)
        assert detail.endswith(
            f"first: gamma at lambda={lam}, n=0: routes disagree (injective by "
            f"rank True, by preimage False) (source dim {first.source_dim}, "
            f"target dim {first.target_dim}, rank {first.source_dim})")

    def test_witness_reaches_the_rendered_table(self, monkeypatch, ex1_file, capsys):
        from ratspec import intertwine
        monkeypatch.setattr(intertwine.QuotientMap, "injective_by_rank",
                            lambda qm: False)
        assert main(["verify", ex1_file]) == EXIT_FAIL
        out = capsys.readouterr().out
        line = next(x for x in out.splitlines() if "quotient_maps" in x)
        assert "map(s) failed; first: gamma at lambda=" in line
        assert "routes disagree (injective by rank False, by preimage True)" in line


class TestCheckWitness:
    """A failing shift-operator or theorem check names where it fails.

    Both checks pass on conforming triples, so each failure is injected: a
    shift operator that leaves the recurrence at one n, or memberships that
    differ at one lambda. The passing details stay as they were.
    """

    @staticmethod
    def _check(t, name):
        result = run_verification(t)
        check = next(c for c in result["checks"] if c["name"] == name)
        assert not check["passed"] and not result["passed"]
        return check["detail"]

    def test_passing_details(self):
        checks = run_verification(paper_example(1, default_idempotent(2)))["checks"]
        details = {c["name"]: c["detail"] for c in checks}
        assert details["shift_polys"] == ""
        assert details["theorem_memberships"] == "skipped 1 zero probe(s)"

    @pytest.mark.parametrize("side, message", [
        ("B", "(I-BA)^n != I - B_nA at n = 3"),
        ("C", "(I-AC)^n != I - AC_n at n = 3"),
    ])
    def test_shift_polys_names_the_first_failing_n(self, side, message, monkeypatch):
        # the triple (A, B_n, C_n) is built for every n >= 2; from n = 3 on,
        # the injected fault adds B to B_n or C to C_n before the check
        from ratspec import intertwine
        real = intertwine.OperatorTriple
        built = []

        def faulty(A, B, C):
            built.append(B)
            if len(built) >= 2:
                B, C = (B + B, C) if side == "B" else (B, C + C)
            return real(A, B, C)

        t = paper_example(1, default_idempotent(2))
        assert not (t.B @ t.A).is_zero() and not (t.A @ t.C).is_zero()
        monkeypatch.setattr(intertwine, "OperatorTriple", faulty)
        assert self._check(t, "shift_polys") == message

    def test_theorem_names_the_first_failing_lambda(self, monkeypatch):
        # the memberships of AC - 2 lose R_3 and gain R_6; the rows at 1 and
        # 3 stay equal, and lambda = 0 is still skipped
        from ratspec import intertwine
        t = paper_example(1, default_idempotent(2))
        ac_at_2 = t.chains(2)[1]
        real = intertwine.sigma_memberships

        def faulty(chain):
            got = list(real(chain))
            if chain is ac_at_2:
                got[2], got[5] = not got[2], not got[5]
            return tuple(got)

        monkeypatch.setattr(intertwine, "sigma_memberships", faulty)
        assert self._check(t, "theorem_memberships") == (
            "first failing lambda=2: membership in sigma_Ri(AC) and sigma_Ri(BA) "
            "differs for i in [3, 6]; skipped 1 zero probe(s)")
