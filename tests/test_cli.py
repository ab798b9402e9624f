"""CLI contract: document round-trips, exit codes, renderer fidelity."""

import io
import itertools
import json
import os
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratspec.cli import (DIM_CEILING, EXIT_FAIL, EXIT_INPUT, EXIT_OK,
                         INCLUSION_QS, NMAX_CEILING, ParseError, _map_failures,
                         _write_json,
                         build_drazin_report, build_report, main,
                         parse_triple_document, run_verification,
                         triple_document, write_triple_document)
from ratspec.genlab import GenSpec, default_idempotent, generate, paper_example
from ratspec.intertwine import OperatorTriple
from ratspec.ratmat import Mat, poly_eval_mat, rank


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


class TestEntryDiagnostics:
    """The exact error line for a bad entry away from the first row and column:
    A is dim_y x dim_x = 2 x 3 and C is dim_x x dim_y = 3 x 2."""

    @staticmethod
    def _document(tmp_path, name, i, j, entry):
        doc = {"dim_x": 3, "dim_y": 2, "A": [["1", "0", "1/2"], ["0", "-1", "2"]],
               "B": [["1", "0"], ["0", "1"], ["1", "1"]],
               "C": [["1", "0"], ["0", "1"], ["1", "1"]]}
        doc[name][i][j] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("name, i, j", [("A", 1, 2), ("C", 2, 0), ("B", 1, 1)])
    @pytest.mark.parametrize("entry, shown", [(5, "5"), (None, "None"),
                                              ([1], "[1]"), ("1/0", "'1/0'"),
                                              ("1.5", "'1.5'"), ("", "''")])
    def test_not_a_rational_string(self, tmp_path, capsys, name, i, j, entry, shown):
        path = self._document(tmp_path, name, i, j, entry)
        for cmd in ("verify", "report"):
            assert main([cmd, path, "--json"]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.err == (f"error: {name}[{i}][{j}]: {shown} is not a "
                                    "rational string p or p/q\n")
            assert captured.out == ""

    @pytest.mark.parametrize("name, i, j", [("A", 1, 2), ("C", 2, 0)])
    @pytest.mark.parametrize("entry", ["7" * 5000, "1/" + "3" * 5000])
    def test_past_the_int_string_limit(self, tmp_path, capsys, name, i, j, entry):
        path = self._document(tmp_path, name, i, j, entry)
        message = ("Exceeds the limit (4300 digits) for integer string "
                   "conversion: value has 5000 digits; use "
                   "sys.set_int_max_str_digits() to increase the limit")
        assert main(["report", path, "--json"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {name}[{i}][{j}]: {message}\n"
        assert captured.out == ""


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


# strings with quotes, backslashes, control characters, non-ASCII and a
# lone surrogate, which JSON escapes as \uXXXX
_awkward_text = st.text(st.characters() | st.sampled_from(
    '"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'))
_written_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-(1 << 300), max_value=1 << 300) | _awkward_text
    | st.sampled_from([[], {}, ()]),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_awkward_text, inner, max_size=5)),
    max_leaves=30)


class _Writes(list):
    """A text file that records each write."""
    write = list.append


@st.composite
def _aliased_values(draw):
    """A value that holds one list or dict object at several positions: at
    one depth (the first two items), at others, and wherever the drawn
    skeleton puts it."""
    shared = draw(st.lists(_written_values, min_size=1, max_size=4)
                  | st.dictionaries(_awkward_text, _written_values,
                                    min_size=1, max_size=4))
    skeleton = draw(st.recursive(
        st.just(shared) | st.integers() | _awkward_text,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(_awkward_text, inner, max_size=4)),
        max_leaves=12))
    return [shared, shared, [shared, {"at": shared}], skeleton]


class TestJsonWriter:
    @settings(max_examples=150)
    @given(_written_values)
    def test_writes_what_json_dump_writes(self, obj):
        expected = io.StringIO()
        json.dump(obj, expected, indent=1)
        fh = _Writes()
        _write_json(obj, fh)
        assert fh == [expected.getvalue() + "\n"]

    def test_reports(self):
        t = paper_example(1, default_idempotent(2))
        for obj in (build_report(t, None, None), run_verification(t),
                    build_drazin_report(t), triple_document(t, {"n": 1})):
            fh = _Writes()
            _write_json(obj, fh)
            assert fh == [json.dumps(obj, indent=1) + "\n"]

    @settings(max_examples=100)
    @given(_aliased_values())
    def test_shared_containers_write_what_json_dump_writes(self, obj):
        expected = io.StringIO()
        json.dump(obj, expected, indent=1)
        fh = _Writes()
        _write_json(obj, fh)
        assert fh == [expected.getvalue() + "\n"]

    @pytest.mark.parametrize("value", [0.5, 1.0, Fraction(1, 2), Fraction(2)])
    def test_floats_and_fractions_raise(self, value):
        shared = {"a": [1, value]}
        for obj in (value, [1, value], {"a": [True, {"b": value}]}, (value,),
                    {"x": shared, "y": shared}, [shared, [shared]]):
            fh = _Writes()
            with pytest.raises(TypeError):
                _write_json(obj, fh)
            assert fh == []


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

    def test_bad_lambda_flag(self, ex1_file, capsys):
        for cmd in ("verify", "report"):
            assert main([cmd, ex1_file, "--lambda", "0.5"]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.err == "error: --lambda '0.5' is not a rational p or p/q\n"
            assert captured.out == ""

    def test_negative_lambda_in_either_form(self, tmp_path, capsys):
        # argparse reads a lone -1/2 as an option; "--lambda -1/2" must print
        # the bytes "--lambda=-1/2" prints. -1/2 is an eigenvalue here
        path = str(tmp_path / "rs.json")
        write_triple_document(generate(GenSpec(template="rational_spectrum",
                                               block_dim=3, seed=1)), path)
        for cmd in ("verify", "report"):
            for tail in ([], ["--json"]):
                printed = []
                for flags in (["--lambda=-1/2", "--lambda=-3", "--lambda=2"],
                              ["--lambda", "-1/2", "--lambda", "-3", "--lambda", "2"]):
                    assert main([cmd, path, *flags, *tail]) == EXIT_OK
                    printed.append(capsys.readouterr())
                assert printed[0] == printed[1] and printed[0].err == ""
        assert '"lambda": "-1/2"' in printed[0].out
        # anything but a rational still fails as it did: argparse on -1/0,
        # the entry check on what reaches --lambda
        with pytest.raises(SystemExit) as exc:
            main(["report", path, "--lambda", "-1/0"])
        assert exc.value.code == EXIT_INPUT
        assert "expected one argument" in capsys.readouterr().err
        assert main(["report", path, "--lambda=-0.5"]) == EXIT_INPUT
        assert capsys.readouterr().err == ("error: --lambda '-0.5' is not a "
                                           "rational p or p/q\n")

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

    @pytest.mark.parametrize("value", ["7" * 5000, "1/" + "3" * 5000])
    def test_overlong_lambda_diagnostic(self, ex1_file, value, capsys):
        # the message is the one Fraction(value) raises, after "--lambda: "
        with pytest.raises(ValueError) as expected:
            Fraction(value)
        for cmd in ("verify", "report"):
            assert main([cmd, ex1_file, "--lambda", value]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.err == f"error: --lambda: {expected.value}\n"
            assert captured.out == ""

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

    @pytest.mark.parametrize("dims", [(73, 0), (0, 73), (73, 73)])
    def test_dimension_past_ceiling(self, tmp_path, dims, capsys):
        # a zero document one past the ceiling exits 2 before its matrices
        # are read; without the ceiling its dense products would run
        dx, dy = dims
        p = tmp_path / "wide.json"
        write_triple_document(OperatorTriple(Mat.zero(dy, dx), Mat.zero(dx, dy),
                                             Mat.zero(dx, dy)), str(p))
        for argv in (["verify"], ["verify", "--json"], ["report", "--json"],
                     ["drazin", "--json"]):
            assert main([*argv, str(p)]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.err == ("error: dim_x and dim_y are capped at 72, "
                                    f"got ({dx}, {dy})\n")
            assert captured.out == ""

    def test_dimension_ceiling_admits_every_generated_document(self, tmp_path,
                                                               capsys):
        # paper_ex at block dim 24 is the largest document generate writes
        assert DIM_CEILING == 72
        t = generate(GenSpec(template="paper_ex1", block_dim=24))
        assert max(t.dim_x, t.dim_y) == DIM_CEILING
        parsed, _ = parse_triple_document(json.dumps(triple_document(t)))
        assert (parsed.A, parsed.B, parsed.C) == (t.A, t.B, t.C)
        p = tmp_path / "edge.json"
        write_triple_document(OperatorTriple(Mat.zero(0, 72), Mat.zero(72, 0),
                                             Mat.zero(72, 0)), str(p))
        assert main(["verify", str(p), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"]

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
        # the sequence rows and the report's own columns share one profile
        # per chain, and every invertible probe of one dimension shares one
        # chain; k_n is read off the ranks, so nothing is intersected
        from ratspec import invariants
        from ratspec.ratmat import Subspace
        built, intersected = [], []
        real_profile = invariants.InvariantProfile
        real_intersect = Subspace.intersect

        def counting_profile(**fields):
            built.append(1)
            return real_profile(**fields)

        def counting_intersect(self, other):
            intersected.append(1)
            return real_intersect(self, other)

        monkeypatch.setattr(invariants, "InvariantProfile", counting_profile)
        monkeypatch.setattr(Subspace, "intersect", counting_intersect)
        # every probe of the first shares the identity chain; the second has
        # singular chains at its rational eigenvalues
        for spec in (GenSpec(template="aba_eq_aca", block_dim=4, seed=2),
                     GenSpec(template="rational_spectrum", block_dim=3, seed=1)):
            built.clear()
            t = generate(spec)
            report = build_report(t, None, None)
            chains = {id(c) for probe in report["probes"]
                      for c in t.chains(Fraction(probe["lambda"]))}
            assert report["probes"] and len(built) == len(chains)
        assert len(chains) > 2 and intersected == []


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

    def test_a_raising_drazin_inverse_exits_1(self, monkeypatch, ex1_file, capsys):
        from ratspec import drazin

        def raising(T, chain=None):
            raise ArithmeticError("core block is singular")

        monkeypatch.setattr(drazin, "drazin_inverse", raising)
        assert main(["drazin", ex1_file]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: drazin_inverse raised: core block is singular\n"

    def test_a_failed_transfer_exits_1(self, monkeypatch, ex1_file, capsys):
        # an S that is twice the Drazin inverse of AC gives the candidate
        # 4T: it still commutes with BA, but 4T BA 4T = 16T, and (BA)^2 4T - BA
        # is 3 BA on the core; matches_direct fails with them
        import dataclasses

        from ratspec import drazin
        real = drazin.drazin_inverse

        def doubled(T, chain=None):
            res = real(T, chain)
            return dataclasses.replace(res, inverse=res.inverse.scaled(2))

        monkeypatch.setattr(drazin, "drazin_inverse", doubled)
        assert main(["drazin", ex1_file, "--json"]) == EXIT_FAIL
        doc = json.loads(capsys.readouterr().out)
        assert doc["identities"] == {"commutes": True, "inner": False,
                                     "residual_nilpotent": False,
                                     "matches_direct": False}
        assert not doc["verified"]

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

        def counting_chain(T, hyper_kernel_dim=None):
            chained.append(T)
            return real_chain(T, hyper_kernel_dim)

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

        def counting_drazin(T, chain=None):
            drazin_of.append(T)
            return real_drazin(T, chain)

        monkeypatch.setattr(drazin, "drazin_inverse", counting_drazin)
        t = paper_example(2, default_idempotent(2))
        result = run_verification(t)
        # no scaled triple; one chain per distinct singular probed operator,
        # shared by every verifier: BA - lam and AC - lam at each nonzero
        # probe, CA - 1 and AB - 1 and the cubic's Q(T - I) for the
        # inclusion lemma, and AC itself for its Drazin inverse; every
        # invertible one of a dimension shares the identity's chain, built
        # once
        assert scaled_at == []
        nonzero = [x for x in intertwine.default_probes(t) if x]
        cubic = INCLUSION_QS[3]
        probed = ([T.shifted(lam) for lam in nonzero for T in (t.ba, t.ac)]
                  + [t.ca.shifted(1), t.ab.shifted(1)]
                  + [poly_eval_mat(cubic, T.shifted(1))
                     for T in (t.ca, t.ab, t.ba, t.ac)]
                  + [t.ac])
        expected = {op if rank(op) < op.rows else Mat.identity(op.rows)
                    for op in probed}
        assert Counter(chained) == Counter(expected)
        # the theorem rows read those same chain objects, AC - lam first,
        # once per distinct chain pair, and neither shift nor chain anything
        # themselves
        assert theorem_cost == [(0, 0)]
        pairs = dict.fromkeys(t.chains(lam) for lam in nonzero)
        assert len(pairs) < len(nonzero)  # two probes share a pair here
        expected = [chain for pair in pairs for chain in pair[::-1]]
        assert len(read) == len(expected)
        assert all(a is b for a, b in zip(read, expected))
        # one Drazin inverse, of AC, shared by the transfer check and the
        # proof identities; the inverse of BA is read off the identities
        assert drazin_of == [t.ac]
        names = [c["name"] for c in result["checks"]]
        assert names == ["condition", "inclusion_lemma", "quotient_maps",
                         "sequence_equalities", "theorem_memberships",
                         "charpoly_match", "shift_polys", "drazin_transfer",
                         "drazin_proof_identities"]
        assert result["passed"]

    def test_charpolys_built_once(self, monkeypatch):
        # verify, report and drazin compute one charpoly, BA's; AC's is
        # read off it by the condition's power sums, CA's and AB's by
        # Sylvester's identity, and the probe search, the charpoly match
        # and every chain share them; C == B on c_equals_b, and Sylvester's
        # identity shifts by a nonzero power of x on rational_spectrum
        from ratspec import intertwine, invariants
        built = []
        real_charpoly = intertwine.charpoly

        def counting_charpoly(M):
            built.append(M)
            return real_charpoly(M)

        monkeypatch.setattr(intertwine, "charpoly", counting_charpoly)
        monkeypatch.setattr(invariants, "charpoly", counting_charpoly)
        for template in ("aba_eq_aca", "c_equals_b", "rational_spectrum"):
            spec = GenSpec(template=template, block_dim=4, seed=2)
            assert template != "rational_spectrum" or generate(spec).dim_y > 4
            for command in ("verify", "report", "drazin"):
                t = generate(spec)
                built.clear()
                if command == "verify":
                    assert run_verification(t)["passed"]
                elif command == "report":
                    assert build_report(t, None, None)["probes"]
                else:
                    assert build_drazin_report(t)
                assert built == [t.ba]

    def test_a_charpoly_mismatch_names_the_first_power_sum(self):
        # a wrong charpoly(BA) in the triple's place for the computed one,
        # with Tr(BA^2) off by 2; neither it nor BA's has a root at a
        # nonzero probe or at 1, so every chain it decides is still the
        # identity's and only the charpoly match fails, naming the power
        # sums that differ; a passing match has no detail
        from ratspec.ratmat import charpoly
        from test_intertwine import with_e2_raised
        spec = GenSpec(template="aba_eq_aca", block_dim=4, seed=2)
        t = generate(spec)
        square = t.ac @ t.ac
        tr2 = sum(square.data[::t.dim_y + 1], Fraction(0))
        t._charpolys["ba"] = with_e2_raised(charpoly(t.ba))
        checks = run_verification(t)["checks"]
        assert [c for c in checks if not c["passed"]] == [
            {"name": "charpoly_match", "passed": False,
             "detail": f"Tr(AC^2) = {tr2}, Tr(BA^2) = {tr2 - 2}"}]
        checks = run_verification(generate(spec))["checks"]
        assert {"name": "charpoly_match", "passed": True, "detail": ""} in checks

    def test_condition_failure_short_circuits(self):
        t = generate(GenSpec(template="nonconforming", block_dim=3, seed=3))
        result = run_verification(t)
        assert not result["passed"]
        assert [c["name"] for c in result["checks"]] == ["condition"]


class TestPairResults:
    """What a probe reads off its chain pair is formed once per pair; each
    lambda adds only its label. Probes that share a pair must read exactly
    what a fresh triple builds for that lambda alone."""

    @staticmethod
    def _fresh(t):
        return OperatorTriple(t.A, t.B, t.C)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["c_equals_b", "aba_eq_aca", "conjugated", "direct_sum",
                            "paper_ex1", "rational_spectrum"]),
           st.integers(2, 4), st.integers(0, 10 ** 6))
    def test_pair_results_equal_fresh_ones(self, template, dim, seed):
        from ratspec import intertwine
        t = generate(GenSpec(template=template, block_dim=dim, seed=seed,
                             entry_bound=2))
        nonzero = [lam for lam in intertwine.default_probes(t) if lam]
        report = build_report(t, None, None)
        assert report["probes"] == [build_report(self._fresh(t), [lam], None)["probes"][0]
                                    for lam in nonzero]
        for lam in nonzero:
            for n_max in (None, 1):
                assert (intertwine.verify_sequence_equalities(t, lam, n_max)
                        == intertwine.verify_sequence_equalities(self._fresh(t), lam,
                                                                 n_max))
        assert (intertwine.verify_theorem(t, nonzero).rows
                == tuple(intertwine.verify_theorem(self._fresh(t), [lam]).rows[0]
                         for lam in nonzero))

    def test_probes_on_one_chain_pair_share_one_report_block(self, monkeypatch):
        # every probe of the first is on the identity's chain pair; the
        # second has a pair of its own at -1/2 and at 1/2, and 1, 2 and 3
        # share the identity's
        from ratspec import cli
        built = []
        real = cli._probe_block

        def counting_block(t, lam, ba, ac, n_max, table):
            built.append((ba, ac, n_max))
            return real(t, lam, ba, ac, n_max, table)

        monkeypatch.setattr(cli, "_probe_block", counting_block)
        for spec, distinct in ((GenSpec(template="aba_eq_aca", block_dim=4, seed=2), 1),
                               (GenSpec(template="rational_spectrum", block_dim=3,
                                        seed=1), 3)):
            t = generate(spec)
            built.clear()
            first = build_report(t, None, None)["probes"]
            pairs = [t.chains(Fraction(probe["lambda"])) for probe in first]
            assert len(built) == len(dict.fromkeys(pairs)) == distinct < len(first)
            for (p, pair_p), (q, pair_q) in itertools.combinations(
                    zip(first, pairs), 2):
                same_pair = pair_p[0] is pair_q[0] and pair_p[1] is pair_q[1]
                containers = [key for key, value in p.items()
                              if isinstance(value, (list, dict))]
                assert containers and all(
                    (p[key] is q[key]) == same_pair for key in containers)
                if same_pair:
                    assert all(p[key] is q[key] for key in p if key != "lambda")
            # the triple keeps no block: a second report at the same n_max
            # builds one block per pair again, equal to the first, and so
            # does another n_max
            again = build_report(t, None, None)["probes"]
            assert len(built) == 2 * distinct
            assert again == first
            build_report(t, None, 2)
            assert len(built) == 3 * distinct
            assert ([n_max for _, _, n_max in built]
                    == [None] * (2 * distinct) + [2] * distinct)

    def test_verify_reads_each_pair_once_at_its_first_lambda(self, monkeypatch):
        # 2, 1 and 3 share the identity's chain pair, and 1/2 and -1/2 have
        # pairs of their own; the sequence check builds one report per
        # pair, at its first lambda, and with a fault planted on both
        # other pairs it names 1/2, the first failing lambda, though -1/2
        # sorts first
        from dataclasses import replace

        from ratspec import intertwine
        t = generate(GenSpec(template="rational_spectrum", block_dim=3, seed=1))
        probes = [Fraction(v) for v in ("2", "1/2", "1", "0", "2", "-1/2", "1/2", "3")]
        half, minus_half = Fraction(1, 2), Fraction(-1, 2)
        assert len({t.chains(lam) for lam in probes if lam}) == 3
        assert t.chains(2) == t.chains(1) == t.chains(3)
        real = intertwine.verify_sequence_equalities
        built, faulty = [], []

        def planted(t, lam, n_max=None):
            built.append(lam)
            seq = real(t, lam, n_max)
            if t.chains(lam) in faulty:
                seq = replace(seq, asc_ac=seq.asc_ac + 1)
            return seq

        monkeypatch.setattr(intertwine, "verify_sequence_equalities", planted)
        check = run_verification(t, probes)["checks"][3]
        assert check["name"] == "sequence_equalities" and check["passed"]
        assert built == [2, half, minus_half]
        faulty[:] = [t.chains(half), t.chains(minus_half)]
        built.clear()
        check = run_verification(t, probes)["checks"][3]
        assert not check["passed"]
        assert check["detail"].startswith(f"at lambda={half} the rows agree; ")
        assert built == [2, half]

    def test_equal_rows_of_different_blocks_are_one_object(self):
        # -1/2 and 1/2 have chain pairs of their own, and 1, 2 and 3 share
        # the identity's, whose rows are all zero; so are the rows of the
        # other two blocks past their chains' stable index
        t = generate(GenSpec(template="rational_spectrum", block_dim=3, seed=1))
        report = build_report(t, None, None)
        snapshot = json.loads(json.dumps(report))
        blocks = list({id(p["rows"]): p["rows"] for p in report["probes"]}.values())
        assert len(blocks) == 3
        rows = [row for block in blocks for row in block]
        by_value = {}
        for row in rows:
            by_value.setdefault(json.dumps(row), set()).add(id(row))
        assert all(len(ids) == 1 for ids in by_value.values())
        assert len(by_value) < len(rows)
        # sharing mutates nothing: not a later report on the triple, with
        # another n_max or other probes, nor the writer, whose bytes are
        # json.dump's and a newline
        build_report(t, [Fraction(1, 2), Fraction(5)], 1)
        out = io.StringIO()
        _write_json(report, out)
        assert report == snapshot
        assert out.getvalue() == json.dumps(report, indent=1) + "\n"

    def test_probes_that_share_a_pair_build_its_maps_once(self, monkeypatch):
        from ratspec import intertwine
        t = generate(GenSpec(template="rational_spectrum", block_dim=3, seed=1,
                             entry_bound=2))
        nonzero = [lam for lam in intertwine.default_probes(t) if lam]
        pairs = dict.fromkeys(t.chains(lam) for lam in nonzero)
        assert len(pairs) < len(nonzero)
        built = []
        real = intertwine.induced_quotient_map
        monkeypatch.setattr(intertwine, "induced_quotient_map",
                            lambda *args: built.append(args) or real(*args))
        assert _map_failures(t, nonzero, t.dim_x) == []
        assert len(built) == sum(3 * (min(t.dim_x, max(ba.stable, ac.stable)) + 1)
                                 for ba, ac in pairs)

    def test_a_fault_in_a_shared_map_lists_every_lambda_in_order(self, monkeypatch):
        # every gamma map is made ill defined; lambda = 1, 2, 3 share the
        # identity's chain pair, whose maps are built once, and still each
        # of them is listed, in probe order, as a fresh triple per lambda
        # lists it
        from ratspec import intertwine
        t = generate(GenSpec(template="rational_spectrum", block_dim=3, seed=1,
                             entry_bound=2))
        real = intertwine.gamma_map

        def ill_defined(t, n, lam):
            qm = real(t, n, lam)
            return intertwine.QuotientMap(qm.source_big, qm.source_small,
                                          qm.target_big, qm.target_small,
                                          qm.carrier, well_defined=False, matrix=None)

        monkeypatch.setattr(intertwine, "gamma_map", ill_defined)
        nonzero = [lam for lam in intertwine.default_probes(t) if lam]
        shared = [lam for lam in nonzero if t.chains(lam) == t.chains(1)]
        assert shared == [1, 2, 3]
        top = t.dim_x
        failed = _map_failures(t, nonzero, top)
        assert failed == [f for lam in nonzero
                          for f in _map_failures(self._fresh(t), [lam], top)]
        listed = list(dict.fromkeys(f.split(", n=")[0] for f in failed))
        assert listed == [f"gamma at lambda={lam}" for lam in nonzero]
        check = run_verification(self._fresh(t))["checks"][2]
        assert check["detail"] == f"{len(failed)} map(s) failed; first: {failed[0]}"


class TestQuotientMapWitness:
    """A failing quotient map names itself in the check's detail.

    On conforming triples every map passes, so each failure is injected: a
    builder with a faulty carrier, or a rank route that lies. Injectivity is
    decided by rank alone; the preimage route is a test oracle.
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
        # a preimage route that says no is never asked: the rank route alone
        # decides, and every map passes
        from ratspec import intertwine
        asked = []
        monkeypatch.setattr(intertwine.QuotientMap, "injective_by_preimage",
                            lambda qm: asked.append(qm) or False)
        t = paper_example(2, default_idempotent(2))
        check = run_verification(t)["checks"][2]
        assert check == {"name": "quotient_maps", "passed": True, "detail": ""}
        assert asked == []

    def test_witness_reaches_the_rendered_table(self, monkeypatch, ex1_file, capsys):
        # a rank route that says no fails the first map with a moving source;
        # the witness reports the matrix's true rank
        from ratspec import intertwine
        with open(ex1_file) as fh:
            t, _ = parse_triple_document(fh.read())
        lam = next(x for x in intertwine.default_probes(t) if x)
        first = intertwine.gamma_map(t, 0, lam)
        monkeypatch.setattr(intertwine.QuotientMap, "injective_by_rank",
                            lambda qm: False)
        assert main(["verify", ex1_file]) == EXIT_FAIL
        out = capsys.readouterr().out
        line = next(x for x in out.splitlines() if "quotient_maps" in x)
        assert line.startswith("FAIL  quotient_maps")
        assert (f"map(s) failed; first: gamma at lambda={lam}, n=0: not injective "
                f"(source dim {first.source_dim}, target dim {first.target_dim}, "
                f"rank {first.source_dim})") in line


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
        # 3 stay equal, and lambda = 0 is still skipped. The fault is
        # injected by lambda: AC - 2 and AC - 3 share the invertible chain
        from ratspec import intertwine
        t = paper_example(1, default_idempotent(2))
        real = intertwine.TheoremRow

        def faulty(lam, in_sigma_ac, in_sigma_ba):
            got = list(in_sigma_ac)
            if lam == 2:
                got[2], got[5] = not got[2], not got[5]
            return real(lam=lam, in_sigma_ac=tuple(got), in_sigma_ba=in_sigma_ba)

        monkeypatch.setattr(intertwine, "TheoremRow", faulty)
        assert self._check(t, "theorem_memberships") == (
            "first failing lambda=2: membership in sigma_Ri(AC) and sigma_Ri(BA) "
            "differs for i in [3, 6]; skipped 1 zero probe(s)")


class TestSequenceAndDrazinWitness:
    """A failing sequence or Drazin check names where it fails.

    All three checks pass on conforming triples, so each failure is
    injected: a profile of AC - 1 that differs from BA - 1's in one field,
    an identity of the transfer or of the proof that reads False, or a
    Drazin inverse that raises.
    """

    @staticmethod
    def _details(t):
        result = run_verification(t)
        assert len(result["checks"]) == 9
        return {c["name"]: (c["passed"], c["detail"]) for c in result["checks"]}

    @staticmethod
    def _fault_at_one(monkeypatch, t, changes):
        # the profile of AC - 1 with the fields that changes(profile) gives;
        # the real profiles of AC - 1 and BA - 1 are returned
        import dataclasses

        from ratspec import intertwine
        ac_at_1 = t.chains(1)[1]
        real = intertwine.profile

        def faulty(chain):
            got = real(chain)
            return dataclasses.replace(got, **changes(got)) if chain is ac_at_1 else got

        monkeypatch.setattr(intertwine, "profile", faulty)
        return real(ac_at_1), real(t.chains(1)[0])

    def test_passing_details_are_empty(self):
        details = self._details(paper_example(1, default_idempotent(2)))
        for name in ("sequence_equalities", "drazin_transfer",
                     "drazin_proof_identities"):
            assert details[name] == (True, "")

    def test_sequences_name_the_first_unequal_row(self, monkeypatch):
        t = paper_example(1, default_idempotent(2))
        ac, ba = self._fault_at_one(monkeypatch, t, lambda p: {
            "c_seq": (p.c_seq[0] + 1,) + p.c_seq[1:],
            "k_seq": (p.k_seq[0], p.k_seq[1] + 2) + p.k_seq[2:]})
        assert self._details(t)["sequence_equalities"] == (False, (
            f"first unequal row at lambda=1, n=0: (AC, BA) "
            f"c = ({ac.c_seq[0] + 1}, {ba.c_seq[0]}), "
            f"c' = ({ac.cp_seq[0]}, {ba.cp_seq[0]}), k = ({ac.k_seq[0]}, {ba.k_seq[0]})"))

    def test_sequences_name_the_totals_and_degrees_that_differ(self, monkeypatch):
        t = paper_example(1, default_idempotent(2))
        ac, ba = self._fault_at_one(monkeypatch, t, lambda p: {
            "k_total": p.k_total + 1, "dsc": p.dsc + 1})
        assert ac.asc == ba.asc
        totals = ((ac.c_total, ac.cp_total, ac.k_total + 1),
                  (ba.c_total, ba.cp_total, ba.k_total))
        assert self._details(t)["sequence_equalities"] == (False, (
            f"at lambda=1 the rows agree; (AC, BA) differ in totals (c, c', k) "
            f"{totals}, descent ({ac.dsc + 1}, {ba.dsc})"))

    # matches_direct is read off the three identities (the Drazin inverse
    # is unique), so it fails with any of them and cannot fail alone
    @pytest.mark.parametrize("check, report, changes, failed", [
        pytest.param("drazin_transfer", "transfer", {"inner": False},
                     "inner, matches_direct", id="drazin_transfer-inner"),
        pytest.param("drazin_transfer", "transfer", {"residual_index": None},
                     "residual_nilpotent, matches_direct",
                     id="drazin_transfer-residual_nilpotent"),
        pytest.param("drazin_proof_identities", "proof_identities",
                     {"cycle": False}, "cycle", id="drazin_proof_identities-cycle"),
        pytest.param("drazin_proof_identities", "proof_identities",
                     {"pac_nilpotent": False}, "pac_nilpotent",
                     id="drazin_proof_identities-pac_nilpotent"),
    ])
    def test_drazin_checks_name_the_failed_identity(self, check, report, changes,
                                                     failed, monkeypatch):
        import dataclasses

        from ratspec import drazin
        real = getattr(drazin, report)
        monkeypatch.setattr(drazin, report, lambda *args: dataclasses.replace(
            real(*args), **changes))
        details = self._details(paper_example(2, default_idempotent(2)))
        assert details[check] == (False, f"failed: {failed}")
        other = ({"drazin_transfer", "drazin_proof_identities"} - {check}).pop()
        assert details[other] == (True, "")

    def test_a_raising_drazin_inverse_fails_the_transfer_check(
            self, monkeypatch, ex1_file, capsys):
        from ratspec import drazin

        def raising(T, chain=None):
            raise ArithmeticError("core block is singular")

        monkeypatch.setattr(drazin, "drazin_inverse", raising)
        details = self._details(paper_example(1, default_idempotent(2)))
        assert details["drazin_transfer"] == (
            False, "drazin_inverse raised: core block is singular")
        assert details["drazin_proof_identities"] == (False, "not checked: no transfer")
        assert all(passed for name, (passed, _) in details.items()
                   if not name.startswith("drazin_"))
        capsys.readouterr()
        assert main(["verify", ex1_file]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert ("FAIL  drazin_transfer  (drazin_inverse raised: core block is "
                "singular)") in out
        assert err == "first failing check: drazin_transfer\n"
