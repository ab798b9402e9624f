"""Golden outputs: the CLI's bytes on fixed documents, pinned by digest.

GOLDEN maps (document, command) to the first 16 hex digits of the sha256 of
stdout and of stderr, and the exit code; the generate entries pin the
generated documents themselves. A change that should not move any
output keeps this test passing unchanged. A change that means to move an
output records the table again with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which entries moved and why.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from ratspec.cli import main, write_triple_document
from ratspec.genlab import GenSpec, generate
from ratspec.intertwine import OperatorTriple
from ratspec.ratmat import Mat

COMMANDS = {
    "verify": ["verify", "--json"],
    "report": ["report", "--json"],
    "drazin": ["drazin", "--json"],
    "verify-text": ["verify"],
    "report-text": ["report"],
}
# the text renderings run on one document each
TEXT_DOCUMENT = "paper_ex1"
# dim-9 documents whose charpoly root bounds (1 952 788 and 530 144 284)
# make the eigenvalue search lift its candidates far past the small-bound
# range; only the two default-probe JSON commands run on them
LARGE_BOUND = {"aba_eq_aca_dim9": ("aba_eq_aca", 0),
               "conjugated_dim9": ("conjugated", 5)}
LARGE_BOUND_COMMANDS = ("verify", "report")
# generate runs (entry bound 2) whose draws all go through the ABA = ACA
# sampler: name -> (template, dim, seed)
GENERATE = {"aba_eq_aca_dim12": ("aba_eq_aca", 12, 3),
            "conjugated_dim12": ("conjugated", 12, 5),
            "direct_sum_dim12": ("direct_sum", 12, 3),
            "rational_spectrum_dim12": ("rational_spectrum", 12, 6),
            "aba_eq_aca_dim24": ("aba_eq_aca", 24, 3)}


def documents() -> dict[str, OperatorTriple]:
    """One document per template, two dim-9 documents with large root
    bounds, the rational-spectrum instance, and the 0-dimensional triples
    (X, Y or both of dimension 0)."""
    docs = {name: generate(GenSpec(template=name, block_dim=2))
            for name in ("paper_ex1", "paper_ex2")}
    for name in ("c_equals_b", "aba_eq_aca", "conjugated", "direct_sum",
                 "nonconforming"):
        docs[name] = generate(GenSpec(template=name, block_dim=3, seed=1,
                                      entry_bound=2))
    for name, (template, seed) in LARGE_BOUND.items():
        docs[name] = generate(GenSpec(template=template, block_dim=9, seed=seed,
                                      entry_bound=2))
    docs["rational_spectrum"] = generate(
        GenSpec(template="rational_spectrum", block_dim=3, seed=1, entry_bound=2))
    for dx, dy in ((0, 0), (0, 2), (2, 0)):
        docs[f"zero_{dx}x{dy}"] = OperatorTriple(
            Mat.zero(dy, dx), Mat.zero(dx, dy), Mat.zero(dx, dy))
    return docs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _digest(out.getvalue()), _digest(err.getvalue()), code


def outputs(workdir: Path) -> dict[tuple[str, str], tuple[str, str, int]]:
    result = {}
    for name, t in documents().items():
        path = workdir / f"{name}.json"
        write_triple_document(t, str(path))
        for command, argv in COMMANDS.items():
            if command.endswith("-text") and name != TEXT_DOCUMENT:
                continue
            if name in LARGE_BOUND and command not in LARGE_BOUND_COMMANDS:
                continue
            result[name, command] = _run([argv[0], str(path), *argv[1:]])
    for name, (template, dim, seed) in GENERATE.items():
        result[name, "generate"] = _run(
            ["generate", "--template", template, "--dim", str(dim),
             "--seed", str(seed), "--entry-bound", "2"])
    return result


GOLDEN = {
    ("paper_ex1", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("paper_ex1", "report"):
        ("d8025e3a9d0dc194", "e3b0c44298fc1c14", 0),
    ("paper_ex1", "drazin"):
        ("88d07724d1f29c0e", "e3b0c44298fc1c14", 0),
    ("paper_ex1", "verify-text"):
        ("3baa6e31ef2a8eea", "e3b0c44298fc1c14", 0),
    ("paper_ex1", "report-text"):
        ("36823b58f64a69d7", "e3b0c44298fc1c14", 0),
    ("paper_ex2", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("paper_ex2", "report"):
        ("d8025e3a9d0dc194", "e3b0c44298fc1c14", 0),
    ("paper_ex2", "drazin"):
        ("88d07724d1f29c0e", "e3b0c44298fc1c14", 0),
    ("c_equals_b", "verify"):
        ("bedc8ecacc7a8b54", "e3b0c44298fc1c14", 0),
    ("c_equals_b", "report"):
        ("7b06cafbb24633ce", "e3b0c44298fc1c14", 0),
    ("c_equals_b", "drazin"):
        ("7192015b48f6958b", "e3b0c44298fc1c14", 0),
    ("aba_eq_aca", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("aba_eq_aca", "report"):
        ("89adf50330a10a40", "e3b0c44298fc1c14", 0),
    ("aba_eq_aca", "drazin"):
        ("d07139456b252e4e", "e3b0c44298fc1c14", 0),
    ("conjugated", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("conjugated", "report"):
        ("8123ca80a2dbbd45", "e3b0c44298fc1c14", 0),
    ("conjugated", "drazin"):
        ("cb27a9434edf749f", "e3b0c44298fc1c14", 0),
    ("direct_sum", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("direct_sum", "report"):
        ("f94327d01dc9605d", "e3b0c44298fc1c14", 0),
    ("direct_sum", "drazin"):
        ("9ea9ffb2abb89205", "e3b0c44298fc1c14", 0),
    ("nonconforming", "verify"):
        ("d264dbb217eeff23", "51dbf716e921ced3", 1),
    ("nonconforming", "report"):
        ("38160a12842057c9", "1502e09e9967c248", 0),
    ("nonconforming", "drazin"):
        ("e3b0c44298fc1c14", "f04f7d368b1a1e5f", 1),
    ("aba_eq_aca_dim9", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("aba_eq_aca_dim9", "report"):
        ("d1f3ce3193581c64", "e3b0c44298fc1c14", 0),
    ("conjugated_dim9", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("conjugated_dim9", "report"):
        ("d1f3ce3193581c64", "e3b0c44298fc1c14", 0),
    ("rational_spectrum", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("rational_spectrum", "report"):
        ("649194b60ffa6bc4", "e3b0c44298fc1c14", 0),
    ("rational_spectrum", "drazin"):
        ("5cb14851737c0a86", "e3b0c44298fc1c14", 0),
    ("zero_0x0", "verify"):
        ("bedc8ecacc7a8b54", "e3b0c44298fc1c14", 0),
    ("zero_0x0", "report"):
        ("f1644af3b88a399d", "e3b0c44298fc1c14", 0),
    ("zero_0x0", "drazin"):
        ("3e33ddc18cb12466", "e3b0c44298fc1c14", 0),
    ("zero_0x2", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("zero_0x2", "report"):
        ("56164491767ca99c", "e3b0c44298fc1c14", 0),
    ("zero_0x2", "drazin"):
        ("11b5d77ff7db4249", "e3b0c44298fc1c14", 0),
    ("zero_2x0", "verify"):
        ("551ac1f561a7a681", "e3b0c44298fc1c14", 0),
    ("zero_2x0", "report"):
        ("da05f684d47423e0", "e3b0c44298fc1c14", 0),
    ("zero_2x0", "drazin"):
        ("de4e802e21bc4d41", "e3b0c44298fc1c14", 0),
    ("aba_eq_aca_dim12", "generate"):
        ("4fbb5d3b7db96982", "e3b0c44298fc1c14", 0),
    ("conjugated_dim12", "generate"):
        ("b065c96fa720a8d1", "e3b0c44298fc1c14", 0),
    ("direct_sum_dim12", "generate"):
        ("e8e0098084115951", "e3b0c44298fc1c14", 0),
    ("rational_spectrum_dim12", "generate"):
        ("3cd61d43b51e94c2", "e3b0c44298fc1c14", 0),
    ("aba_eq_aca_dim24", "generate"):
        ("2c4de5bafcb97535", "e3b0c44298fc1c14", 0),
}


def test_outputs_match_golden(tmp_path):
    got = outputs(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    moved = {key: got[key] for key in GOLDEN if got[key] != GOLDEN[key]}
    assert moved == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = outputs(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for (name, command), (out, err, code) in table.items():
        sys.stdout.write(f'    ("{name}", "{command}"):\n'
                         f'        ("{out}", "{err}", {code}),\n')
    sys.stdout.write("}\n")
