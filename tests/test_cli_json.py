"""The --json encoder against json.dumps, byte for byte.

expand writes its coefficient table as text assembled from one encoding
of each distinct (re, im) bit pattern, and places it unchanged into a
report otherwise encoded by json.dumps(report, sort_keys=True).  Its
oracle is that one json.dumps call over the dict-per-coefficient list
(helpers.coefficient_dicts_oracle), run by putting the list back in
place of the text.  Every other report must still be one json.dumps
call.  The human-readable expand output is compared with files written
before the table was encoded as text.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import coefficient_dicts_oracle, random_circuit, write_circuit
from semiclifford import cli
from semiclifford.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CLIFFORD_GATES = ("H", "S", "SDG", "X", "Y", "Z", "CX", "CZ", "SWAP")


def _stdout(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _oracle_stdout(argv, monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "coefficient_table", coefficient_dicts_oracle)
        return _stdout(argv, capsys)


def test_expand_json_matches_one_dumps_on_random_cliffords(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(2222)
    phases, signed_zeros = set(), 0
    for n in range(1, 9):
        for t in range(3 if n < 8 else 1):
            desc = random_circuit(n, 8 * n, rng, names=CLIFFORD_GATES)
            argv = ["--json", "expand", write_circuit(tmp_path / f"c{n}_{t}.cir", desc)]
            got = _stdout(argv, capsys)
            assert got == _oracle_stdout(argv, monkeypatch, capsys)
            assert got[0] == 0
            assert got[1] == json.dumps(json.loads(got[1]), sort_keys=True) + "\n"
            parts = np.array([(c["re"], c["im"]) for c in json.loads(got[1])["coefficients"]])
            phases.update(cli.phase_labels((parts[:, 0] + 1j * parts[:, 1]) / abs(parts[0, 0])))
            signed_zeros += int((np.signbit(parts) & (parts == 0)).sum())
    # every phase and both zeros occur, so each kind of tail is encoded
    assert phases == {"1", "-1", "i", "-i"} and signed_zeros


@pytest.mark.parametrize(
    "values",
    [
        np.array([0.125, -0.0, 0.0, -0.125j, 0.0j, -0.0 - 0.0j, 1e-300 + 1e300j, 0.1 + 0.2j]),
        np.array([np.nan, np.inf, -np.inf + 1j, 2.0, 2.0 + 0j, 3.0]),
        np.exp(2j * np.pi * np.random.default_rng(5).random(64)),
    ],
)
def test_coefficient_table_matches_dumps_on_any_values(values):
    support = np.random.default_rng(7).integers(0, 2, (len(values), 6)).astype(np.uint8)
    want = json.dumps(coefficient_dicts_oracle(support, values), sort_keys=True)
    assert cli.coefficient_table(support, values) == want


def test_encode_report_places_raw_text_where_dumps_puts_the_value():
    table = [{"a": "01", "im": -0.0, "re": 0.5}]
    report = {"z": 1, "coefficients": table, "a": {"y": [1.5, "x"], "b": None}, "é": "ü"}
    want = json.dumps(report, sort_keys=True)
    assert cli.encode_report(report) == want
    report["coefficients"] = cli.RawJSON(json.dumps(table, sort_keys=True))
    assert cli.encode_report(report) == want


GOLDEN_CASES = [
    ["classify", "tests/golden/clifford_t3.cir"],
    ["classify", "circuits/t.cir"],
    ["expand", "tests/golden/clifford3.cir"],
    ["expand", "tests/golden/fixed2_5.cir"],
    ["normalform", "matrices/c1c2.mat"],
    ["normalform", "tests/golden/set3_5.mat"],
    ["pipeline", "circuits/h.cir"],
    ["verify-counterexample"],
    ["expand", "circuits/t.cir"],  # an error report: T is not Clifford
]


@pytest.mark.parametrize("argv", GOLDEN_CASES, ids=lambda a: "-".join(a).replace("/", "_"))
def test_every_verb_matches_one_dumps(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, out = _stdout(["--json", *argv], capsys)
    assert (code, out) == _oracle_stdout(["--json", *argv], monkeypatch, capsys)
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert code == ("error" in json.loads(out))  # exit 1 exactly on an error report
    if argv[-1] == "circuits/t.cir" and argv[0] == "expand":
        want = {"command": "expand", "error": "circuit is not Clifford; expansion needs a (C, h) rep"}
        assert out == json.dumps(want, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "circuits/t.cir"],
        ["normalform", "matrices/c1c2.mat"],
        ["pipeline", "circuits/ccz.cir"],
        ["verify-counterexample"],
        ["expand", "circuits/t.cir"],
    ],
    ids=lambda a: a[0],
)
def test_reports_without_raw_text_are_one_dumps_call(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(k) or dumps(*a, **k))
    for _ in range(2):
        main(["--json", *argv])
    capsys.readouterr()
    assert calls == [{"sort_keys": True}] * 2


@pytest.mark.parametrize("stem", ["clifford3", "fixed2_5"])
def test_human_expand_output_is_unchanged(stem, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["expand", f"tests/golden/{stem}.cir"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"expand_{stem}.txt").read_text()
