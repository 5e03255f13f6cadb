"""Byte-for-byte `--json` output of the CLI on fixed inputs.

Each case runs ``cli.main`` from the repository root on a committed
circuit or bit-matrix file and compares standard output with a
committed file.  The inputs cover every circuit under ``circuits/``
and three n = 3 gates: a Clifford (both searches hit at once), a
Clifford . diagonal . Clifford gate (semi-Clifford on a late
Lagrangian) and a Clifford+T gate for which both searches run to the
end.  ``pipeline`` runs on every circuit under ``circuits/``, and
``verify-counterexample``, which takes no circuit, runs once; both use
the default seed.  ``pipeline`` also runs on an n = 2 gate whose family
is outside block form and whose kernel products each take two
generators.  ``normalform`` runs on ``matrices/c1c2.mat`` (set
mode, two elements), a single n = 6 involution, a three-element n = 6
commuting set and a three-element n = 5 set whose set normal form
recurses once and completes a Jordan basis; ``expand`` also runs on an n = 5 Clifford whose C
fixes a 2-dimensional space, whose coefficients hold many ``-0.0``
parts that any change in the order of the phase recurrence would flip.
Regenerate an expected file only for a change that means to alter the
output:

    PYTHONPATH=src python -m semiclifford.cli --json classify circuits/t.cir \\
        > tests/golden/classify_t.json
"""

from pathlib import Path

import pytest

from semiclifford.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CIRCUITS = [f"circuits/{p.name}" for p in sorted((ROOT / "circuits").glob("*.cir"))]
CASES = [("classify", c) for c in CIRCUITS]
CASES += [
    ("classify", "tests/golden/clifford3.cir"),
    ("classify", "tests/golden/cdc3.cir"),
    ("classify", "tests/golden/clifford_t3.cir"),
    ("expand", "tests/golden/clifford3.cir"),
    ("expand", "tests/golden/fixed2_5.cir"),
    ("normalform", "matrices/c1c2.mat"),
    ("normalform", "tests/golden/involution6.mat"),
    ("normalform", "tests/golden/set3_6.mat"),
    ("normalform", "tests/golden/set3_5.mat"),
]
CASES += [("pipeline", c) for c in CIRCUITS]
CASES += [("pipeline", "tests/golden/nonblock2.cir")]
CASES += [("verify-counterexample", None)]


def _stem(verb, circuit):
    return verb if circuit is None else f"{verb}_{Path(circuit).stem}"


IDS = [v if c is None else f"{v}-{Path(c).stem}" for v, c in CASES]


@pytest.mark.parametrize("verb,circuit", CASES, ids=IDS)
def test_json_matches_golden(verb, circuit, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["--json", verb] + ([] if circuit is None else [circuit])) == 0
    expected = (GOLDEN / f"{_stem(verb, circuit)}.json").read_text()
    assert capsys.readouterr().out == expected
