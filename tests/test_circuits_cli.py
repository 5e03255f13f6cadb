import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclifford.circuits import (
    CircuitDescription,
    CircuitSyntaxError,
    circuit_to_dense,
    embed_gate,
    parse_circuit,
)
from helpers import hex_to_bits
from semiclifford.cli import main, read_bit_matrices, bits_to_hex
from semiclifford.pauli import DENSE_QUBIT_CAP

ROOT = Path(__file__).resolve().parent.parent


def data(rel):
    return str(ROOT / rel)


def test_parse_simple():
    desc = parse_circuit("qubits 1\nT 0\n")
    assert desc.n == 1
    assert desc.gates == (("T", (0,)),)


def test_parse_comments_and_case():
    desc = parse_circuit("# leading comment\nqubits 2\ncx 0 1  # inline\n\nh 1\n")
    assert desc.gates == (("CX", (0, 1)), ("H", (1,)))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitSyntaxError, match="line 2"):
        parse_circuit("qubits 2\nCX 0 2\n")
    with pytest.raises(CircuitSyntaxError, match="line 1"):
        parse_circuit("T 0\n")
    with pytest.raises(CircuitSyntaxError, match="line 3"):
        parse_circuit("qubits 2\nH 0\nFOO 1\n")
    with pytest.raises(CircuitSyntaxError, match="line 2"):
        parse_circuit("qubits 2\nCX 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("# nothing\n")


@pytest.mark.parametrize(
    "text,line",
    [
        ("qubits 1_0\nX \u0663\n", 1),
        ("qubits 2\nX \u0663\n", 2),
        ("qubits \u0663\n", 1),
        ("qubits +2\n", 1),
        ("qubits 2\nCX 0 1_1\n", 2),
        ("qubits 2\nX +1\n", 2),
        ("qubits 2\nX \uff11\n", 2),
    ],
)
def test_parse_accepts_only_ascii_digits(text, line):
    # int() reads "1_0" as 10 and Arabic-Indic or full-width digits as
    # numbers; the circuit format allows [0-9]+ only
    with pytest.raises(CircuitSyntaxError, match=f"line {line}"):
        parse_circuit(text)


_CIRCUIT_TOKENS = st.sampled_from(
    ["qubits", "X", "cx", "CCZ", "H", "T", "0", "1", "2", "3", "007", "1_0", "+1", "-1",
     "\u0663", "\uff12", "#", "x", ""]
)


@given(
    st.lists(st.lists(_CIRCUIT_TOKENS, max_size=4).map(" ".join), max_size=5).map("\n".join)
    | st.text(max_size=30)
)
@settings(max_examples=300, deadline=None)
def test_parse_circuit_fuzz(text):
    try:
        desc = parse_circuit(text)
    except CircuitSyntaxError:
        return
    assert desc.n >= 1
    for _, qubits in desc.gates:
        assert all(type(q) is int and 0 <= q < desc.n for q in qubits)


@given(st.text(max_size=6))
@settings(max_examples=300, deadline=None)
def test_parse_circuit_header_is_strict(count):
    text = f"qubits {count}\n"
    try:
        desc = parse_circuit(text)
    except CircuitSyntaxError:
        return
    token = count.split()[0] if len(count.split()) == 1 else None
    assert token is not None and token.isascii() and token.isdigit()
    assert desc.n == int(token) >= 1


def test_description_validation():
    with pytest.raises(ValueError):
        CircuitDescription(n=2, gates=(("CX", (0, 0)),))
    with pytest.raises(ValueError):
        CircuitDescription(n=1, gates=(("H", (1,)),))


def test_embed_gate_matches_kron():
    h = embed_gate("H", (0,), 1)
    want = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.allclose(h, want)
    hi = embed_gate("H", (0,), 2)
    assert np.allclose(hi, np.kron(want, np.eye(2)))
    ih = embed_gate("H", (1,), 2)
    assert np.allclose(ih, np.kron(np.eye(2), want))


def test_embed_cx_direction():
    cx01 = embed_gate("CX", (0, 1), 2)
    # control qubit 0 (MSB): |10> -> |11>
    assert cx01[0b11, 0b10] == 1 and cx01[0b10, 0b10] == 0
    cx10 = embed_gate("CX", (1, 0), 2)
    assert cx10[0b11, 0b01] == 1


def test_embed_cswap_and_ccz():
    ccz = embed_gate("CCZ", (0, 1, 2), 3)
    assert np.allclose(ccz, np.diag([1, 1, 1, 1, 1, 1, 1, -1]))
    cswap = embed_gate("CSWAP", (0, 1, 2), 3)
    # |101> <-> |110>
    assert cswap[0b110, 0b101] == 1 and cswap[0b101, 0b110] == 1
    assert cswap[0b001, 0b001] == 1


def test_circuit_to_dense_order():
    # listed gates act in order: X then H equals H @ X
    desc = parse_circuit("qubits 1\nX 0\nH 0\n")
    u = circuit_to_dense(desc)
    want = embed_gate("H", (0,), 1) @ embed_gate("X", (0,), 1)
    assert np.allclose(u, want)


def test_circuit_to_dense_rejects_past_dense_cap():
    # the cap fires before the 2^n x 2^n identity is allocated
    desc = parse_circuit(f"qubits {DENSE_QUBIT_CAP + 1}\n")
    with pytest.raises(ValueError, match=f"n={DENSE_QUBIT_CAP + 1}.*cap {DENSE_QUBIT_CAP}"):
        circuit_to_dense(desc)


def test_embed_gate_rejects_past_dense_cap():
    n = DENSE_QUBIT_CAP + 1
    with pytest.raises(ValueError, match=f"n={n}.*cap {DENSE_QUBIT_CAP}"):
        embed_gate("X", (0,), n)


def test_read_bit_matrices(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 3\n101\n010\n2 2\n10\n01\n")
    mats = read_bit_matrices(str(path))
    assert len(mats) == 2
    assert mats[0].tolist() == [[1, 0, 1], [0, 1, 0]]
    with pytest.raises(OSError):
        read_bit_matrices(str(tmp_path / "missing.mat"))
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n10\n")
    with pytest.raises(ValueError):
        read_bit_matrices(str(bad))


def test_hex_round_trip(rng):
    bits = rng.integers(0, 2, size=36).astype(np.uint8)
    assert np.array_equal(hex_to_bits(bits_to_hex(bits), 36), bits)


def test_cli_classify_json(capsys):
    code = main(["--json", "classify", data("circuits/t.cir")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hierarchy_level"] == 3
    assert out["semi_clifford"] is True
    assert out["generalized_semi_clifford"] is True


def test_cli_call_leaves_no_cyclic_garbage(capsys):
    main(["--json", "classify", data("circuits/ccz.cir")])
    gc.collect()
    assert main(["--json", "classify", data("circuits/ccz.cir")]) == 0
    assert gc.collect() == 0


def test_cli_calls_share_no_flag_state(capsys):
    main(["--json", "--kmax", "1", "classify", data("circuits/t.cir")])
    first = json.loads(capsys.readouterr().out)
    main(["--json", "classify", data("circuits/t.cir")])
    second = json.loads(capsys.readouterr().out)
    assert (first["kmax"], first["hierarchy_level"]) == (1, None)
    assert (second["kmax"], second["hierarchy_level"]) == (3, 3)


def test_cli_classify_deterministic(capsys):
    main(["--json", "classify", data("circuits/h.cir")])
    first = capsys.readouterr().out
    main(["--json", "classify", data("circuits/h.cir")])
    second = capsys.readouterr().out
    assert first == second


def test_cli_normalform_json(capsys):
    code = main(["--json", "normalform", data("matrices/c1c2.mat")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mode"] == "set"
    assert out["obstruction"] is True
    for rows in out["normalized"]:
        mat = np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)
        assert not mat[2:, :2].any()


def test_cli_normalform_single(tmp_path, capsys):
    path = tmp_path / "single.mat"
    path.write_text("4 4\n1000\n1100\n0011\n0001\n")
    code = main(["--json", "normalform", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mode"] == "single"
    e = np.array([[int(c) for c in row] for row in out["e_block"]], dtype=np.uint8)
    assert np.array_equal(e, e.T)


def test_cli_expand_json(capsys):
    code = main(["--json", "expand", data("circuits/h.cir")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["support_size"] == 2
    assert out["s"] == 1
    assert abs(out["magnitude"] - 2 ** -0.5) < 1e-12


def test_cli_expand_rejects_non_clifford(capsys):
    code = main(["--json", "expand", data("circuits/t.cir")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "error" in out


def test_cli_pipeline_json(capsys):
    code = main(["--json", "pipeline", data("circuits/ccz.cir")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    cert = out["certificate"]
    assert cert["verdicts"]["kernel_dimension"] == 3
    assert cert["verdicts"]["span_full"] is True


def test_cli_error_paths(capsys, tmp_path):
    code = main(["--json", "classify", str(tmp_path / "nope.cir")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and "error" in out
    bad = tmp_path / "bad.cir"
    bad.write_text("qubits 2\nCX 0 2\n")
    code = main(["classify", str(bad)])
    captured = capsys.readouterr()
    assert code == 1


def test_console_entry_point():
    # the child imports the package from this checkout's src/, as the
    # suite itself does, whether or not PYTHONPATH names it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "semiclifford.cli", "--json", "classify", data("circuits/h.cir")],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["hierarchy_level"] == 2


def test_cli_verify_counterexample(capsys):
    code = main(["--json", "verify-counterexample"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["uv_in_level_3"] is True
    assert out["vu_in_level_3"] is False
    assert out["all_verdicts_pass"] is True
    assert out["certificate"]["verdicts"]["kernel_dimension"] == 7


def test_cli_pipeline_matches_counterexample_circuit(capsys):
    # the shipped circuit file builds the same gate the library constructs
    from semiclifford.pipeline import gottesman_mochon

    with open(data("circuits/gottesman_mochon.cir")) as fh:
        desc = parse_circuit(fh.read())
    u_file = circuit_to_dense(desc)
    u, v = gottesman_mochon()
    assert np.allclose(u_file, (u @ v).to_dense(), atol=1e-9)


def test_cli_pipeline_deterministic(capsys):
    main(["--json", "pipeline", data("circuits/ccz.cir")])
    first = capsys.readouterr().out
    main(["--json", "pipeline", data("circuits/ccz.cir")])
    assert capsys.readouterr().out == first


def test_cli_classify_seven_qubits_skips_span_tests(capsys):
    code = main(["--json", "classify", data("circuits/gottesman_mochon.cir")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hierarchy_level"] == 3
    assert out["semi_clifford"] is None
    assert out["generalized_semi_clifford"] is None


def test_read_bit_matrices_rejects_non_binary_digits(tmp_path):
    # a row "1002" must not be reduced mod 2 to the identity row "1000"
    bad = tmp_path / "digits.mat"
    bad.write_text("4 4\n1000\n0100\n0010\n1002\n")
    with pytest.raises(ValueError, match=r"line 5.*'1002'"):
        read_bit_matrices(str(bad))
    code = main(["--json", "normalform", str(bad)])
    assert code == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("-1 2\n10\n", 1),
        ("2 x\n10\n01\n", 1),
        ("0 0\n", 1),
        ("# comment\n\n1 2\n10\n2 -2\n10\n01\n", 5),
    ],
)
def test_read_bit_matrices_rejects_bad_header(tmp_path, text, line):
    bad = tmp_path / "header.mat"
    bad.write_text(text)
    with pytest.raises(ValueError, match=rf"header\.mat: line {line}: .* not two positive integers"):
        read_bit_matrices(str(bad))
    assert main(["--json", "normalform", str(bad)]) == 1


@given(st.text(alphabet="0123456789 -+_x#\t\n", max_size=10))
@settings(max_examples=200, deadline=None)
def test_read_bit_matrices_header_fuzz(tmp_path_factory, header):
    path = tmp_path_factory.mktemp("fuzz") / "m.mat"
    path.write_text(f"{header}\n10\n01\n")
    try:
        mats = read_bit_matrices(str(path))
    except ValueError:
        return
    assert all(m.dtype == np.uint8 and m.size for m in mats)


@pytest.mark.parametrize(
    "text,line,what",
    [
        ("2 2\n10\n1\n", 3, "row '1' has 1 entries, header says 2"),
        ("2 3\n10\n01\n", 2, "row '10' has 2 entries, header says 3"),
        ("2 2\n10\n", 1, "block of 2 rows ends after 1"),
        ("1 2\n10\n3 2\n10\n01\n", 3, "block of 3 rows ends after 2"),
        ("1 2\n101\n", 2, "row '101' has 3 entries, header says 2"),
    ],
)
def test_read_bit_matrices_names_malformed_block(tmp_path, text, line, what):
    bad = tmp_path / "block.mat"
    bad.write_text(text)
    with pytest.raises(ValueError, match=rf"block\.mat: line {line}: {what}"):
        read_bit_matrices(str(bad))
    assert main(["--json", "normalform", str(bad)]) == 1


@given(st.text(alphabet="01 2#\t\n", max_size=24))
@settings(max_examples=200, deadline=None)
def test_read_bit_matrices_body_fuzz(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("fuzz") / "m.mat"
    path.write_text(f"2 3\n{body}\n")
    try:
        mats = read_bit_matrices(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: line ")
        return
    assert mats[0].shape == (2, 3)
    assert all(m.dtype == np.uint8 and set(np.unique(m)) <= {0, 1} for m in mats)


@pytest.mark.parametrize("header", ["1_0 2", "2 \u0663", "+2 2", "2 +2", "\uff12 2"])
def test_read_bit_matrices_header_accepts_only_ascii_digits(tmp_path, header):
    bad = tmp_path / "strict.mat"
    bad.write_text(f"{header}\n10\n01\n")
    with pytest.raises(ValueError, match=r"strict\.mat: line 1: .* not two positive integers"):
        read_bit_matrices(str(bad))


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_cli_rejects_kmax_below_one(kmax, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--json", "--kmax", kmax, "classify", data("circuits/t.cir")])
    assert exc.value.code != 0
    assert "--kmax" in capsys.readouterr().err


def test_cli_rejects_circuit_past_dense_cap(tmp_path, capsys):
    big = tmp_path / "big.cir"
    big.write_text(f"qubits {DENSE_QUBIT_CAP + 1}\nH 0\n")
    code = main(["--json", "classify", str(big)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert f"cap {DENSE_QUBIT_CAP}" in out["error"]
