import gc
import itertools
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
    CHAIN_QUBITS,
    GATE_ARITY,
    GATE_MATRICES,
    CircuitDescription,
    CircuitSyntaxError,
    _embed_monomial,
    _gate_monomial,
    _placed_gate,
    circuit_to_dense,
    parse_circuit,
    standard_gate,
)
from helpers import (
    circuit_to_dense_oracle,
    embed_gate_oracle,
    hex_to_bits,
    random_circuit,
    write_circuit,
)
from semiclifford import cli
from semiclifford.cli import (
    bitstring,
    bits_to_hex,
    main,
    matrix_rows,
    phase_labels,
    phase_str,
    read_bit_matrices,
)
from semiclifford.dense import close
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


@pytest.mark.parametrize("token", ["\u017f", "\u0131", "\u017fdg", "\uff58"])
def test_parse_accepts_only_ascii_gate_names(token):
    # str.upper() maps the long s to S and the dotless i to I; the
    # circuit format's gate names are ASCII
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(f"qubits 1\n{token} 0\n")
    assert str(err.value) == f"line 2: unknown gate {token!r}"


@pytest.mark.parametrize("name", ["\u017f", "\u0131", "\u017fdg"])
def test_standard_gate_accepts_only_ascii_names(name):
    with pytest.raises(ValueError) as err:
        standard_gate(name, (0,), 1)
    assert str(err.value) == f"unknown gate {name!r}"


@pytest.mark.parametrize(
    "text,message",
    [
        ("T 0  # no header\n", "line 1: expected 'qubits N', got 'T 0  # no header'"),
        ("qubits two\n", "line 1: bad qubit count 'two'"),
        ("qubits 0\n", "line 1: qubit count must be positive"),
        ("qubits 2\nH 0\nFOO 1  # what\n", "line 3: unknown gate 'FOO'"),
        (
            "qubits 2\n\nCX 0 1_1  # odd index\n",
            "line 3: bad qubit index in 'CX 0 1_1  # odd index'",
        ),
        ("qubits 2\nCX 0  # one short\n", "line 2: CX takes 2 qubits, got 1"),
        ("qubits 3\nCCZ 2 0 2   # twice\n", "line 2: repeated qubit in 'CCZ 2 0 2   # twice'"),
        ("qubits 2\nh 1\nccz 0 1 2\n", "line 3: qubit 2 out of range for n=2"),
        ("qubits 2\n  X   3 # far\n", "line 2: qubit 3 out of range for n=2"),
        ("# nothing\n", "missing 'qubits N' header"),
    ],
)
def test_parse_error_messages_are_pinned(text, message):
    # one case per error branch; a message that quotes the line quotes
    # it as written, comment included
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert str(err.value) == message


def test_the_same_bad_line_reports_its_own_line_in_each_file():
    bad = "CX 0 0  # same line\n"
    for text, line in [(f"qubits 2\n{bad}", 2), (f"qubits 2\nH 0\n\nX 1\n{bad}", 5)]:
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(text)
        assert str(err.value) == f"line {line}: repeated qubit in {bad.strip()!r}"


def test_a_line_valid_at_three_qubits_is_out_of_range_at_two():
    assert parse_circuit("qubits 3\nCX 0 2\n").gates == (("CX", (0, 2)),)
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\nCX 0 2\n")
    assert str(err.value) == "line 2: qubit 2 out of range for n=2"


def test_parse_checks_each_gate_once(monkeypatch):
    text = "qubits 3\nH 0\ncx 0 1\nCCZ 2 1 0\nH 0\n"
    want = parse_circuit(text)
    calls = []
    monkeypatch.setattr(CircuitDescription, "__post_init__", lambda self: calls.append(self))
    got = parse_circuit(text)
    assert calls == []
    assert got == want == CircuitDescription(want.n, want.gates)
    assert calls == [want]  # the public constructor still checks


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
    words = count.split("#", 1)[0].split()  # as the parser, drop a '#' comment first
    token = words[0] if len(words) == 1 else None
    assert token is not None and token.isascii() and token.isdigit()
    assert desc.n == int(token) >= 1


def test_description_validation():
    with pytest.raises(ValueError):
        CircuitDescription(n=2, gates=(("CX", (0, 0)),))
    with pytest.raises(ValueError):
        CircuitDescription(n=1, gates=(("H", (1,)),))


@pytest.mark.parametrize("n", [True, 2.5, 2.0, "2", None])
def test_description_rejects_a_non_integer_qubit_count(n):
    # n = True built a 1-qubit circuit, and n = 2.5 failed in 1 << n
    with pytest.raises(ValueError, match="is not an integer"):
        CircuitDescription(n, (("H", (0,)),))


@pytest.mark.parametrize("q", [True, False, 0.5, 1.0, "1", None])
def test_description_rejects_a_non_integer_qubit(q):
    # (True,) placed X on qubit 1, and (0.5,) failed with an IndexError
    with pytest.raises(ValueError, match="is not an integer"):
        CircuitDescription(2, (("X", (q,)),))
    with pytest.raises(ValueError, match="is not an integer"):
        standard_gate("CX", (0, q), 2)


def test_description_accepts_numpy_integers():
    desc = CircuitDescription(np.int64(2), (("CX", (np.int32(1), np.uint8(0))),))
    assert np.array_equal(circuit_to_dense(desc), circuit_to_dense(parse_circuit("qubits 2\nCX 1 0\n")))


def test_description_takes_lists_as_tuples():
    # a list of qubits or of gates was stored as it came, and then both
    # circuit_to_dense's gate cache and hash() raised a bare TypeError
    want = CircuitDescription(2, (("H", (0,)), ("CX", (0, 1))))
    for gates in ((("H", [0]), ("CX", [0, 1])), [("H", (0,)), ("CX", (0, 1))], [["H", [0]], ["CX", [0, 1]]]):
        desc = CircuitDescription(2, gates)
        assert desc == want and hash(desc) == hash(want)
        assert desc.gates == want.gates and isinstance(desc.gates, tuple)
        assert np.array_equal(circuit_to_dense(desc), circuit_to_dense(want))


def test_embed_gate_matches_kron():
    h = GATE_MATRICES["H"]
    want = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.allclose(h, want)
    hi = embed_gate_oracle("H", (0,), 2)
    assert np.allclose(hi, np.kron(want, np.eye(2)))
    ih = embed_gate_oracle("H", (1,), 2)
    assert np.allclose(ih, np.kron(np.eye(2), want))


def test_embed_cx_direction():
    cx01 = GATE_MATRICES["CX"]
    # control qubit 0 (MSB): |10> -> |11>
    assert cx01[0b11, 0b10] == 1 and cx01[0b10, 0b10] == 0
    cx10 = embed_gate_oracle("CX", (1, 0), 2)
    assert cx10[0b11, 0b01] == 1


def test_embed_cswap_and_ccz():
    ccz = GATE_MATRICES["CCZ"]
    assert np.allclose(ccz, np.diag([1, 1, 1, 1, 1, 1, 1, -1]))
    cswap = GATE_MATRICES["CSWAP"]
    # |101> <-> |110>
    assert cswap[0b110, 0b101] == 1 and cswap[0b101, 0b110] == 1
    assert cswap[0b001, 0b001] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_embeddings_match_the_column_loop_at_every_placement(n):
    for name, arity in GATE_ARITY.items():
        for qubits in itertools.permutations(range(n), arity):
            want = embed_gate_oracle(name, qubits, n)
            # equal entries; a one-gate product may flip the sign of a zero
            got = circuit_to_dense(CircuitDescription(n, ((name, qubits),)))
            assert np.array_equal(got, want), (name, qubits)
            gate = _gate_monomial(name)
            if gate is not None:
                got = _embed_monomial(gate, qubits, n).to_dense()
                assert np.array_equal(got, want), (name, qubits)


def test_circuit_to_dense_order():
    # listed gates act in order: X then H equals H @ X
    desc = parse_circuit("qubits 1\nX 0\nH 0\n")
    u = circuit_to_dense(desc)
    want = GATE_MATRICES["H"] @ GATE_MATRICES["X"]
    assert np.allclose(u, want)


def _all_placements(n):
    """Every library gate at every ordered choice of its qubits of n."""
    return [
        (name, qubits)
        for name, arity in GATE_ARITY.items()
        for qubits in itertools.permutations(range(n), arity)
    ]


def _random_library_circuit(n, depth, rng):
    placements = _all_placements(n)
    picks = rng.integers(len(placements), size=depth)
    return CircuitDescription(n, tuple(placements[i] for i in picks))


CIRCUIT_FILES = sorted(
    str(path.relative_to(ROOT))
    for folder in ("circuits", "tests/golden")
    for path in (ROOT / folder).glob("*.cir")
)


@pytest.mark.parametrize("rel", CIRCUIT_FILES)
def test_circuit_to_dense_matches_embedded_gates_on_every_file(rel):
    with open(data(rel)) as fh:
        desc = parse_circuit(fh.read())
    # bit for bit, signed zeros included
    assert circuit_to_dense(desc).tobytes() == circuit_to_dense_oracle(desc).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_circuit_to_dense_matches_embedded_gates_bit_for_bit(n, rng):
    assert 1 <= CHAIN_QUBITS < 7  # n = 1..7 covers both builds
    placements = _all_placements(n)
    order = rng.permutation(len(placements))
    descs = [CircuitDescription(n, tuple(placements[i] for i in order))]
    descs += [_random_library_circuit(n, 40, rng) for _ in range(3)]
    for desc in descs:
        assert circuit_to_dense(desc).tobytes() == circuit_to_dense_oracle(desc).tobytes()


@pytest.mark.parametrize("n", [1, CHAIN_QUBITS])
def test_placed_gates_are_read_only(n):
    for name, qubits in _all_placements(n):
        gate = _placed_gate(name, qubits, n)
        assert not gate.flags.writeable
        assert np.array_equal(gate, embed_gate_oracle(name, qubits, n))


@pytest.mark.parametrize("n", [1, CHAIN_QUBITS, CHAIN_QUBITS + 1])
def test_circuit_to_dense_returns_a_fresh_writable_array(n):
    for desc in (CircuitDescription(n, ()), CircuitDescription(n, (("H", (0,)),))):
        first = circuit_to_dense(desc)
        want = first.copy()
        assert first.flags.writeable
        first[:] = 7
        again = circuit_to_dense(desc)
        assert again is not first and again.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 9])
def test_circuit_to_dense_matches_embedded_gates_past_the_hierarchy_cap(n, rng):
    # at these sizes the oracle's 2^n x 2^n products round differently
    # in the last bit, so the two builds agree within TOL
    desc = _random_library_circuit(n, 40, rng)
    assert close(circuit_to_dense(desc), circuit_to_dense_oracle(desc))


def test_circuit_to_dense_rejects_past_dense_cap():
    # the cap fires before the 2^n x 2^n identity is allocated
    desc = parse_circuit(f"qubits {DENSE_QUBIT_CAP + 1}\n")
    with pytest.raises(ValueError, match=f"n={DENSE_QUBIT_CAP + 1}.*cap {DENSE_QUBIT_CAP}"):
        circuit_to_dense(desc)


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
    assert out["error"] == "circuit is not Clifford; expansion needs a (C, h) rep"


_CLIFFORD_GATES = ("I", "X", "Y", "Z", "H", "S", "SDG", "CX", "CZ", "SWAP")


def _expand_output(capsys, path):
    code = main(["--json", "expand", path])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_cli_expand_tableau_matches_the_dense_path_byte_for_byte(
    n, rng, tmp_path, capsys, monkeypatch
):
    descs = [random_circuit(n, 6 * n, rng, names=_CLIFFORD_GATES) for _ in range(4)]
    paths = [write_circuit(tmp_path / f"c{i}.cir", desc) for i, desc in enumerate(descs)]
    fast = [_expand_output(capsys, path) for path in paths]
    monkeypatch.setattr(cli, "has_library_reps", lambda desc: False)
    dense = [_expand_output(capsys, path) for path in paths]
    assert fast == dense
    assert all(code == 0 for code, _ in fast)


def _count_calls(monkeypatch, name, calls):
    real = getattr(cli, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(cli, name, counted)


def test_cli_expand_reads_a_clifford_circuit_without_a_dense_matrix(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("circuit_to_dense", "extract_rep"):
        _count_calls(monkeypatch, name, calls)
    rng = np.random.default_rng(3)
    for n in range(1, 8):
        desc = random_circuit(n, 6 * n, rng, names=_CLIFFORD_GATES)
        path = write_circuit(tmp_path / f"c{n}.cir", desc)
        code, _ = _expand_output(capsys, path)
        assert code == 0 and calls == [], n


def test_cli_expand_t_pair_is_s_through_the_dense_path(tmp_path, capsys, monkeypatch):
    calls = []
    _count_calls(monkeypatch, "circuit_to_dense", calls)
    path = tmp_path / "tt.cir"
    path.write_text("qubits 1\nT 0\nT 0\n")
    code, text = _expand_output(capsys, str(path))
    assert code == 0 and calls == ["circuit_to_dense"]
    want = cli.rep_to_json(standard_gate("S", (0,), 1))
    assert json.loads(text)["rep"] == want


def test_cli_expand_checks_the_dense_cap_first(tmp_path, capsys):
    big = tmp_path / "big.cir"
    big.write_text(f"qubits {DENSE_QUBIT_CAP + 1}\nH 0\nCX 0 1\n")
    code, text = _expand_output(capsys, str(big))
    assert code == 1
    assert json.loads(text)["error"] == (
        f"n={DENSE_QUBIT_CAP + 1} exceeds the dense cap {DENSE_QUBIT_CAP}"
    )


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


def test_cli_verbs_leave_numpy_ma_unimported():
    # numpy.ma (pulled in by np.unique, among others) adds about 1.7 MB
    # to a process; no verb needs it
    script = (
        "import contextlib, io, sys\n"
        "from semiclifford.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['--json', *argv.split()]) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    verbs = [
        f"classify {data('tests/golden/cdc3.cir')}",
        f"expand {data('tests/golden/clifford3.cir')}",
        f"normalform {data('tests/golden/set3_5.mat')}",
        f"pipeline {data('circuits/h.cir')}",
        f"pipeline {data('circuits/ccz.cir')}",
        "verify-counterexample",
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *verbs],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def _h_t_cx_circuit(n, gates):
    """A circuit of H, T and CX gates over n qubits, H first."""
    lines = [f"qubits {n}"]
    for i in range(gates):
        lines.append(("H {0}", "T {0}", "CX {0} {1}")[i % 3].format(i % n, (i + 1) % n))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "verb, kmax, n, error",
    [
        ("classify", "3", 8, "dimension 256 exceeds the hierarchy cap"),
        ("classify", "3", 10, "dimension 1024 exceeds the hierarchy cap"),
        ("classify", "5", 10, "kmax=5 exceeds the cap 4"),
        ("pipeline", "3", 8, "n=8 exceeds the pipeline cap of 7 qubits"),
        ("pipeline", "3", 10, "n=10 exceeds the pipeline cap of 7 qubits"),
    ],
)
def test_cli_refuses_circuit_past_hierarchy_cap_before_dense_build(
    verb, kmax, n, error, tmp_path, capsys, monkeypatch
):
    # the same error bytes as after a full 2^n x 2^n build, without the build
    path = tmp_path / "big.cir"
    path.write_text(_h_t_cx_circuit(n, 40))
    monkeypatch.setattr(cli, "circuit_to_dense", lambda desc: pytest.fail("dense build"))
    code = main(["--json", "--kmax", kmax, verb, str(path)])
    assert code == 1
    assert capsys.readouterr().out == json.dumps({"command": verb, "error": error}) + "\n"


def test_cli_dense_cap_comes_before_the_hierarchy_cap(tmp_path, capsys):
    path = tmp_path / "huge.cir"
    path.write_text(_h_t_cx_circuit(DENSE_QUBIT_CAP + 1, 3))
    for verb in ("classify", "expand", "pipeline"):
        assert main(["--json", "--kmax", "5", verb, str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == f"n={DENSE_QUBIT_CAP + 1} exceeds the dense cap {DENSE_QUBIT_CAP}"


@given(st.integers(0, 6), st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bit_rows_match_per_bit_join(rows, cols, seed):
    mat = np.random.default_rng(seed).integers(0, 2, size=(rows, cols)).astype(np.uint8)
    want = ["".join(str(int(b)) for b in row) for row in mat]
    assert matrix_rows(mat) == want
    assert [bitstring(row) for row in mat] == want
    assert bitstring(mat.reshape(-1)) == "".join(want)


def test_bit_rows_of_empty_input():
    assert bitstring(np.zeros(0, dtype=np.uint8)) == ""
    assert matrix_rows(np.zeros((0, 4), dtype=np.uint8)) == []
    assert matrix_rows(np.zeros((2, 0), dtype=np.uint8)) == ["", ""]


def test_phase_labels_match_phase_str():
    eighth = np.exp(1j * np.pi / 4)
    near = 1e-10
    values = np.array(
        [1, -1, 1j, -1j, eighth, -eighth.conj(), 0, 0.5, 1 + near, -1j - near * 1j,
         1 + 2e-9, -0.0 - 1j, complex(-0.0, 1.0), 1 + 1e-9j, 2],
        dtype=complex,
    )
    rng = np.random.default_rng(3)
    circle = np.exp(2j * np.pi * rng.random(50))
    values = np.concatenate([values, rng.choice(values, 200), circle])
    assert phase_labels(values) == [phase_str(z) for z in values]
    # a tuple of Python complex numbers, as a GSC witness holds its phases
    assert phase_labels(tuple(complex(z) for z in values)) == [phase_str(complex(z)) for z in values]
    assert phase_labels(np.zeros(0, dtype=complex)) == []


@pytest.mark.parametrize("verb", ["classify", "pipeline", "verify-counterexample"])
def test_cli_rejects_negative_seed(verb, capsys):
    # pipeline and verify-counterexample used to exit 1 with numpy's
    # "expected non-negative integer", and classify ignored the value
    argv = ["--json", "--seed", "-1", verb]
    if verb != "verify-counterexample":
        argv.append(data("circuits/t.cir"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert "--seed" in capsys.readouterr().err
