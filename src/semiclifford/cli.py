"""Command-line surface.

Subcommands: classify, normalform, expand, pipeline,
verify-counterexample.  Reports print human-readably by default and as
schema-stable JSON with --json; every gauge in the library is
deterministic, so JSON output is bit-identical across runs.  Every
--json report is the text of json.dumps(report, sort_keys=True), byte
for byte; expand writes its coefficient table as text built from one
encoding of each distinct coefficient (coefficient_table) and places it
into that report unchanged (encode_report).  Exit code is 0 only if
every internal assertion passed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

import numpy as np

from . import gf2
from .circuits import (
    _DIGITS,
    circuit_to_dense,
    circuit_to_monomial,
    circuit_to_rep,
    has_library_reps,
    parse_circuit,
)
from .classify import classify
from .clifford import CliffordRep
from .dense import _PHASES, TOL, check_hierarchy_cap, check_kmax, extract_rep
from .expansion import expand
from .normal_form import (
    commuting_set_normal_form,
    involution_normal_form,
    simultaneous_nice_form_obstruction,
)
from .pauli import check_dense_cap
from .pipeline import check_pipeline_cap, counterexample_report, run_pipeline


def bits_to_hex(arr) -> str:
    """Row-major bit packing of a GF(2) array as a hex string."""
    flat = gf2.asbits(arr).reshape(-1)
    return bytes(np.packbits(flat)).hex()


def bitstring(vec) -> str:
    """A bit vector as a string of ASCII '0' and '1'."""
    return (gf2.asbits(vec) + 48).tobytes().decode("ascii")


def rep_to_json(rep: CliffordRep) -> dict:
    return {
        "n": rep.n,
        "c_hex": bits_to_hex(rep.c),
        "h_hex": bits_to_hex(rep.h),
        "c_rows": [bitstring(row) for row in rep.c],
        "h": bitstring(rep.h),
    }


def matrix_rows(mat) -> list:
    """One bitstring per row of a bit matrix, sliced from one decoded string."""
    mat = gf2.asbits(mat)
    text = (mat + 48).tobytes().decode("ascii")
    width = mat.shape[1]
    return [text[i * width : (i + 1) * width] for i in range(mat.shape[0])]


class RawJSON(str):
    """Text that is already JSON, placed into a report unchanged."""


def encode_report(out) -> str:
    """json.dumps(out, sort_keys=True), byte for byte, with each top-level
    RawJSON value placed as is.  A report with none is one json.dumps call."""
    if not any(isinstance(v, RawJSON) for v in out.values()):
        return json.dumps(out, sort_keys=True)
    items = (
        f"{json.dumps(k)}: {v if isinstance(v, RawJSON) else json.dumps(v, sort_keys=True)}"
        for k, v in sorted(out.items())
    )
    return "{" + ", ".join(items) + "}"


def coefficient_table(support, values) -> RawJSON:
    """The list [{"a": row, "re": re, "im": im}, ...] of bit rows and
    complex values, as json.dumps(..., sort_keys=True) writes it.

    A record is '{"a": "', its row, and a tail set by the bit pattern of
    its (re, im) pair (so 0.0 and -0.0 differ).  A Clifford expansion
    has few such pairs: each tail is encoded once, and the records are
    laid out as one byte array, zero-padded to a common width, from
    which the zero bytes, never part of JSON text, are dropped.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    _, first, code = np.unique(values.view("V16"), return_index=True, return_inverse=True)
    tails = [
        f'", "im": {json.dumps(im)}, "re": {json.dumps(re)}}}, '.encode()
        for re, im in zip(values.real[first].tolist(), values.imag[first].tolist())
    ]
    head = np.broadcast_to(np.frombuffer(b'{"a": "', np.uint8), (len(support), 7))
    tail = np.array(tails).view(np.uint8).reshape(len(tails), -1)[code]
    flat = np.concatenate([head, gf2.asbits(support) + 48, tail], axis=1).ravel()
    return RawJSON("[" + flat[flat != 0].tobytes().decode("ascii")[:-2] + "]")


_PHASE_NAMES = ("1", "-1", "i", "-i")


def phase_str(z) -> str:
    for val, name in zip(_PHASES, _PHASE_NAMES):
        if abs(z - val) < TOL:
            return name
    return f"{z.real:+.12f}{z.imag:+.12f}j"


def phase_labels(zs) -> list:
    """phase_str of every entry of a 1-D array, with one distance test
    for the whole array; only entries far from 1, -1, i and -i are
    formatted one at a time."""
    near = np.abs(np.asarray(zs)[:, None] - _PHASES) < TOL
    labels = np.array(_PHASE_NAMES, dtype=object)[near.argmax(axis=1)]
    for t in np.flatnonzero(~near.any(axis=1)):
        labels[t] = phase_str(zs[t])
    return labels.tolist()


_HEADER = re.compile(r"([0-9]+)\s+([0-9]+)")


def read_bit_matrices(path) -> list:
    """Read one or more matrices: 'rows cols' header then 0/1 row lines.

    Raises:
        ValueError: naming the file and line, on a header that is not
            two positive integers in ASCII digits, a row character other
            than 0 or 1 (so no digit is silently reduced mod 2), a row
            whose length is not the header's column count, or a block
            that ends before its header's row count.
    """
    with open(path) as fh:
        lines = [(num, ln.split("#", 1)[0].strip()) for num, ln in enumerate(fh, 1)]
    lines = [(num, ln) for num, ln in lines if ln]
    mats = []
    i = 0
    while i < len(lines):
        num, header = lines[i]
        m = _HEADER.fullmatch(header)
        rows, cols = (int(m[1]), int(m[2])) if m else (0, 0)
        if rows < 1 or cols < 1:
            raise ValueError(
                f"{path}: line {num}: matrix header {header!r} is not two positive integers"
            )
        body = lines[i + 1 : i + 1 + rows]
        if len(body) != rows:
            raise ValueError(
                f"{path}: line {num}: block of {rows} rows ends after {len(body)}"
            )
        for row_num, ln in body:
            if ln.strip("01"):
                raise ValueError(
                    f"{path}: line {row_num}: row {ln!r} has a character other than 0 or 1"
                )
            if len(ln) != cols:
                raise ValueError(
                    f"{path}: line {row_num}: row {ln!r} has {len(ln)} entries, "
                    f"header says {cols}"
                )
        text = "".join(ln for _, ln in body).encode("ascii")
        mats.append((np.frombuffer(text, dtype=np.uint8) - 48).reshape(rows, cols))
        i += 1 + rows
    if not mats:
        raise ValueError(f"no matrices found in {path}")
    return mats


def load_circuit(path):
    """Parse the circuit file at path and check its size against the dense
    cap before any 2^n x 2^n matrix is built; a verb whose engine stops
    below that cap checks its own cap next."""
    with open(path) as fh:
        desc = parse_circuit(fh.read())
    check_dense_cap(desc.n)
    return desc


def cmd_classify(args) -> dict:
    desc = load_circuit(args.circuit)
    check_kmax(args.kmax)  # hierarchy_level tests kmax before the size
    check_hierarchy_cap(desc.n)
    u = circuit_to_dense(desc)
    report = classify(u, kmax=args.kmax)
    out = {
        "command": "classify",
        "circuit": args.circuit,
        "n": report.n,
        "kmax": report.kmax,
        "hierarchy_level": report.level,
        "semi_clifford": report.semi_clifford,
        "generalized_semi_clifford": report.generalized_semi_clifford,
    }
    if report.semi_witness is not None:
        out["semi_witness"] = {
            "domain": matrix_rows(report.semi_witness.domain.basis),
            "image": matrix_rows(report.semi_witness.image.basis),
        }
    if report.gsc_witness is not None:
        out["gsc_witness"] = {
            "domain": matrix_rows(report.gsc_witness.domain.basis),
            "image": matrix_rows(report.gsc_witness.image.basis),
            "permutation": list(report.gsc_witness.permutation),
            "phases": phase_labels(report.gsc_witness.phases),
        }
    searched = {k: v for k, v in report.searched.items() if v is not None}
    if searched:
        out["searched"] = searched
    return out


def cmd_normalform(args) -> dict:
    mats = read_bit_matrices(args.matrices)
    out = {"command": "normalform", "file": args.matrices, "count": len(mats)}
    if len(mats) == 1:
        res = involution_normal_form(mats[0])
        out["mode"] = "single"
        out["m"] = matrix_rows(res.m)
        out["normalized"] = matrix_rows(res.normalized)
        n = mats[0].shape[0] // 2
        out["e_block"] = matrix_rows(res.normalized[:n, n:])
    else:
        res = commuting_set_normal_form(mats)
        out["mode"] = "set"
        out["m"] = matrix_rows(res.m)
        out["normalized"] = [matrix_rows(c) for c in res.normalized]
        if len(mats) == 2:
            out["obstruction"] = simultaneous_nice_form_obstruction(mats[0], mats[1])
    return out


def cmd_expand(args) -> dict:
    desc = load_circuit(args.circuit)
    if has_library_reps(desc):
        rep = circuit_to_rep(desc)
    else:  # a T, TDG, CCZ or CSWAP gate: the product may still be Clifford
        rep = extract_rep(circuit_to_dense(desc))
    if rep is None:
        raise ValueError("circuit is not Clifford; expansion needs a (C, h) rep")
    res = expand(rep)
    return {
        "command": "expand",
        "circuit": args.circuit,
        "n": res.n,
        "s": res.s,
        "support_size": int(res.support.shape[0]),
        "magnitude": res.magnitude,
        "anchor": bitstring(res.a0),
        "rep": rep_to_json(rep),
        "coefficients": coefficient_table(res.support, res.values)
        if args.json
        else [
            {"a": a, "re": re, "im": im}
            for a, re, im in zip(
                matrix_rows(res.support), res.values.real.tolist(), res.values.imag.tolist()
            )
        ],
    }


def certificate_to_json(cert) -> dict:
    return {
        "n": cert.n,
        "conjugator": rep_to_json(cert.conjugator),
        "kernel_basis": matrix_rows(cert.kernel_basis),
        "diagonal_spectra": [phase_labels(spectrum) for spectrum in cert.spectra],
        "verdicts": cert.verdicts,
    }


def cmd_pipeline(args) -> dict:
    desc = load_circuit(args.circuit)
    check_pipeline_cap(desc.n)
    u = circuit_to_monomial(desc)
    if u is None:  # an H gate: the dense engine
        u = circuit_to_dense(desc)
    rng = np.random.default_rng(args.seed)
    cert = run_pipeline(u, rng=rng)
    return {
        "command": "pipeline",
        "circuit": args.circuit,
        "certificate": certificate_to_json(cert),
    }


def cmd_verify_counterexample(args) -> dict:
    rng = np.random.default_rng(args.seed)
    rep = counterexample_report(rng=rng)
    ok = (
        rep["uv_in_level_3"]
        and not rep["vu_in_level_3"]
        and rep["certificate"].verdicts["span_full"]
    )
    return {
        "command": "verify-counterexample",
        "uv_in_level_3": rep["uv_in_level_3"],
        "vu_in_level_3": rep["vu_in_level_3"],
        "vu_witness_qubit": rep["vu_witness_qubit"],
        "vu_witness_generator": rep["vu_witness_generator"],
        "certificate": certificate_to_json(rep["certificate"]),
        "all_verdicts_pass": ok,
    }


def _print_human(out):
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    walk(item, indent)
                else:
                    print(f"{pad}{item}")

    def _is_flat(v):
        if isinstance(v, list):
            return all(not isinstance(x, (dict, list)) for x in v) and len(v) <= 8
        return False

    walk(out)


def positive_int(text, low=1) -> int:
    # int() also reads "1_0", "+1", " 1" and non-ASCII digits; a flag
    # takes the ASCII digits that circuit files and matrix headers do
    if not _DIGITS.fullmatch(text.removeprefix("-")):
        raise ValueError(f"not an integer: {text!r}")
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def nonnegative_int(text) -> int:
    return positive_int(text, low=0)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    argparse objects hold reference cycles, so a parser built per call
    leaves garbage that only a full collection frees.  parse_args keeps
    no state between calls: each returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="semiclifford",
        description="Clifford representation, normal form, and hierarchy tools",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--seed", type=nonnegative_int, default=0, help="seed for self-check sampling (>= 0)"
    )
    parser.add_argument(
        "--kmax", type=positive_int, default=3, help="hierarchy search depth (>= 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="hierarchy level and span memberships")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalform", help="normal forms for symplectic involutions")
    p.add_argument("matrices")
    p.set_defaults(func=cmd_normalform)

    p = sub.add_parser("expand", help="Pauli-basis expansion of a Clifford circuit")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("pipeline", help="generalized semi-Clifford certificate")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser(
        "verify-counterexample",
        help="check the seven-qubit controlled-swap/CCZ verdicts",
    )
    p.set_defaults(func=cmd_verify_counterexample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except (ValueError, AssertionError, OSError) as exc:
        err = {"command": args.command, "error": str(exc)}
        if args.json:
            print(encode_report(err))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(encode_report(out))
    else:
        _print_human(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
