#!/usr/bin/env python3
"""Narrated run of the seven-qubit controlled-swap/CCZ verdicts.

Builds the pair (U, V) as monomial matrices, confirms UV sits at
level three of the gate hierarchy while VU does not (witnessed by the
sigma_x conjugate on qubit R), and walks the certificate pipeline step
by step.  Run from the repository root:

    PYTHONPATH=src python3 scripts/run_counterexample.py
"""

import time

import numpy as np

from semiclifford import gf2
from semiclifford.dense import (
    Monomial,
    close,
    extract_rep,
    hierarchy_level,
    pauli_conjugates,
)
from semiclifford.pipeline import (
    extract_certificate,
    generators_from_gate,
    gottesman_mochon,
    normalize_family,
    orbit_kernel,
)


def main():
    t0 = time.monotonic()
    u, v = gottesman_mochon()
    uv = u @ v
    print(f"[{time.monotonic()-t0:5.1f}s] built the 128-dimensional pair")
    print("  U^2 = I:", close(u @ u, Monomial.identity(7)))
    print("  V^2 = I:", close(v @ v, Monomial.identity(7)))

    level = hierarchy_level(uv, kmax=3)
    print(f"[{time.monotonic()-t0:5.1f}s] hierarchy level of UV: {level}")

    vu = v @ u
    witness = 13  # x-part generator on qubit R
    (conj,) = pauli_conjugates(vu, gf2.ident(14)[[witness]])
    print(
        f"[{time.monotonic()-t0:5.1f}s] VU conjugate of sigma_x on R is Clifford:",
        extract_rep(conj) is not None,
    )

    family = generators_from_gate(uv)
    print(f"[{time.monotonic()-t0:5.1f}s] extracted all 14 generator reps")
    normalized, q_m = normalize_family(family)
    print(f"[{time.monotonic()-t0:5.1f}s] block form reached; conjugator is "
          + ("identity" if q_m.is_identity() else "nontrivial"))
    kernel = orbit_kernel(normalized)
    print(f"[{time.monotonic()-t0:5.1f}s] grew the 2^7-point orbit of 0 by coset doubling; "
          f"kernel dimension {kernel.shape[0]}")
    cert = extract_certificate(normalized, q_m, rng=np.random.default_rng(0))
    print(f"[{time.monotonic()-t0:5.1f}s] certificate verdicts: {cert.verdicts}")


if __name__ == "__main__":
    main()
