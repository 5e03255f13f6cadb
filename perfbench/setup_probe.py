"""Time the set-up a fresh process pays before its first job.

Set-up is ``import semiclifford`` plus the lazy per-qubit-count tables
that a workload's jobs would otherwise fill on first use: the dense
Pauli generators of ``dense._generator_matrices`` and the Lagrangian
Clifford tables of ``classify``.  Run as a script, it prints the
elapsed seconds:

    python3 perfbench/setup_probe.py --gens 3,4 --lags 1,2,3

It imports nothing but the standard library before the clock starts.
"""

import importlib
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def fill_tables(gens, lags):
    dense = importlib.import_module("semiclifford.dense")
    classify = importlib.import_module("semiclifford.classify")
    for n in gens:
        dense._generator_matrices(n)
    for n in lags:
        classify._lagrangian_cliffords(n)


def _qubits(text):
    return tuple(int(x) for x in text.split(",") if x)


def main(argv):
    # No argparse here: the library's cli imports it, and importing it
    # before the clock starts would hide that cost from set-up time.
    spec = dict(zip(argv[0::2], argv[1::2]))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    importlib.import_module("semiclifford")
    fill_tables(_qubits(spec.get("--gens", "")), _qubits(spec.get("--lags", "")))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
