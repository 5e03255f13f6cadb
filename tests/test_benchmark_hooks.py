"""The library names that perfbench resolves by attribute must exist.

perfbench/tracing.py wraps every function listed in its LAYERS table,
and perfbench/setup_probe.py fills two per-qubit-count tables; a
library change that drops or renames one of them breaks ``--trace 1``
or the set-up probe, which the tier-1 suite would not otherwise notice.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_perfbench_names_resolve():
    names = [(layer, fn) for layer, fns in _perfbench_layers().items() for fn in fns]
    names += [("dense", "_generator_matrices"), ("classify", "_lagrangian_cliffords")]
    missing = [
        f"{layer}.{fn}"
        for layer, fn in names
        if not callable(getattr(importlib.import_module(f"semiclifford.{layer}"), fn, None))
    ]
    assert missing == []
