"""The package's public names, pinned: removing or renaming one is an API
change, and it should show up as an edit to this list.  Every exported
function has a caller outside the tests, and every top-level name of the
library is read somewhere: both checked by parsing the sources.  The
value types store only the fields that no other field fixes, also
pinned."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np

import semiclifford
from semiclifford.clifford import CliffordRep
from semiclifford.dense import MonomialCheck, monomial_check
from semiclifford.expansion import ExpansionResult, expand
from semiclifford.pipeline import GeneratorFamily, GscCertificate, run_pipeline
from test_benchmark_hooks import _perfbench_layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semiclifford"

PUBLIC_NAMES = [
    "CircuitDescription",
    "CircuitSyntaxError",
    "ClassificationReport",
    "CliffordRep",
    "ExpansionResult",
    "GeneratorFamily",
    "GscCertificate",
    "Lagrangian",
    "Monomial",
    "MonomialCheck",
    "NormalFormResult",
    "PhasedPauli",
    "SetNormalForm",
    "build_fmap",
    "circuit_to_dense",
    "circuit_to_monomial",
    "circuit_to_rep",
    "circuits",
    "classify",
    "clifford",
    "commuting_set_normal_form",
    "compose",
    "conjugate",
    "counterexample_report",
    "dense",
    "enumerate_lagrangians",
    "expand",
    "expansion",
    "extract_certificate",
    "extract_rep",
    "fmap_kernel",
    "generators_from_gate",
    "gf2",
    "gottesman_mochon",
    "hierarchy_level",
    "inverse",
    "involution_normal_form",
    "is_generalized_semi_clifford",
    "is_pauli",
    "is_semi_clifford",
    "monomial_check",
    "normal_form",
    "normalize_family",
    "orbit_kernel",
    "parse_circuit",
    "pauli",
    "pauli_to_dense",
    "pipeline",
    "realize_block",
    "rep_to_dense",
    "run_pipeline",
    "simultaneous_nice_form_obstruction",
    "symplectic_complete",
]


def test_public_names_are_pinned():
    assert sorted(semiclifford.__all__) == PUBLIC_NAMES


def _statements(*patterns):
    """(path, defines, reads) for each top-level statement of the files
    matching the patterns: the names it binds (def, class or assignment)
    and the bare and attribute names it loads (imports are not reads)."""
    out = []
    for pattern in patterns:
        for path in ROOT.glob(pattern):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                defines = {getattr(stmt, "name", None), *(t.id for t in targets if isinstance(t, ast.Name))}
                loads = [n for n in ast.walk(stmt) if isinstance(getattr(n, "ctx", None), ast.Load)]
                reads = {getattr(n, "id", getattr(n, "attr", None)) for n in loads}
                out.append((path, defines - {None}, reads - {None}))
    return out


def _perfbench_names():
    """The library names perfbench resolves: its tracing.LAYERS table and
    the attributes setup_probe.py reads."""
    names = {fn for fns in _perfbench_layers().values() for fn in fns}
    return names.union(*(reads for _, _, reads in _statements("perfbench/setup_probe.py")))


def _names_read(statements):
    """perfbench's names and each name a statement reads outside its own
    definition (a function's recursion is not a caller)."""
    return _perfbench_names().union(*(reads - defines for _, defines, reads in statements))


def test_every_exported_function_has_a_caller_outside_the_tests():
    statements = _statements("src/semiclifford/*.py", "scripts/*.py")
    called = _names_read([s for s in statements if s[0].name != "__init__.py"])
    exported = [name for name in semiclifford.__all__ if inspect.isfunction(getattr(semiclifford, name))]
    assert sorted(set(exported) - called) == []


def test_every_top_level_library_name_is_read_somewhere():
    statements = _statements("src/semiclifford/*.py", "scripts/*.py", "tests/*.py", "perfbench/**/*.py")
    read = _names_read(statements)
    unread = [
        f"{path.stem}.{name}"
        for path, defines, _ in statements
        if path.parent == SRC
        for name in defines - read
        if not name.startswith("__")
    ]
    assert unread == []


def test_value_types_store_only_the_fields_no_other_field_fixes():
    # n, s and is_monomial are read off the stored fields, so no instance
    # holds one that disagrees with them
    types = (GeneratorFamily, GscCertificate, ExpansionResult, MonomialCheck)
    assert {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in types} == {
        "GeneratorFamily": ["cs", "hs", "ops"],
        "GscCertificate": ["conjugator", "kernel_basis", "spectra", "verdicts"],
        "ExpansionResult": ["a0", "image_basis", "support", "values"],
        "MonomialCheck": ["permutation", "phases"],
    }
    cert = run_pipeline(np.diag([1, np.exp(1j * np.pi / 4)]))
    assert cert.n == 1 and type(cert.n) is int
    res = expand(CliffordRep.identity(2))
    assert res.s == 4 and type(res.s) is int
    for u, want in ((np.eye(2), True), (np.ones((2, 2)) / np.sqrt(2), False)):
        assert monomial_check(u).is_monomial is want
