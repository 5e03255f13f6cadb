"""Binary-symplectic Clifford toolkit.

Exact GF(2) linear algebra, the (C, h) representation of Clifford
operators, normal forms for commuting symplectic involutions, Pauli
basis expansions, hierarchy-level classification, and certificate
generation for third-level gates, all cross-validated against a dense
complex-matrix oracle at small qubit counts.
"""

from .classify import ClassificationReport, classify, is_generalized_semi_clifford, is_semi_clifford
from .clifford import CliffordRep, compose, conjugate, d_vector, from_pauli, inverse
from .circuits import (
    CircuitDescription,
    CircuitSyntaxError,
    circuit_to_dense,
    circuit_to_monomial,
    circuit_to_rep,
    parse_circuit,
    random_circuit,
    standard_gate,
)
from .dense import (
    BlockRep,
    Monomial,
    MonomialCheck,
    commutator_sign,
    extract_rep,
    hierarchy_level,
    is_pauli,
    monomial_check,
    realize_block,
)
from .expansion import ExpansionResult, alpha_vector, expand, rep_to_dense
from .gf2 import Lagrangian, enumerate_lagrangians, symplectic_complete
from .normal_form import (
    NormalFormResult,
    SetNormalForm,
    commuting_set_normal_form,
    involution_normal_form,
    simultaneous_nice_form_obstruction,
)
from .pauli import PhasedPauli, commutes, pauli_apply_basis, pauli_mul, pauli_to_dense
from .pipeline import (
    GeneratorFamily,
    GscCertificate,
    build_fmap,
    counterexample_report,
    extract_certificate,
    fmap_kernel,
    generators_from_gate,
    gottesman_mochon,
    normalize_family,
    orbit_kernel,
    product_rep,
    run_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
