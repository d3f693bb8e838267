"""Exact-arithmetic engine for semisimple cohomological field theories."""

from .frobenius import FrobeniusAlgebra, InvalidAlgebra, NotInvertible, NotSplit, SemisimpleData
from .givental import (
    CohFTSpec,
    IncoherentSpec,
    compatibility_check,
    omega_plus,
    r_action,
    reconstruct_fixed,
    reconstruct_free,
    restrict_to_smooth,
    skipped_axioms,
    tqft_value,
    two_point,
    verify_axioms,
)
from .graphs import StableGraph, enumerate_stable_graphs, enumerate_special_types, special_order
from .intersect import correlator_of_theory, kappa_psi_correlator, psi_correlator
from .series import EndSeries, check_symplectic, edge_kernel, translation_vector
from .taut import KPPoly, TautExpr, exp_pushforward_check, kappa_multi_index

__all__ = [
    "CohFTSpec",
    "EndSeries",
    "FrobeniusAlgebra",
    "IncoherentSpec",
    "InvalidAlgebra",
    "KPPoly",
    "NotInvertible",
    "NotSplit",
    "SemisimpleData",
    "StableGraph",
    "TautExpr",
    "check_symplectic",
    "compatibility_check",
    "correlator_of_theory",
    "edge_kernel",
    "enumerate_special_types",
    "enumerate_stable_graphs",
    "exp_pushforward_check",
    "kappa_multi_index",
    "kappa_psi_correlator",
    "omega_plus",
    "psi_correlator",
    "r_action",
    "reconstruct_fixed",
    "reconstruct_free",
    "restrict_to_smooth",
    "skipped_axioms",
    "special_order",
    "tqft_value",
    "translation_vector",
    "two_point",
    "verify_axioms",
]
