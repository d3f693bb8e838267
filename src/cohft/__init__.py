"""Exact-arithmetic engine for semisimple cohomological field theories.

The names below are resolved on first use (PEP 562): `from cohft import X`
imports X's layer and only what that layer imports, so `import cohft`
alone compiles no layer.  A name is looked up in its module on every
access, never kept here, so `cohft.X` is always the module's current X.
"""

import importlib

_LAYER = {
    "CohFTSpec": "givental",
    "EndSeries": "series",
    "FrobeniusAlgebra": "frobenius",
    "IncoherentSpec": "givental",
    "InvalidAlgebra": "frobenius",
    "KPPoly": "taut",
    "NotInvertible": "frobenius",
    "NotSplit": "frobenius",
    "SemisimpleData": "frobenius",
    "StableGraph": "graphs",
    "TautExpr": "taut",
    "check_symplectic": "series",
    "compatibility_check": "givental",
    "correlator_of_theory": "intersect",
    "edge_kernel": "series",
    "enumerate_special_types": "graphs",
    "enumerate_stable_graphs": "graphs",
    "exp_pushforward_check": "taut",
    "kappa_multi_index": "taut",
    "omega_plus": "givental",
    "r_action": "givental",
    "reconstruct_fixed": "givental",
    "reconstruct_free": "givental",
    "restrict_to_smooth": "givental",
    "skipped_axioms": "givental",
    "special_order": "graphs",
    "tqft_value": "givental",
    "translation_vector": "series",
    "two_point": "givental",
    "verify_axioms": "givental",
}

__all__ = sorted(_LAYER)


def __getattr__(name):
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + layer, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
