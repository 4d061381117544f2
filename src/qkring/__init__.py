"""Exact computer algebra for representation rings of generalized quaternion
groups Q_{2^n}, the finitely presented K-ring of their classifying spaces,
and element orders in the associated truncated rings.

Importing the package loads no submodule.  Each exported name is looked up
in its module when it is used (PEP 562), so ``qkring.X`` and
``from qkring import X`` give the module's current object while a process
pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "adams": ("g_poly", "psi_oracles", "psi_series", "verify_oracles"),
    "cohomology": ("CohGroup", "h_group", "predicted_reduced_order"),
    "intmath": ("CyclotomicInt", "IntPoly"),
    "intmatrix": ("SmithForm", "determinant", "hermite_basis_mod", "smith_normal_form"),
    "kring": ("KElement", "MinimalityCertificate", "basis_change_matrix",
              "embed_to_R", "minimality_certificates", "reduce", "relations_for",
              "verify_embedding", "verify_local_confluence", "verify_minimality_witness",
              "verify_relation3_redundant", "verify_relations_in_R"),
    "lens": ("LensElement", "eta_power", "restrict",
             "verify_relations_vanish", "verify_restriction_hom", "w_element"),
    "repring": ("GroupParams", "RepElement", "canonical_d", "phi_element",
                "verify_structure_constants"),
    "truncation": ("TruncatedQuotient", "consistency_report", "corollary2_table", "order_of",
                   "phi_order", "torsion_order", "truncated_quotient"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
