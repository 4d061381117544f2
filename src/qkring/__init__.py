"""Exact computer algebra for representation rings of generalized quaternion
groups Q_{2^n}, the finitely presented K-ring of their classifying spaces,
and element orders in the associated truncated rings."""

from .adams import (PhiPoly, compose_check, g_poly, psi_oracle, psi_oracles, psi_series,
                    verify_g_identity)
from .cohomology import CohGroup, consistency_report, h_group, predicted_reduced_order
from .intmath import CyclotomicInt, IntPoly, binomial, chebyshev_t, two_adic_valuation
from .intmatrix import SmithForm, determinant, hermite_basis_mod, smith_normal_form
from .kring import (KElement, MinimalityCertificate, RelationSet, basis_change_matrix,
                    embed_to_R, minimality_certificates, minimality_check, multiply_nf,
                    reduce, relations_for, verify_embedding, verify_local_confluence,
                    verify_minimality_witness, verify_relation3_redundant,
                    verify_relations_in_R)
from .lens import (LensElement, eta_power, lens_multiply, restrict,
                   restriction_hom_check, verify_relations_vanish,
                   verify_restriction_hom, w_element)
from .repring import (ClassFunction, GroupParams, RepElement, canonical_d,
                      character_of, character_table, decompose, inner_product,
                      multiply, phi_element, verify_structure_constants)
from .truncation import (TruncatedQuotient, corollary2_table, order_of,
                         phi_order, torsion_order, truncated_quotient)

__version__ = "0.1.0"
