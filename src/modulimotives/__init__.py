"""Exact motivic classes and Hodge diamonds of moduli spaces on a curve.

The package computes, with exact integer arithmetic throughout, classes in
the Grothendieck ring of motives generated by a smooth projective curve of
genus g: moduli of semistable rank-3 vector bundles of coprime degree,
moduli of rank-2 pairs in every stability chamber (by three formula
routes), and moduli of rank-3 Higgs bundles assembled from the fixed locus
of the scaling action.  Classes realize to Hodge-number matrices and
Poincare polynomials.
"""

from .bundles import (
    BundleSpec,
    InvalidDegree,
    bundle_dimension_fixed_det,
    bundle_motive,
    bundle_motive_fixed_det,
)
from .higgs import (
    ChamberMismatch,
    HiggsSpec,
    audit_fixed_loci,
    fixed_components,
    fixed_locus_111,
    fixed_locus_12,
    fixed_locus_21,
    fixed_locus_bundles,
    higgs_dimension,
    higgs_motive,
    higgs_motive_mod_jac,
)
from .motive import (
    GenusMismatch,
    MotiveClass,
    UsageError,
    from_tate_poly,
    jacobian,
    projective_space,
    sym_curve,
    sym_h1,
    sym_h1_hodge_poly,
    tate,
    unit,
    zero,
)
from .pairs import (
    ChamberSpec,
    HypothesisViolation,
    InvalidChamber,
    OnWall,
    OutOfRange,
    chamber_of,
    chambers,
    folded_coeff_poly,
    pair_dimension,
    pair_motive_flip,
    pair_motive_geo,
    pair_motive_sym,
    sym_coeff_poly,
)
from .polyring import BiPoly, IntPoly, NonExactDivision, exact_div

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BundleSpec",
    "ChamberMismatch",
    "ChamberSpec",
    "GenusMismatch",
    "HiggsSpec",
    "HypothesisViolation",
    "IntPoly",
    "InvalidChamber",
    "InvalidDegree",
    "MotiveClass",
    "NonExactDivision",
    "OnWall",
    "OutOfRange",
    "UsageError",
    "audit_fixed_loci",
    "bundle_dimension_fixed_det",
    "bundle_motive",
    "bundle_motive_fixed_det",
    "chamber_of",
    "chambers",
    "exact_div",
    "fixed_components",
    "fixed_locus_111",
    "fixed_locus_12",
    "fixed_locus_21",
    "fixed_locus_bundles",
    "folded_coeff_poly",
    "from_tate_poly",
    "higgs_dimension",
    "higgs_motive",
    "higgs_motive_mod_jac",
    "jacobian",
    "pair_dimension",
    "pair_motive_flip",
    "pair_motive_geo",
    "pair_motive_sym",
    "projective_space",
    "sym_coeff_poly",
    "sym_curve",
    "sym_h1",
    "sym_h1_hodge_poly",
    "tate",
    "unit",
    "zero",
]
