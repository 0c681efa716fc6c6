"""Exact-arithmetic Temperley-Lieb engine at loop parameter 2.

The package computes, over exact coefficient rings, the diagram algebra
TL_n and its cell modules; Jones-Wenzl projectors; the seminormal
idempotents attached to two-column standard tableaux and their class sums;
the action of the integral KLR generators on the seminormal basis; diamond
operators and the induced inclusions of smaller Temperley-Lieb algebras;
and the p-Jones-Wenzl idempotent both by its direct sum-of-idempotents
description and by the recursive construction along the base-p radix
chain.
"""

from .coeffs import (
    IntegralityViolationError,
    InvalidPrimeError,
    InvariantError,
    is_p_integral,
    reduce_mod_p,
)
from .diagrams import CellVector, TLElement, catalan, cell_action, element_to_str
from .projectors import (
    CacheError,
    JWCache,
    class_idempotent,
    gamma,
    idempotent_by_products,
    jones_wenzl,
    p_jones_wenzl_direct,
    partial_close,
    seminormal_idempotent,
    seminormal_vector,
)
from .klr import (
    SeminormalOperator,
    act_e,
    act_psi,
    act_u,
    act_y,
    diamond,
    diamond_formula_check,
    iota_klr,
    klr_relations_check,
    operator_to_element,
    p_jones_wenzl_recursive,
    small_jm,
    x_factor,
)

__all__ = [
    "CellVector",
    "InvalidPrimeError",
    "CacheError",
    "IntegralityViolationError",
    "InvariantError",
    "JWCache",
    "SeminormalOperator",
    "TLElement",
    "act_e",
    "act_psi",
    "act_u",
    "act_y",
    "catalan",
    "cell_action",
    "class_idempotent",
    "diamond",
    "diamond_formula_check",
    "element_to_str",
    "gamma",
    "idempotent_by_products",
    "iota_klr",
    "is_p_integral",
    "jones_wenzl",
    "klr_relations_check",
    "operator_to_element",
    "p_jones_wenzl_direct",
    "p_jones_wenzl_recursive",
    "partial_close",
    "reduce_mod_p",
    "seminormal_idempotent",
    "seminormal_vector",
    "small_jm",
    "x_factor",
]

__version__ = "0.1.0"
