"""Computation engine for the mod-2 Steenrod algebra.

Normalizes compositions of Steenrod squares onto the admissible basis
through the Adem relations, acts on polynomial and finite graded
cohomology models via the Cartan formula, re-derives the relations by
identifying coefficients of double total squares, and runs the Sq^2
computation that distinguishes the suspension of CP^2 from S^5 v S^3,
showing pi_4(S^3) is nonzero.
"""

from . import adem as _adem, poly as _poly
from .adem import (
    AdemElement,
    Sq,
    StepBudgetExceeded,
    Word,
    adem_rewrite,
    admissible_basis,
    degree,
    excess,
    is_admissible,
    normalize,
    product,
)
from .derive import (
    RelationCertificate,
    certify_relations,
    derive_adem_relations,
    vanishes_on_degree,
)
from .f2 import adem_coeff, binom_mod2
from .modules import (
    GradedModule,
    ModuleElement,
    Pi4Report,
    VerifyReport,
    act_on_module,
    builtin_catalog,
    complex_proj,
    cup_elements,
    distinguish_pi4,
    full_verification_catalog,
    point,
    real_proj,
    sphere,
    sq_matrix,
    suspend,
    verify_axioms,
    wedge,
)
from .parsing import ParseError, parse_module, parse_poly, parse_sq
from .poly import (
    Monomial,
    PolyElement,
    act,
    coefficient,
    cup,
    faithful_rank,
    make_monomial,
    sq,
    total_square,
    variable,
)

__version__ = "0.1.0"


def cache_info() -> dict[str, int]:
    """Entry counts of the engine's caches.

    ``nf_cache`` holds normal forms of single words and ``adem_rewrite``
    the expansions of inadmissible pairs (``normalize``,
    ``verify_axioms``); ``sq_monomial`` and ``act_monomial`` hold the
    Cartan action on monomials (``act``, ``sq``); ``sq_orbit``
    holds it on orbit sums of symmetric classes (``faithful_rank``,
    ``vanishes_on_degree``).  All five grow without bound.
    """
    return {
        "nf_cache": len(_adem._NF_CACHE),
        "adem_rewrite": _adem.adem_rewrite.cache_info().currsize,
        "sq_monomial": _poly._sq_monomial.cache_info().currsize,
        "act_monomial": _poly._act_monomial.cache_info().currsize,
        "sq_orbit": _poly._sq_orbit.cache_info().currsize,
    }


def clear_caches() -> None:
    """Empty the five caches of :func:`cache_info`; results do not change."""
    _adem._NF_CACHE.clear()
    _adem.adem_rewrite.cache_clear()
    _poly._sq_monomial.cache_clear()
    _poly._act_monomial.cache_clear()
    _poly._sq_orbit.cache_clear()


__all__ = [
    "AdemElement",
    "GradedModule",
    "ModuleElement",
    "Monomial",
    "ParseError",
    "Pi4Report",
    "PolyElement",
    "RelationCertificate",
    "Sq",
    "StepBudgetExceeded",
    "VerifyReport",
    "Word",
    "act",
    "act_on_module",
    "adem_coeff",
    "adem_rewrite",
    "admissible_basis",
    "binom_mod2",
    "builtin_catalog",
    "cache_info",
    "certify_relations",
    "clear_caches",
    "coefficient",
    "complex_proj",
    "cup",
    "cup_elements",
    "degree",
    "derive_adem_relations",
    "distinguish_pi4",
    "excess",
    "faithful_rank",
    "full_verification_catalog",
    "is_admissible",
    "make_monomial",
    "normalize",
    "parse_module",
    "parse_poly",
    "parse_sq",
    "point",
    "product",
    "real_proj",
    "sphere",
    "sq",
    "sq_matrix",
    "suspend",
    "total_square",
    "vanishes_on_degree",
    "variable",
    "verify_axioms",
    "wedge",
]
