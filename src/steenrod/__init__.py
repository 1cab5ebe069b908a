"""Computation engine for the mod-2 Steenrod algebra.

Normalizes compositions of Steenrod squares onto the admissible basis
through the Adem relations, acts on polynomial and finite graded
cohomology models via the Cartan formula, re-derives the relations by
identifying coefficients of double total squares, and runs the Sq^2
computation that distinguishes the suspension of CP^2 from S^5 v S^3,
showing pi_4(S^3) is nonzero.

Each public name is listed once, in ``_NAMES`` under the layer that
defines it, and that layer is imported when the name is first looked up
(PEP 562), so ``import steenrod`` itself loads no layer.
"""

__version__ = "0.1.0"

#: Layer -> the public names it defines.
_NAMES = {
    "adem": """AdemElement Sq StepBudgetExceeded Word adem_rewrite admissible_basis degree
        excess is_admissible normalize product""",
    "derive": "RelationCertificate certify_relations derive_adem_relations vanishes_on_degree",
    "f2": "adem_coeff binom_mod2",
    "modules": """GradedModule ModuleElement Pi4Report VerifyReport act_on_module builtin_catalog
        complex_proj cup_elements distinguish_pi4 full_verification_catalog point real_proj
        sphere sq_matrix suspend verify_axioms wedge""",
    "parsing": "ParseError parse_module parse_poly parse_sq",
    "poly": "Monomial PolyElement act coefficient cup faithful_rank make_monomial sq total_square variable",
}
_HOME = {name: layer for layer, names in _NAMES.items() for name in names.split()}

#: The five caches of cache_info, by layer and attribute: a dict, then lru_caches.
_CACHES = {
    "nf_cache": ("adem", "_NF_CACHE"),
    "adem_rewrite": ("adem", "adem_rewrite"),
    "sq_monomial": ("poly", "_sq_monomial"),
    "act_monomial": ("poly", "_act_monomial"),
    "sq_orbit": ("poly", "_sq_orbit"),
}

__all__ = sorted([*_HOME, "cache_info", "clear_caches"])


def _layer(layer: str):
    from importlib import import_module  # here, so that importing steenrod.cli does not load it

    return import_module(f"{__name__}.{layer}")


def __getattr__(name: str):
    """A public name or a layer, imported on first use and kept in the package namespace."""
    layer = _HOME.get(name, name)
    if layer not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _layer(layer)
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_NAMES})


def _caches():
    for key, (layer, attr) in _CACHES.items():
        yield key, getattr(_layer(layer), attr)


def cache_info() -> dict[str, int]:
    """Entry counts of the engine's caches.

    ``nf_cache`` holds normal forms of single words (the words passed to
    ``normalize`` and the products of admissible words by one square
    that it rewrote) and ``adem_rewrite`` the expansions of inadmissible
    pairs (``normalize``, ``verify_axioms``); ``sq_monomial`` and
    ``act_monomial`` hold the Cartan action on monomials (``act``,
    ``sq``); ``sq_orbit`` holds it on orbit sums of symmetric classes
    (``faithful_rank``, ``vanishes_on_degree``).  All five grow without
    bound.
    """
    return {key: len(c) if isinstance(c, dict) else c.cache_info().currsize for key, c in _caches()}


def clear_caches() -> None:
    """Empty the five caches of :func:`cache_info`; results do not change."""
    for _, cache in _caches():
        (cache.clear if isinstance(cache, dict) else cache.cache_clear)()
