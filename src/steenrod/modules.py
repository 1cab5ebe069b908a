"""Finite graded modules over the mod-2 Steenrod algebra.

A :class:`GradedModule` is an explicit table model of the reduced mod-2
cohomology of a space: generators with positive degrees, a Sq-action
table, and a partial cup-product table where absent pairs multiply to
zero.  Everything above ``top_degree`` is truncated to zero, so the
models are finite stand-ins for possibly infinite complexes.

The catalog covers spheres, real and complex projective spaces, wedges
and suspensions.  :func:`verify_axioms` checks the Steenrod axioms on
any module and reports failures as data; :func:`distinguish_pi4` runs
the Sq^2 comparison of the suspended complex projective plane against
the wedge of spheres and concludes that pi_4 of the 3-sphere is
nonzero.
"""

from __future__ import annotations

from .adem import AdemElement, adem_rewrite
from .f2 import F2Sum, Record, act_word, binom_mod2, common_degree
from .linalg import rank_f2

SqTable = dict[tuple[str, int], frozenset[str]]
ProductTable = dict[tuple[str, str], frozenset[str]]


def pair_key(g: str, h: str) -> tuple[str, str]:
    """Key of the unordered pair {g, h} in a product table: ids in string order."""
    return (g, h) if g <= h else (h, g)


class GradedModule:
    """A finite graded F2-module with a Steenrod action and cup products.

    ``sq`` maps (generator, i) with i >= 1 to the F2-sum Sq^i(g);
    absent keys mean zero.  ``products`` maps unordered generator pairs,
    keyed by :func:`pair_key`, to their cup product; absent pairs
    multiply to zero.
    Instances are read-only by convention and compare by identity.
    """

    __slots__ = ("name", "generators", "sq", "products", "top_degree", "_degrees")

    def __init__(
        self,
        name: str,
        generators: tuple[tuple[str, int], ...],
        sq: SqTable,
        products: ProductTable,
        top_degree: int,
    ) -> None:
        degrees = {}
        for gid, d in generators:
            if gid in degrees:
                raise ValueError(f"duplicate generator id {gid!r}")
            if d < 1:
                raise ValueError(f"generator {gid!r} must have positive degree")
            degrees[gid] = d
        self.name = name
        self.generators = generators
        self.sq = sq
        self.products = products
        self.top_degree = top_degree
        self._degrees = degrees

    def degree_of(self, gid: str) -> int:
        return self._degrees[gid]

    def gens_in_degree(self, d: int) -> list[str]:
        return sorted(gid for gid, deg in self.generators if deg == d)

    def sq_gen(self, gid: str, i: int) -> frozenset[str]:
        """Sq^i of a single generator; identity for i = 0, instability applied."""
        if i < 0:
            raise ValueError("square index must be a natural number")
        if i == 0:
            return frozenset({gid})
        if i > self.degree_of(gid):
            return frozenset()
        return self.sq.get((gid, i), frozenset())

    def cup_gens(self, g: str, h: str) -> frozenset[str]:
        return self.products.get(pair_key(g, h), frozenset())

    def element(self, gens: str | list[str] | frozenset[str]) -> "ModuleElement":
        ids = frozenset({gens} if isinstance(gens, str) else gens)
        for gid in ids:
            self.degree_of(gid)  # raises KeyError for unknown ids
        return ModuleElement(self, ids)

    def __str__(self) -> str:
        return f"{self.name} ({len(self.generators)} generators, top degree {self.top_degree})"


class ModuleElement(F2Sum):
    """An F2-sum of generators of one module.

    Homogeneous elements are the normal case; mixed-degree sums can
    arise from mixed-degree operator sums and are tolerated, with
    per-degree contracts applying to each component.
    """

    __slots__ = ("module",)
    gens = F2Sum.terms

    def __init__(self, module: GradedModule, gens: frozenset[str]) -> None:
        object.__setattr__(self, "module", module)
        F2Sum.__init__(self, gens)

    def _context(self) -> tuple:
        return (self.module,)

    def degree(self) -> int | None:
        """Common degree of the summands; None for zero, error if mixed."""
        return common_degree(map(self.module.degree_of, self.gens))

    def _term_key(self, gid: str) -> tuple[int, str]:
        return (self.module.degree_of(gid), gid)

    _term_text = staticmethod(str)


def _cup_sets(module: GradedModule, xs: frozenset[str], ys: frozenset[str]) -> frozenset[str]:
    acc: frozenset[str] = frozenset()
    for g in xs:
        for h in ys:
            acc ^= module.cup_gens(g, h)
    return acc


def act_on_module(element: AdemElement, x: ModuleElement) -> ModuleElement:
    """Apply a sum of Sq-words through the module's action table.

    Words act rightmost square first; degrees past the truncation
    bound collapse to zero through the table.
    """
    module = x.module
    acc: set[str] = set()
    for word in element.words:
        acc ^= act_word(word, x.gens, lambda i, g: module.sq_gen(g, i))
    return ModuleElement(module, frozenset(acc))


def cup_elements(x: ModuleElement, y: ModuleElement) -> ModuleElement:
    """Cup product of module elements through the product table."""
    if x.module is not y.module:
        raise ValueError("elements live in different modules")
    return ModuleElement(x.module, _cup_sets(x.module, x.gens, y.gens))


# ---------------------------------------------------------------------------
# Catalog constructors


def point() -> GradedModule:
    """The empty module (a point has no reduced cohomology)."""
    return GradedModule("pt", (), {}, {}, 0)


def sphere(n: int) -> GradedModule:
    """S^n: one generator in degree n, all squares and products zero."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    return GradedModule(f"s{n}", ((f"x{n}", n),), {}, {}, n)


def _truncated_powers(name: str, prefix: str, n: int, step: int) -> GradedModule:
    """Powers x, x^2, ..., x^n of a class x of degree ``step``, cut off above x^n.

    Sq^(step*j)(x^k) = C(k, j) x^(k+j) and x^a cup x^b = x^(a+b); all
    other squares vanish.
    """
    gens = tuple((f"{prefix}{k}", step * k) for k in range(1, n + 1))
    sq: SqTable = {}
    products: ProductTable = {}
    for k in range(1, n + 1):
        for j in range(1, min(k, n - k) + 1):
            if binom_mod2(k, j):
                sq[(f"{prefix}{k}", step * j)] = frozenset({f"{prefix}{k + j}"})
        for b in range(k, n - k + 1):
            products[pair_key(f"{prefix}{k}", f"{prefix}{b}")] = frozenset({f"{prefix}{k + b}"})
    return GradedModule(name, gens, sq, products, step * n)


def real_proj(n: int) -> GradedModule:
    """RP^n truncation of F2[t]: generators t, t^2, ..., t^n.

    Sq^i(t^m) = C(m, i) t^(m+i), cut off above degree n.
    """
    if n < 0:
        raise ValueError("dimension must be a natural number")
    return _truncated_powers(f"rp{n}", "t", n, 1)


def complex_proj(n: int) -> GradedModule:
    """CP^n: generators x, x^2, ..., x^n in degrees 2, 4, ..., 2n.

    Sq^1(x) = 0 and Sq^2(x) = x^2; the Cartan formula then forces
    Sq^(2j)(x^k) = C(k, j) x^(k+j) with all odd squares zero.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _truncated_powers(f"cp{n}", "x", n, 2)


def _relabel(
    module: GradedModule, prefix: str, shift: int = 0, products: bool = True
) -> tuple[list[tuple[str, int]], SqTable, ProductTable]:
    """A module's generators, squares and, if ``products``, products: ids prefixed, degrees shifted."""
    gens = [(prefix + gid, d + shift) for gid, d in module.generators]
    sq: SqTable = {
        (prefix + gid, i): frozenset(prefix + t for t in targets)
        for (gid, i), targets in module.sq.items()
    }
    cups: ProductTable = {
        pair_key(prefix + g, prefix + h): frozenset(prefix + t for t in targets)
        for (g, h), targets in (module.products.items() if products else ())
    }
    return gens, sq, cups


def suspend(module: GradedModule) -> GradedModule:
    """Suspension: shift degrees by one, carry the action, kill all products.

    The square table transfers unchanged onto the shifted generators
    (the action is stable); cup products of positive-degree classes on
    a suspension vanish.
    """
    gens, sq, _ = _relabel(module, "s_", shift=1, products=False)
    return GradedModule(f"susp({module.name})", tuple(gens), sq, {}, module.top_degree + 1)


def wedge(left: GradedModule, right: GradedModule) -> GradedModule:
    """One-point union: disjoint generators, cross products zero.

    Colliding generator ids are renamed with l_/r_ prefixes.
    """
    collide = {gid for gid, _ in left.generators} & {gid for gid, _ in right.generators}
    lgens, lsq, lproducts = _relabel(left, "l_" if collide else "")
    rgens, rsq, rproducts = _relabel(right, "r_" if collide else "")
    return GradedModule(
        f"wedge({left.name},{right.name})",
        tuple(sorted(lgens + rgens, key=lambda gd: (gd[1], gd[0]))),
        {**lsq, **rsq},
        {**lproducts, **rproducts},
        max(left.top_degree, right.top_degree),
    )


def builtin_catalog() -> dict[str, GradedModule]:
    """The named builtin modules: s1..s8, rp1..rp8, cp1..cp3."""
    catalog: dict[str, GradedModule] = {}
    for n in range(1, 9):
        catalog[f"s{n}"] = sphere(n)
        catalog[f"rp{n}"] = real_proj(n)
    for n in range(1, 4):
        catalog[f"cp{n}"] = complex_proj(n)
    return catalog


def full_verification_catalog() -> list[GradedModule]:
    """Builtins, all pairwise wedges, and single suspensions of everything."""
    base = list(builtin_catalog().values())
    wedges = [wedge(a, b) for i, a in enumerate(base) for b in base[i:]]
    return base + wedges + [suspend(m) for m in base + wedges]


# ---------------------------------------------------------------------------
# Matrices, axiom verification, and the pi_4(S^3) computation


def sq_matrix(module: GradedModule, i: int, d: int) -> list[list[int]]:
    """Matrix of Sq^i from the degree-d to the degree-(d+i) part.

    Rows are indexed by the degree-d source generators, columns by the
    degree-(d+i) targets, both sorted by id; entry 1 marks that the
    target occurs in Sq^i(source).
    """
    sources = module.gens_in_degree(d)
    targets = module.gens_in_degree(d + i)
    return [
        [1 if t in module.sq_gen(s, i) else 0 for t in targets]
        for s in sources
    ]


class AxiomFailure(Record):
    __slots__ = ("axiom", "where", "detail")

    def as_dict(self) -> dict:
        return {"axiom": self.axiom, "where": self.where, "detail": self.detail}


class VerifyReport(Record):
    __slots__ = ("module_name", "max_degree", "checks", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "module": self.module_name,
            "max_degree": self.max_degree,
            "checks": self.checks,
            "failures": [f.as_dict() for f in self.failures],
            "ok": self.ok,
        }


_SquareTable = dict[str, dict[int, frozenset[str]]]

_NO_SQUARES: dict[int, frozenset[str]] = {}
_EMPTY: frozenset[str] = frozenset()


def verify_axioms(module: GradedModule, max_degree: int) -> VerifyReport:
    """Check the Steenrod axioms on a module up to the given degree.

    Covers table consistency, the identity and instability rules, the
    top-square rule, the Cartan formula on all generator pairs,
    additivity, and the Adem identities, both sides of each read from
    its generator's table of one- and two-square images.  Failures are
    collected in the report, not raised.

    The action is read from one square table built here: each
    generator's nonzero Sq^i with 1 <= i <= its degree, exactly what
    :meth:`GradedModule.sq_gen` returns.  Each pass adds the count of
    its checks, evaluated or not, in one statement beside its loop, so
    ``checks`` depends only on the table sizes and the generator
    degrees.  (I1) and additivity are counted but never evaluated: they
    hold for every table, since :func:`act_word` returns a sum unchanged
    under the empty word and is a fold of symmetric differences.  Checks
    that compare two empty sums are counted but not evaluated.  The
    Cartan checks of a pair g, h (the parts of both sides in degrees
    dg + dh + 1 ... 2(dg + dh)) are skipped by one bound: with no
    product key none is evaluated, since every term is a product; with
    exact degrees only pairs with dg + dh below the top degree of all
    generators are, since no generator lies above it; after any
    consistency failure every pair with dg + dh <= max_degree is.  The
    Adem checks on g that no word of g's nonzero images Sq^s and
    Sq^a Sq^b enters are skipped: the words of Sq^n Sq^k and of its
    one-pair expansion all have length <= 2 and sum n + k, so each image
    is added into the sides of the checks whose composite or expansion
    holds its word, and a check fails where its two sides differ.  This
    holds for every table, exact degrees or not.

    With exact degrees the Cartan checks of a pair are decided at once,
    as the total-square identity Sq(g cup h) = Sq(g) cup Sq(h) on orbit
    sets (g and its squares), Sq = sum of all Sq^i (Milnor 1958):
    Sq^i(x) lies in degree |x| + i, so an orbit is the total square of
    its generator, and the degree-(dg + dh + n) parts of the two sides
    are the two sides of the check for n.  Only a pair whose identity
    fails, or any pair when some degree is wrong, is compared degree by
    degree, which names each failing n as before.
    """
    failures: list[AxiomFailure] = []
    table: _SquareTable = {}

    def fail(axiom: str, where: str, detail: str) -> None:
        failures.append(AxiomFailure(axiom, where, detail))

    # Table consistency: stored squares respect degrees and instability.
    # The entries that pass fill the square table the other checks read.
    # Only the failures are sorted: by entry key, then target ("" for the
    # entry's own failure), squares before products.
    checks = len(module.sq) + len(module.products)
    degrees = module._degrees
    square_failures: list[tuple[tuple, AxiomFailure]] = []
    for (gid, i), targets in module.sq.items():
        d = degrees[gid]
        if i < 1:
            detail = "stored square index must be >= 1"
            square_failures.append((((gid, i), ""), AxiomFailure("table", f"Sq{i}({gid})", detail)))
            continue
        if i > d:
            detail = f"stored entry above generator degree {d}"
            square_failures.append((((gid, i), ""), AxiomFailure("(I2)", f"Sq{i}({gid})", detail)))
        elif targets:
            table.setdefault(gid, {})[i] = targets
        for t in targets:
            if degrees[t] != d + i:
                detail = f"target {t} has degree {degrees[t]}, expected {d + i}"
                square_failures.append((((gid, i), t), AxiomFailure("degree", f"Sq{i}({gid})", detail)))
    product_failures: list[tuple[tuple, AxiomFailure]] = []
    for (g, h), targets in module.products.items():
        dsum = degrees[g] + degrees[h]
        for t in targets:
            if degrees[t] != dsum:
                detail = f"target {t} has degree {degrees[t]}, expected {dsum}"
                product_failures.append((((g, h), t), AxiomFailure("degree", f"{g} cup {h}", detail)))
    for found in (square_failures, product_failures):
        # Stable, so an entry's own failure stays ahead of a target named "".
        found.sort(key=lambda item: item[0])
        failures.extend(failure for _, failure in found)
    # With no failure so far every square and product lands in its
    # expected degree, which the Cartan pass's total-square test needs.
    degrees_exact = not failures

    in_range = [(gid, d) for gid, d in module.generators if d <= max_degree]

    # (I1) the empty word acts as the identity: counted, never evaluated,
    # since act_word returns a sum unchanged under the empty word.  (I3)
    # the top square equals the cup square (absent products mean zero).
    products = module.products
    checks += 2 * len(in_range)
    for gid, d in in_range:
        top = table.get(gid, _NO_SQUARES).get(d, _EMPTY)
        square = products.get((gid, gid), _EMPTY)
        if top != square:
            fail(
                "(I3)",
                f"Sq{d}({gid})",
                f"top square {sorted(top)} != cup square {sorted(square)}",
            )

    # (C) Cartan formula on all generator pairs.  Sq^n(g cup h) is
    # paired against the sum of Sq^i(g) cup Sq^j(h) over the nonzero
    # squares with i + j = n, Sq^0 included; every other term is zero.
    # Every term on either side is a product, so with no product key
    # both sides are zero.  With exact degrees both sides lie in degree
    # dg + dh + n, so a pair with dg + dh at or above the top degree of
    # all generators (not only those in range: a square may leave the
    # range) compares two empty sums.
    checks += sum(
        dg + dh for a, (_, dg) in enumerate(in_range) for _, dh in in_range[a:] if dg + dh <= max_degree
    )
    limit = max_degree
    if products and degrees_exact:
        limit = min(max_degree, max(d for _, d in module.generators) - 1)
        orbit = {gid: frozenset({gid}).union(*table.get(gid, _NO_SQUARES).values()) for gid, _ in in_range}
    for a, (g, dg) in enumerate(in_range if products else ()):
        for h, dh in in_range[a:]:
            if dg + dh > limit:
                continue
            product = products.get((g, h) if g <= h else (h, g), _EMPTY)
            if degrees_exact:
                # Sq(g cup h) = Sq(g) cup Sq(h), every n at once: an orbit
                # is the total square of its generator (see the docstring).
                # A target t of g cup h has degree dg + dh <= max_degree,
                # so orbit[t] exists.
                lhs_total: set[str] = set()
                for t in product:
                    lhs_total ^= orbit[t]
                rhs_total: set[str] = set()
                orbit_h = orbit[h]
                for x in orbit[g]:
                    for y in orbit_h:
                        rhs_total ^= products.get((x, y) if x <= y else (y, x), _EMPTY)
                if lhs_total == rhs_total:
                    continue
            lhs_by_n: dict[int, frozenset[str]] = {}
            for t in product:
                for n, targets in table.get(t, _NO_SQUARES).items():
                    lhs_by_n[n] = lhs_by_n.get(n, _EMPTY) ^ targets
            rhs_by_n: dict[int, frozenset[str]] = {}
            for i, xs in ((0, frozenset({g})), *table.get(g, _NO_SQUARES).items()):
                for j, ys in ((0, frozenset({h})), *table.get(h, _NO_SQUARES).items()):
                    if i + j:
                        rhs_by_n[i + j] = rhs_by_n.get(i + j, _EMPTY) ^ _cup_sets(module, xs, ys)
            for n in range(1, dg + dh + 1):
                lhs = lhs_by_n.get(n, _EMPTY)
                rhs = rhs_by_n.get(n, _EMPTY)
                if lhs != rhs:
                    fail(
                        "(C)",
                        f"Sq{n}({g} cup {h})",
                        f"lhs {sorted(lhs)} != rhs {sorted(rhs)}",
                    )

    # Additivity: 12 checks per degree holding two or more generators,
    # counted but never evaluated, since act_word is a fold of symmetric
    # differences and so is additive for every table.
    gens_per_degree: dict[int, int] = {}
    for _, d in in_range:
        gens_per_degree[d] = gens_per_degree.get(d, 0) + 1
    checks += 12 * sum(count > 1 for count in gens_per_degree.values())

    # (A) Adem identities, one check per generator in range and pair
    # (n, k) with n < 2k and n + k <= max_degree, against the one-pair
    # expansion alone (no normalize): min(2k - 1, max_degree - k) for each
    # k, summed in closed form (2k - 1 is the smaller for k <= m).
    # ``images`` holds a generator's nonzero Sq^s under (s,) and Sq^a Sq^b,
    # a + b <= max_degree, under (a, b).  Each image is XORed into the
    # sides of the checks whose composite or expansion holds its word; a
    # check fails where that sum is nonzero.
    m = (max_degree + 1) // 3
    checks += len(in_range) * (m * m + (max_degree - 1 - m) * (max_degree - m) // 2 if max_degree > 1 else 0)
    enters: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    adem_failures: list[tuple[int, int, int]] = []
    for index, (gid, _) in enumerate(in_range):
        images: dict[tuple[int, ...], frozenset[str] | set[str]] = {}
        for b, xs in table.get(gid, _NO_SQUARES).items():
            images[(b,)] = xs
            by_a: dict[int, set[str]] = {}
            for x in xs:
                for a, ys in table.get(x, _NO_SQUARES).items():
                    if a + b <= max_degree:
                        by_a.setdefault(a, set()).symmetric_difference_update(ys)
            images.update(((a, b), ys) for a, ys in by_a.items() if ys)
        sides: dict[tuple[int, int], frozenset[str]] = {}
        for word, image in images.items():
            if len(word) == 2 and word[0] < 2 * word[1]:
                # An inadmissible word is the composite of one check alone.
                key = (word[1], word[0])
                sides[key] = sides.get(key, _EMPTY) ^ image
                continue
            pairs = enters.get(word)
            if pairs is None:
                pairs = enters[word] = _adem_checks(word)
            for key in pairs:
                sides[key] = sides.get(key, _EMPTY) ^ image
        adem_failures += [(k, n, index) for (k, n), side in sides.items() if side]
    for k, n, index in sorted(adem_failures):
        fail("(A)", f"Sq{n} Sq{k} on {in_range[index][0]}", "composite disagrees with its Adem expansion")

    return VerifyReport(module.name, max_degree, checks, tuple(failures))


def _adem_checks(word: tuple[int, ...]) -> list[tuple[int, int]]:
    """The checks (k, n) whose Adem expansion holds the admissible ``word`` of length <= 2.

    The expansion of Sq^n Sq^k has the words (n + k - c, c), 1 <= c <= n / 2,
    and (n + k,), so a word of sum s and second square j (0 if it has one
    square) enters only checks with n + k = s and 2j <= n < 2k.
    """
    s = sum(word)
    j = word[1] if len(word) == 2 else 0
    return [(s - n, n) for n in range(max(1, 2 * j), (2 * s - 1) // 3 + 1) if word in adem_rewrite(n, s - n)]


class Pi4Report(Record):
    """Outcome of the Sq^2 comparison distinguishing the two mapping cofibres."""

    __slots__ = (
        "suspension_name",
        "wedge_name",
        "suspension_matrix",
        "wedge_matrix",
        "suspension_rank",
        "wedge_rank",
        "h3_dimensions",
        "h5_dimensions",
        "distinct",
        "conclusion",
    )

    @property
    def ok(self) -> bool:
        return self.distinct

    def as_dict(self) -> dict:
        return {
            "spaces": [self.suspension_name, self.wedge_name],
            "sq2_matrices": {
                self.suspension_name: [list(r) for r in self.suspension_matrix],
                self.wedge_name: [list(r) for r in self.wedge_matrix],
            },
            "sq2_ranks": {
                self.suspension_name: self.suspension_rank,
                self.wedge_name: self.wedge_rank,
            },
            "h3_dimensions": list(self.h3_dimensions),
            "h5_dimensions": list(self.h5_dimensions),
            "distinct": self.distinct,
            "conclusion": list(self.conclusion),
        }


def distinguish_pi4() -> Pi4Report:
    """Compare Sq^2 : H^3 -> H^5 on the two candidate cofibres.

    The suspension of CP^2 is the cofibre of the suspended Hopf map;
    the wedge S^5 v S^3 is the cofibre of the constant map.  A nonzero
    Sq^2 on the first and a zero Sq^2 on the second shows the spaces
    differ, hence the suspended Hopf map is essential, hence pi_4(S^3)
    is nonzero.
    """
    sigma_cp2 = suspend(complex_proj(2))
    wedge_53 = wedge(sphere(5), sphere(3))
    m_susp = sq_matrix(sigma_cp2, 2, 3)
    m_wedge = sq_matrix(wedge_53, 2, 3)
    r_susp, r_wedge = (
        rank_f2([m.sq_gen(g, 2) for g in m.gens_in_degree(3)]) for m in (sigma_cp2, wedge_53)
    )
    distinct = r_susp == 1 and r_wedge == 0
    if distinct:
        conclusion = (
            f"Sq^2 : H^3 -> H^5 has rank {r_susp} on {sigma_cp2.name} "
            f"and rank {r_wedge} on {wedge_53.name}",
            "the two cofibres are not equivalent",
            "the suspended Hopf map is therefore essential",
            "π₄(S³) ≠ 0",
        )
    else:
        conclusion = (
            f"unexpected ranks {r_susp} and {r_wedge}: comparison is inconclusive",
        )
    return Pi4Report(
        sigma_cp2.name,
        wedge_53.name,
        tuple(tuple(r) for r in m_susp),
        tuple(tuple(r) for r in m_wedge),
        r_susp,
        r_wedge,
        (len(sigma_cp2.gens_in_degree(3)), len(wedge_53.gens_in_degree(3))),
        (len(sigma_cp2.gens_in_degree(5)), len(wedge_53.gens_in_degree(5))),
        distinct,
        conclusion,
    )
