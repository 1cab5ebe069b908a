"""Acceptance checks for the whole engine, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and then asserts, so the module doubles as a checklist.  All
comparisons are exact F2 equality; the only tolerance anywhere is the
wall-clock bound in criterion 5.
"""

import itertools
import random
import time

from steenrod.adem import (
    AdemElement,
    admissible_basis,
    degree,
    excess,
    normalize,
)
from steenrod.derive import derive_adem_relations
from steenrod.f2 import adem_coeff
from steenrod.modules import (
    GradedModule,
    distinguish_pi4,
    full_verification_catalog,
    real_proj,
    verify_axioms,
)
from steenrod.parsing import parse_poly, parse_sq
from steenrod.poly import (
    PolyElement,
    act,
    coefficient,
    cup,
    make_monomial,
    sq,
    total_square,
    variable,
)

from poly_helpers import substitute

SEED = 20250809


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f": {detail}"
    print(line)


def monomials_up_to(max_degree: int, nvars: int) -> list:
    out = []
    for exps in itertools.product(range(max_degree + 1), repeat=nvars):
        if sum(exps) <= max_degree:
            out.append(make_monomial({v + 1: e for v, e in enumerate(exps)}))
    return out


def words_up_to(max_degree: int, max_length: int) -> list:
    out = [()]
    for d in range(1, max_degree + 1):
        for cuts in itertools.product([0, 1], repeat=d - 1):
            word = []
            part = 1
            for cut in cuts:
                if cut:
                    word.append(part)
                    part = 1
                else:
                    part += 1
            word.append(part)
            if len(word) <= max_length:
                out.append(tuple(word))
    return out


def test_criterion_1_normalization_agrees_with_cartan_oracle():
    """Raw words and their normal forms act identically on F2[t1..t3]."""
    monos = [PolyElement(frozenset({m})) for m in monomials_up_to(6, 3)]
    words = words_up_to(10, 4)
    mismatches = 0
    for word in words:
        raw = AdemElement(frozenset({word}))
        nf = normalize(raw)
        assert nf.is_admissible()
        for p in monos:
            if act(raw, p) != act(nf, p):
                mismatches += 1
    ok = mismatches == 0
    report(
        "1 adem normalization vs independent Cartan action",
        ok,
        f"{len(words)} words x {len(monos)} monomials, {mismatches} mismatches",
    )
    assert ok


def test_criterion_2_axioms_on_the_polynomial_model():
    """Identity, instability, top square, Cartan, and Adem, quantified."""
    monos = monomials_up_to(8, 3)
    failures = []

    # Sq^0 is the identity
    for mono in monos:
        p = PolyElement(frozenset({mono}))
        if sq(0, p) != p:
            failures.append(("I1", mono))

    # Sq^n vanishes above the degree
    for mono in monos:
        m = sum(e for _, e in mono)
        p = PolyElement(frozenset({mono}))
        for n in range(m + 1, m + 5):
            if not sq(n, p).is_zero():
                failures.append(("I2", mono, n))

    # the top square is the cup square
    for mono in monomials_up_to(6, 3):
        p = PolyElement(frozenset({mono}))
        m = sum(e for _, e in mono)
        if sq(m, p) != cup(p, p):
            failures.append(("I3", mono))

    # Cartan formula on all monomial pairs with deg p + deg q <= 8, n <= 8
    small = monomials_up_to(8, 3)
    for p_mono in small:
        dp = sum(e for _, e in p_mono)
        p = PolyElement(frozenset({p_mono}))
        for q_mono in small:
            dq = sum(e for _, e in q_mono)
            if dp + dq > 8:
                continue
            q = PolyElement(frozenset({q_mono}))
            product = cup(p, q)
            for n in range(9):
                rhs = PolyElement.zero()
                for i in range(n + 1):
                    rhs += cup(sq(i, p), sq(n - i, q))
                if sq(n, product) != rhs:
                    failures.append(("C", p_mono, q_mono, n))

    # Adem identities evaluated through the action only
    act_monos = [PolyElement(frozenset({m})) for m in monomials_up_to(6, 3)]
    for k in range(1, 10):
        for n in range(1, 2 * k):
            if n + k > 10:
                continue
            lhs_op = AdemElement(frozenset({(n, k)}))
            rhs_words = []
            for c in range(n // 2 + 1):
                if adem_coeff(n, k, c):
                    rhs_words.append((n + k - c,) if c == 0 else (n + k - c, c))
            rhs_op = AdemElement(frozenset(rhs_words))
            for p in act_monos:
                if act(lhs_op, p) != act(rhs_op, p):
                    failures.append(("A", n, k))

    ok = not failures
    report(
        "2 axiom suite on the polynomial model",
        ok,
        "I1/I2/I3/Cartan on degrees <= 8, Adem action-side for n+k <= 10"
        + ("" if ok else f"; {len(failures)} failures, first {failures[0]}"),
    )
    assert ok, failures[:5]


def test_criterion_3_derived_relations_normalize_to_zero():
    """Derived relation sets are nonempty, normalize to zero where they
    must, and are exact at degree one.

    A relation derived at source degree m only has to hold on degree-m
    classes, where the algebra acts through the quotient by the
    admissibles of excess > m.  An admissible word of degree d has
    excess at most d, so for every relation at source degree m:

    (a) if its operator degree is at most m, its normal form is zero;
    (b) otherwise every word of its normal form has excess > m, so it
        is zero in the algebra acting on degree-m classes.  A nonzero
        such residue (Sq1 Sq2 = Sq3 at m = 2) is a degree-local
        relation.
    """
    nonempty_ok = True
    m1_ok = True
    offenders = []
    degree_local = 0
    for m in range(1, 7):
        relations = derive_adem_relations(m)
        if not relations:
            nonempty_ok = False
        for relation in relations:
            residue = normalize(relation)
            if max(degree(w) for w in relation.words) <= m:
                if not residue.is_zero():
                    offenders.append((m, "a", str(relation), str(residue)))
            elif any(excess(w) <= m for w in residue.words):
                offenders.append((m, "b", str(relation), str(residue)))
            elif not residue.is_zero():
                degree_local += 1
    degree2 = [
        r for r in derive_adem_relations(1) if {degree(w) for w in r.words} == {2}
    ]
    m1_ok = degree2 == [AdemElement(frozenset({(1, 1)}))]

    all_zero = not offenders
    ok = nonempty_ok and all_zero and m1_ok
    report(
        "3 derived relations: nonempty, zero at operator degree <= m, "
        "excess > m residues above it, exact at degree one",
        ok,
        f"nonempty={nonempty_ok}, m=1 exact={m1_ok}, "
        f"zero-in-degree-m={all_zero} ({degree_local} degree-local relations "
        "with excess > m residues)"
        + ("" if all_zero else f", {len(offenders)} offenders, e.g. {offenders[0]}"),
    )
    assert nonempty_ok
    assert m1_ok
    assert all_zero, (
        "relations that do not vanish in the algebra acting on degree-m classes: "
        f"{offenders}"
    )


def test_criterion_4_total_square_of_the_fundamental_class():
    """total_square(t, u) = t*u + t^2, dies under u := t, and exhibits Sq^0 = id."""
    t = variable(1)
    ts = total_square(t, 2)
    shape_ok = ts == parse_poly("t1*t2 + t1^2")
    substitution_ok = substitute(ts, 2, 1).is_zero()
    sq0_ok = coefficient(ts, 2, 1) == t  # u^1 coefficient is Sq^0(t) = t
    sq1_ok = coefficient(ts, 2, 0) == parse_poly("t1^2")  # u^0 is Sq^1(t) = t^2
    ok = shape_ok and substitution_ok and sq0_ok and sq1_ok
    report(
        "4 total square of the degree-1 generator",
        ok,
        f"shape={shape_ok}, u:=t vanishing={substitution_ok}, "
        f"Sq0=id={sq0_ok}, Sq1=square={sq1_ok}",
    )
    assert ok


def test_criterion_5_pi4_comparison():
    """Sq^2 ranks 1 vs 0, conclusion chain, and under a second."""
    start = time.perf_counter()
    result = distinguish_pi4()
    elapsed = time.perf_counter() - start
    ok = (
        result.suspension_rank == 1
        and result.wedge_rank == 0
        and result.distinct
        and result.conclusion[-1] == "π₄(S³) ≠ 0"
        and elapsed < 1.0
    )
    report(
        "5 suspended-CP2 vs wedge comparison",
        ok,
        f"ranks {result.suspension_rank}/{result.wedge_rank}, {elapsed * 1000:.0f} ms",
    )
    assert ok


def test_criterion_6_faithfulness_rank():
    """Action rank equals the admissible basis size for d <= 8."""
    from steenrod.poly import faithful_rank

    mismatches = []
    for d in range(9):
        rank = faithful_rank(d)
        size = len(admissible_basis(d))
        if rank != size:
            mismatches.append((d, rank, size))
    ok = not mismatches
    report("6 faithful action rank vs basis size for d <= 8", ok, f"{mismatches or 'all equal'}")
    assert ok


def test_criterion_7_structural_properties():
    """Idempotence, parser round trips, and catalog verification."""
    rng = random.Random(SEED)

    def random_word():
        d = rng.randint(1, 14)
        word = []
        while d > 0:
            part = rng.randint(1, d)
            word.append(part)
            d -= part
        return tuple(word)

    idempotence_bad = 0
    roundtrip_bad = 0
    for _ in range(10_000):
        element = AdemElement(frozenset(random_word() for _ in range(rng.randint(1, 3))))
        once = normalize(element)
        if normalize(once) != once or not once.is_admissible():
            idempotence_bad += 1
        if parse_sq(str(element)) != element:
            roundtrip_bad += 1

    for _ in range(10_000):
        monos = frozenset(
            make_monomial(
                {rng.randint(1, 4): rng.randint(1, 6) for _ in range(rng.randint(1, 3))}
            )
            for _ in range(rng.randint(0, 4))
        )
        poly = PolyElement(monos)
        if parse_poly(str(poly)) != poly:
            roundtrip_bad += 1

    catalog = full_verification_catalog()
    catalog_bad = [m.name for m in catalog if not verify_axioms(m, 10).ok]

    good = real_proj(4)
    bad_sq = dict(good.sq)
    bad_sq[("t1", 1)] = frozenset({"t1"})
    corrupted = GradedModule("bad_rp4", good.generators, bad_sq, good.products, 4)
    negative_control_ok = not verify_axioms(corrupted, 4).ok

    ok = (
        idempotence_bad == 0
        and roundtrip_bad == 0
        and not catalog_bad
        and negative_control_ok
    )
    report(
        "7 structural properties",
        ok,
        f"idempotence bad={idempotence_bad}, roundtrip bad={roundtrip_bad}, "
        f"catalog ({len(catalog)} modules) bad={len(catalog_bad)}, "
        f"negative control caught={negative_control_ok}",
    )
    assert ok
