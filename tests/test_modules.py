"""Graded module catalog, axiom verifier, and the pi_4(S^3) comparison."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod import modfile
from steenrod.adem import AdemElement, Sq, adem_rewrite
from steenrod.modules import (
    AxiomFailure,
    GradedModule,
    VerifyReport,
    act_on_module,
    complex_proj,
    cup_elements,
    distinguish_pi4,
    full_verification_catalog,
    pair_key,
    point,
    real_proj,
    sphere,
    sq_matrix,
    suspend,
    verify_axioms,
    wedge,
)
from steenrod.parsing import parse_poly
from steenrod.poly import act

from modules_helpers import predicted_checks


def corrupted_rp4() -> GradedModule:
    """rp4 with the wrong differential Sq1(t1) := t1 (a negative control)."""
    good = real_proj(4)
    bad_sq = dict(good.sq)
    bad_sq[("t1", 1)] = frozenset({"t1"})
    return GradedModule("bad_rp4", good.generators, bad_sq, good.products, 4)


def test_sphere_action_is_trivial():
    s3 = sphere(3)
    x = s3.element("x3")
    assert act_on_module(Sq(2), x).is_zero()
    assert act_on_module(Sq(1), sphere(1).element("x1")).is_zero()
    assert act_on_module(AdemElement.one(), x) == x


def test_real_proj_action():
    rp5 = real_proj(5)
    assert act_on_module(Sq(1), rp5.element("t1")) == rp5.element("t2")
    assert act_on_module(Sq(2), rp5.element("t3")) == rp5.element("t5")
    rp3 = real_proj(3)
    assert act_on_module(Sq(2), rp3.element("t3")).is_zero()  # truncated
    assert str(rp3) == "rp3 (3 generators, top degree 3)"


def test_complex_proj_action():
    cp2 = complex_proj(2)
    x = cp2.element("x1")
    assert act_on_module(Sq(2), x) == cp2.element("x2")
    assert act_on_module(Sq(2), x) == cup_elements(x, x)
    assert act_on_module(Sq(1), x).is_zero()
    assert act_on_module(Sq(2), complex_proj(1).element("x1")).is_zero()


def test_suspension_shifts_and_kills_products():
    scp2 = suspend(complex_proj(2))
    assert [d for _, d in scp2.generators] == [3, 5]
    x = scp2.element("s_x1")
    assert act_on_module(Sq(2), x) == scp2.element("s_x2")
    assert cup_elements(x, x).is_zero()
    # suspending a sphere is the next sphere up to naming
    ss3 = suspend(sphere(3))
    assert [d for _, d in ss3.generators] == [4]
    assert not ss3.sq


def test_suspension_preserves_instability():
    for module in [real_proj(6), complex_proj(3)]:
        s = suspend(module)
        for (gid, i), _ in s.sq.items():
            assert i <= s.degree_of(gid)


def test_wedge_combines_and_renames():
    w = wedge(sphere(5), sphere(3))
    assert {gid for gid, _ in w.generators} == {"x5", "x3"}
    assert act_on_module(Sq(2), w.element("x3")).is_zero()
    # collision forces prefixes
    ww = wedge(real_proj(2), real_proj(2))
    assert {gid for gid, _ in ww.generators} == {"l_t1", "l_t2", "r_t1", "r_t2"}
    assert cup_elements(ww.element("l_t1"), ww.element("r_t1")).is_zero()
    assert cup_elements(ww.element("l_t1"), ww.element("l_t1")) == ww.element("l_t2")


def test_wedge_with_point_is_identity_up_to_name():
    m = real_proj(3)
    w = wedge(m, point())
    assert w.generators == m.generators
    assert w.sq == m.sq
    assert w.products == m.products


def test_act_on_module_adem_instance():
    rp8 = real_proj(8)
    for k in range(1, 9):
        x = rp8.element(f"t{k}")
        assert act_on_module(Sq(2, 2), x) == act_on_module(Sq(3, 1), x)


def all_words_up_to(max_degree: int):
    out = [()]
    for d in range(1, max_degree + 1):
        stack = [((), d)]
        while stack:
            prefix, left = stack.pop()
            for part in range(1, left + 1):
                word = prefix + (part,)
                if part == left:
                    out.append(word)
                else:
                    stack.append((word, left - part))
    return out


def test_module_action_agrees_with_polynomial_action():
    # on rp_n the table action is the polynomial action followed by truncation
    for n in range(1, 9):
        rpn = real_proj(n)
        for word in all_words_up_to(n):
            op = AdemElement(frozenset({word}))
            for k in range(1, n + 1):
                poly_image = act(op, parse_poly(f"t1^{k}"))
                expected = frozenset(
                    f"t{sum(e for _, e in mono)}"
                    for mono in poly_image.monomials
                    if sum(e for _, e in mono) <= n
                )
                got = act_on_module(op, rpn.element(f"t{k}"))
                assert got.gens == expected, (n, word, k)


def test_sq_matrix_examples():
    assert sq_matrix(suspend(complex_proj(2)), 2, 3) == [[1]]
    assert sq_matrix(wedge(sphere(5), sphere(3)), 2, 3) == [[0]]
    rp4 = real_proj(4)
    assert sq_matrix(rp4, 0, 2) == [[1]]  # Sq^0 is the identity
    assert sq_matrix(rp4, 1, 1) == [[1]]  # Sq^1(t) = t^2
    assert sq_matrix(rp4, 2, 1) == [[0]]  # instability: 2 > deg(t)


def test_sq_matrix_zero_above_degree():
    for module in [real_proj(6), complex_proj(3)]:
        for d in range(1, 5):
            for i in range(d + 1, d + 3):
                matrix = sq_matrix(module, i, d)
                assert all(v == 0 for row in matrix for v in row)


def test_verify_axioms_on_catalog_samples():
    assert verify_axioms(real_proj(8), 8).ok
    assert verify_axioms(complex_proj(2), 6).ok
    assert verify_axioms(wedge(real_proj(4), complex_proj(2)), 8).ok
    assert verify_axioms(suspend(real_proj(5)), 8).ok


def test_verify_axioms_catches_corruption():
    report = verify_axioms(corrupted_rp4(), 4)
    assert not report.ok
    axioms = {f.axiom for f in report.failures}
    assert "(I3)" in axioms
    assert "(C)" in axioms


@pytest.mark.parametrize("max_degree, total", [(1, 3375), (4, 18168), (10, 118675), (12, 160914)])
def test_verify_counts_the_predicted_checks_on_the_catalog(max_degree, total):
    counted = 0
    for module in full_verification_catalog():
        checks = verify_axioms(module, max_degree).checks
        assert checks == predicted_checks(module, max_degree), module.name
        counted += checks
    assert counted == total


def test_verify_counts_the_predicted_checks_on_large_models():
    for module, max_degree in [(complex_proj(128), 256), (real_proj(64), 64), (suspend(real_proj(33)), 34)]:
        assert verify_axioms(module, max_degree).checks == predicted_checks(module, max_degree), module.name


def test_verify_evaluates_checks_in_empty_degrees_after_a_degree_failure():
    # Sq2(b2) = c6 lands in degree 6 instead of 4.  Sq1 Sq2 on b2 then
    # reaches e7, while its Adem expansion Sq3 vanishes on b2; degree
    # 2 + 3 = 5 holds no generator, so only a verifier that does not skip
    # the Adem checks of empty degrees after a degree failure sees the
    # (A) failure.
    gap = GradedModule(
        "gap",
        (("b2", 2), ("c6", 6), ("e7", 7)),
        {("b2", 2): frozenset({"c6"}), ("c6", 1): frozenset({"e7"})},
        {},
        7,
    )
    report = verify_axioms(gap, 7)
    assert report.checks == predicted_checks(gap, 7) == 54
    assert [(f.axiom, f.where) for f in report.failures] == [
        ("degree", "Sq2(b2)"),
        ("(I3)", "Sq2(b2)"),
        ("(A)", "Sq1 Sq2 on b2"),
    ]
    # Sq1(a) = b lands in degree 5 instead of 2, and Sq1(b) = c, so
    # Sq1 Sq1 on a is c where Sq1 Sq1 = 0; degree 1 + 2 = 3 holds no
    # generator.
    gap3 = GradedModule(
        "gap3",
        (("a", 1), ("b", 5), ("c", 6)),
        {("a", 1): frozenset({"b"}), ("b", 1): frozenset({"c"})},
        {},
        6,
    )
    report = verify_axioms(gap3, 6)
    assert report.checks == predicted_checks(gap3, 6)
    assert [(f.axiom, f.where) for f in report.failures] == [
        ("degree", "Sq1(a)"),
        ("(I3)", "Sq1(a)"),
        ("(A)", "Sq1 Sq1 on a"),
    ]
    _assert_same_reports([(gap, 7), (gap3, 6)])


def test_verify_full_catalog_up_to_degree_ten():
    catalog = full_verification_catalog()
    assert len(catalog) > 400
    for module in catalog:
        report = verify_axioms(module, 10)
        assert report.ok, (module.name, [f.as_dict() for f in report.failures][:3])


def test_suspension_preserves_verification():
    for module in [sphere(4), real_proj(5), complex_proj(3), wedge(sphere(2), real_proj(3))]:
        base = verify_axioms(module, 9)
        lifted = verify_axioms(suspend(module), 10)
        assert base.ok and lifted.ok, module.name


def test_distinguish_pi4_report():
    report = distinguish_pi4()
    assert report.ok
    assert report.suspension_rank == 1
    assert report.wedge_rank == 0
    assert report.h3_dimensions == (1, 1)
    assert report.h5_dimensions == (1, 1)
    assert report.conclusion[-1] == "π₄(S³) ≠ 0"
    # deterministic across runs
    assert distinguish_pi4() == report


def test_inhomogeneous_elements_tolerated():
    rp4 = real_proj(4)
    mixed = rp4.element(["t1", "t3"])
    with pytest.raises(ValueError):
        mixed.degree()
    # Sq1(t) = t^2 and Sq1(t^3) = 3 t^4 = t^4; Sq1(t^2) would vanish
    image = act_on_module(Sq(1), mixed)
    assert image == rp4.element("t2") + rp4.element("t4")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GradedModule("x", (("a", 1), ("a", 2)), {}, {}, 2), "duplicate generator id 'a'"),
        (lambda: GradedModule("x", (("a", 0),), {}, {}, 1), "generator 'a' must have positive degree"),
        (lambda: real_proj(3).sq_gen("t1", -1), "square index must be a natural number"),
        (
            lambda: cup_elements(real_proj(3).element("t1"), real_proj(3).element("t1")),
            "elements live in different modules",
        ),
    ],
    ids=["duplicate id", "degree 0", "negative square", "two modules"],
)
def test_module_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_module_file_round_trip():
    for module in [real_proj(4), complex_proj(3), suspend(complex_proj(2)),
                   wedge(real_proj(2), real_proj(2)), sphere(3)]:
        text = modfile.dumps(module)
        assert "unit" not in json.loads(text)
        again = modfile.loads(text)
        assert modfile.dumps(again) == text
        assert again.generators == module.generators
        assert again.sq == module.sq
        assert again.products == module.products
        assert again.top_degree == module.top_degree
        assert verify_axioms(again, 8).ok == verify_axioms(module, 8).ok


def test_module_file_rejects_bad_documents():
    with pytest.raises(ValueError, match="^module document must be a JSON object$"):
        modfile.loads("[]")
    with pytest.raises(ValueError):
        modfile.loads('{"name": "x"}')
    with pytest.raises(ValueError):
        modfile.loads(
            '{"name": "x", "top_degree": 1, "generators": [["a b", 1]], "sq": {}, "products": {}}'
        )
    with pytest.raises(ValueError):
        modfile.loads(
            '{"name": "x", "top_degree": 2, "generators": [["a", 1]],'
            ' "sq": {"a": {"1": ["missing"]}}, "products": {}}'
        )


def test_module_file_names_a_square_table_that_is_not_an_object():
    with pytest.raises(ValueError, match=r"^sq table of 't1' must be a JSON object$"):
        modfile.module_from_dict(_document(sq={"t1": ["t2"]}))
    with pytest.raises(ValueError, match=r"^'sq' must be a JSON object$"):
        modfile.module_from_dict(_document(sq=[]))


def _loads_with(generator_id: str = "t1", index: str = "1") -> bool:
    """Whether a one-generator document with this id and square index loads."""
    doc = {"name": "x", "top_degree": 2, "generators": [[generator_id, 1]],
           "sq": {generator_id: {index: []}}, "products": {}}
    try:
        modfile.module_from_dict(doc)
    except ValueError:
        return False
    return True


def test_module_file_ids_and_indices_are_those_of_the_documented_patterns():
    # Every string of up to four characters over letters, ASCII and
    # non-ASCII digits, '_', whitespace and '-': accepted exactly where
    # the patterns of the module docstring match.
    ids, indices = re.compile(r"[A-Za-z][A-Za-z0-9_]*"), re.compile(r"[1-9][0-9]*")
    texts = ["".join(chars) for n in range(5) for chars in itertools.product("aZ09_ \n\u0663\u00e9-1", repeat=n)]
    assert len(texts) == 16105
    assert [text for text in texts if _loads_with(generator_id=text) != bool(ids.fullmatch(text))] == []
    assert [text for text in texts if _loads_with(index=text) != bool(indices.fullmatch(text))] == []


def _document(**fields) -> dict:
    """A valid rp2 document with the given fields replaced."""
    doc = {
        "name": "rp2",
        "top_degree": 2,
        "unit": None,
        "generators": [["t1", 1], ["t2", 2]],
        "sq": {"t1": {"1": ["t2"]}},
        "products": {"t1,t1": ["t2"]},
    }
    doc.update(fields)
    return doc


def test_module_file_template_is_valid():
    module = modfile.module_from_dict(_document())
    assert verify_axioms(module, 2).ok


@pytest.mark.parametrize(
    "fields",
    [
        {"generators": [5]},
        {"generators": {"t1": 1}},
        {"generators": [["t1", 1, 2]]},
        {"sq": []},
        {"sq": {"t1": []}},
        {"sq": {"t1": {"1": "t2"}}},
        {"sq": {"t1": {"one": ["t2"]}}},
        {"sq": {"t1": {"1": [["t2"]]}}},
        {"products": []},
        {"products": {"t1,t1": "t2"}},
        {"products": {"t1,t1": [7]}},
        {"top_degree": True},
        {"generators": [["t1", True], ["t2", 2]]},
        {"generators": [["t1", 1], ["t2", 2], ["t3\n", 3]]},
        {"unit": "u\n"},
        {"sq": {"t1": {"01": ["t2"]}}},
        {"sq": {"t1": {" 1": ["t2"]}}},
        {"sq": {"t1": {"1_0": ["t2"]}}},
        {"sq": {"t1": {"1": ["t2"], "01": []}}},
        {"sq": {"t1": {"0": ["t2"]}}},
        {"products": {"t1,t2": [], "t2,t1": []}},
        # Module-file text rather than fields: JSON keys repeated in one object.
        json.dumps(_document(sq={})).replace('"sq": {}', '"sq": {"t1": {"1": ["t2"], "1": []}}'),
        json.dumps(_document()).replace('"name": "rp2"', '"name": "rp2", "name": "rp3"'),
    ],
    ids=lambda fields: repr(fields),
)
def test_module_file_type_errors_are_value_errors(fields):
    with pytest.raises(ValueError):
        if isinstance(fields, str):
            modfile.loads(fields)
        else:
            modfile.module_from_dict(_document(**fields))


def test_module_file_unit_may_only_be_null():
    # Reduced cohomology has no unit class: a null or absent "unit" loads alike, an id is refused.
    without = _document()
    del without["unit"]
    with_null = modfile.module_from_dict(_document())
    assert modfile.module_to_dict(with_null) == modfile.module_to_dict(modfile.module_from_dict(without))
    for unit in ["one", "t1"]:
        with pytest.raises(ValueError, match="unit"):
            modfile.module_from_dict(_document(unit=unit))


def test_module_file_errors_are_those_of_json_loads():
    # loads shares one decoder across calls; its syntax errors stay
    # json.loads's, a leading byte order mark included.
    def error(load, text):
        try:
            load(text)
        except ValueError as err:
            return str(err)

    text = modfile.dumps(real_proj(3))
    for bad in ["\ufeff" + text, text[:-9], text.replace('"rp3"', '"rp3",')]:
        assert error(modfile.loads, bad) == error(json.loads, bad) is not None


def test_module_file_rejects_non_string_product_key():
    with pytest.raises(ValueError):
        modfile.module_from_dict(_document(products={("t1", "t1"): ["t2"]}))


def test_projective_spaces_store_products_in_string_order():
    # t10 < t2 as strings: the key must be ("t10", "t2"), or the product reads as zero
    assert real_proj(12).cup_gens("t2", "t10") == frozenset({"t12"})
    assert complex_proj(12).cup_gens("x10", "x2") == frozenset({"x12"})
    assert verify_axioms(real_proj(30), 30).ok
    assert verify_axioms(complex_proj(15), 30).ok


def test_module_file_round_trip_past_nine_generators():
    text = modfile.dumps(real_proj(12))
    assert modfile.dumps(modfile.loads(text)) == text
    text = modfile.dumps(complex_proj(12))
    assert modfile.dumps(modfile.loads(text)) == text


def test_module_file_text_is_what_json_dumps_writes():
    for module in [*full_verification_catalog(), real_proj(40)]:
        expected = json.dumps(modfile.module_to_dict(module), sort_keys=True, indent=2) + "\n"
        assert modfile.dumps(module) == expected, module.name


def _json_dumps_text(module: GradedModule) -> str:
    """The module file as the json module writes the dict form: the writer's oracle."""
    return json.dumps(modfile.module_to_dict(module), sort_keys=True, indent=2) + "\n"


def test_module_file_writer_escapes_ids_and_name_as_json_does():
    # GradedModule does not validate ids: a library-built module may hold any string.
    ids = ['a"b', "\u00e9", "c\\d", "e"]
    module = GradedModule(
        'x"\u00e9\\\n',
        tuple((gid, d) for d, gid in enumerate(ids, 1)),
        {('a"b', 1): frozenset({"\u00e9", "e"}), ("c\\d", 1): frozenset({"e"}), ("e", 1): frozenset({'a"b'})},
        {pair_key('a"b', "c\\d"): frozenset({"e", "\u00e9"}), ("e", "\u00e9"): frozenset({"c\\d"})},
        4,
    )
    text = modfile.dumps(module)
    assert text == _json_dumps_text(module)
    assert '"a\\"b"' in text and '"\\u00e9"' in text and '"c\\\\d"' in text


def test_module_file_writer_keeps_the_last_of_coinciding_product_keys():
    # ("a", "b,c") and ("a,b", "c") both write the key "a,b,c"; the dict form keeps the later pair.
    module = GradedModule("m", (("a", 1), ("a,b", 1), ("b,c", 1), ("c", 1), ("x", 2), ("y", 2)), {},
                          {("a,b", "c"): frozenset({"y"}), ("a", "b,c"): frozenset({"x"})}, 2)
    text = modfile.dumps(module)
    assert text == _json_dumps_text(module)
    assert '"a,b,c": [\n      "y"\n    ]' in text


def test_module_file_writer_sorts_square_indices_as_strings():
    module = GradedModule("m", (("a", 1), ("b", 3), ("c", 11)),
                          {("a", 2): frozenset({"b"}), ("a", 10): frozenset({"c"})}, {}, 11)
    text = modfile.dumps(module)
    assert text == _json_dumps_text(module)
    assert text.index('"10"') < text.index('"2"')


def test_module_file_writer_keeps_empty_target_sets_and_corrupt_indices():
    # Empty sets and indices <= 0 do not occur in loaded tables, only in hand-built ones.
    module = GradedModule("m", (("a", 1), ("b", 2)),
                          {("a", 1): frozenset(), ("a", 0): frozenset({"a"}), ("b", -1): frozenset({"a"})},
                          {("a", "b"): frozenset(), ("a", "a"): frozenset({"b"})}, 2)
    text = modfile.dumps(module)
    assert text == _json_dumps_text(module)
    assert '"1": []' in text and '"a,b": []' in text and '"-1": [' in text and '"0": [' in text


def test_module_file_writer_on_the_point_and_large_models():
    assert modfile.dumps(point()) == _json_dumps_text(point())
    assert '"generators": [],' in modfile.dumps(point())
    for module in [real_proj(256), complex_proj(256)]:
        assert modfile.dumps(module) == _json_dumps_text(module), module.name


_VALID_IDS = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def _small_modules(draw) -> tuple[GradedModule, bool]:
    """A small table and whether it loads back unchanged.

    A loadable table has valid generator ids, positive indices, nonempty
    target sets of generators and products keyed by ``pair_key``; any other
    holds arbitrary strings, indices down to -2 and empty sets.
    """
    valid = draw(st.booleans())
    ids = draw(st.lists(_VALID_IDS if valid else st.text(max_size=4), unique=True, max_size=5))
    generators = tuple((gid, draw(st.integers(1, 12))) for gid in ids)
    pool = ids if valid else ids + draw(st.lists(st.text(max_size=3), max_size=2))
    sq, products = {}, {}
    if pool:
        targets = st.frozensets(st.sampled_from(pool), min_size=1 if valid else 0, max_size=3)
        for _ in range(draw(st.integers(0, 6))):
            sq[(draw(st.sampled_from(pool)), draw(st.integers(1 if valid else -2, 12)))] = draw(targets)
        for _ in range(draw(st.integers(0, 6))):
            g, h = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            products[pair_key(g, h) if valid else (g, h)] = draw(targets)
    return GradedModule(draw(st.text(max_size=6)), generators, sq, products, draw(st.integers(-3, 40))), valid


@settings(max_examples=300, deadline=None)
@given(_small_modules())
def test_module_file_writer_matches_json_dumps_on_small_tables(case):
    module, valid = case
    text = modfile.dumps(module)
    assert text == _json_dumps_text(module)
    if valid:
        again = modfile.loads(text)
        assert (again.name, again.generators, again.sq, again.products, again.top_degree) == (
            module.name, module.generators, module.sq, module.products, module.top_degree)


def test_module_file_loads_semantically_wrong_tables():
    # structure-only validation: a wrong action table loads, verify reports it
    bad = corrupted_rp4()
    again = modfile.loads(modfile.dumps(bad))
    assert not verify_axioms(again, 4).ok


# ---------------------------------------------------------------------------
# The table-driven verifier against the loops it replaced


def _reference_verify_axioms(module: GradedModule, max_degree: int, *, rng_seed: int = 0) -> VerifyReport:
    """The verifier as it was before the square table: every Sq^i through sq_gen.

    It walks i = 0..n for every n of every Cartan check and evaluates
    every word with its own apply_sq loop, not with act_word, so it
    shares no loop with verify_axioms beyond the table-consistency pass.
    """
    failures: list[AxiomFailure] = []
    checks = 0

    def fail(axiom: str, where: str, detail: str) -> None:
        failures.append(AxiomFailure(axiom, where, detail))

    def apply_sq(i, gens):
        acc = frozenset()
        for g in gens:
            acc ^= module.sq_gen(g, i)
        return acc

    def apply_words(words, gens):
        acc = frozenset()
        for word in words:
            image = gens
            for i in word[::-1]:
                image = apply_sq(i, image)
            acc ^= image
        return acc

    def cup_sets(xs, ys):
        acc = frozenset()
        for g in xs:
            for h in ys:
                acc ^= module.cup_gens(g, h)
        return acc

    for (gid, i), targets in sorted(module.sq.items()):
        checks += 1
        d = module.degree_of(gid)
        if i < 1:
            fail("table", f"Sq{i}({gid})", "stored square index must be >= 1")
            continue
        if i > d:
            fail("(I2)", f"Sq{i}({gid})", f"stored entry above generator degree {d}")
        for t in sorted(targets):
            if module.degree_of(t) != d + i:
                fail("degree", f"Sq{i}({gid})", f"target {t} has degree {module.degree_of(t)}, expected {d + i}")
    for (g, h), targets in sorted(module.products.items()):
        checks += 1
        dsum = module.degree_of(g) + module.degree_of(h)
        for t in sorted(targets):
            if module.degree_of(t) != dsum:
                fail("degree", f"{g} cup {h}", f"target {t} has degree {module.degree_of(t)}, expected {dsum}")

    positive = list(module.generators)
    for gid, d in positive:
        if d > max_degree:
            continue
        checks += 1
        if apply_words([()], frozenset({gid})) != {gid}:
            fail("(I1)", gid, "identity word does not act as identity")
    for gid, d in positive:
        if d > max_degree:
            continue
        checks += 1
        top = module.sq_gen(gid, d)
        square = module.cup_gens(gid, gid)
        if top != square:
            fail("(I3)", f"Sq{d}({gid})", f"top square {sorted(top)} != cup square {sorted(square)}")
    for a, (g, dg) in enumerate(positive):
        for h, dh in positive[a:]:
            if dg + dh > max_degree:
                continue
            product_gh = module.cup_gens(g, h)
            for n in range(1, min(max_degree, dg + dh) + 1):
                checks += 1
                lhs = apply_sq(n, product_gh)
                rhs = frozenset()
                for i in range(n + 1):
                    rhs ^= cup_sets(module.sq_gen(g, i), module.sq_gen(h, n - i))
                if lhs != rhs:
                    fail("(C)", f"Sq{n}({g} cup {h})", f"lhs {sorted(lhs)} != rhs {sorted(rhs)}")

    rng = random.Random(rng_seed)
    by_degree: dict[int, list[str]] = {}
    for gid, d in positive:
        by_degree.setdefault(d, []).append(gid)
    for d, gens in sorted(by_degree.items()):
        if d > max_degree or len(gens) < 2:
            continue
        for _ in range(4):
            xs = frozenset(g for g in gens if rng.random() < 0.5)
            ys = frozenset(g for g in gens if rng.random() < 0.5)
            for word in ((1,), (2,), (2, 1)):
                checks += 1
                both = apply_words([word], xs ^ ys)
                split = apply_words([word], xs) ^ apply_words([word], ys)
                if both != split:
                    fail("additivity", f"{word} on degree {d}", "action is not additive")

    for k in range(1, max_degree):
        for n in range(1, min(2 * k, max_degree - k + 1)):
            if n + k > max_degree:
                continue
            rhs_words = adem_rewrite(n, k)
            for gid, d in positive:
                if d > max_degree:
                    continue
                checks += 1
                x = frozenset({gid})
                if apply_words([(n, k)], x) != apply_words(rhs_words, x):
                    fail("(A)", f"Sq{n} Sq{k} on {gid}", "composite disagrees with its Adem expansion")

    return VerifyReport(module.name, max_degree, checks, tuple(failures))


def _assert_same_reports(cases):
    for module, max_degree in cases:
        got = verify_axioms(module, max_degree).as_dict()
        assert got == _reference_verify_axioms(module, max_degree).as_dict(), (module.name, max_degree)


def _with(module: GradedModule, *, sq=None, products=None, name=None) -> GradedModule:
    return GradedModule(
        name or module.name,
        module.generators,
        module.sq if sq is None else sq,
        module.products if products is None else products,
        module.top_degree,
    )


@pytest.mark.parametrize("max_degree", [1, 4, 10, 12])
def test_verify_matches_reference_on_the_catalog(max_degree):
    _assert_same_reports((module, max_degree) for module in full_verification_catalog())


def test_verify_matches_reference_on_large_models():
    # Sq1(t5) gains t9, a target in the wrong degree, so rp40_bad skips no check for its degree.
    rp40 = real_proj(40)
    rp40_bad = _with(rp40, sq={**rp40.sq, ("t5", 1): rp40.sq[("t5", 1)] ^ {"t9"}}, name="rp40_bad")
    assert {f.axiom for f in verify_axioms(rp40_bad, 40).failures} == {"degree", "(C)", "(A)"}
    _assert_same_reports(
        [(real_proj(20), 30), (complex_proj(15), 30), (suspend(real_proj(30)), 31), (rp40_bad, 40)]
    )


def test_verify_matches_reference_on_flipped_tables():
    rng = random.Random(20251018)
    catalog = [m for m in full_verification_catalog() if m.generators]
    cases = []
    for _ in range(60):
        base = rng.choice(catalog)
        gid, d = rng.choice(base.generators)
        i = rng.randint(1, d + 1)
        target, _ = rng.choice(base.generators)
        sq = dict(base.sq)
        sq[(gid, i)] = sq.get((gid, i), frozenset()) ^ {target}
        cases.append((_with(base, sq=sq, name=f"{base.name}+sq"), rng.choice([4, 8, 10])))
    for _ in range(60):
        base = rng.choice(catalog)
        (g, _), (h, _), (target, _) = (rng.choice(base.generators) for _ in range(3))
        products = dict(base.products)
        key = pair_key(g, h)
        products[key] = products.get(key, frozenset()) ^ {target}
        cases.append((_with(base, products=products, name=f"{base.name}+cup"), rng.choice([4, 8, 10])))
    reports = [verify_axioms(m, d) for m, d in cases]
    assert sum(not r.ok for r in reports) > 60  # the flips are mostly caught
    _assert_same_reports(cases)


def test_verify_matches_reference_on_malformed_tables():
    rp4 = real_proj(4)
    above = _with(rp4, sq={**rp4.sq, ("t1", 2): frozenset({"t3"}), ("t2", 0): frozenset({"t2"})})
    wrong_degree = _with(rp4, sq={**rp4.sq, ("t2", 1): frozenset({"t4"})})
    wrong_product = _with(rp4, products={**rp4.products, ("t1", "t2"): frozenset({"t2"})})
    for module in [above, wrong_degree, wrong_product]:
        assert not verify_axioms(module, 4).ok
    _assert_same_reports((m, d) for m in [above, wrong_degree, wrong_product] for d in range(-1, 7))


def test_verify_matches_reference_at_degree_zero_and_below():
    modules = [point(), sphere(1), real_proj(5), corrupted_rp4(), wedge(real_proj(3), complex_proj(2))]
    _assert_same_reports((m, d) for m in modules for d in (0, -1, -7))
    assert verify_axioms(corrupted_rp4(), -1).checks == len(corrupted_rp4().sq) + len(corrupted_rp4().products)


def _planted(module: GradedModule, g: str, h: str, target: str) -> GradedModule:
    products = {**module.products, pair_key(g, h): frozenset({target})}
    return _with(module, products=products, name=f"{module.name}+{g}.{h}={target}")


def _cross_products(left: GradedModule, right: GradedModule) -> list[GradedModule]:
    """The wedge with one cross product planted at a time, into a wrong- and (where one exists) a right-degree target.

    The planted pairs join a square of one summand's first generator to
    the other's first generator, so the Cartan checks they break sit on a
    pair that no product joins directly.
    """
    module = wedge(left, right)
    (l1, _), (l2, _) = left.generators[:2]
    (r1, _), (r2, _) = right.generators[:2]
    cases = []
    for g, h in [(l2, r1), (l1, r2)]:
        degree = module.degree_of(g) + module.degree_of(h)
        right_degree = sorted(t for t, d in module.generators if d == degree)
        wrong_degree = min(t for t, d in module.generators if d != degree)
        cases += [_planted(module, g, h, t) for t in right_degree[:1] + [wrong_degree]]
    return cases


@pytest.mark.parametrize("max_degree", [4, 8, 12])
def test_verify_matches_reference_where_a_planted_product_links_a_pair(max_degree):
    # Every Cartan pair that a product can reach is evaluated: a planted
    # cross product of a wedge, a product on a suspension or a sphere, and
    # a product key whose target set is empty.
    cases = _cross_products(real_proj(5), complex_proj(3)) + _cross_products(complex_proj(2), real_proj(4))
    cases += [_planted(suspend(real_proj(6)), "s_t1", "s_t1", "s_t3"), _planted(sphere(4), "x4", "x4", "x4")]
    rp6 = real_proj(6)
    cases += [
        _with(rp6, products={**rp6.products, ("t1", "t6"): frozenset()}, name="rp6+empty"),
        _with(suspend(rp6), products={("s_t1", "s_t2"): frozenset()}, name="susp(rp6)+empty"),
    ]
    reports = [verify_axioms(m, max_degree) for m in cases]
    assert [r.ok for r in reports] == [False] * (len(cases) - 2) + [True, True]
    assert all("(C)" in {f.axiom for f in r.failures} for r in reports[:-3])
    assert all(r.checks == predicted_checks(m, max_degree) for m, r in zip(cases, reports))
    _assert_same_reports((m, max_degree) for m in cases)


def test_verify_matches_reference_on_degree_correct_product_flips():
    # Each flip adds, removes or swaps targets of the right degree in one
    # product entry, so every degree stays exact and each Cartan pair is
    # decided by the one total-square test, with the per-degree comparison
    # run only where that test fails.  Orbits here hold four or more
    # generators (t3 of rp12: t3, t4, t5, t6), so the compared sets span
    # several degrees; a swap keeps their sizes.
    rng = random.Random(20261020)
    bases = [real_proj(n) for n in (5, 8, 12)] + [complex_proj(n) for n in (4, 7)]
    bases += [
        wedge(real_proj(12), complex_proj(6)),
        wedge(complex_proj(5), real_proj(9)),
        wedge(real_proj(6), real_proj(7)),
    ]
    flips = {"add": [], "remove": [], "swap": []}
    for base in bases:
        for max_degree in (6, 10, 14):
            for a, (g, dg) in enumerate(base.generators):
                for h, dh in base.generators[a:]:
                    if dg + dh > max_degree:
                        continue
                    old = base.products.get(pair_key(g, h), frozenset())
                    present = [t for t in base.gens_in_degree(dg + dh) if t in old]
                    absent = [t for t in base.gens_in_degree(dg + dh) if t not in old]
                    where = (base, max_degree, g, h)
                    flips["add"] += [(*where, {t}) for t in absent]
                    flips["remove"] += [(*where, {t}) for t in present]
                    flips["swap"] += [(*where, {t, u}) for t in present for u in absent]
    cases = []
    for kind, options in flips.items():
        for base, max_degree, g, h, toggled in rng.sample(options, 30):
            key = pair_key(g, h)
            products = {**base.products, key: base.products.get(key, frozenset()) ^ toggled}
            cases.append((_with(base, products=products, name=f"{base.name}+{kind}"), max_degree))
    reports = [verify_axioms(m, d) for m, d in cases]
    assert sum(not r.ok for r in reports) > 60
    assert {f.axiom for r in reports for f in r.failures} <= {"(C)", "(I3)"}
    _assert_same_reports(cases)


def test_verify_reports_a_cartan_pair_failing_in_one_degree():
    # Without t1 cup t2 = t3, Sq1(t1 cup t2) is 0 while Sq1(t1) cup t2 +
    # t1 cup Sq1(t2) = t2 cup t2 = t4; in degrees 2 and 3 both sides vanish.
    rp4 = real_proj(4)
    products = {key: targets for key, targets in rp4.products.items() if key != ("t1", "t2")}
    module = _with(rp4, products=products)
    report = verify_axioms(module, 4)
    assert report.failures == (AxiomFailure("(C)", "Sq1(t1 cup t2)", "lhs [] != rhs ['t4']"),)
    assert report.checks == predicted_checks(module, 4)
    _assert_same_reports([(module, 4)])


def test_verify_bounds_cartan_pairs_by_the_top_degree_of_all_generators():
    # Sq4(g) = x lies above max_degree 5, and x cup h = z, so Sq4(g cup h)
    # = 0 against Sq4(g) cup h = z.  A bound read from the in-range
    # generators (top degree 4) would skip the pair g, h with dg + dh = 5.
    gap = GradedModule(
        "gap",
        (("g", 4), ("h", 1), ("x", 8), ("z", 9)),
        {("g", 4): frozenset({"x"})},
        {("g", "g"): frozenset({"x"}), ("h", "x"): frozenset({"z"})},
        9,
    )
    report = verify_axioms(gap, 5)
    assert report.failures == (AxiomFailure("(C)", "Sq4(g cup h)", "lhs [] != rhs ['z']"),)
    assert report.checks == predicted_checks(gap, 5)
    # Without t3 cup t4 = t7, the pair t3, t4 has dg + dh = 7, one below
    # the top degree 8, and fails Sq1(t3 cup t4) = 0 against t4 cup t4 = t8.
    rp8 = real_proj(8)
    module = _with(rp8, products={key: targets for key, targets in rp8.products.items() if key != ("t3", "t4")})
    for max_degree in (7, 8, 10):
        report = verify_axioms(module, max_degree)
        assert report.failures == (
            AxiomFailure("(C)", "Sq2(t2 cup t3)", "lhs [] != rhs ['t7']"),
            AxiomFailure("(C)", "Sq1(t3 cup t4)", "lhs [] != rhs ['t8']"),
        )
        assert report.checks == predicted_checks(module, max_degree)
    _assert_same_reports([(gap, 5), (module, 7), (module, 8), (module, 10)])


def test_verify_matches_reference_on_square_and_product_flips():
    # The Adem checks are lookups in each generator's one- and two-square
    # images, skipped for a sum s only where no image has degree sum s,
    # whatever the degrees of the table: flips of squares and products,
    # into right- and wrong-degree targets, on rp/cp models, their
    # suspensions and wedges.
    rng = random.Random(20261021)
    bases = [real_proj(n) for n in (4, 7, 12)] + [complex_proj(n) for n in (3, 6, 12)]
    bases += [suspend(m) for m in bases[:4]]
    bases += [wedge(real_proj(9), complex_proj(5)), wedge(suspend(real_proj(6)), real_proj(8))]
    cases = []
    for number in range(150):
        base = rng.choice(bases)
        sq, products = dict(base.sq), dict(base.products)
        (g, dg), (h, dh) = rng.choice(base.generators), rng.choice(base.generators)
        i = rng.randint(1, dg)
        on_square = number % 3 != 0
        right_degree = base.gens_in_degree(dg + i if on_square else dg + dh)
        if right_degree and rng.random() < 0.5:
            target = rng.choice(right_degree)
        else:
            target, _ = rng.choice(base.generators)
        if on_square:
            sq[(g, i)] = sq.get((g, i), frozenset()) ^ {target}
        else:
            products[pair_key(g, h)] = products.get(pair_key(g, h), frozenset()) ^ {target}
        cases.append((_with(base, sq=sq, products=products, name=f"{base.name}+flip"), rng.choice([6, 10, 16])))
    reports = [verify_axioms(m, d) for m, d in cases]
    assert sum(not r.ok for r in reports) > 75
    assert sum("(A)" in {f.axiom for f in r.failures} for r in reports) > 20
    assert any(r.ok for r in reports)
    _assert_same_reports(cases)


def test_verify_cancels_terms_of_a_two_square_image():
    # Sq1(g) = x + y with Sq1(x) = Sq1(y) = z, so Sq1 Sq1(g) = z + z = 0,
    # as Sq1 Sq1 = 0 requires; with Sq1(y) = 0 it is z, an (A) failure.
    sq = {("g", 1): frozenset({"x", "y"}), ("x", 1): frozenset({"z"}), ("y", 1): frozenset({"z"})}
    cancels = GradedModule(
        "cancels", (("g", 1), ("x", 2), ("y", 2), ("z", 3)), sq, {("g", "g"): frozenset({"x", "y"})}, 3
    )
    assert verify_axioms(cancels, 3).ok
    broken = _with(cancels, sq={key: t for key, t in sq.items() if key != ("y", 1)}, name="broken")
    adem = [f.where for f in verify_axioms(broken, 3).failures if f.axiom == "(A)"]
    assert adem == ["Sq1 Sq1 on g"]
    _assert_same_reports((m, d) for m in (cancels, broken) for d in (2, 3))


def test_verify_pushes_one_square_into_every_check_it_enters():
    # Sq5 is a word of the expansions of both Sq1 Sq4 (= Sq5) and Sq2 Sq3
    # (= Sq5 + Sq4 Sq1), whose composites on g are zero, so Sq5(g) = x
    # breaks both checks, reported in (k, n) order.
    module = GradedModule(
        "sq5", (("g", 5), ("x", 10)), {("g", 5): frozenset({"x"})}, {("g", "g"): frozenset({"x"})}, 10
    )
    assert [(f.axiom, f.where) for f in verify_axioms(module, 10).failures] == [
        ("(A)", "Sq2 Sq3 on g"),
        ("(A)", "Sq1 Sq4 on g"),
    ]
    _assert_same_reports([(module, 10)])


def test_verify_orders_adem_failures_by_pair_then_generator():
    # On a, the composite Sq1 Sq2(a) = Sq1(v) = w2 breaks Sq1 Sq2 = Sq3;
    # on b, the one-square image Sq3(b) = w breaks the same check, and the
    # composite Sq1 Sq1(b) = q breaks Sq1 Sq1 = 0.  Failures come by k,
    # then n, then the generator's place, not generator by generator.
    gens = (("a", 2), ("b", 3), ("p", 4), ("v", 4), ("q", 5), ("w2", 5), ("w", 6))
    sq = {
        ("a", 2): frozenset({"v"}),
        ("v", 1): frozenset({"w2"}),
        ("b", 1): frozenset({"p"}),
        ("p", 1): frozenset({"q"}),
        ("b", 3): frozenset({"w"}),
    }
    products = {("a", "a"): frozenset({"v"}), ("b", "b"): frozenset({"w"})}
    module = GradedModule("two_gens", gens, sq, products, 6)
    adem = [f.where for f in verify_axioms(module, 6).failures if f.axiom == "(A)"]
    assert adem == ["Sq1 Sq1 on b", "Sq1 Sq2 on a", "Sq1 Sq2 on b"]
    _assert_same_reports((module, d) for d in (3, 6, 8))


def test_verify_sorts_consistency_failures_whatever_the_insertion_order():
    # Both tables are filled in reverse key order; the failures come by
    # (generator, index) and then target, an entry's own failure first,
    # and the products after the squares.
    gens = (("g", 1), ("h", 2), ("x", 3), ("y", 4))
    sq = {
        ("h", 1): frozenset({"y", "g"}),
        ("g", 2): frozenset({"y"}),
        ("g", 0): frozenset({"h"}),
    }
    products = {("g", "x"): frozenset({"h"}), ("g", "h"): frozenset({"y"})}
    module = GradedModule("reversed", gens, sq, products, 4)
    assert verify_axioms(module, 2).failures == (
        AxiomFailure("table", "Sq0(g)", "stored square index must be >= 1"),
        AxiomFailure("(I2)", "Sq2(g)", "stored entry above generator degree 1"),
        AxiomFailure("degree", "Sq2(g)", "target y has degree 4, expected 3"),
        AxiomFailure("degree", "Sq1(h)", "target g has degree 1, expected 3"),
        AxiomFailure("degree", "Sq1(h)", "target y has degree 4, expected 3"),
        AxiomFailure("degree", "g cup h", "target y has degree 4, expected 3"),
        AxiomFailure("degree", "g cup x", "target h has degree 2, expected 4"),
    )
    _assert_same_reports((module, d) for d in (2, 4))


def test_verify_does_not_act_through_act_word(monkeypatch):
    def refuse(*args):
        raise AssertionError("act_word called")

    monkeypatch.setattr("steenrod.modules.act_word", refuse)
    with pytest.raises(AssertionError, match="act_word called"):
        act_on_module(Sq(1), real_proj(2).element("t1"))
    assert all(verify_axioms(module, 10).ok for module in full_verification_catalog())
