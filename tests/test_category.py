import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    F5,
    QQ,
    compose,
    leibniz_witness,
    opposite_tables,
    path_category,
    presentation_with,
    product_tables,
)
from dgcat.category import (
    one_object_category,
    opposite_category,
    tensor_category,
    validate_dg_category,
    with_zero_object,
)
from dgcat.complexes import dg_module
from dgcat.errors import StructureError
from dgcat.fixtures import (
    exterior_category,
    random_endo_category,
    trivial_category,
)
from dgcat.shipped import NAMES, shipped_workspace


def _unit_and_x_table(c):
    """The product table of hom = K.1 + K.x (|x| = 1) on one object with
    1.1 = 1.x = x.1 = c times the basis vector of the right degree."""
    entry = ((0, Fraction(c)),)
    unit, x = (0, 0), (1, 0)
    return {unit: {unit: entry, x: entry}, x: {unit: entry}}


def test_trivial_category_validates():
    report = validate_dg_category(trivial_category(QQ))
    assert report.passed, report.render()


def test_exterior_category_validates():
    # Oracle: by hand, all products of 1 and x with x.x = 0 are associative
    # and unital, the differential is zero, so every axiom holds.
    report = validate_dg_category(exterior_category(QQ))
    assert report.passed, report.render()


def test_exterior_composition_table():
    cat = exterior_category(QQ)
    one = cat.basis_element("*", "*", 0, 0)
    x = cat.basis_element("*", "*", 1, 0)
    assert compose(cat, one, one).coords == (Fraction(1),)
    assert compose(cat, one, x).coords == (Fraction(1),)
    assert compose(cat, x, one).coords == (Fraction(1),)
    assert compose(cat, x, x).coords == ()  # hom^2 = 0


def test_path_category_validates():
    report = validate_dg_category(path_category(QQ, 3))
    assert report.passed, report.render()


def test_endomorphism_category_validates():
    rng = random.Random(5)
    for seed in range(6):
        rng = random.Random(seed)
        cat, _ = random_endo_category(rng, QQ, "E")
        report = validate_dg_category(cat)
        assert report.passed, report.render()


def test_endomorphism_category_validates_f5():
    for seed in range(4):
        rng = random.Random(seed)
        cat, _ = random_endo_category(rng, F5, "E")
        report = validate_dg_category(cat)
        assert report.passed, report.render()


def test_d_of_identity_failure_detected():
    # one object, hom = K in degrees 0 and 1 with d = id, identity is the
    # degree-0 generator: d(1) != 0 must fail exactly the identity axiom.
    field = QQ
    hom = dg_module(field, {0: 1, 1: 1}, {0: [[Fraction(1)]]})
    table = _unit_and_x_table(1)
    cat = one_object_category(field, hom, table, (Fraction(1),), name="BadId")
    report = validate_dg_category(cat)
    by_name = {c.name: c for c in report.checks}
    assert by_name["d_squared"].passed
    assert not by_name["identity_closed"].passed


def test_validation_reports_are_total():
    # Corrupt two independent axioms; both must be reported.
    field = QQ
    hom = dg_module(field, {0: 1, 1: 1}, {0: [[Fraction(1)]]})
    table = _unit_and_x_table(2)
    cat = one_object_category(field, hom, table, (Fraction(1),), name="Bad2")
    report = validate_dg_category(cat)
    by_name = {c.name: c for c in report.checks}
    assert by_name["d_squared"].passed
    # d(1) != 0 is inconsistent with the Leibniz rule over Q, so both the
    # chain-map axiom and the identity-cycle axiom are reported, plus units.
    assert not by_name["composition_chain_map"].passed
    assert not by_name["identity_closed"].passed
    assert not by_name["units"].passed
    assert len(report.failures()) >= 3


def test_associativity_negative_control_path():
    # Corrupting the middle composite of a 3-arrow path category breaks
    # associativity without touching units, chain map, or differentials.
    field = QQ
    bad = {(0, 0): {(0, 0): ((0, Fraction(2)),)}}
    cat = presentation_with(path_category(field, 3), {("x0", "x2", "x3"): bad})
    report = validate_dg_category(cat)
    by_name = {c.name: c for c in report.checks}
    assert by_name["d_squared"].passed
    assert by_name["composition_chain_map"].passed
    assert by_name["identity_closed"].passed
    assert by_name["units"].passed
    assert not by_name["associativity"].passed
    assert by_name["associativity"].witness["objects"] == ["x0", "x1", "x2", "x3"]


def test_opposite_sign_rule():
    # |a| = |b| = 1 forces b.op . a.op = -(a . b).op.
    rng = random.Random(11)
    cat, _ = random_endo_category(rng, QQ, "E", max_objects=2)
    assert product_tables(opposite_category(cat)) == opposite_tables(cat)


def test_opposite_validates_and_involutes():
    rng = random.Random(13)
    cat, _ = random_endo_category(rng, QQ, "E", max_objects=2)
    opp = opposite_category(cat)
    assert validate_dg_category(opp).passed
    double = opposite_category(opp)
    for key in itertools.product(cat.objects, repeat=3):
        assert double.products(*key) == cat.products(*key)
    for key, module in cat.hom.items():
        assert double.hom[key] == module


def test_opposite_degree_zero_is_plain_reversal():
    cat = path_category(QQ, 2)
    opp = opposite_category(cat)
    f = opp.basis_element("x1", "x0", 0, 0)
    g = opp.basis_element("x2", "x1", 0, 0)
    assert compose(opp, f, g).coords == (Fraction(1),)


def test_opposite_tables_equal_the_per_pair_rule(theorem_fixtures):
    """The transposed tables equal the per-pair rule on the shipped and the
    theorem categories and triangular categories, over Q and F_5."""
    cats = [
        ws.categories[name] for ws in map(shipped_workspace, NAMES)
        for name in ("T", "U")
    ]
    for fx in theorem_fixtures:
        cats += [fx["t_cat"], fx["u_cat"], fx["lambda"].presentation]
    assert {str(cat.field) for cat in cats} == {str(QQ), str(F5)}
    odd = 0
    for cat in cats:
        opp = opposite_category(cat)
        tables = product_tables(opp)
        assert tables == opposite_tables(cat), cat.name
        odd += sum(
            f[0] * g[0] % 2
            for table in tables.values()
            for f, per_g in table.items()
            for g in per_g
        )
    assert odd > 0


def test_opposite_is_built_once_per_product_tables():
    # The path category with its composite x0 -> x2 -> x3 doubled has its
    # own opposite, whose x3 -> x2 -> x0 follows it.
    cat = path_category(QQ, 3)
    doubled = {(0, 0): {(0, 0): ((0, Fraction(2)),)}}
    other = presentation_with(cat, {("x0", "x2", "x3"): doubled})

    def op_composite(op):
        g = op.basis_element("x2", "x0", 0, 0)
        f = op.basis_element("x3", "x2", 0, 0)
        return compose(op, g, f).coords

    opp, again = opposite_category(cat), opposite_category(other)
    assert opposite_category(cat) is opp and opposite_category(other) is again
    assert again is not opp
    assert op_composite(opp) == (Fraction(1),)
    assert op_composite(again) == (Fraction(2),)


def test_tensor_category_validates_and_has_pair_objects():
    rng = random.Random(17)
    cat_a, _ = random_endo_category(rng, QQ, "A", max_objects=1)
    cat_b, _ = random_endo_category(rng, QQ, "B", max_objects=2)
    prod = tensor_category(cat_a, cat_b)
    assert len(prod.objects) == len(cat_a.objects) * len(cat_b.objects)
    assert validate_dg_category(prod).passed


def test_tensor_category_interchange_sign():
    # With |b2| = |a1| = 1: (a2 (x) b2) . (a1 (x) b1) = -(a2 a1) (x) (b2 b1).
    field = QQ
    ext = exterior_category(field)
    prod = tensor_category(ext, ext)
    obj = prod.objects[0]
    from dgcat.complexes import TensorComplex

    pair_tensor = TensorComplex(ext.hom[("*", "*")], ext.hom[("*", "*")])
    one = (field.one(),)
    x = (field.one(),)
    # g = 1 (x) x (degrees 0,1), f = x (x) 1 (degrees 1,0)
    g = prod.element(obj, obj, 1, pair_tensor.encode_pure(0, one, 1, x))
    f = prod.element(obj, obj, 1, pair_tensor.encode_pure(1, x, 0, one))
    got = compose(prod, g, f)
    # (1 . x) (x) (x . 1) = x (x) x with the interchange sign -1
    want = pair_tensor.encode_pure(1, x, 1, x)
    want = tuple(field.neg(v) for v in want)
    assert got.coords == want
    # identities compose without signs: (1 (x) 1) . (x (x) 1) = x (x) 1
    ident = prod.identity(obj)
    assert compose(prod, ident, f).coords == f.coords
    assert validate_dg_category(prod).passed


def test_tensor_unit_category_is_identity():
    # K (x) B has the same hom dimensions and composition tables as B.
    field = QQ
    k = trivial_category(field)
    b = exterior_category(field)
    prod = tensor_category(k, b)
    assert len(prod.objects) == 1
    pair = prod.objects[0]
    assert prod.hom[(pair, pair)].carrier.dims() == b.hom[("*", "*")].carrier.dims()
    assert prod.products(pair, pair, pair) == b.products("*", "*", "*")
    assert validate_dg_category(prod).passed


def test_with_zero_object():
    cat = with_zero_object(trivial_category(QQ))
    assert "@0" in cat.objects
    assert cat.hom[("@0", "*")].is_zero()
    assert cat.ids["@0"] == ()
    assert validate_dg_category(cat).passed


def test_zero_object_name_reserved():
    field = QQ
    hom = dg_module(field, {0: 1}, {})
    table = {(0, 0): {(0, 0): ((0, Fraction(1)),)}}
    cat = one_object_category(field, hom, table, (Fraction(1),), obj="@0")
    with pytest.raises(StructureError):
        with_zero_object(cat)


def test_structure_error_on_bad_comp_shape():
    field = QQ
    hom = dg_module(field, {0: 2}, {})
    one = Fraction(1)
    # hom^0 has dimension 2, so basis index 2 and row 2 are out of range,
    # and there is no basis morphism in degree 1
    for bad in (
        {(0, 2): {(0, 0): ((0, one),)}},
        {(0, 0): {(0, 2): ((0, one),)}},
        {(0, 0): {(0, 0): ((2, one),)}},
        {(1, 0): {(0, 0): ((0, one),)}},
    ):
        with pytest.raises(StructureError):
            one_object_category(field, hom, bad, (one, Fraction(0)))


def test_chain_map_condition_equals_leibniz_rule():
    # The stored degree-0 chain-map condition on the composition tensor is
    # equivalent to the Leibniz rule d(g . f) = d(g) . f + (-1)^{|g|} g . d(f)
    # on homogeneous basis pairs: verify the rule holds on categories that
    # passed the chain-map check, with nonzero differentials in play.
    field = QQ
    found_nonzero_d = False
    for seed in range(8):
        rng = random.Random(seed)
        cat, hom_cx = random_endo_category(rng, field, "E", max_objects=2)
        modules = {x: hom_cx[(x, x)].source for x in cat.objects}
        if all(m.d.is_zero() for m in modules.values()):
            continue
        found_nonzero_d = True
        assert validate_dg_category(cat).passed
        assert leibniz_witness(cat) is None
    assert found_nonzero_d
