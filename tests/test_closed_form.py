"""Comma Hom dimensions against a closed form computed without dgcat.

T = U = A = K[x]/(x^n) in degree 0 with d = 0, on the objects t and u,
and M = A the regular bimodule: the classical triangular matrix algebra
case.  The comma objects over A = h_t and B = h_u are o_zero, with f = 0,
and o_k, with f = x^k, whose f sends x^a to the map m |-> x^(a+k) . m.
A morphism (alpha, beta) from (A, B, f) to (A, B, f') is a pair of
elements of A with beta . f = f' . alpha, so in degree 0 the dimensions
are 2n from o_zero to itself and n + k from o_zero to o_k, from o_k to
o_zero and from o_k to itself, where the square reads x^k alpha = 0,
x^k beta = 0 and x^k (beta - alpha) = 0 respectively.  The report's
dimensions, of the comma Hom space and of the transformations between
the Lambda-modules, must equal these numbers.
"""

import pytest

from conftest import validated_lambda
from dgcat.bimodule import Bimodule, g_on_objects
from dgcat.category import one_object_category
from dgcat.comma import CommaObject, check_equivalence, validate_comma_object
from dgcat.complexes import dg_module
from dgcat.fields import PrimeField, Rationals
from dgcat.functors import representable_module
from dgcat.graded import GradedMap, map_from_action


def multiplication(field, n, shift):
    """The map K[x]/(x^n) -> K[x]/(x^n), x^b |-> x^(b + shift), in degree 0."""
    algebra = dg_module(field, {0: n}, {}).carrier
    entries = [(0, b + shift, b, field.one()) for b in range(n - shift)]
    return GradedMap.from_entries(algebra, algebra, 0, entries)


def truncated_polynomials(field, n, obj):
    """K[x]/(x^n) as a one-object category: x^a . x^b = x^(a+b) for a + b < n."""
    table = {
        (0, a): {(0, b): ((a + b, field.one()),) for b in range(n - a)} for a in range(n)
    }
    unit = tuple(field.one() if a == 0 else field.zero() for a in range(n))
    return one_object_category(field, dg_module(field, {0: n}, {}), table, unit, obj=obj)


def instance(field, n):
    t_cat = truncated_polynomials(field, n, "t")
    u_cat = truncated_polynomials(field, n, "u")
    actions = {(0, a): multiplication(field, n, a) for a in range(n)}
    bim = Bimodule(
        u_cat,
        t_cat,
        {("u", "t"): dg_module(field, {0: n}, {})},
        {("u", "u", "t"): actions},
        {("t", "t", "u"): actions},
        name="M",
    )
    return bim, representable_module(t_cat, "t"), representable_module(u_cat, "u")


def comma_object_x_to_the(bim, A, B, k):
    """o_k: f_t(x^a) = (m |-> x^(a+k) . m), in G(B)(t)'s coordinates."""
    field, n = bim.field, A.on_objects["t"].dim(0)
    g_of_b = g_on_objects(bim, B)

    def column(i, a):
        # x^(a+k) = 0 when a + k >= n, and multiplication is then zero
        return g_of_b.encode("t", 0, (multiplication(field, n, a + k),))

    src = A.on_objects["t"].carrier
    tgt = g_of_b.on_objects["t"].carrier
    f = {"t": map_from_action(src, tgt, 0, column)}
    return CommaObject(bim, A, B, f, name=f"o_{k}")


@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("n", [3, 6])
def test_comma_hom_dimensions_equal_the_closed_form(field, n):
    bim, A, B = instance(field, n)
    lam = validated_lambda(bim.right_base, bim.left_base, bim)
    o_zero = CommaObject(bim, A, B, {}, name="o_zero")
    for k in range(n):
        o_k = comma_object_x_to_the(bim, A, B, k)
        assert validate_comma_object(o_k).passed
        report = check_equivalence(lam, [o_zero, o_k], [])
        assert report.passed, report.render()
        want = {
            "o_zero->o_zero": 2 * n,
            f"o_zero->o_{k}": n + k,
            f"o_{k}->o_zero": n + k,
            f"o_{k}->o_{k}": n + k,
        }
        for label, dim in want.items():
            assert report.dimensions[f"comma[{label}]"]["0"] == dim
            assert report.dimensions[f"lambda[{label}]"]["0"] == dim
