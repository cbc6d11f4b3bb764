"""category.generator_closure, the one closure rule behind spanning() and
check-equivalence's functor laws.

The rule composes each reached basis morphism after each generator only.
The oracle below is the two-sided rule spanning() used before, which
composed each reached basis morphism with every one reached before it,
on both sides; on the categories the tests and benchmarks draw, both pick
the same generators.
"""

import itertools
from collections import deque

import pytest

from conftest import F5, QQ
from dgcat import linalg
from dgcat.category import generator_closure, opposite_category
from dgcat.fixtures import random_axiom_fixture
from dgcat.lambda_cat import build_lambda


def two_sided_generators(cat):
    """{(x, y): generators} by the two-sided rule: basis morphisms visited
    in (x, y, degree, index) order, each one not yet reached kept, and each
    reached one composed on both sides with every one reached before it,
    and with itself."""
    field = cat.field
    echelons = {}
    reached = set()
    done = {key: [] for key in itertools.product(cat.objects, repeat=2)}
    generators = {key: [] for key in done}
    queue = deque()

    def grow(x, y, n, row):
        echelon = echelons.setdefault((x, y, n), linalg.Echelon(field))
        if len(echelon.pivots) == cat.hom[(x, y)].dim(n):
            return
        for k in echelon.add(row) or ():
            reached.add((x, y, (n, k)))
            queue.append((x, y, (n, k)))

    def compose(x, y, z, g, f):
        terms = cat.products(x, y, z).get(f, {}).get(g, ())
        row = {r: c for r, c in terms if not field.is_zero(c)}
        if row:
            grow(x, z, f[0] + g[0], row)

    for x, y in itertools.product(cat.objects, repeat=2):
        for a in cat.basis_elements(x, y):
            if (x, y, a) in reached:
                continue
            generators[(x, y)].append(a)
            grow(x, y, a[0], {a[1]: field.one()})
            while queue:
                p, q, b = queue.popleft()
                for r in cat.objects:
                    for c in done[(q, r)]:
                        compose(p, q, r, c, b)
                    for c in done[(r, p)]:
                        compose(r, p, q, b, c)
                if p == q:
                    compose(p, p, p, b, b)
                done[(p, q)].append(b)
    return {key: tuple(gens) for key, gens in generators.items()}


def spaces_and_lookup(cat, calls=None):
    """spanning()'s arguments to generator_closure for cat; the lookup
    appends each (psi, g) it is asked for to calls."""
    spaces = {
        (x, y, n): cat.hom[(x, y)].dim(n)
        for x, y in itertools.product(cat.objects, repeat=2)
        for n in cat.hom[(x, y)].carrier.degrees()
    }

    def compose(psi, g):
        if calls is not None:
            calls.append((psi, g))
        ((y, z, m), i), ((x, _, n), j) = psi, g
        terms = cat.products(x, y, z).get((n, j), {}).get((m, i), ())
        return {r: c for r, c in terms if not cat.field.is_zero(c)}

    return spaces, compose


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_one_sided_rule_keeps_the_two_sided_generators(field):
    for seed in range(40):
        fx = random_axiom_fixture(seed, field)
        t_cat, u_cat = fx["t_cat"], fx["u_cat"]
        lam = build_lambda(t_cat, u_cat, fx["bimodule"], validate=False)
        for cat in (t_cat, u_cat, opposite_category(t_cat), lam.presentation):
            assert cat.spanning().generators == two_sided_generators(cat), (seed, cat.name)


def test_one_sided_rule_keeps_the_two_sided_generators_of_theorem_lambdas(
    theorem_fixtures,
):
    for fx in theorem_fixtures:
        cat = fx["lambda"].presentation
        assert cat.spanning().generators == two_sided_generators(cat), fx["name"]


def test_each_basis_morphism_is_composed_after_each_generator_once():
    """A work count on a two-object category: the lookup runs once per
    composable (basis morphism, generator) pair, and never twice."""
    cat = random_axiom_fixture(1, QQ)["t_cat"]
    assert len(cat.objects) == 2
    calls = []
    spaces, lookup = spaces_and_lookup(cat, calls)
    generators, pairs = generator_closure(cat.field, spaces, lookup)
    basis = [(key, k) for key, dim in spaces.items() for k in range(dim)]
    composable = [(psi, g) for psi in basis for g in generators if psi[0][0] == g[0][1]]
    assert len(calls) == len(set(calls)) == len(composable) < len(basis) ** 2
    assert set(calls) == set(composable)
    assert set(pairs) <= set(calls) and pairs
    spanning = cat.spanning()
    assert len(spanning.pairs) == len(pairs)
    assert sum(map(len, spanning.generators.values())) == len(generators)


def test_a_failing_pair_stops_the_closure():
    cat = random_axiom_fixture(1, QQ)["t_cat"]
    spaces, lookup = spaces_and_lookup(cat)
    calls = []

    def fails_on_the_third(psi, g):
        calls.append((psi, g))
        return None if len(calls) == 3 else lookup(psi, g)

    assert generator_closure(cat.field, spaces, fails_on_the_third) is None
    assert len(calls) == 3


def test_a_composite_reaches_only_the_unit_vectors_in_its_span():
    """g . g = e1 + e2 raises the rank but reaches neither e1 nor e2, so e1
    is the next generator, and then e2 is reached as well."""
    key = ("x", "x", 0)

    def compose(psi, g):
        return {1: QQ.one(), 2: QQ.one()} if psi == g == (key, 0) else {}

    generators, pairs = generator_closure(QQ, {key: 3}, compose)
    assert generators == ((key, 0), (key, 1))
    assert pairs == (((key, 0), (key, 0)),)
