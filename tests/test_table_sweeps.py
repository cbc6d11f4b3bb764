"""The axiom sweeps of validate_dg_category against the full sweeps.

The Leibniz rule is checked only on the basis pairs with a term on some
side (_leibniz_pairs), the unit laws from the identities' nonzero
coordinates and the tables, and associativity skips a basis morphism f
with no composite and a pair (f, g) with nothing to sum.  The oracles
here are the sweeps these replaced: every basis pair of a triple in
sorted order for the Leibniz rule, dense composites with the identities
for the unit laws, and every pair (f, g) for associativity.  A pair the
fast sweeps skip has both sides zero, so verdicts and witnesses agree on
every category, valid or not; the properties below change one table
coordinate or one differential entry and compare.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose, dense_blocks
from dgcat import category
from dgcat.category import (
    DgCategoryPresentation,
    _add_scaled,
    _fmt_sparse,
    _nonzero,
    validate_dg_category,
)
from dgcat.complexes import DgModule
from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import random_axiom_fixture
from dgcat.graded import GradedMap
from dgcat.lambda_cat import build_lambda
from dgcat.report import fmt_vector
from tests.test_golden import _reference_associativity_witness

QQ = Rationals()
F5 = PrimeField(5)


def _leibniz_key(gf):
    return (gf[0][0] + gf[1][0], gf[0][0], gf[0][1], gf[1][1])


def _full_chain_map_witness(cat):
    """The Leibniz rule on every basis pair (g, f) of every triple, sorted
    by (|g|+|f|, |g|, g index, f index); the first failure, or None."""
    field = cat.field
    d_cols = {key: hom.d.columns() for key, hom in cat.hom.items()}
    for x, y, z in itertools.product(cat.objects, repeat=3):
        gf_of = cat.products(x, y, z)
        d_f, d_g, d_gf = d_cols[(x, y)], d_cols[(y, z)], d_cols[(x, z)]
        pairs = sorted(
            itertools.product(cat.basis_elements(y, z), cat.basis_elements(x, y)),
            key=_leibniz_key,
        )
        for g, f in pairs:
            n, gdeg = f[0] + g[0], g[0]
            gfs = gf_of.get(f, {})
            lhs, rhs = {}, {}
            for r, c in gfs.get(g, ()):
                _add_scaled(field, lhs, c, d_gf.get((n, r), ()))
            for s, c in d_g.get(g, ()):
                _add_scaled(field, rhs, c, gfs.get((gdeg + 1, s), ()))
            sgn = field.sign(gdeg)
            for s, c in d_f.get(f, ()):
                terms = gf_of.get((f[0] + 1, s), {}).get(g, ())
                _add_scaled(field, rhs, field.mul(sgn, c), terms)
            lhs, rhs = _nonzero(field, lhs), _nonzero(field, rhs)
            if lhs != rhs:
                dim = cat.hom[(x, z)].dim(n + 1)
                return {
                    "triple": [x, y, z],
                    "basis": {"g": list(g), "f": list(f)},
                    "comp_after_d": _fmt_sparse(field, rhs, dim),
                    "d_after_comp": _fmt_sparse(field, lhs, dim),
                }
    return None


def _dense_units_witness(cat):
    """1_y.f = f = f.1_x with dense composites, f over every basis
    morphism; the first failure, or None."""
    field = cat.field
    for x, y in itertools.product(cat.objects, repeat=2):
        for degree, index in cat.basis_elements(x, y):
            f = cat.basis_element(x, y, degree, index)
            left = compose(cat, cat.identity(y), f)
            right = compose(cat, f, cat.identity(x))
            if left.coords != f.coords or right.coords != f.coords:
                return {
                    "pair": [x, y],
                    "basis": [degree, index],
                    "id_then_f": fmt_vector(field, left.coords),
                    "f_then_id": fmt_vector(field, right.coords),
                    "f": fmt_vector(field, f.coords),
                }
    return None


def _every_pair(cat, x, y, z, w, fs):
    """The first pair (f, g), f over fs and g over the basis of hom(y, z),
    with h.(g.f) != (h.g).f for some h, visiting every pair."""
    field = cat.field
    gf_of, h_gf_of = cat.products(x, y, z), cat.products(x, z, w)
    hg_of, hg_f_of = cat.products(y, z, w), cat.products(x, y, w)
    for f in fs:
        for g in cat.basis_elements(y, z):
            diff = {}
            for r, c in gf_of.get(f, {}).get(g, ()):
                for h, terms in h_gf_of.get((f[0] + g[0], r), {}).items():
                    _add_scaled(field, diff.setdefault(h, {}), c, terms)
            for h, hg in hg_of.get(g, {}).items():
                for s, c in hg:
                    terms = hg_f_of.get(f, {}).get((h[0] + g[0], s), ())
                    _add_scaled(field, diff.setdefault(h, {}), field.neg(c), terms)
            if any(_nonzero(field, acc) for acc in diff.values()):
                return f, g
    return None


def _oracle_associative(cat):
    generators = cat.spanning().generators
    return not any(
        _every_pair(cat, x, y, z, w, generators[(x, y)])
        for x, y, z, w in itertools.product(cat.objects, repeat=4)
    )


def _witness(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.witness


def _assert_sweeps_agree(cat):
    report = validate_dg_category(cat)
    assert _witness(report, "composition_chain_map") == _full_chain_map_witness(cat)
    assert _witness(report, "units") == _dense_units_witness(cat)
    associative = _oracle_associative(cat)
    assert cat.associative() == associative
    if not associative:
        expected = _reference_associativity_witness(cat)
        assert _witness(report, "associativity") == expected


def _categories(seed, field):
    fx = random_axiom_fixture(seed, field)
    lam = build_lambda(fx["t_cat"], fx["u_cat"], fx["bimodule"], validate=False)
    return {"T": fx["t_cat"], "U": fx["u_cat"], "Lambda": lam.presentation}


def _tables(cat):
    return {key: cat.products(*key) for key in itertools.product(cat.objects, repeat=3)}


def _changed(field, value, step):
    if step == "double":
        return field.mul(field.from_int(2), value)
    if step == "zero":
        return field.zero()
    return field.add(value, field.from_int(step))


def _with_table_coordinate(cat, key, f, g, r, step):
    field = cat.field
    tables = _tables(cat)
    table = {f2: dict(per_g) for f2, per_g in tables[key].items()}
    terms = dict(table.get(f, {}).get(g, ()))
    terms[r] = _changed(field, terms.get(r, field.zero()), step)
    terms = tuple((s, c) for s, c in sorted(terms.items()) if not field.is_zero(c))
    per_g = table.setdefault(f, {})
    if terms:
        per_g[g] = terms
    else:
        per_g.pop(g, None)
        if not per_g:
            del table[f]
    tables[key] = table
    return DgCategoryPresentation(field, cat.objects, cat.hom, tables, cat.ids)


def _with_d_entry(cat, key, i, r, c, step):
    module = cat.hom[key]
    block = [list(row) for row in module.d.block(i)]
    block[r][c] = _changed(cat.field, block[r][c], step)
    d = GradedMap(module.carrier, module.carrier, 1, {**dense_blocks(module.d), i: block})
    hom = {**cat.hom, key: DgModule(module.carrier, d, check=False)}
    return DgCategoryPresentation(cat.field, cat.objects, hom, _tables(cat), cat.ids)


def _table_spots(cat, anywhere):
    """(triple, f, g, row) of every table term, or of every coordinate."""
    if not anywhere:
        return [
            (key, f, g, r)
            for key, table in _tables(cat).items()
            for f, per_g in table.items()
            for g, terms in per_g.items()
            for r, _ in terms
        ]
    return [
        (key, f, g, r)
        for key in itertools.product(cat.objects, repeat=3)
        for f in cat.basis_elements(*key[:2])
        for g in cat.basis_elements(*key[1:])
        for r in range(cat.hom[(key[0], key[2])].dim(f[0] + g[0]))
    ]


def _d_spots(cat, anywhere):
    """(hom pair, degree, row, column) of every nonzero differential entry,
    or of every entry."""
    spots = []
    for key, module in cat.hom.items():
        for i in module.carrier.degrees():
            rows, cols = module.dim(i + 1), module.dim(i)
            for r, c in itertools.product(range(rows), range(cols)):
                if anywhere or not cat.field.is_zero(module.d.entry(i, r, c)):
                    spots.append((key, i, r, c))
    return spots


STEPS = [1, "double", -1, "zero"]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    field=st.sampled_from([QQ, F5]),
    name=st.sampled_from(["Lambda", "Lambda", "T", "U"]),
    kind=st.sampled_from(["table", "d"]),
    anywhere=st.booleans(),
    step=st.sampled_from(STEPS),
)
def test_sweeps_match_the_full_sweeps_after_one_change(
    data, field, name, kind, anywhere, step
):
    """One table coordinate or one differential entry is moved by 1, 2 or
    -1 times, or set to zero, at a term or anywhere; the chain-map, unit
    and associativity verdicts and witnesses are the full sweeps'."""
    cat = _categories(data.draw(st.integers(0, 79), label="seed"), field)[name]
    spots = (_table_spots if kind == "table" else _d_spots)(cat, anywhere)
    if spots:
        spot = data.draw(st.sampled_from(spots), label="spot")
        change = _with_table_coordinate if kind == "table" else _with_d_entry
        cat = change(cat, *spot, step)
    _assert_sweeps_agree(cat)


def _has_term(gf_of, d_f, d_g, g, f):
    """Some side of the Leibniz rule at (g, f) has a table term: g.f, g.f'
    for a term f' of df, or g'.f for a term g' of dg."""
    per_g = gf_of.get(f, {})
    return (
        g in per_g
        or any(g in gf_of.get((f[0] + 1, s), {}) for s, _ in d_f.get(f, ()))
        or any((g[0] + 1, s) in per_g for s, _ in d_g.get(g, ()))
    )


def test_leibniz_visits_exactly_the_pairs_with_a_term(monkeypatch):
    """Work-count guard: on the triangular category of axiom seed 1 over Q,
    the Leibniz sweep visits every basis pair with a table term on some
    side and no other, fewer than a third of all pairs."""
    cat = _categories(1, QQ)["Lambda"]
    visited = []
    leibniz_pairs = category._leibniz_pairs

    def recorded(*args):
        visited.append(leibniz_pairs(*args))
        return visited[-1]

    monkeypatch.setattr(category, "_leibniz_pairs", recorded)
    assert validate_dg_category(cat).passed
    triples = list(itertools.product(cat.objects, repeat=3))
    assert len(visited) == len(triples)
    total = 0
    for (x, y, z), pairs in zip(triples, visited):
        every = sorted(
            itertools.product(cat.basis_elements(y, z), cat.basis_elements(x, y)),
            key=_leibniz_key,
        )
        total += len(every)
        gf_of, d_f, d_g = (
            cat.products(x, y, z),
            cat.hom[(x, y)].d.columns(),
            cat.hom[(y, z)].d.columns(),
        )
        assert pairs == [gf for gf in every if _has_term(gf_of, d_f, d_g, *gf)]
    assert 0 < 3 * sum(map(len, visited)) < total


def _reached_only_through(cat, side):
    """Changed copies of cat, each with one new composite g.f' (f' a term
    of df; side "f") or g'.f (g' a term of dg; side "g") where the pair
    (g, f) has no table term on any side, so that composite is its only
    term; with the triple and (g, f)."""
    for x, y, z in itertools.product(cat.objects, repeat=3):
        gf_of = cat.products(x, y, z)
        d_f, d_g = cat.hom[(x, y)].d.columns(), cat.hom[(y, z)].d.columns()
        for f in cat.basis_elements(x, y):
            for g in cat.basis_elements(y, z):
                # (f', g') of g.f, g.df and dg.f
                terms = [(f, g)]
                terms += [((f[0] + 1, s), g) for s, _ in d_f.get(f, ())]
                terms += [(f, (g[0] + 1, s)) for s, _ in d_g.get(g, ())]
                if any(g2 in gf_of.get(f2, {}) for f2, g2 in terms):
                    continue
                moved = d_f.get(f, ()) if side == "f" else d_g.get(g, ())
                for s, _ in moved:
                    f2, g2 = ((f[0] + 1, s), g) if side == "f" else (f, (g[0] + 1, s))
                    if cat.hom[(x, z)].dim(f2[0] + g2[0]):
                        yield (x, y, z), g, f, _with_table_coordinate(
                            cat, (x, y, z), f2, g2, 0, 1
                        )


def test_a_pair_reached_only_through_a_differential_is_checked():
    """A composite g.f' (or g'.f) added where f' is a term of df (or g' of
    dg) and (g, f) has no other term: the full sweep's first failure is
    (g, f), which the sweep reaches only through the differential of
    hom(x, y) (or of hom(y, z))."""
    for side in ("f", "g"):
        found = None
        for seed in range(20):
            lam = _categories(seed, QQ)["Lambda"]
            for triple, g, f, changed in _reached_only_through(lam, side):
                witness = _full_chain_map_witness(changed)
                if witness["triple"] == list(triple) and witness["basis"] == {
                    "g": list(g),
                    "f": list(f),
                }:
                    found = changed
                    break
            if found is not None:
                break
        assert found is not None, side
        _assert_sweeps_agree(found)
