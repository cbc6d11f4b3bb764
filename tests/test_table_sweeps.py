"""The axiom sweeps of validate_dg_category against the full sweeps.

The Leibniz rule and associativity are each decided by one contraction
of the product tables, per object triple (_leibniz_defect) and per
object quadruple (_associator), which writes only the entries a table
term reaches; the unit laws are read from the identities' nonzero
coordinates and the tables.  The oracles are the kit's full sweeps
(conftest.leibniz_witness, units_witness and associativity_witness):
every basis pair of a triple in sorted order for the Leibniz rule,
composites with the identities for the unit laws, and every triple
(f, g, h) for associativity.  A pair or triple the contractions never
reach has both sides zero, so verdicts and witnesses agree on every
category, valid or not; the properties below change one table
coordinate or one differential entry and compare, and the work-count
guards check that the contractions reach exactly the tuples with a term.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    F5,
    QQ,
    after,
    associativity_witness,
    axiom_categories,
    entry_spots,
    leibniz_pairs,
    leibniz_witness,
    presentation_with,
    table_spots,
    through,
    units_witness,
    with_entry,
    with_table_coordinate,
)
from dgcat import category
from dgcat.category import validate_dg_category
from dgcat.complexes import DgModule


def _assert_sweeps_agree(cat):
    report = validate_dg_category(cat)
    assert report.check("composition_chain_map").witness == leibniz_witness(cat)
    assert report.check("units").witness == units_witness(cat)
    associative = associativity_witness(cat, cat.spanning().generators) is None
    assert cat.associative() == associative
    if not associative:
        assert report.check("associativity").witness == associativity_witness(cat)


STEPS = [1, "x2", -1, "zero"]


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
    cat = axiom_categories(field, data.draw(st.integers(0, 79), label="seed"))[name]
    if kind == "table":
        spots = list(table_spots(cat, terms=not anywhere))
    else:
        spots = [
            (key, *spot)
            for key, module in cat.hom.items()
            for spot in entry_spots(module.d)
            if anywhere or not field.is_zero(module.d.entry(*spot))
        ]
    if spots:
        spot = data.draw(st.sampled_from(spots), label="spot")
        if kind == "table":
            cat = with_table_coordinate(cat, spot, step)
        else:
            key, *entry = spot
            module = cat.hom[key]
            d = with_entry(module.d, entry, step)
            cat = presentation_with(cat, hom={key: DgModule(module.carrier, d, check=False)})
    _assert_sweeps_agree(cat)


def _has_term(gf_of, d_f, d_g, d_gf, g, f):
    """Some side of the Leibniz rule at (g, f) has a table term: d(r) for
    a term r of g.f, g.f' for a term f' of df, or g'.f for a term g' of
    dg."""
    per_g = gf_of.get(f, {})
    n = f[0] + g[0]
    return (
        any(d_gf.get((n, r)) for r, _ in per_g.get(g, ()))
        or any(g in gf_of.get((f[0] + 1, s), {}) for s, _ in d_f.get(f, ()))
        or any((g[0] + 1, s) in per_g for s, _ in d_g.get(g, ()))
    )


def test_leibniz_writes_exactly_the_pairs_with_a_term(monkeypatch):
    """Work-count guard: on the triangular category of axiom seed 1 over Q,
    leibniz() contracts each object triple whose hom(x, y) has a generator
    once, and writes an entry for every basis pair (g, f), f a generator,
    with a table term on some side, and for no other pair: 255 of the
    7,056 basis pairs when written (the scan over every f writes 1,080);
    the guard allows up to 5%.  The PASS is read from the verdict, so
    validation makes no other contraction."""
    cat = axiom_categories(QQ, 1)["Lambda"]
    written = {}
    defect = category._leibniz_defect

    def recorded(cat, d_cols, x, y, z, fs):
        written[(x, y, z)] = defect(cat, d_cols, x, y, z, fs)
        return written[(x, y, z)]

    monkeypatch.setattr(category, "_leibniz_defect", recorded)
    assert validate_dg_category(cat).passed
    generators = cat.spanning().generators
    triples = list(itertools.product(cat.objects, repeat=3))
    assert list(written) == [t for t in triples if generators[t[:2]]]
    total = visited = 0
    for x, y, z in triples:
        every = leibniz_pairs(cat, x, y, z)
        total += len(every)
        columns = [cat.hom[key].d.columns() for key in ((x, y), (y, z), (x, z))]
        pairs = {(g, f) for g, f, _ in written.get((x, y, z), {})}
        assert pairs == {
            (g, f)
            for g, f in every
            if f in generators[(x, y)] and _has_term(cat.products(x, y, z), *columns, g, f)
        }
        visited += len(pairs)
    assert 0 < 20 * visited < total


def test_associativity_writes_exactly_the_triples_with_a_term(monkeypatch):
    """Work-count guard: on the triangular category of axiom seed 1 over Q,
    associative() writes an entry for every basis triple (f, g, h), f a
    generator, with a table term on some side, h.(g.f) or (h.g).f, and
    for no other triple.  The triples with a term are found through the
    kit's after and through, one basis morphism at a time.  They were
    3,996 of the 74,571 generator x basis x basis triples (5.4%) when
    written; the guard allows up to 6%."""
    cat = axiom_categories(QQ, 1)["Lambda"]
    written = set()
    associator = category._associator

    def recorded(cat, x, y, z, w, fs, by_row):
        diff = associator(cat, x, y, z, w, fs, by_row)
        written.update((x, y, z, w, f, g, h) for f, g, h, _ in diff)
        return diff

    monkeypatch.setattr(category, "_associator", recorded)
    assert cat.associative()
    field, one = cat.field, cat.field.one()
    generators = cat.spanning().generators
    expected, total = set(), 0
    for x, y, z, w in itertools.product(cat.objects, repeat=4):
        g_basis, h_basis = list(cat.basis_elements(y, z)), list(cat.basis_elements(z, w))
        total += len(generators[(x, y)]) * len(g_basis) * len(h_basis)
        for f in generators[(x, y)]:
            g_f = after(cat, x, y, z, (f[0], {f[1]: one}))
            k_f = after(cat, x, y, w, (f[0], {f[1]: one}))
            for g in g_basis:
                n, h_g = f[0] + g[0], after(cat, y, z, w, (g[0], {g[1]: one}))
                left = {
                    h for r in g_f.get(g, {}) for h in after(cat, x, z, w, (n, {r: one}))
                }
                right = {
                    h
                    for h, hg in h_g.items()
                    if any(through(field, k_f, (g[0] + h[0], {s: one})) for s in hg)
                }
                expected.update((x, y, z, w, f, g, h) for h in left | right)
    assert written == expected
    assert 0 < len(written) < 0.06 * total


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
                        spot = ((x, y, z), f2, g2, 0)
                        yield (x, y, z), g, f, with_table_coordinate(cat, spot)


def test_a_pair_reached_only_through_a_differential_is_checked():
    """A composite g.f' (or g'.f) added where f' is a term of df (or g' of
    dg) and (g, f) has no other term: the full sweep's first failure is
    (g, f), which the sweep reaches only through the differential of
    hom(x, y) (or of hom(y, z))."""
    for side in ("f", "g"):
        found = None
        for seed in range(20):
            lam = axiom_categories(QQ, seed)["Lambda"]
            for triple, g, f, changed in _reached_only_through(lam, side):
                witness = leibniz_witness(changed)
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
