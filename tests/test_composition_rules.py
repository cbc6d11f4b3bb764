"""Product tables and Hom actions written from tables and basis indices,
against the dense per-pair composition they replaced.

tensor_category pairs the entries of its factors' tables;
endomorphism_category, hom_bimodule and hom_from_module compose
elementary maps by index; representable_module and yoneda_module read
each column of an image off a product table.  The oracles compose every
basis pair densely instead: through compose_from_products, through
HomComplex.decode, GradedMap.compose and HomComplex.encode, or column by
column with map_from_action.  The last test counts the dense calls the
builders make, which must be none.
"""

import itertools
import random

from conftest import (
    F5,
    QQ,
    compose_basis_coords,
    compose_from_products,
    product_tables,
    tensor_tables,
)
from dgcat import linalg
from dgcat.category import DgCategoryPresentation, tensor_category
from dgcat.complexes import HomComplex
from dgcat.fixtures import (
    endomorphism_category,
    hom_bimodule,
    hom_from_module,
    random_axiom_fixture,
    random_dg_module,
)
from dgcat.functors import representable_module, yoneda_module
from dgcat.graded import identity_map, map_from_action


def _has_odd_morphism(cat):
    return any(
        m % 2 for x, y in itertools.product(cat.objects, repeat=2)
        for m, _ in cat.basis[(x, y)]
    )


# ---------------------------------------------------------------------------
# tensor_category


def test_tensor_tables_equal_the_per_pair_rule():
    """On axiom categories where both factors have odd-degree morphisms,
    over Q and F_5; some entries carry the sign -1 of an odd |b2||a1|."""
    odd_signs = 0
    for field, seed in itertools.product((QQ, F5), (1, 3, 4, 8, 12, 13)):
        fx = random_axiom_fixture(seed, field)
        cat_a, cat_b = fx["t_cat"], fx["u_cat"]
        assert _has_odd_morphism(cat_a) and _has_odd_morphism(cat_b)
        prod = tensor_category(cat_a, cat_b)
        oracle, tensors = tensor_tables(prod, cat_a, cat_b)
        assert product_tables(prod) == oracle, (str(field), seed)
        for (p, q, r), table in oracle.items():
            for (fdeg, fidx), per_g in table.items():
                a1 = tensors[(p, q)].basis(fdeg)[fidx][0]
                for gdeg, gidx in per_g:
                    b2 = gdeg - tensors[(q, r)].basis(gdeg)[gidx][0]
                    odd_signs += a1 * b2 % 2
    assert odd_signs > 0


# ---------------------------------------------------------------------------
# the elementary-map rule of the Hom complexes


def _decode_basis(hc, n, k):
    """The k-th elementary map of degree n of the Hom complex hc."""
    return hc.decode(n, linalg.unit_vector(hc.source.field, hc.carrier.dim(n), k))


def _dense_endomorphism_tables(cat, hom_cx):
    """cat's tables with every basis pair decoded, composed as graded maps
    and encoded again."""

    def product(x, y, z, gdeg, gidx, fdeg, fidx):
        g = _decode_basis(hom_cx[(y, z)], gdeg, gidx)
        f = _decode_basis(hom_cx[(x, y)], fdeg, fidx)
        return hom_cx[(x, z)].encode(g.compose(f))

    oracle = DgCategoryPresentation(cat.field, cat.objects, cat.hom, {}, cat.ids)
    return product_tables(compose_from_products(oracle, product))


def _dense_post_composition(g_cx, src, tgt, m, k):
    """Hom(P, Q) -> Hom(P, Q'), j |-> g . j, column by column, for the
    elementary map g = (m, k) of g_cx = Hom(Q, Q')."""
    g = _decode_basis(g_cx, m, k)

    def column(i, j):
        return tgt.encode(g.compose(_decode_basis(src, i, j)))

    return map_from_action(src.carrier, tgt.carrier, m, column)


def _dense_pre_composition(s_cx, src, tgt, m, k):
    """Hom(P', Q) -> Hom(P, Q), j |-> (-1)^{m|j|} j . s, column by column,
    for the elementary map s = (m, k) of s_cx = Hom(P, P')."""
    field = src.source.field
    s = _decode_basis(s_cx, m, k)

    def column(i, j):
        return tgt.encode(_decode_basis(src, i, j).compose(s).scale(field.sign(m * i)))

    return map_from_action(src.carrier, tgt.carrier, m, column)


def _random_modules(rng, field, prefix):
    """One to three random dg modules with up to two basis vectors per degree."""
    count = rng.randint(1, 3)
    return {f"{prefix}{i}": random_dg_module(rng, field, max_dim=2) for i in range(count)}


def _elementary_instances():
    """(field, T-modules, U-modules, Z) for a few seeds over Q and F_5."""
    for field, seed in itertools.product((QQ, F5), range(3)):
        rng = random.Random(seed)
        t_modules = _random_modules(rng, field, "t")
        u_modules = _random_modules(rng, field, "u")
        yield field, t_modules, u_modules, random_dg_module(rng, field, max_dim=2)


def test_endomorphism_tables_equal_the_dense_build():
    """The tables composed by index, and the identities, equal the ones
    the decoded graded maps give."""
    for field, t_modules, u_modules, _ in _elementary_instances():
        for modules in (t_modules, u_modules):
            cat, hom_cx = endomorphism_category(field, modules)
            assert product_tables(cat) == _dense_endomorphism_tables(cat, hom_cx)
            for x, module in modules.items():
                assert cat.ids[x] == hom_cx[(x, x)].encode(identity_map(module.carrier))


def test_hom_actions_equal_the_dense_build():
    """hom_bimodule's two actions and hom_from_module's action equal the
    decoded post- and pre-composition, column by column; some right-action
    entries carry the sign -1 of an odd m|j|."""
    odd_signs = 0
    for field, t_modules, u_modules, z_module in _elementary_instances():
        t_cat, t_cx = endomorphism_category(field, t_modules, name="T")
        u_cat, u_cx = endomorphism_category(field, u_modules, name="U")
        bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx)
        P, Q = t_modules, u_modules
        for (u, u2, t), images in bim.left_images.items():
            cxs = HomComplex(Q[u], Q[u2]), HomComplex(P[t], Q[u]), HomComplex(P[t], Q[u2])
            for m, k in images:
                assert images[(m, k)] == _dense_post_composition(*cxs, m, k)
        for (t, t2, u), images in bim.right_images.items():
            cxs = HomComplex(P[t], P[t2]), HomComplex(P[t2], Q[u]), HomComplex(P[t], Q[u])
            for m, k in images:
                assert images[(m, k)] == _dense_pre_composition(*cxs, m, k)
                odd_signs += sum(m * i % 2 for i, _, _, _ in images[(m, k)].entries())
        Z = z_module
        for (u, u2), images in hom_from_module(u_cat, u_cx, Z).images.items():
            cxs = HomComplex(Q[u], Q[u2]), HomComplex(Z, Q[u]), HomComplex(Z, Q[u2])
            for m, k in images:
                assert images[(m, k)] == _dense_post_composition(*cxs, m, k)
    assert odd_signs > 0


# ---------------------------------------------------------------------------
# representable and Yoneda modules


def _dense_representable_image(cat, origin, y, z, m, k):
    """hom(origin, y) -> hom(origin, z): column (i, j) is the dense composite
    of the basis morphism (m, k) after (i, j)."""
    return map_from_action(
        cat.hom[(origin, y)].carrier,
        cat.hom[(origin, z)].carrier,
        m,
        lambda i, j: compose_basis_coords(cat, origin, y, z, m, k, i, j),
    )


def _dense_yoneda_image(cat, origin, x, y, m, k):
    """hom(x, origin) -> hom(y, origin): column (i, j) is (-1)^{m i} j . f
    for the basis morphism f = (m, k) of hom(y, x), composed densely."""
    field = cat.field

    def column(i, j):
        dense = compose_basis_coords(cat, y, x, origin, i, j, m, k)
        return tuple(field.mul(field.sign(m * i), v) for v in dense)

    source, target = cat.hom[(x, origin)].carrier, cat.hom[(y, origin)].carrier
    return map_from_action(source, target, m, column)


def test_representable_and_yoneda_images_equal_the_dense_columns(theorem_fixtures):
    """On the theorem fixtures' T, U and Lambda, over Q and F_5."""
    cats = [fx[key] for fx in theorem_fixtures for key in ("t_cat", "u_cat")]
    cats += [fx["lambda"].presentation for fx in theorem_fixtures]
    assert {str(cat.field) for cat in cats} == {str(QQ), str(F5)}
    for cat in cats:
        pairs = list(itertools.product(cat.objects, repeat=2))
        for origin in cat.objects:
            cova, contra = representable_module(cat, origin), yoneda_module(cat, origin)
            for x, y in pairs:
                for m, k in cat.basis[(x, y)]:
                    want = _dense_representable_image(cat, origin, x, y, m, k)
                    assert cova.map_of_basis(x, y, m, k) == want
                # a morphism x -> y of the opposite is (m, k) of hom(y, x)
                for m, k in cat.basis[(y, x)]:
                    want = _dense_yoneda_image(cat, origin, x, y, m, k)
                    assert contra.map_of_basis(x, y, m, k) == want


# ---------------------------------------------------------------------------
# work counts


def test_builders_compose_no_basis_pair_densely(monkeypatch):
    """tensor_category, endomorphism_category, hom_bimodule,
    hom_from_module, representable_module and yoneda_module read tables
    and indices only: compose_basis and HomComplex.encode are called 0
    times while they build, and once each by the check that the counting
    works."""
    calls = {"compose_basis": 0, "encode": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(DgCategoryPresentation, "compose_basis")
    counted(HomComplex, "encode")
    field, t_modules, u_modules, z_module = list(_elementary_instances())[1]
    t_cat, t_cx = endomorphism_category(field, t_modules, name="T")
    u_cat, u_cx = endomorphism_category(field, u_modules, name="U")
    hom_bimodule(u_cat, u_cx, t_cat, t_cx)
    hom_from_module(u_cat, u_cx, z_module)
    prod = tensor_category(t_cat, u_cat)
    for cat in (t_cat, prod):
        for origin in cat.objects:
            representable_module(cat, origin)
            yoneda_module(cat, origin)
    assert calls == {"compose_basis": 0, "encode": 0}
    x = t_cat.objects[0]
    t_cat.compose_basis(x, x, x, 0, 0, 0, 0)
    t_cx[(x, x)].encode(identity_map(t_modules[x].carrier))
    assert calls == {"compose_basis": 1, "encode": 1}
