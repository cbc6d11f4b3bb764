"""The test kit: the one copy of each fixture, oracle and mutator that
test modules share.  No test module imports another.  A simplification
that keeps the rule it deletes as a test oracle adds it here, not to a
test file.

Instances: qmat, k_module, kkk_setup, random_setup,
with_first_right_action_negated, path_category, zero_functor,
identity_nat, axiom_categories (T, U and Lambda of an axiom fixture),
shipped_theorem_fixture, the session fixture theorem_fixtures (built once:
several criteria and the pinned digests read the same instances) and
theorem_modules.

Oracles: after, the one composition of sparse elements (degree, {index:
coefficient}), every g.f for one f, read from cat.products with the
kit's own field arithmetic (sparse_sum), and through, its linear
extension in g; the category axioms' witnesses leibniz_witness,
units_witness and associativity_witness rest on it.  compose and
compose_basis_coords compose dense coordinates through
cat.compose_basis; opposite_tables and tensor_tables are the per-pair
sign rules, packed by compose_from_products; product_tables;
dense_blocks; nat_to_flat and nat_from_flat, the flat layout of a
transformation; dense_coordinates; raw_dot, dot_by_vectors and
extract_by_columns, the comma translations one basis vector at a time;
tensor_differential_oracle and whole_map_chain_map.

Mutators, each given the spot to change and a step (changed): entry_spots
and with_entry for graded maps and nested dicts of them,
with_image_entry, draw_image_spot and bimodule_with_entry; table_spots
and with_table_coordinate for product tables; presentation_with.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dgcat import linalg
from dgcat.bimodule import Bimodule, g_on_objects
from dgcat.category import DgCategoryPresentation, HomElement
from dgcat.complexes import DgModule, HomComplex, TensorComplex, dg_module
from dgcat.errors import StructureError
from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import (
    endomorphism_category,
    hom_bimodule,
    random_axiom_fixture,
    random_endo_category,
    random_theorem_fixture,
)
from dgcat.functors import DgFunctor, DgNatTransformation, action_from_basis_images
from dgcat.graded import GradedMap, identity_map, map_from_action
from dgcat.lambda_cat import SLOT_M, build_lambda, restrict_module
from dgcat.shipped import NAMES, shipped_workspace

QQ = Rationals()
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# instances


def qmat(rows):
    """A dense matrix over Q from rows of ints or fraction strings."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def k_module(field=QQ, degree=0):
    """K concentrated in one degree, zero differential."""
    return dg_module(field, {degree: 1}, {})


def kkk_setup(field=QQ):
    """U = T = endomorphism category of K; M = Hom(K, K) = K."""
    u_cat, u_cx = endomorphism_category(field, {"u0": k_module(field)}, name="U")
    t_cat, t_cx = endomorphism_category(field, {"t0": k_module(field)}, name="T")
    bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx, name="M")
    return u_cat, t_cat, u_cx, t_cx, bim


def random_setup(seed, field=QQ, max_objects=2):
    rng = random.Random(seed)
    u_cat, u_cx = random_endo_category(rng, field, "U", max_objects=max_objects)
    t_cat, t_cx = random_endo_category(rng, field, "T", max_objects=max_objects)
    bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx)
    return u_cat, t_cat, u_cx, t_cx, bim, rng


def with_first_right_action_negated(bim):
    """A copy of bim, built through the constructor, whose first right
    action table with a nonzero image acts with the opposite sign."""
    right = dict(bim.right_images)
    nonzero = [
        key
        for key, images in right.items()
        if any(not image.is_zero() for image in images.values())
    ]
    assert nonzero
    right[nonzero[0]] = {
        basis: image.scale(bim.field.from_int(-1))
        for basis, image in right[nonzero[0]].items()
    }
    return Bimodule(
        bim.left_base, bim.right_base, bim.values, bim.left_images, right, name=bim.name
    )


def path_category(field, arrows, name="Path"):
    """A poset-like category: one basis arrow x_i -> x_{i+1} in degree 0.

    arrows is the number of generating arrows; composites are the unique
    degree-0 basis elements between comparable objects.  Used as a
    deterministic associativity playground and for negative controls.
    """
    objects = tuple(f"x{i}" for i in range(arrows + 1))
    hom = {}
    for i in range(arrows + 1):
        for j in range(arrows + 1):
            if i <= j:
                hom[(objects[i], objects[j])] = dg_module(field, {0: 1}, {})
    cat = DgCategoryPresentation(
        field, objects, hom, {}, {obj: (field.one(),) for obj in objects}, name=name
    )
    # a basis pair is composable only along x_i -> x_j -> x_k with i <= j <= k,
    # and its composite is the basis arrow x_i -> x_k
    return compose_from_products(cat, lambda *basis_pair: (field.one(),))


def zero_functor(base, name="0"):
    """The dg-functor with every value zero."""
    return DgFunctor(base, {}, {}, name=name)


def identity_nat(fun):
    """The identity transformation of a dg-functor."""
    return DgNatTransformation(
        fun,
        fun,
        0,
        {obj: identity_map(fun.on_objects[obj].carrier) for obj in fun.base.objects},
    )


def axiom_categories(field, seed):
    """{"T", "U", "Lambda"}: the categories of one axiom fixture and the
    presentation of their triangular category."""
    fx = random_axiom_fixture(seed, field)
    lam = build_lambda(fx["t_cat"], fx["u_cat"], fx["bimodule"], validate=False)
    return {"T": fx["t_cat"], "U": fx["u_cat"], "Lambda": lam.presentation}


def shipped_theorem_fixture(name, field=None):
    """The theorem instance of a shipped example: o_can and o_zero, and the
    Lambda-module C; a given field replaces the file's own."""
    ws = shipped_workspace(name, field)
    lam = build_lambda(
        ws.categories["T"], ws.categories["U"], ws.bimodules["M"], validate=False
    )
    return {
        "name": name,
        "seed": 0,
        "t_cat": ws.categories["T"],
        "u_cat": ws.categories["U"],
        "bimodule": ws.bimodules["M"],
        "lambda": lam,
        "comma_objects": [ws.comma_objects["o_can"], ws.comma_objects["o_zero"]],
        "lambda_modules": [ws.modules["C"]],
    }


@pytest.fixture(scope="session")
def theorem_fixtures():
    fixtures = [shipped_theorem_fixture(name) for name in NAMES]
    specs = [
        (0, QQ, 1),
        (1, QQ, 1),
        (2, QQ, 1),
        (3, F5, 1),
        (4, F5, 1),
        (5, F5, 1),
        (6, QQ, 2),
        (7, F5, 2),
    ]
    for seed, field, max_objects in specs:
        fx = random_theorem_fixture(seed, field, max_objects=max_objects)
        fx["name"] = f"random{seed}"
        fixtures.append(fx)
    return fixtures


def theorem_modules(fx):
    """The dg-functors of a theorem fixture: its Lambda-modules, both legs
    of each comma object and every slice of its bimodule."""
    bim = fx["bimodule"]
    yield from fx["lambda_modules"]
    for obj in fx["comma_objects"]:
        yield obj.A
        yield obj.B
    yield from (bim.slice_t(t) for t in fx["t_cat"].objects)
    yield from (bim.slice_u(u) for u in fx["u_cat"].objects)


# ---------------------------------------------------------------------------
# composition


def sparse_sum(field, terms):
    """sum of c * v over the (c, v) terms, each v given by its (index,
    value) pairs, as {index: value} with zeros dropped."""
    add, mul, zero = field.add, field.mul, field.zero()
    acc = {}
    for c, pairs in terms:
        for i, v in pairs:
            acc[i] = add(acc.get(i, zero), mul(c, v))
    return {i: v for i, v in acc.items() if not field.is_zero(v)}


def after(cat, x, y, z, f):
    """{g: g.f} over the basis morphisms g of hom(y, z), for f a sparse
    element (degree, {index: coefficient}) of hom(x, y): the nonzero
    coordinates of each g.f in hom(x, z), read from cat.products."""
    fdeg, fs = f
    table = cat.products(x, y, z)
    rows = {}
    for fi, fc in fs.items():
        for g, terms in table.get((fdeg, fi), {}).items():
            rows.setdefault(g, []).append((fc, terms))
    return {g: sparse_sum(cat.field, terms) for g, terms in rows.items()}


def through(field, row, g):
    """The coordinates of g.f, for a sparse element g and row = after(f):
    row extended linearly in g."""
    gdeg, gs = g
    terms = [(c, row[(gdeg, i)].items()) for i, c in gs.items() if (gdeg, i) in row]
    return sparse_sum(field, terms)


def compose(cat, g, f):
    """g after f in cat, extended bilinearly from its product tables."""
    if f.target != g.source:
        raise StructureError(
            f"morphisms not composable: {f.source}->{f.target} then {g.source}->{g.target}"
        )
    field = cat.field
    n = g.degree + f.degree
    out = [field.zero()] * cat.hom[(f.source, g.target)].dim(n)
    for gi, gval in enumerate(g.coords):
        if field.is_zero(gval):
            continue
        for fi, fval in enumerate(f.coords):
            if field.is_zero(fval):
                continue
            weight = field.mul(gval, fval)
            for r, coeff in cat.compose_basis(
                f.source, f.target, g.target, g.degree, gi, f.degree, fi
            ):
                out[r] = field.add(out[r], field.mul(weight, coeff))
    return HomElement(f.source, g.target, n, tuple(out))


def compose_basis_coords(cat, x, y, z, gdeg, gidx, fdeg, fidx):
    """cat.compose_basis as a dense coordinate vector in hom(x,z)^(gdeg+fdeg)."""
    return linalg.dense_vector(
        cat.field,
        cat.compose_basis(x, y, z, gdeg, gidx, fdeg, fidx),
        cat.hom[(x, z)].dim(gdeg + fdeg),
    )


def compose_from_products(cat, product):
    """A new presentation of cat's objects, homs and identities, built
    with the product tables given by product (cat's own are not read).

    product(x, y, z, gdeg, gidx, fdeg, fidx) is the coordinate vector in
    hom(x, z)^(gdeg+fdeg) of the composite of the basis morphisms
    (gdeg, gidx) of hom(y, z) and (fdeg, fidx) of hom(x, y); it is not
    called when that space is zero.
    """
    field = cat.field
    tables = {}
    for x, y, z in itertools.product(cat.objects, repeat=3):
        table = tables[(x, y, z)] = {}
        pairs = itertools.product(cat.basis_elements(x, y), cat.basis_elements(y, z))
        for f, g in pairs:
            dim = cat.hom[(x, z)].dim(f[0] + g[0])
            if not dim:
                continue
            out = product(x, y, z, *g, *f)
            if len(out) != dim:
                raise StructureError(
                    f"composite in hom({x},{z}) has length {len(out)}, expected {dim}"
                )
            terms = tuple((r, c) for r, c in enumerate(out) if not field.is_zero(c))
            if terms:
                table.setdefault(f, {})[g] = terms
    return presentation_with(cat, tables)


def opposite_tables(cat):
    """The opposite's tables as the per-pair rule gives them: each basis
    pair composed densely in cat, twisted by (-1)^{|a||b|} and packed by
    compose_from_products."""
    field = cat.field
    hom = {(a, b): cat.hom[(b, a)] for a in cat.objects for b in cat.objects}
    opposite = DgCategoryPresentation(field, cat.objects, hom, {}, cat.ids)

    def product(x, y, z, p, ib, q, ia):
        out = compose_basis_coords(cat, z, y, x, q, ia, p, ib)
        return tuple(field.mul(field.sign(p * q), v) for v in out)

    return product_tables(compose_from_products(opposite, product))


def tensor_tables(prod, cat_a, cat_b):
    """(tables, tensors): prod's tables as the per-pair rule gives them,
    each basis pair's factors composed densely in A and in B, tensored,
    signed by (-1)^{|b2||a1|} and packed by compose_from_products; and the
    tensor complex of each pair of prod's objects."""
    field = prod.field
    pair_of = {f"({xa},{xb})": (xa, xb) for xa in cat_a.objects for xb in cat_b.objects}
    tensors = {
        (p, q): TensorComplex(cat_a.hom[(xa, ya)], cat_b.hom[(xb, yb)])
        for p, (xa, xb) in pair_of.items()
        for q, (ya, yb) in pair_of.items()
    }

    def product(p, q, r, gdeg, gidx, fdeg, fidx):
        (xa, xb), (ya, yb), (za, zb) = pair_of[p], pair_of[q], pair_of[r]
        p2, ia2, ib2 = tensors[(q, r)].basis(gdeg)[gidx]
        p1, ia1, ib1 = tensors[(p, q)].basis(fdeg)[fidx]
        q2, q1 = gdeg - p2, fdeg - p1
        alpha = compose_basis_coords(cat_a, xa, ya, za, p2, ia2, p1, ia1)
        beta = compose_basis_coords(cat_b, xb, yb, zb, q2, ib2, q1, ib1)
        out = tensors[(p, r)].encode_pure(p2 + p1, alpha, q2 + q1, beta)
        return tuple(field.mul(field.sign(q2 * p1), v) for v in out)

    oracle = DgCategoryPresentation(field, prod.objects, prod.hom, {}, prod.ids)
    return product_tables(compose_from_products(oracle, product)), tensors


def product_tables(cat):
    """{triple: cat.products(*triple)} over every object triple."""
    return {key: cat.products(*key) for key in itertools.product(cat.objects, repeat=3)}


# ---------------------------------------------------------------------------
# category-axiom oracles


def _formatted(field, coords, dim):
    return [field.format(c) for c in linalg.dense_vector(field, coords.items(), dim)]


def leibniz_pairs(cat, x, y, z):
    """Every basis pair (g, f) of the triple, g of hom(y, z) and f of
    hom(x, y), sorted by (|g| + |f|, |g|, g index, f index)."""
    pairs = itertools.product(cat.basis_elements(y, z), cat.basis_elements(x, y))
    return sorted(pairs, key=lambda gf: (gf[0][0] + gf[1][0], gf[0][0], gf[0][1], gf[1][1]))


def leibniz_witness(cat):
    """The composition_chain_map witness: the first basis pair, over the
    object triples in order and leibniz_pairs, with d(g.f) != dg.f +
    (-1)^{|g|} g.df, and both sides; or None."""
    field, one = cat.field, cat.field.one()
    d_cols = {key: hom.d.columns() for key, hom in cat.hom.items()}

    def d(key, element):
        n, coords = element
        column = d_cols[key]
        terms = [(c, column.get((n, i), ())) for i, c in coords.items()]
        return n + 1, sparse_sum(field, terms)

    dg_of = {}
    for x, y, z in itertools.product(cat.objects, repeat=3):
        rows = {}  # f -> (after(f), after(df))
        for g, f in leibniz_pairs(cat, x, y, z):
            if f not in rows:
                fe = (f[0], {f[1]: one})
                rows[f] = (after(cat, x, y, z, fe), after(cat, x, y, z, d((x, y), fe)))
            if (y, z, g) not in dg_of:
                dg_of[(y, z, g)] = d((y, z), (g[0], {g[1]: one}))
            g_f, g_df = rows[f]
            n = g[0] + f[0] + 1
            _, lhs = d((x, z), (n - 1, g_f[g])) if g in g_f else (n, {})
            # dg.f, read from after(f), and (-1)^{|g|} g.df
            k, dg = dg_of[(y, z, g)]
            terms = [(c, g_f[(k, s)].items()) for s, c in dg.items() if (k, s) in g_f]
            if g in g_df:
                terms.append((field.sign(g[0]), g_df[g].items()))
            rhs = sparse_sum(field, terms)
            if lhs != rhs:
                dim = cat.hom[(x, z)].dim(n)
                return {
                    "triple": [x, y, z],
                    "basis": {"g": list(g), "f": list(f)},
                    "comp_after_d": _formatted(field, rhs, dim),
                    "d_after_comp": _formatted(field, lhs, dim),
                }
    return None


def units_witness(cat):
    """The units witness: the first basis morphism f, over the object
    pairs in order, with 1_y.f != f or f.1_x != f, and both sides; or
    None."""
    field, one = cat.field, cat.field.one()
    ids = {
        x: (0, {k: c for k, c in enumerate(cat.ids[x]) if not field.is_zero(c)})
        for x in cat.objects
    }
    for x, y in itertools.product(cat.objects, repeat=2):
        after_id = after(cat, x, x, y, ids[x])
        for f in cat.basis_elements(x, y):
            fe = (f[0], {f[1]: one})
            left = through(field, after(cat, x, y, y, fe), ids[y])
            right = after_id.get(f, {})
            if left != fe[1] or right != fe[1]:
                dim = cat.hom[(x, y)].dim(f[0])
                return {
                    "pair": [x, y],
                    "basis": list(f),
                    "id_then_f": _formatted(field, left, dim),
                    "f_then_id": _formatted(field, right, dim),
                    "f": _formatted(field, fe[1], dim),
                }
    return None


def associativity_witness(cat, generators=None):
    """The associativity witness: the first basis triple (f, g, h), over
    the object quadruples in order, f over generators[(x, y)] (default:
    every basis morphism) and g and h over the bases in order, with
    h.(g.f) != (h.g).f, and both sides; or None.  Its (f, g) is the first
    pair with h.(g.f) != (h.g).f for some h."""
    field, one = cat.field, cat.field.one()
    basis = {
        key: tuple(cat.basis_elements(*key))
        for key in itertools.product(cat.objects, repeat=2)
    }
    rows = {}  # after(b) of each basis morphism b, kept for the whole scan

    def row(x, y, z, b):
        if (x, y, z, b) not in rows:
            rows[(x, y, z, b)] = after(cat, x, y, z, (b[0], {b[1]: one}))
        return rows[(x, y, z, b)]

    for x, y, z, w in itertools.product(cat.objects, repeat=4):
        for f in basis[(x, y)] if generators is None else generators[(x, y)]:
            g_f, k_f = row(x, y, z, f), row(x, y, w, f)
            for g in basis[(y, z)]:
                gf, h_g = g_f.get(g), row(y, z, w, g)
                if not gf and not h_g:
                    continue  # both sides are zero for every h
                left = after(cat, x, z, w, (f[0] + g[0], gf)) if gf else {}
                right = {h: through(field, k_f, (h[0] + g[0], hg)) for h, hg in h_g.items()}
                for h in sorted(left.keys() | right.keys()):
                    lhs, rhs = left.get(h, {}), right.get(h, {})
                    if lhs != rhs:
                        dim = cat.hom[(x, w)].dim(f[0] + g[0] + h[0])
                        return {
                            "objects": [x, y, z, w],
                            "basis": [list(f), list(g), list(h)],
                            "h_after_gf": _formatted(field, lhs, dim),
                            "hg_after_f": _formatted(field, rhs, dim),
                        }
    return None


# ---------------------------------------------------------------------------
# other oracles


def dense_blocks(gmap):
    """{i: block} of the nonzero blocks of a graded map, each a dense
    tuple of row tuples."""
    return {i: gmap.block(i) for i in gmap.support()}


def nat_to_flat(F, G, n, keys, nat):
    """The entries of a degree-n transformation F -> G at the (object, i, r,
    c) keys, as one dense tuple."""
    return tuple(nat.components[obj].entry(i, r, c) for obj, i, r, c in keys)


def nat_from_flat(F, G, n, keys, vec):
    """The degree-n transformation F -> G with entry vec[k] at keys[k]."""
    entries = {obj: [] for obj in F.base.objects}
    for (obj, i, r, c), value in zip(keys, vec):
        entries[obj].append((i, r, c, value))
    components = {
        obj: GradedMap.from_entries(
            F.on_objects[obj].carrier, G.on_objects[obj].carrier, n, entries[obj]
        )
        for obj in F.base.objects
    }
    return DgNatTransformation(F, G, n, components)


def dense_coordinates(field, vectors, target):
    """Coordinates of the flat target in the flat basis vectors, or None:
    each coordinate is the target's entry at its vector's free column,
    the vector's last nonzero entry, and they are returned only if they
    rebuild the target exactly."""
    coords = []
    rebuilt = [field.zero()] * len(target)
    for vec in vectors:
        fc = max(j for j, x in enumerate(vec) if not field.is_zero(x))
        c = target[fc]
        coords.append(c)
        if not field.is_zero(c):
            for j, x in enumerate(vec):
                if not field.is_zero(x):
                    rebuilt[j] = field.add(rebuilt[j], field.mul(c, x))
    if any(not field.is_zero(field.sub(x, y)) for x, y in zip(rebuilt, target)):
        return None
    return tuple(coords)


def raw_dot(obj, u, t, j, i, k, c):
    """[f_t(x)]_u(m) in B(u)^{j+k}, for m the i-th basis element of
    M(u, t)^j and x the c-th of A(t)^k: f_t(x) is decoded in G(B)(t)^k
    and its component at u applied to m."""
    field = obj.field
    x = linalg.unit_vector(field, obj.A.on_objects[t].carrier.dim(k), c)
    nat = obj.gB.decode(t, k, obj.f[t].apply(k, x))
    m = linalg.unit_vector(field, obj.bimodule.value(u, t).carrier.dim(j), i)
    return nat.components[u].apply(j, m)


def dot_by_vectors(obj, u, t):
    """obj.dot(u, t) by the per-vector rule: the (j, i) map sends the c-th
    basis element x of A(t)^k to m . x = (-1)^{jk} raw_dot(obj, u, t, j,
    i, k, c), in the basis order of M(u, t)."""
    field = obj.field
    src, tgt = obj.A.on_objects[t].carrier, obj.B.on_objects[u].carrier
    m_carrier = obj.bimodule.value(u, t).carrier

    def dot_map(j, i):
        def image(k, c):
            sign = field.sign(j * k)
            return tuple(field.mul(sign, v) for v in raw_dot(obj, u, t, j, i, k, c))

        return map_from_action(src, tgt, j, image)

    return {
        (j, i): dot_map(j, i)
        for j in m_carrier.degrees()
        for i in range(m_carrier.dim(j))
    }


def extract_by_columns(lam, module):
    """{t: f_t} of extract_comma_from_module(lam, module) by the per-column
    rule: for the c-th basis element x of C1(t)^k, [f_t(x)]_u(m) =
    (-1)^{|x||m|} C(mbar)(x), with mbar: (t, 0) -> (0, u) the Lambda
    element of each basis element m of M(u, t)^j, and f_t(x) encoded in
    G(C2)(t)^k."""
    bim, field, pres = lam.bimodule, lam.field, lam.presentation
    c1, c2 = restrict_module(lam, module)
    g_c2 = g_on_objects(bim, c2)

    def corner_image(t, u, j, i, k, x):
        p, q = lam.object_name(t, lam.zero_marker), lam.object_name(lam.zero_marker, u)
        m = linalg.unit_vector(field, bim.value(u, t).carrier.dim(j), i)
        mbar = pres.element(p, q, j, lam.sums[(p, q)].inject(SLOT_M, j, m))
        return module.map_of(mbar).apply(k, x)

    def column(t, k, c):
        x = linalg.unit_vector(field, c1.on_objects[t].carrier.dim(k), c)
        components = {}
        for u in bim.left_base.objects:
            m_carrier = bim.value(u, t).carrier
            entries = [
                (j, r, i, field.mul(field.sign(k * j), v))
                for j in m_carrier.degrees()
                for i in range(m_carrier.dim(j))
                for r, v in enumerate(corner_image(t, u, j, i, k, x))
            ]
            components[u] = GradedMap.from_entries(
                m_carrier, c2.on_objects[u].carrier, k, entries
            )
        nat = DgNatTransformation(bim.slice_t(t), c2, k, components)
        return g_c2.encode_or_raise(t, k, nat, "corner action")

    return {
        t: map_from_action(
            c1.on_objects[t].carrier,
            g_c2.functor.on_objects[t].carrier,
            0,
            lambda k, c, _t=t: column(_t, k, c),
        )
        for t in bim.right_base.objects
    }


def tensor_differential_oracle(tcx, i, left_vec, j, right_vec):
    """Right-hand side of the tensor Leibniz rule, computed independently.

    Returns the coordinates of d(x (x) y) = d(x) (x) y + (-1)^i x (x) d(y)
    at degree i + j + 1 without touching the assembled differential matrix.
    """
    field = tcx.left.field
    dx = tcx.left.d.apply(i, left_vec)
    dy = tcx.right.d.apply(j, right_vec)
    first = tcx.encode_pure(i + 1, dx, j, right_vec)
    second = tcx.encode_pure(i, left_vec, j + 1, dy)
    sgn = field.sign(i)
    return tuple(
        field.add(u, field.mul(sgn, v)) for u, v in zip(first, second)
    )


def whole_map_chain_map(fun, x, y):
    """The chain-map test on hom(x, y) as one comparison of graded maps
    into the Hom complex of the values: action.d == d.action."""
    hc = HomComplex(fun.on_objects[x], fun.on_objects[y])
    hom = fun.base.hom[(x, y)]
    images = fun.images[(x, y)]
    action = action_from_basis_images(hom.carrier, hc, lambda m, k: images[(m, k)])
    return action.compose(hom.d) == hc.module.d.compose(action)


# ---------------------------------------------------------------------------
# mutators


def changed(field, value, step):
    """value moved by step: an integer is added, "x2" doubles and "zero"
    sets it to zero."""
    if step == "zero":
        return field.zero()
    if step == "x2":
        return field.mul(field.from_int(2), value)
    return field.add(value, field.from_int(step))


def entry_spots(maps):
    """Every entry position (degree, row, column) of a graded map, in
    order; for a dict of maps, or of such dicts, each prefixed by its keys
    in sorted order."""
    if isinstance(maps, dict):
        for key, inner in sorted(maps.items()):
            for spot in entry_spots(inner):
                yield key, *spot
        return
    for i in maps.source.degrees():
        for row in range(maps.target.dim(i + maps.degree)):
            for col in range(maps.source.dim(i)):
                yield i, row, col


def with_entry(maps, spot, step=1):
    """maps, a graded map or a nested dict of them as for entry_spots,
    with the entry at spot changed by step."""
    if isinstance(maps, dict):
        key, *rest = spot
        return {**maps, key: with_entry(maps[key], rest, step)}
    i, row, col = spot
    block = [list(r) for r in maps.block(i)]
    block[row][col] = changed(maps.field, block[row][col], step)
    return GradedMap(maps.source, maps.target, maps.degree, {**dense_blocks(maps), i: block})


def with_image_entry(fun, spot, step=1):
    """fun with one entry of one basis image changed: spot is (object
    pair, basis morphism, degree, row, column)."""
    images = with_entry(fun.images, spot, step)
    return DgFunctor(fun.base, fun.on_objects, images, name=fun.name)


def draw_image_spot(fun, key, rng):
    """A spot for with_image_entry on the object pair key, drawn with rng
    among the basis images and degrees whose block is not empty, or
    None."""
    x, y = key
    source, target = fun.on_objects[x].carrier, fun.on_objects[y].carrier
    spots = [
        (basis, i)
        for basis in sorted(fun.images[key])
        for i in source.degrees()
        if target.dim(i + basis[0])
    ]
    if not spots:
        return None
    (m, k), i = rng.choice(spots)
    return key, (m, k), i, rng.randrange(target.dim(i + m)), rng.randrange(source.dim(i))


def bimodule_with_entry(bim, side, spot, step=1):
    """bim with one entry changed: of a left ("left") or right ("right")
    basis image, spot as for with_image_entry, or of a value's
    differential ("d"), spot (object pair, degree, row, column)."""
    values, left, right = bim.values, bim.left_images, bim.right_images
    if side == "d":
        key, *entry = spot
        value = values[key]
        d = with_entry(value.d, entry, step)
        values = {**values, key: DgModule(value.carrier, d, check=False)}
    elif side == "left":
        left = with_entry(left, spot, step)
    else:
        right = with_entry(right, spot, step)
    return Bimodule(bim.left_base, bim.right_base, values, left, right, name=bim.name)


def table_spots(cat, terms=False, keys=None):
    """(triple, f, g, row) of every coordinate of every composite g.f, or
    with terms of every table term, over keys (default: every object
    triple) in order."""
    for key in itertools.product(cat.objects, repeat=3) if keys is None else keys:
        x, y, z = key
        if terms:
            for f, per_g in cat.products(*key).items():
                for g, composite_terms in per_g.items():
                    for r, _ in composite_terms:
                        yield key, f, g, r
            continue
        for f in cat.basis_elements(x, y):
            for g in cat.basis_elements(y, z):
                for r in range(cat.hom[(x, z)].dim(f[0] + g[0])):
                    yield key, f, g, r


def with_table_coordinate(cat, spot, step=1):
    """A presentation like cat with the coordinate at spot = (triple, f,
    g, row) of the composite g.f changed by step; that triple's table is
    rebuilt in sorted order with zero coefficients dropped."""
    key, f, g, r = spot
    field = cat.field
    entries = {
        (f2, g2, s): c
        for f2, per_g in cat.products(*key).items()
        for g2, terms in per_g.items()
        for s, c in terms
    }
    entries[(f, g, r)] = changed(field, entries.get((f, g, r), field.zero()), step)
    table = {}
    for (f2, g2, s), c in sorted(entries.items()):
        if not field.is_zero(c):
            per_g = table.setdefault(f2, {})
            per_g[g2] = per_g.get(g2, ()) + ((s, c),)
    return presentation_with(cat, tables={key: table})


def presentation_with(cat, tables=None, hom=None, ids=None):
    """A new presentation of cat with the product tables of some triples,
    the hom modules of some pairs and the identities of some objects
    replaced."""
    return DgCategoryPresentation(
        cat.field,
        cat.objects,
        {**cat.hom, **(hom or {})},
        {**product_tables(cat), **(tables or {})},
        {**cat.ids, **(ids or {})},
        name=cat.name,
    )
