"""The theorem fixtures shared by the acceptance suite and the golden digests.

Three shipped workspaces and eight seeded random instances over Q and
F_5; built once per session because several criteria and the pinned
report digests read the same instances.  path_category, zero_functor and
identity_nat, which only tests use, live here too, and so does the dense
per-pair composition the tests use as an oracle for the product tables:
compose, compose_basis_coords and compose_from_products, and the dense
blocks of a graded map that tests rebuild with one entry changed,
dense_blocks.  The flat layout of a transformation, one entry per
nat_unknowns key, is a test oracle too: nat_to_flat and nat_from_flat.
So are the two translations between comma objects and Lambda-modules
made one basis vector at a time, which the package builds from entries:
raw_dot and dot_by_vectors for CommaObject.dot, extract_by_columns for
comma.extract_comma_from_module.
"""

import itertools

import pytest

from dgcat import linalg
from dgcat.bimodule import g_on_objects
from dgcat.category import DgCategoryPresentation, HomElement
from dgcat.complexes import dg_module
from dgcat.errors import StructureError
from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import random_theorem_fixture
from dgcat.functors import DgFunctor, DgNatTransformation
from dgcat.graded import GradedMap, identity_map, map_from_action
from dgcat.lambda_cat import SLOT_M, build_lambda, restrict_module
from dgcat.shipped import NAMES, shipped_workspace

QQ = Rationals()
F5 = PrimeField(5)


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


def dense_blocks(gmap):
    """{i: block} of the nonzero blocks of a graded map, each a dense
    tuple of row tuples."""
    return {i: gmap.block(i) for i in gmap.support()}


def compose_basis_coords(cat, x, y, z, gdeg, gidx, fdeg, fidx):
    """cat.compose_basis as a dense coordinate vector in hom(x,z)^(gdeg+fdeg)."""
    return linalg.dense_vector(
        cat.field,
        cat.compose_basis(x, y, z, gdeg, gidx, fdeg, fidx),
        cat.hom[(x, z)].dim(gdeg + fdeg),
    )


def compose_from_products(cat, product):
    """Install on cat the product tables given by product; returns cat.

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
    cat.set_products(tables)
    return cat


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
            raw = raw_dot(obj, u, t, j, i, k, c)
            return linalg.vec_scale(field, field.sign(j * k), raw)

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
