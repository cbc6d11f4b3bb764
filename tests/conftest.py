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
"""

import itertools

import pytest

from dgcat import linalg
from dgcat.category import DgCategoryPresentation, HomElement
from dgcat.complexes import dg_module
from dgcat.errors import StructureError
from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import random_theorem_fixture
from dgcat.functors import DgFunctor, DgNatTransformation
from dgcat.graded import GradedMap, identity_map
from dgcat.lambda_cat import build_lambda
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


@pytest.fixture(scope="session")
def theorem_fixtures():
    fixtures = []
    for name in NAMES:
        ws = shipped_workspace(name)
        lam = build_lambda(
            ws.categories["T"], ws.categories["U"], ws.bimodules["M"], validate=False
        )
        fixtures.append(
            {
                "name": name,
                "seed": 0,
                "t_cat": ws.categories["T"],
                "u_cat": ws.categories["U"],
                "bimodule": ws.bimodules["M"],
                "lambda": lam,
                "comma_objects": [
                    ws.comma_objects["o_can"],
                    ws.comma_objects["o_zero"],
                ],
                "lambda_modules": [ws.modules["C"]],
            }
        )
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
