"""Standard constructions and the seeded random fixture generator.

Random dg-categories are built as endomorphism categories of randomly
chosen dg K-modules: homs are Hom complexes and composition is actual
composition of graded maps, so every axiom holds by construction while
differentials and signs stay genuinely nonzero.  Distributions are
documented on the generators; every random object is reproducible from
its seed.
"""

from __future__ import annotations

import random

from . import linalg
from .bimodule import Bimodule, g_on_objects
from .category import (
    DgCategoryPresentation,
    compose_from_products,
    one_object_category,
)
from .comma import CommaObject
from .complexes import DgModule, HomComplex, dg_module
from .functors import (
    dgnat_differential,
    dgnat_space,
    direct_sum_functors,
    functor_from_basis_images,
    linear_combination,
    nat_to_flat,
    nat_unknowns,
    representable_module,
)
from .graded import GradedMap, GradedModule, identity_map, map_from_action
from .lambda_cat import build_lambda

# ---------------------------------------------------------------------------
# deterministic small categories


def trivial_category(field, name="K", obj="*"):
    """The one-object dg-category with endomorphisms K in degree 0."""
    hom = dg_module(field, {0: 1}, {})
    one = ((0, field.one()),)
    table = {(0, 0): {(0, 0): one}}
    return one_object_category(field, hom, table, (field.one(),), name=name, obj=obj)


def exterior_category(field, name="Ext", obj="*"):
    """One object, hom = K.1 + K.x with |x| = 1, x.x = 0, zero differential."""
    hom = dg_module(field, {0: 1, 1: 1}, {})
    one = ((0, field.one()),)
    # 1.1 = 1 and 1.x = x.1 = x; x.x = 0 lands in the zero space hom^2
    unit, x = (0, 0), (1, 0)
    table = {unit: {unit: one, x: one}, x: {unit: one}}
    return one_object_category(field, hom, table, (field.one(),), name=name, obj=obj)


def endomorphism_category(field, modules, name="End"):
    """Full sub-dg-category of dg K-modules on the given named modules.

    modules: ordered dict-like of name -> DgModule.  Homs are Hom
    complexes; composition composes the decoded graded maps, making
    every axiom true by construction.
    """
    names = tuple(modules)
    hom_cx = {(x, y): HomComplex(modules[x], modules[y]) for x in names for y in names}
    hom = {key: hc.module for key, hc in hom_cx.items()}
    ids = {x: hom_cx[(x, x)].encode(identity_map(modules[x].carrier)) for x in names}
    cat = DgCategoryPresentation(field, names, hom, {}, ids, name=name)

    def product(x, y, z, gdeg, gidx, fdeg, fidx):
        gmap = hom_cx[(y, z)].decode_basis(gdeg, gidx)
        fmap = hom_cx[(x, y)].decode_basis(fdeg, fidx)
        return hom_cx[(x, z)].encode(gmap.compose(fmap))

    compose_from_products(cat, product)
    return cat, hom_cx


# ---------------------------------------------------------------------------
# seeded random dg modules

RANDOM_WINDOW = (-2, 2)         # degree support drawn inside this window
RANDOM_MAX_DEGREES = 3          # at most this many consecutive degrees
RANDOM_MAX_DIM = 1              # per-degree dimension (keeps homs <= 3/degree)
RANDOM_ENTRY_RANGE = (-2, 2)    # integer differential entries before reduction


def random_dg_module(rng, field, max_dim=RANDOM_MAX_DIM, max_span=RANDOM_MAX_DEGREES):
    """A random dg module supported on a short window inside [-2, 2].

    Dimensions are uniform in [1, max_dim] per occupied degree; the
    differential is a random integer block pattern with no two
    consecutive nonzero blocks, which forces d . d = 0 blockwise.
    """
    lo_bound, hi_bound = RANDOM_WINDOW
    span = rng.randint(1, max_span)
    lo = rng.randint(lo_bound, hi_bound - span + 1)
    dims = {}
    for deg in range(lo, lo + span):
        if rng.random() < 0.85:
            dims[deg] = rng.randint(1, max_dim)
    if not dims:
        dims[lo] = 1
    carrier = GradedModule(field, dims)
    blocks = {}
    prev_nonzero = False
    for deg in sorted(dims):
        rows = carrier.dim(deg + 1)
        cols = carrier.dim(deg)
        if rows and cols and not prev_nonzero and rng.random() < 0.5:
            block = [
                [field.from_int(rng.randint(*RANDOM_ENTRY_RANGE)) for _ in range(cols)]
                for _ in range(rows)
            ]
            blocks[deg] = block
            prev_nonzero = not linalg.is_zero_matrix(field, block)
        else:
            prev_nonzero = False
    return DgModule(carrier, GradedMap(carrier, carrier, 1, blocks))


def random_endo_category(rng, field, name, max_objects=2):
    """Endomorphism category of 1..max_objects random dg modules."""
    count = rng.randint(1, max_objects)
    modules = {f"{name.lower()}{i}": random_dg_module(rng, field) for i in range(count)}
    cat, hom_cx = endomorphism_category(field, modules, name=name)
    return cat, modules, hom_cx


# ---------------------------------------------------------------------------
# bimodules and modules built from endomorphism categories


def zero_bimodule(u_cat, t_cat, name="0"):
    return Bimodule(u_cat, t_cat, {}, {}, {}, name=name)


def hom_bimodule(u_cat, u_modules, t_cat, t_modules, name="M"):
    """The bimodule M(u, t) = Hom(P_t, Q_u) over endomorphism categories.

    u_cat/t_cat must be endomorphism categories of the named dg modules;
    the left action postcomposes, the right action precomposes with the
    contravariant Koszul sign (-1)^{|t||m|}.
    """
    field = u_cat.field
    value_hom = {
        (u, t): HomComplex(t_modules[t], u_modules[u])
        for u in u_cat.objects
        for t in t_cat.objects
    }
    values = {key: hc.module for key, hc in value_hom.items()}
    u_hom_cx = _hom_complexes(u_cat, u_modules)
    t_hom_cx = _hom_complexes(t_cat, t_modules)

    left_images = {
        (u, u2, t): {
            (m, k): _post_composition(
                g_cx, value_hom[(u, t)], value_hom[(u2, t)], m, k
            )
            for m, k in u_cat.basis_elements(u, u2)
        }
        for (u, u2), g_cx in u_hom_cx.items()
        for t in t_cat.objects
    }
    right_images = {
        (t, t2, u): {
            (m, k): _pre_composition(
                field, s_cx, value_hom[(u, t2)], value_hom[(u, t)], m, k
            )
            for m, k in t_cat.basis_elements(t, t2)
        }
        for (t, t2), s_cx in t_hom_cx.items()
        for u in u_cat.objects
    }
    return Bimodule(u_cat, t_cat, values, left_images, right_images, name=name)


def _hom_complexes(cat, modules):
    return {
        (x, y): HomComplex(modules[x], modules[y])
        for x in cat.objects
        for y in cat.objects
    }


def _post_composition(g_cx, src, tgt, m, k):
    """Hom(P, Q) -> Hom(P, Q'), j |-> g . j for the basis map g = (m, k) of
    g_cx = Hom(Q, Q'); src and tgt are the two Hom complexes."""
    g = g_cx.decode_basis(m, k)

    def column(i, j):
        return tgt.encode(g.compose(src.decode_basis(i, j)))

    return map_from_action(src.carrier, tgt.carrier, m, column)


def _pre_composition(field, s_cx, src, tgt, m, k):
    """Hom(P', Q) -> Hom(P, Q), j |-> (-1)^{m|j|} j . s for the basis map
    s = (m, k) of s_cx = Hom(P, P'); src and tgt are the two Hom complexes."""
    s = s_cx.decode_basis(m, k)

    def column(i, j):
        return tgt.encode(src.decode_basis(i, j).compose(s).scale(field.sign(m * i)))

    return map_from_action(src.carrier, tgt.carrier, m, column)


def hom_from_module(u_cat, u_modules, z_module, name=None):
    """The dg U-module u |-> Hom(Z, Q_u) with post-composition action."""
    values = {u: HomComplex(z_module, u_modules[u]) for u in u_cat.objects}
    u_hom_cx = _hom_complexes(u_cat, u_modules)
    return functor_from_basis_images(
        u_cat,
        {u: values[u].module for u in u_cat.objects},
        lambda u, u2, m, k: _post_composition(
            u_hom_cx[(u, u2)], values[u], values[u2], m, k
        ),
        name=name or "Hom(Z,-)",
    )


# ---------------------------------------------------------------------------
# random comma objects and whole-equivalence fixtures


def closed_structure_maps(A, fun):
    """Basis of closed degree-0 transformations A -> fun (e.g. G(B))."""
    field = A.base.field
    _, _, nats = dgnat_space(A, fun, 0)
    if not nats:
        return []
    keys1 = nat_unknowns(A, fun, 1)
    columns = [
        nat_to_flat(A, fun, 1, keys1, dgnat_differential(nat)) for nat in nats
    ]
    mat = tuple(
        tuple(columns[i][r] for i in range(len(nats))) for r in range(len(keys1))
    )
    combos = linalg.nullspace(field, mat, ncols=len(nats))
    return [linear_combination(combo, nats) for combo in combos]


def random_comma_object(rng, bim, A, B, name="o"):
    """A comma object with a random closed degree-0 structure map."""
    field = bim.field
    closed = closed_structure_maps(A, g_on_objects(bim, B).functor)
    # the golden pins fix these draws: one per closed map, in order
    coeffs = [field.from_int(rng.randint(-2, 2)) for _ in closed]
    chosen = linear_combination(coeffs, closed)
    components = chosen.components if chosen is not None else {}
    return CommaObject(bim, A, B, components, name=name)


def random_axiom_fixture(seed, field):
    """Categories, bimodule and modules for the axiom acceptance sweep.

    Distributions: 1-2 objects per category (3 for every fifth seed),
    module dims <= 1 per degree over windows of <= 3 degrees inside
    [-2, 2]; every hom space then has dimension <= 3 per degree.
    """
    rng = random.Random(seed)
    max_objects = 3 if seed % 5 == 0 else 2
    u_cat, u_modules, _ = random_endo_category(rng, field, "U", max_objects=max_objects)
    t_cat, t_modules, _ = random_endo_category(rng, field, "T", max_objects=max_objects)
    if seed % 7 == 0:
        bim = zero_bimodule(u_cat, t_cat)
    else:
        bim = hom_bimodule(u_cat, u_modules, t_cat, t_modules)

    a_module = representable_module(t_cat, rng.choice(t_cat.objects))
    if seed % 3 == 0:
        b_module = hom_from_module(u_cat, u_modules, random_dg_module(rng, field))
    else:
        b_module = representable_module(u_cat, rng.choice(u_cat.objects))
    return {
        "seed": seed,
        "t_cat": t_cat,
        "u_cat": u_cat,
        "bimodule": bim,
        "modules": [a_module, b_module],
    }


def random_theorem_fixture(seed, field, max_objects=1):
    """A full instance for the equivalence suite: Lambda, comma objects,
    Lambda-modules.  Sizes stay minimal so exact solves remain fast."""
    rng = random.Random(seed)
    u_cat, u_modules, _ = random_endo_category(rng, field, "U", max_objects=max_objects)
    t_cat, t_modules, _ = random_endo_category(rng, field, "T", max_objects=max_objects)
    bim = hom_bimodule(u_cat, u_modules, t_cat, t_modules)
    lam = build_lambda(t_cat, u_cat, bim, validate=False)

    A = representable_module(t_cat, rng.choice(t_cat.objects))
    if seed % 3 == 1:
        B = hom_from_module(u_cat, u_modules, random_dg_module(rng, field))
    else:
        B = representable_module(u_cat, rng.choice(u_cat.objects))
    zero_obj = CommaObject(bim, A, B, {}, name="o_zero")
    rand_obj = random_comma_object(rng, bim, A, B, name="o_rand")
    comma_objects = [zero_obj, rand_obj]
    if max_objects == 1 and seed % 2 == 0:
        # a third object over different modules, so cross Hom spaces mix
        # distinct transformation spaces on both legs
        A2 = hom_from_module(
            t_cat, t_modules, random_dg_module(rng, field), name="A2"
        )
        B2 = hom_from_module(
            u_cat, u_modules, random_dg_module(rng, field), name="B2"
        )
        comma_objects.append(random_comma_object(rng, bim, A2, B2, name="o_mix"))

    origin = rng.choice(lam.presentation.objects)
    lambda_modules = [representable_module(lam.presentation, origin)]
    if seed % 2 == 0:
        others = [o for o in lam.presentation.objects if o != origin]
        second = representable_module(lam.presentation, rng.choice(others))
        total, _ = direct_sum_functors(
            [lambda_modules[0], second], name="C_sum"
        )
        lambda_modules.append(total)
    return {
        "seed": seed,
        "t_cat": t_cat,
        "u_cat": u_cat,
        "bimodule": bim,
        "lambda": lam,
        "comma_objects": comma_objects,
        "lambda_modules": lambda_modules,
    }
