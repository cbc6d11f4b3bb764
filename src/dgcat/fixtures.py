"""Standard constructions and the seeded random fixture generator.

Random dg-categories are built as endomorphism categories of randomly
chosen dg K-modules: homs are Hom complexes, whose elementary maps
compose by one rule (_elementary_composites), so every axiom holds by
construction while differentials and signs stay genuinely nonzero.  The
same rule writes the Hom actions of hom_bimodule and hom_from_module.
Distributions are documented on the generators; every random object is
reproducible from its seed.
"""

from __future__ import annotations

import itertools
import random

from . import linalg
from .bimodule import Bimodule, g_on_objects
from .category import DgCategoryPresentation, one_object_category
from .comma import CommaObject
from .complexes import DgModule, HomComplex, dg_module
from .functors import (
    DgFunctor,
    dgnat_differential,
    dgnat_space,
    direct_sum_functors,
    images_from_entries,
    linear_combination,
    representable_module,
)
from .graded import GradedMap, GradedModule
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
    complexes, the identities are the sums of the elementary maps
    (i, a, a), and the tables are the composites of _elementary_composites,
    so every axiom is true by construction.
    """
    names = tuple(modules)
    pairs = itertools.product(names, repeat=2)
    hom_cx = {(x, y): HomComplex(modules[x], modules[y]) for x, y in pairs}
    hom = {key: hc.module for key, hc in hom_cx.items()}
    one, zero = field.one(), field.zero()
    ids = {
        x: tuple(one if a == b else zero for _, a, b in hom_cx[(x, x)].basis(0))
        for x in names
    }
    tables = {}
    for x, y, z in itertools.product(names, repeat=3):
        table = tables[(x, y, z)] = {}
        pairs = _elementary_composites(hom_cx[(x, y)], hom_cx[(y, z)], hom_cx[(x, z)])
        for f, g, (_, h) in pairs:
            table.setdefault(f, {})[g] = ((h, one),)
    return DgCategoryPresentation(field, names, hom, tables, ids, name=name), hom_cx


def _elementary_composites(first, second, product):
    """(f, g, g.f) for every pair of elementary maps, f of first = Hom(L, M)
    and g of second = Hom(M, N), whose composite is not zero.

    Each is a (degree, index) of its Hom complex.  The elementary map
    (i, a, b) of degree n followed by (i + n, b, c) is (i, a, c) of
    product = Hom(L, N), with coefficient 1; every other pair composes to 0.
    """
    after = {}
    for m in second.carrier.degrees():
        for k, (j, b, c) in enumerate(second.basis(m)):
            after.setdefault((j, b), []).append((m, k, c))
    for n in first.carrier.degrees():
        for k, (i, a, b) in enumerate(first.basis(n)):
            for m, l, c in after.get((i + n, b), ()):
                yield (n, k), (m, l), (n + m, product.index(n + m)[(i, a, c)])


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
    """Endomorphism category of 1..max_objects random dg modules, with its
    Hom complexes, as endomorphism_category returns them."""
    count = rng.randint(1, max_objects)
    modules = {f"{name.lower()}{i}": random_dg_module(rng, field) for i in range(count)}
    return endomorphism_category(field, modules, name=name)


# ---------------------------------------------------------------------------
# bimodules and modules built from endomorphism categories


def zero_bimodule(u_cat, t_cat, name="0"):
    return Bimodule(u_cat, t_cat, {}, {}, {}, name=name)


def hom_bimodule(u_cat, u_cx, t_cat, t_cx, name="M"):
    """The bimodule M(u, t) = Hom(P_t, Q_u) over endomorphism categories.

    u_cx/t_cx are the Hom complexes of u_cat/t_cat, as
    endomorphism_category returns them (Q_u is u_cx[(u, u)].source);
    the left action postcomposes, the right action precomposes with the
    contravariant Koszul sign (-1)^{|t||m|}.
    """
    value_hom = {
        (u, t): HomComplex(t_cx[(t, t)].source, u_cx[(u, u)].source)
        for u in u_cat.objects
        for t in t_cat.objects
    }
    values = {key: hc.module for key, hc in value_hom.items()}
    left_images = {
        (u, u2, t): _post_composition(g_cx, value_hom[(u, t)], value_hom[(u2, t)])
        for (u, u2), g_cx in u_cx.items()
        for t in t_cat.objects
    }
    right_images = {
        (t, t2, u): _pre_composition(s_cx, value_hom[(u, t2)], value_hom[(u, t)])
        for (t, t2), s_cx in t_cx.items()
        for u in u_cat.objects
    }
    return Bimodule(u_cat, t_cat, values, left_images, right_images, name=name)


def _post_composition(g_cx, src, tgt):
    """{g: Hom(P, Q) -> Hom(P, Q'), j |-> g . j} for the elementary maps g
    of g_cx = Hom(Q, Q') that act by a nonzero map; src and tgt are the two
    Hom complexes."""
    one = src.carrier.field.one()
    pairs = _elementary_composites(src, g_cx, tgt)
    entries = ((g, (i, h, j, one)) for (i, j), g, (_, h) in pairs)
    return images_from_entries(src.carrier, tgt.carrier, entries)


def _pre_composition(s_cx, src, tgt):
    """{s: Hom(P', Q) -> Hom(P, Q), j |-> (-1)^{m|j|} j . s} for the
    elementary maps s = (m, k) of s_cx = Hom(P, P') that act by a nonzero
    map; src and tgt are the two Hom complexes."""
    sign = src.carrier.field.sign
    pairs = _elementary_composites(s_cx, src, tgt)
    entries = ((s, (i, h, j, sign(s[0] * i))) for s, (i, j), (_, h) in pairs)
    return images_from_entries(src.carrier, tgt.carrier, entries)


def hom_from_module(u_cat, u_cx, z_module, name=None):
    """The dg U-module u |-> Hom(Z, Q_u) with post-composition action;
    u_cx are the Hom complexes of u_cat, as in hom_bimodule."""
    values = {u: HomComplex(z_module, u_cx[(u, u)].source) for u in u_cat.objects}
    images = {
        (u, u2): _post_composition(g_cx, values[u], values[u2])
        for (u, u2), g_cx in u_cx.items()
    }
    on_objects = {u: hc.module for u, hc in values.items()}
    return DgFunctor(u_cat, on_objects, images, name=name or "Hom(Z,-)")


# ---------------------------------------------------------------------------
# random comma objects and whole-equivalence fixtures


def closed_structure_maps(A, fun):
    """Basis of closed degree-0 transformations A -> fun (e.g. G(B)): the
    combinations of the dgnat_space basis in the kernel of the rows
    {basis index k: entry of d(nats[k])}, one per entry (object, i, r, c)."""
    field = A.base.field
    nats = dgnat_space(A, fun, 0)
    rows = {}
    for k, nat in enumerate(nats):
        for obj, comp in dgnat_differential(nat).components.items():
            for i, r, c, value in comp.entries():
                rows.setdefault((obj, i, r, c), {})[k] = value
    combos = linalg.nullspace(field, rows.values(), len(nats))
    return [
        linear_combination(combo.values(), [nats[k] for k in combo])
        for combo in combos
    ]


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
    u_cat, u_cx = random_endo_category(rng, field, "U", max_objects=max_objects)
    t_cat, t_cx = random_endo_category(rng, field, "T", max_objects=max_objects)
    if seed % 7 == 0:
        bim = zero_bimodule(u_cat, t_cat)
    else:
        bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx)

    a_module = representable_module(t_cat, rng.choice(t_cat.objects))
    if seed % 3 == 0:
        b_module = hom_from_module(u_cat, u_cx, random_dg_module(rng, field))
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
    u_cat, u_cx = random_endo_category(rng, field, "U", max_objects=max_objects)
    t_cat, t_cx = random_endo_category(rng, field, "T", max_objects=max_objects)
    bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx)
    lam = build_lambda(t_cat, u_cat, bim, validate=False)

    A = representable_module(t_cat, rng.choice(t_cat.objects))
    if seed % 3 == 1:
        B = hom_from_module(u_cat, u_cx, random_dg_module(rng, field))
    else:
        B = representable_module(u_cat, rng.choice(u_cat.objects))
    zero_obj = CommaObject(bim, A, B, {}, name="o_zero")
    rand_obj = random_comma_object(rng, bim, A, B, name="o_rand")
    comma_objects = [zero_obj, rand_obj]
    if max_objects == 1 and seed % 2 == 0:
        # a third object over different modules, so cross Hom spaces mix
        # distinct transformation spaces on both legs
        A2 = hom_from_module(t_cat, t_cx, random_dg_module(rng, field), name="A2")
        B2 = hom_from_module(u_cat, u_cx, random_dg_module(rng, field), name="B2")
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
