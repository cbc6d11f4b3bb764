"""The triangular matrix dg-category built from (T, U, M).

Objects are pairs of a T-object and a U-object, extended by a formal
zero object on each side so that the one-sided pairs the restriction
functors evaluate at are honest objects.  The hom space of a pair of
objects is the direct sum (t-block, m-block, u-block) of hom_T(t, t'),
M(u', t) and hom_U(u, u') with the blockwise differential; composition
is lower-triangular 2x2 matrix multiplication driven by the two bullet
actions of the bimodule, so the product tables are read off T's and U's
tables and the action images' columns, shifted by block offsets.

The bullets' Leibniz rules d(m . t) = d(m) . t + (-1)^{|m|} m . d(t) and
d(u . m) = d(u) . m + (-1)^{|u|} u . d(m) are the composition_chain_map
axiom of Lambda on the basis pairs (m, t) and (u, m), so
validate_dg_category decides them with the rest of Lambda's axioms.
"""

from __future__ import annotations

from itertools import product

from . import linalg
from .category import (
    DgCategoryPresentation,
    ZERO_OBJECT,
    validate_dg_category,
    with_zero_object,
)
from .complexes import direct_sum, zero_dg_module
from .errors import StructureError, ValidationFailure
from .bimodule import validate_bimodule
from .functors import functor_from_basis_images

SLOT_T, SLOT_M, SLOT_U = 0, 1, 2


class LambdaCategory:
    """The presentation plus block bookkeeping for the three hom slots."""

    def __init__(self, t_cat, u_cat, bimodule, presentation, pairs, sums):
        self.t_cat = t_cat
        self.u_cat = u_cat
        self.bimodule = bimodule
        self.presentation = presentation
        # pairs[p]: the (T-object, U-object) pair that object p of Lambda is
        self.pairs = pairs
        # sums[(p, q)]: hom(p, q) as the DirectSum (t-block, m-block, u-block)
        self.sums = sums
        # slots[(p, q)][degree][index]: (slot, local index) of a basis element
        self.slots = {
            key: {
                deg: tuple(
                    (slot, local)
                    for slot in (SLOT_T, SLOT_M, SLOT_U)
                    for local in range(ds.parts[slot].dim(deg))
                )
                for deg in ds.module.degrees()
            }
            for key, ds in sums.items()
        }
        self.zero_marker = ZERO_OBJECT

    @property
    def field(self):
        return self.presentation.field

    def object_name(self, t_obj, u_obj):
        return f"{t_obj}|{u_obj}"

    def hom_element(self, p, q, slot, elem):
        """The morphism p -> q whose slot block is elem (a homogeneous
        element of that block) and whose other blocks are zero."""
        coords = self.sums[(p, q)].inject(slot, elem.degree, elem.coords)
        return self.presentation.element(p, q, elem.degree, coords)

    def lambda_t_inclusion(self, t_obj, u_obj):
        """[[1_t, 0], [0, 0]]: (t, 0) -> (t, u), degree 0."""
        p = self.object_name(t_obj, self.zero_marker)
        q = self.object_name(t_obj, u_obj)
        return self.hom_element(p, q, SLOT_T, self.t_cat.identity(t_obj))

    def lambda_u_inclusion(self, t_obj, u_obj):
        """[[0, 0], [0, 1_u]]: (0, u) -> (t, u), degree 0."""
        p = self.object_name(self.zero_marker, u_obj)
        q = self.object_name(t_obj, u_obj)
        return self.hom_element(p, q, SLOT_U, self.u_cat.identity(u_obj))


def refuse_invalid_inputs(t_cat, u_cat, bimodule):
    """Refuse inputs Lambda is not defined for: StructureError for a
    bimodule over other bases or an object name that clashes with the pair
    encoding, then ValidationFailure with the report of the first invalid
    one of T, U and M."""
    _refuse_unpairable(t_cat, u_cat, bimodule)
    for cat in (t_cat, u_cat):
        rep = validate_dg_category(cat)
        if not rep.passed:
            raise ValidationFailure(f"input dg-category {cat.name} is invalid", rep)
    rep = validate_bimodule(bimodule)
    if not rep.passed:
        raise ValidationFailure("input bimodule is invalid", rep)


def _refuse_unpairable(t_cat, u_cat, bimodule):
    if bimodule.left_base is not u_cat or bimodule.right_base is not t_cat:
        if (
            bimodule.left_base.objects != u_cat.objects
            or bimodule.right_base.objects != t_cat.objects
        ):
            raise StructureError("bimodule bases do not match the given categories")
    for obj in t_cat.objects + u_cat.objects:
        if "|" in obj or obj == ZERO_OBJECT:
            raise StructureError(f"object name {obj!r} clashes with pair encoding")


def validate_lambda(presentation):
    """The report of Lambda's own validation; a failure is an internal
    inconsistency of the construction, raised as ValidationFailure."""
    rep = validate_dg_category(presentation)
    if not rep.passed:
        raise ValidationFailure(
            "triangular matrix category failed its own validation "
            "(internal inconsistency)",
            rep,
        )
    return rep


def build_lambda(t_cat, u_cat, bimodule):
    """Construct the triangular matrix category.

    Only inputs that cannot be paired are refused here (StructureError).
    A caller that needs valid inputs and a valid Lambda asks
    refuse_invalid_inputs before and validate_lambda after, as the command
    line does around the one Lambda its workspace builds
    (Workspace.lambda_for).
    """
    _refuse_unpairable(t_cat, u_cat, bimodule)

    field = t_cat.field
    t_ext = with_zero_object(t_cat)
    u_ext = with_zero_object(u_cat)
    zero_value = zero_dg_module(field)

    def value_ext(u_obj, t_obj):
        if u_obj == ZERO_OBJECT or t_obj == ZERO_OBJECT:
            return zero_value
        return bimodule.value(u_obj, t_obj)

    pair_of = {f"{t}|{u}": (t, u) for t in t_ext.objects for u in u_ext.objects}

    hom, sums = {}, {}
    for p, (t1, u1) in pair_of.items():
        for q, (t2, u2) in pair_of.items():
            parts = [t_ext.hom[(t1, t2)], value_ext(u2, t1), u_ext.hom[(u1, u2)]]
            sums[(p, q)], hom[(p, q)] = direct_sum(parts)

    ids = {}
    for p, (t, u) in pair_of.items():
        ds = sums[(p, p)]
        t_id = ds.inject(SLOT_T, 0, t_ext.ids[t])
        ids[p] = linalg.vec_add(field, t_id, ds.inject(SLOT_U, 0, u_ext.ids[u]))
    tables = _lambda_products(t_ext, u_ext, bimodule, pair_of, sums)
    name = f"[[{t_cat.name},0],[{bimodule.name},{u_cat.name}]]"
    presentation = DgCategoryPresentation(field, pair_of, hom, tables, ids, name=name)
    return LambdaCategory(t_cat, u_cat, bimodule, presentation, pair_of, sums)


def _lambda_products(t_ext, u_ext, bimodule, pair_of, sums):
    """Lambda's tables: (t2, m2, u2).(t1, m1, u1) = (t2.t1, m2.t1 + u2.m1,
    u2.u1), from T's and U's tables and the action images' columns with
    each index moved by its block's offset (the t-block's is 0)."""
    field = t_ext.field
    right, left = (
        {key: {a: im.columns() for a, im in per.items()} for key, per in images.items()}
        for images in (bimodule.right_images, bimodule.left_images)
    )
    tables = {}
    for (p1, (t1, u1)), (p2, (t2, u2)), (p3, (t3, u3)) in product(
        pair_of.items(), repeat=3
    ):
        off12, off23, off13 = (sums[key].offset for key in ((p1, p2), (p2, p3), (p1, p3)))
        table = {f: dict(per_g) for f, per_g in t_ext.products(t1, t2, t3).items()}
        for (fd, fi), per_g in u_ext.products(u1, u2, u3).items():
            per_f = table.setdefault((fd, off12(SLOT_U, fd) + fi), {})
            for (gd, gi), terms in per_g.items():
                shift = off13(SLOT_U, fd + gd)
                per_f[(gd, off23(SLOT_U, gd) + gi)] = tuple((r + shift, c) for r, c in terms)
        # m2.t1 = (-1)^{|m2||t1|} M(1 (x) t1^op)(m2): a column of t1's image
        for (fd, fi), columns in right.get((t1, t2, u3), {}).items():
            for (gd, gi), column in columns.items():
                shift, sgn = off13(SLOT_M, fd + gd), field.sign(gd * fd)
                table.setdefault((fd, fi), {})[(gd, off23(SLOT_M, gd) + gi)] = tuple(
                    (r + shift, field.mul(sgn, c)) for r, c in column
                )
        # u2.m1 = M(u2 (x) 1)(m1): a column of u2's image
        for (gd, gi), columns in left.get((u2, u3, t1), {}).items():
            g = (gd, off23(SLOT_U, gd) + gi)
            for (fd, fi), column in columns.items():
                shift, f = off13(SLOT_M, fd + gd), (fd, off12(SLOT_M, fd) + fi)
                table.setdefault(f, {})[g] = tuple((r + shift, c) for r, c in column)
        tables[(p1, p2, p3)] = table
    return tables


def restrict_module(lam, module):
    """(C1, C2) = restrictions of a Lambda-module along the two inclusions."""
    marker = lam.zero_marker

    def restrict(base, make_pair, slot, label):
        def image(x, y, m, k):
            p, q = make_pair(x), make_pair(y)
            return module.map_of_basis(p, q, m, lam.sums[(p, q)].offset(slot, m) + k)

        return functor_from_basis_images(
            base,
            {obj: module.on_objects[make_pair(obj)] for obj in base.objects},
            image,
            name=f"{module.name}.{label}",
        )

    c1 = restrict(lam.t_cat, lambda t: lam.object_name(t, marker), SLOT_T, "1")
    c2 = restrict(lam.u_cat, lambda u: lam.object_name(marker, u), SLOT_U, "2")
    return c1, c2
