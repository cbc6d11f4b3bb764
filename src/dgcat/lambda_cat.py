"""The triangular matrix dg-category built from (T, U, M).

Objects are pairs of a T-object and a U-object, extended by a formal
zero object on each side so that the one-sided pairs the restriction
functors evaluate at are honest objects.  The hom space of a pair of
objects is the direct sum (t-block, m-block, u-block) of hom_T(t, t'),
M(u', t) and hom_U(u, u') with the blockwise differential; composition
is lower-triangular 2x2 matrix multiplication driven by the two bullet
actions of the bimodule.
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
from .complexes import DgModule, zero_dg_module
from .errors import StructureError, ValidationFailure
from .graded import DirectSum, Homog, homogeneous_basis, map_from_action
from .bimodule import validate_bimodule
from .functors import functor_from_basis_images
from .report import Report, first_mismatch

SLOT_T, SLOT_M, SLOT_U = 0, 1, 2


class LambdaCategory:
    """The presentation plus block bookkeeping for the three hom slots."""

    def __init__(self, t_cat, u_cat, bimodule, presentation, pair_data):
        self.t_cat = t_cat
        self.u_cat = u_cat
        self.bimodule = bimodule
        self.presentation = presentation
        # pair_data[(p, q)] = (DirectSum, t-part module, m-part module, u-part module)
        self.pair_data = pair_data
        self.zero_marker = ZERO_OBJECT

    @property
    def field(self):
        return self.presentation.field

    def object_name(self, t_obj, u_obj):
        return f"{t_obj}|{u_obj}"

    def split_name(self, name):
        t_obj, u_obj = name.split("|", 1)
        return t_obj, u_obj

    def sum_of(self, p, q):
        return self.pair_data[(p, q)][0]

    def embed(self, p, q, slot, degree, vec):
        """Inject slot coordinates into the full hom vector at a degree."""
        return self.pair_data[(p, q)][0].inject(slot, degree, vec)

    def hom_element_from_t(self, p, q, t_elem):
        coords = self.embed(p, q, SLOT_T, t_elem.degree, t_elem.coords)
        return self.presentation.element(p, q, t_elem.degree, coords)

    def hom_element_from_u(self, p, q, u_elem):
        coords = self.embed(p, q, SLOT_U, u_elem.degree, u_elem.coords)
        return self.presentation.element(p, q, u_elem.degree, coords)

    def hom_element_from_m(self, p, q, m):
        coords = self.embed(p, q, SLOT_M, m.degree, m.coords)
        return self.presentation.element(p, q, m.degree, coords)

    def lambda_t_inclusion(self, t_obj, u_obj):
        """[[1_t, 0], [0, 0]]: (t, 0) -> (t, u), degree 0."""
        p = self.object_name(t_obj, self.zero_marker)
        q = self.object_name(t_obj, u_obj)
        return self.hom_element_from_t(p, q, self.t_cat.identity(t_obj))

    def lambda_u_inclusion(self, t_obj, u_obj):
        """[[0, 0], [0, 1_u]]: (0, u) -> (t, u), degree 0."""
        p = self.object_name(self.zero_marker, u_obj)
        q = self.object_name(t_obj, u_obj)
        return self.hom_element_from_u(p, q, self.u_cat.identity(u_obj))

    def m_bar(self, t_obj, u_obj, m):
        """[[0, 0], [m, 0]]: (t, 0) -> (0, u) of degree |m|, m in M(u, t)."""
        p = self.object_name(t_obj, self.zero_marker)
        q = self.object_name(self.zero_marker, u_obj)
        return self.hom_element_from_m(p, q, m)


def build_lambda(t_cat, u_cat, bimodule, validate=True, name=None):
    """Construct the triangular matrix category; re-validates by default.

    Invalid inputs are refused with the upstream validation report.  The
    re-validation of the output can be skipped for large fixtures, but the
    executable check is the point, so it defaults to on.
    """
    if bimodule.left_base is not u_cat or bimodule.right_base is not t_cat:
        if (
            bimodule.left_base.objects != u_cat.objects
            or bimodule.right_base.objects != t_cat.objects
        ):
            raise StructureError("bimodule bases do not match the given categories")
    for obj in t_cat.objects + u_cat.objects:
        if "|" in obj or obj == ZERO_OBJECT:
            raise StructureError(f"object name {obj!r} clashes with pair encoding")
    if validate:
        for cat in (t_cat, u_cat):
            rep = validate_dg_category(cat)
            if not rep.passed:
                raise ValidationFailure(
                    f"input dg-category {cat.name} is invalid", rep
                )
        rep = validate_bimodule(bimodule)
        if not rep.passed:
            raise ValidationFailure("input bimodule is invalid", rep)

    field = t_cat.field
    t_ext = with_zero_object(t_cat)
    u_ext = with_zero_object(u_cat)
    zero_value = zero_dg_module(field)

    def value_ext(u_obj, t_obj):
        if u_obj == ZERO_OBJECT or t_obj == ZERO_OBJECT:
            return zero_value
        return bimodule.value(u_obj, t_obj)

    pairs = [(t, u) for t in t_ext.objects for u in u_ext.objects]
    objects = [f"{t}|{u}" for t, u in pairs]
    name = name or f"[[{t_cat.name},0],[{bimodule.name},{u_cat.name}]]"

    hom = {}
    pair_data = {}
    for t1, u1 in pairs:
        for t2, u2 in pairs:
            p = f"{t1}|{u1}"
            q = f"{t2}|{u2}"
            t_part = t_ext.hom[(t1, t2)]
            m_part = value_ext(u2, t1)
            u_part = u_ext.hom[(u1, u2)]
            ds = DirectSum([t_part.carrier, m_part.carrier, u_part.carrier])
            diff = ds.block_diag([t_part.d, m_part.d, u_part.d], degree=1)
            hom[(p, q)] = DgModule(ds.module, diff, check=False)
            pair_data[(p, q)] = (ds, t_part, m_part, u_part)

    ids = {}
    for t1, u1 in pairs:
        p = f"{t1}|{u1}"
        ds = pair_data[(p, p)][0]
        vec = [field.zero()] * ds.module.dim(0)
        if t1 != ZERO_OBJECT:
            off = ds.offset(SLOT_T, 0)
            for k, x in enumerate(t_ext.ids[t1]):
                vec[off + k] = x
        if u1 != ZERO_OBJECT:
            off = ds.offset(SLOT_U, 0)
            for k, x in enumerate(u_ext.ids[u1]):
                vec[off + k] = x
        ids[p] = tuple(vec)

    presentation = DgCategoryPresentation(field, objects, hom, {}, ids, name=name)

    slot_index = {}
    for key, (ds, *_parts) in pair_data.items():
        table = {}
        for deg in ds.module.degrees():
            entries = []
            for slot in (SLOT_T, SLOT_M, SLOT_U):
                for local in range(ds.parts[slot].dim(deg)):
                    entries.append((slot, local))
            table[deg] = entries
        slot_index[key] = table

    comp = {}
    for t1, u1 in pairs:
        for t2, u2 in pairs:
            for t3, u3 in pairs:
                p1 = f"{t1}|{u1}"
                p2 = f"{t2}|{u2}"
                p3 = f"{t3}|{u3}"
                tensor = presentation.tensor_cx(p1, p2, p3)
                target_ds = pair_data[(p1, p3)][0]

                def column(
                    n,
                    k,
                    _tensor=tensor,
                    _p1=p1,
                    _p2=p2,
                    _p3=p3,
                    _t1=t1,
                    _t2=t2,
                    _t3=t3,
                    _u1=u1,
                    _u2=u2,
                    _u3=u3,
                    _target=target_ds,
                ):
                    gdeg, gidx, fidx = _tensor.basis(n)[k]
                    fdeg = n - gdeg
                    slot_g, lg = slot_index[(_p2, _p3)][gdeg][gidx]
                    slot_f, lf = slot_index[(_p1, _p2)][fdeg][fidx]
                    out_dim = _target.module.dim(n)
                    zero_vec = (field.zero(),) * out_dim
                    if slot_g == SLOT_T and slot_f == SLOT_T:
                        sparse = t_ext.compose_basis(
                            _t1, _t2, _t3, gdeg, lg, fdeg, lf
                        )
                        dense = linalg.dense_vector(
                            field, sparse, t_ext.hom[(_t1, _t3)].dim(n)
                        )
                        return _target.inject(SLOT_T, n, dense)
                    if slot_g == SLOT_U and slot_f == SLOT_U:
                        sparse = u_ext.compose_basis(
                            _u1, _u2, _u3, gdeg, lg, fdeg, lf
                        )
                        dense = linalg.dense_vector(
                            field, sparse, u_ext.hom[(_u1, _u3)].dim(n)
                        )
                        return _target.inject(SLOT_U, n, dense)
                    if slot_g == SLOT_M and slot_f == SLOT_T:
                        # m2 . t1 = (-1)^{|m2||t1|} M(1 (x) t1^op)(m2)
                        rmap = bimodule.right_images[(_t1, _t2, _u3)][(fdeg, lf)]
                        m_dim = bimodule.value(_u3, _t2).dim(gdeg)
                        unit = linalg.unit_vector(field, m_dim, lg)
                        image = rmap.apply(gdeg, unit)
                        sgn = field.sign(gdeg * fdeg)
                        image = tuple(field.mul(sgn, x) for x in image)
                        return _target.inject(SLOT_M, n, image)
                    if slot_g == SLOT_U and slot_f == SLOT_M:
                        # u2 . m1 = M(u2 (x) 1)(m1)
                        lmap = bimodule.left_images[(_u2, _u3, _t1)][(gdeg, lg)]
                        m_dim = bimodule.value(_u2, _t1).dim(fdeg)
                        unit = linalg.unit_vector(field, m_dim, lf)
                        image = lmap.apply(fdeg, unit)
                        return _target.inject(SLOT_M, n, image)
                    return zero_vec

                comp[(p1, p2, p3)] = map_from_action(
                    tensor.module.carrier,
                    presentation.hom[(p1, p3)].carrier,
                    0,
                    column,
                )
    presentation.set_comp(comp)
    lam = LambdaCategory(t_cat, u_cat, bimodule, presentation, pair_data)
    if validate:
        rep = validate_dg_category(presentation)
        if not rep.passed:
            raise ValidationFailure(
                "triangular matrix category failed its own validation "
                "(internal inconsistency)",
                rep,
            )
    return lam


def lambda_leibniz_check(lam):
    """Both bullet Leibniz identities on every homogeneous basis pair.

    (a) d(m2 . t1) = d(m2) . t1 + (-1)^{|m2|} m2 . d(t1)
    (b) d(u2 . m1) = d(u2) . m1 + (-1)^{|u2|} u2 . d(m1)
    """
    bim = lam.bimodule
    field = lam.field
    T, U = lam.t_cat, lam.u_cat
    report = Report("bullet Leibniz")

    def right_sides():
        for t1, t2, u in product(T.objects, T.objects, U.objects):
            module = bim.value(u, t2)
            target = bim.value(u, t1)
            for td, ti in T.basis_elements(t1, t2):
                t_elem = T.basis_element(t1, t2, td, ti)
                dt = T.differential(t_elem)
                for mdeg, mi, m in homogeneous_basis(module.carrier):
                    dm = Homog(mdeg + 1, module.d.apply(mdeg, m.coords))
                    mt = bim.right_bullet(u, m, t_elem)
                    m_dt = bim.right_bullet(u, m, dt).scale(field, field.sign(mdeg))
                    yield (
                        {"t": [t1, t2, td, ti], "m": [u, t2, mdeg, mi]},
                        target.d.apply(mt.degree, mt.coords),
                        bim.right_bullet(u, dm, t_elem).add(field, m_dt).coords,
                    )

    witness = first_mismatch(field, right_sides())
    report.add("right_bullet_leibniz", witness is None, witness)

    def left_sides():
        for u1, u2, t in product(U.objects, U.objects, T.objects):
            module = bim.value(u1, t)
            target = bim.value(u2, t)
            for ud, ui in U.basis_elements(u1, u2):
                u_elem = U.basis_element(u1, u2, ud, ui)
                du = U.differential(u_elem)
                for mdeg, mi, m in homogeneous_basis(module.carrier):
                    dm = Homog(mdeg + 1, module.d.apply(mdeg, m.coords))
                    um = bim.left_bullet(u_elem, t, m)
                    u_dm = bim.left_bullet(u_elem, t, dm).scale(field, field.sign(ud))
                    yield (
                        {"u": [u1, u2, ud, ui], "m": [u1, t, mdeg, mi]},
                        target.d.apply(um.degree, um.coords),
                        bim.left_bullet(du, t, m).add(field, u_dm).coords,
                    )

    witness = first_mismatch(field, left_sides())
    report.add("left_bullet_leibniz", witness is None, witness)
    return report


def restrict_module(lam, module):
    """(C1, C2) = restrictions of a Lambda-module along the two inclusions."""
    marker = lam.zero_marker

    def restrict(base, make_pair, lift, label):
        def image(x, y, m, k):
            p, q = make_pair(x), make_pair(y)
            return module.map_of(lift(p, q, base.basis_element(x, y, m, k)))

        return functor_from_basis_images(
            base,
            {obj: module.on_objects[make_pair(obj)] for obj in base.objects},
            image,
            name=f"{module.name}.{label}",
        )

    c1 = restrict(
        lam.t_cat, lambda t: lam.object_name(t, marker), lam.hom_element_from_t, "1"
    )
    c2 = restrict(
        lam.u_cat, lambda u: lam.object_name(marker, u), lam.hom_element_from_u, "2"
    )
    return c1, c2
