"""Dg-bimodules as two one-sided action families, and the functor G.

A bimodule over (U, T) assigns a dg K-module to each (U-object,
T-object) pair, a left action by U-morphisms and a right action by
T-morphisms (contravariant).  Each action is stored as the graded map
every basis morphism acts by, as in a DgFunctor, and a general morphism
acts by their linear combination.  The two families must commute up to
the Koszul interchange sign; this is exactly the data equivalent to a
dg-functor out of U (x) T^op.  validate_bimodule decides the interchange
(-1)^{|alpha||beta|} R.L = L.R, with L = M(alpha (x) 1) and
R = M(1 (x) beta^op), by one flat entry difference per basis pair
(graded.first_nonzero_sum), and builds both routes as graded maps only
for the first failing pair, as its witness.  The paper's bullets m . t
and u . m are not built here: Lambda's product tables read them off the
two families of images (lambda_cat).

That functor's Leibniz rule needs no scan of its own once both one-sided
actions are chain maps: with L = M(alpha (x) 1) and R = M(1 (x) beta^op),
[d, L.R] = [d, L].R + (-1)^{|alpha|} L.[d, R], and the chain-map checks
of the slices give [d, L] = M(d alpha (x) 1) and [d, R] = M(1 (x) d beta^op)
on every basis morphism.  validate_bimodule reads the two-sided Leibniz
verdict off them and scans the basis pairs for a witness only when a
slice fails its chain-map check.

G sends a dg U-module B to the dg T-module T |-> Hom(M_T, B), with a
morphism t acting by eta |-> (-1)^{|eta||t|} eta . tbar where tbar is
the right action of t between slice functors.  G(B) depends only on M
and B, so g_on_objects builds it once per bimodule and value of B (its
values and basis images) and every caller asks it; nothing else
constructs a GModule.
"""

from __future__ import annotations

import itertools

from . import linalg
from .category import opposite_category
from .complexes import DgModule, zero_dg_module
from .errors import InternalCheckError, StructureError, ValidationFailure
from .graded import GradedModule, first_nonzero_sum, map_from_action
from .functors import (
    Basis,
    DgFunctor,
    DgNatTransformation,
    basis_images,
    compose_nat,
    dgnat_differential,
    dgnat_space,
    dgnat_window,
    functor_from_basis_images,
    image_of,
    linear_combination,
    validate_dg_functor,
)
from .report import Report, fmt_graded_map


class Bimodule:
    """Values plus left/right actions; see the module docstring.

    left_images[(u, u2, t)][(m, k)] is the map M(u, t) -> M(u2, t) of the
    k-th basis morphism of hom_U(u, u2)^m; right_images[(t, t2, u)][(m, k)]
    is the map M(u, t2) -> M(u, t) of the k-th basis morphism of
    hom_T(t, t2)^m.  Missing basis morphisms act by zero.
    """

    def __init__(self, left_base, right_base, values, left_images, right_images, name="M"):
        if left_base.field != right_base.field:
            raise StructureError("bimodule bases over different fields")
        self.left_base = left_base      # U
        self.right_base = right_base    # T
        self.name = name
        field = left_base.field
        self.values = {}
        for u in left_base.objects:
            for t in right_base.objects:
                module = values.get((u, t))
                if module is None:
                    module = zero_dg_module(field)
                self.values[(u, t)] = module
        self.left_images = {
            (u, u2, t): basis_images(
                left_base,
                u,
                u2,
                self.values[(u, t)].carrier,
                self.values[(u2, t)].carrier,
                left_images.get((u, u2, t), {}),
                f"left action at {(u, u2, t)}",
            )
            for u in left_base.objects
            for u2 in left_base.objects
            for t in right_base.objects
        }
        self.right_images = {
            (t, t2, u): basis_images(
                right_base,
                t,
                t2,
                self.values[(u, t2)].carrier,
                self.values[(u, t)].carrier,
                right_images.get((t, t2, u), {}),
                f"right action at {(t, t2, u)}",
            )
            for t in right_base.objects
            for t2 in right_base.objects
            for u in left_base.objects
        }
        self._slice_t = {}
        self._slice_u = {}
        self._g_modules = []  # every G(B) built by g_on_objects, in order

    @property
    def field(self):
        return self.left_base.field

    def value(self, u, t):
        return self.values[(u, t)]

    def left_map(self, u_elem, t):
        """M(u (x) 1_t): M(source(u), t) -> M(target(u), t)."""
        return image_of(
            self.left_images[(u_elem.source, u_elem.target, t)],
            self.values[(u_elem.source, t)].carrier,
            self.values[(u_elem.target, t)].carrier,
            u_elem,
        )

    def right_map(self, t_elem, u):
        """M(1_u (x) t^op): M(u, target(t)) -> M(u, source(t))."""
        return image_of(
            self.right_images[(t_elem.source, t_elem.target, u)],
            self.values[(u, t_elem.target)].carrier,
            self.values[(u, t_elem.source)].carrier,
            t_elem,
        )

    def slice_t(self, t):
        """The dg U-module M_t: U |-> M(U, t)."""
        if t not in self._slice_t:
            on_objects = {u: self.values[(u, t)] for u in self.left_base.objects}
            images = {
                (u, u2): self.left_images[(u, u2, t)]
                for u in self.left_base.objects
                for u2 in self.left_base.objects
            }
            self._slice_t[t] = DgFunctor(
                self.left_base, on_objects, images, name=f"{self.name}_{t}"
            )
        return self._slice_t[t]

    def slice_u(self, u):
        """The dg T^op-module M_u: T |-> M(u, T)."""
        if u not in self._slice_u:
            opp = opposite_category(self.right_base)
            on_objects = {t: self.values[(u, t)] for t in self.right_base.objects}
            # hom_{T^op}(t, t2) = hom_T(t2, t); its basis element s: t2 -> t
            # acts by M(1_u (x) s^op): M(u, t) -> M(u, t2).
            images = {
                (t, t2): self.right_images[(t2, t, u)]
                for t in self.right_base.objects
                for t2 in self.right_base.objects
            }
            self._slice_u[u] = DgFunctor(
                opp, on_objects, images, name=f"{self.name}^{u}"
            )
        return self._slice_u[u]


def validate_bimodule(bim):
    """Slice functors, interchange sign, and the two-sided Leibniz identity.

    With L = M(alpha (x) 1) and R = M(1 (x) beta^op),
    [d, L.R] = [d, L].R + (-1)^{|alpha|} L.[d, R] for any d.  The chain_map
    check of t_slice[t] proves [d, L] = M(d alpha (x) 1) on every basis
    alpha (its images are the left images at t), and that of u_slice[u]
    proves [d, R] = M(1 (x) d beta^op) on every basis beta (its images are
    the right images at u, and T^op has T's hom differentials).  So the
    Leibniz identity holds when every slice's chain_map passes; otherwise
    the basis pairs are scanned and the first failing one is the witness.
    """
    report = Report(f"bimodule {bim.name}")
    U, T = bim.left_base, bim.right_base

    slices_chain_maps = True
    slices = [(f"t_slice[{t}]", bim.slice_t, t) for t in T.objects] + [
        (f"u_slice[{u}]", bim.slice_u, u) for u in U.objects
    ]
    for name, slice_of, obj in slices:
        sub = validate_dg_functor(slice_of(obj))
        report.add(
            name, sub.passed, None if sub.passed else sub.first_failure().to_json()
        )
        slices_chain_maps = slices_chain_maps and sub.check("chain_map").passed

    first = _first_uninterchanged_pair(bim)
    witness = None if first is None else _interchange_witness(bim, *first)
    report.add("interchange_sign", witness is None, witness)

    witness = None
    if not slices_chain_maps:
        for quadruple in itertools.product(U.objects, U.objects, T.objects, T.objects):
            witness = _leibniz_witness(bim, *quadruple)
            if witness:
                break
    report.add("two_sided_leibniz", witness is None, witness)
    return report


def _first_uninterchanged_pair(bim):
    """The first (u, u2, t, t2, alpha, beta), over the object quadruples in
    order and then the basis pairs, with (-1)^{|alpha||beta|}
    M(1 (x) beta^op).M(alpha (x) 1) != M(alpha (x) 1).M(1 (x) beta^op), or
    None; each pair is one flat difference (graded.first_nonzero_sum)."""
    U, T = bim.left_base, bim.right_base
    field = bim.field
    sign, minus_one = field.sign, field.neg(field.one())

    def sums():
        for u, u2, t, t2 in itertools.product(U.objects, U.objects, T.objects, T.objects):
            lefts_t2, lefts_t = bim.left_images[(u, u2, t2)], bim.left_images[(u, u2, t)]
            rights_u2, rights_u = bim.right_images[(t, t2, u2)], bim.right_images[(t, t2, u)]
            for a, b in itertools.product(lefts_t, rights_u):
                terms = (
                    (sign(a[0] * b[0]), rights_u2[b], lefts_t2[a]),
                    (minus_one, lefts_t[a], rights_u[b]),
                )
                yield (u, u2, t, t2, a, b), terms

    return first_nonzero_sum(field, sums())


def _interchange_witness(bim, u, u2, t, t2, alpha, beta):
    """Both routes M(u, t2) -> M(u2, t) of the basis pair alpha of
    hom_U(u, u2), beta of hom_T(t, t2), the first signed by
    (-1)^{|alpha||beta|}."""
    (ud, ui), (td, ti) = alpha, beta
    via_left_first = bim.right_images[(t, t2, u2)][beta].compose(
        bim.left_images[(u, u2, t2)][alpha]
    ).scale(bim.field.sign(ud * td))
    via_right_first = bim.left_images[(u, u2, t)][alpha].compose(
        bim.right_images[(t, t2, u)][beta]
    )
    return {
        "u": [u, u2, ud, ui],
        "t": [t, t2, td, ti],
        "signed_t_after_u": fmt_graded_map(via_left_first),
        "u_after_t": fmt_graded_map(via_right_first),
    }


def _tensor_action(bim, alpha, beta):
    """M(alpha (x) beta^op) := M(alpha (x) 1) . M(1 (x) beta^op).

    alpha: U-morphism u -> u2, beta: T-morphism t -> t2; the composite
    maps M(u, t2) to M(u2, t).
    """
    return bim.left_map(alpha, beta.source).compose(bim.right_map(beta, alpha.source))


def _leibniz_witness(bim, u, u2, t, t2):
    """Check M(da (x) b) + (-1)^|a| M(a (x) db) = d.M(a (x) b) -
    (-1)^{|a|+|b|} M(a (x) b).d on basis pairs."""
    field = bim.field
    U, T = bim.left_base, bim.right_base
    for ud, ui in U.basis_elements(u, u2):
        alpha = U.basis_element(u, u2, ud, ui)
        d_alpha = U.differential(alpha)
        for td, ti in T.basis_elements(t, t2):
            beta = T.basis_element(t, t2, td, ti)
            d_beta = T.differential(beta)
            lhs = _tensor_action(bim, d_alpha, beta).add(
                _tensor_action(bim, alpha, d_beta).scale(field.sign(ud))
            )
            action = _tensor_action(bim, alpha, beta)
            rhs = bim.values[(u2, t)].d.compose(action).sub(
                action.compose(bim.values[(u, t2)].d).scale(field.sign(ud + td))
            )
            if lhs != rhs:
                return {
                    "u": [u, u2, ud, ui],
                    "t": [t, t2, td, ti],
                    "lhs": fmt_graded_map(lhs),
                    "rhs": fmt_graded_map(rhs),
                }
    return None


# ---------------------------------------------------------------------------
# the functor G


class GModule:
    """G(B) over T together with nat_basis, the Basis of each carrier."""

    def __init__(self, bim, B):
        self.bimodule = bim
        self.B = B
        field = bim.field
        T = bim.right_base
        self.nat_basis = {}
        dims_per_object = {}
        for t in T.objects:
            slice_t = bim.slice_t(t)
            window = dgnat_window(slice_t, B)
            dims = {}
            for n in window:
                nats = self.nat_basis[(t, n)] = dgnat_space(slice_t, B, n)
                if nats:
                    dims[n] = len(nats)
            dims_per_object[t] = dims
        on_objects = {}
        for t in T.objects:
            carrier = GradedModule(field, dims_per_object[t])
            diff = map_from_action(
                carrier, carrier, 1, lambda n, k, _t=t: self._d_column(_t, n, k)
            )
            on_objects[t] = DgModule(carrier, diff, check=False)
        self._on_objects = on_objects
        self.functor = functor_from_basis_images(
            T, on_objects, self._action_map, name=f"G({B.name})"
        )

    def _d_column(self, t, n, k):
        """Differential of a basis transformation, in the basis one degree up."""
        nat = self.nat_basis[(t, n)][k]
        return self.encode_or_raise(t, n + 1, dgnat_differential(nat), "differential")

    def decode(self, t, n, vec):
        """The transformation M_t -> B with the given carrier coordinates."""
        out = linear_combination(vec, self.nat_basis.get((t, n), []))
        if out is None:
            out = DgNatTransformation(self.bimodule.slice_t(t), self.B, n, {})
        return out

    def encode(self, t, n, nat):
        """Carrier coordinates of a transformation, or None if outside."""
        basis = self.nat_basis.get((t, n), Basis(self.bimodule.field))
        coords = basis.coordinates(tuple(nat.components.values()))
        if coords is not None:
            return linalg.dense_vector(basis.field, coords.items(), len(basis))

    def encode_or_raise(self, t, n, nat, what):
        """Carrier coordinates of a transformation that lies in G(B)(t)^n by
        construction; InternalCheckError, naming what built it, if not."""
        coords = self.encode(t, n, nat)
        if coords is None:
            raise InternalCheckError(
                f"{what} left the transformations {self.bimodule.name}_{t} -> "
                f"{self.B.name} of degree {n}"
            )
        return coords

    def _action_map(self, t, t2, m, k):
        """G(B)(t basis element): eta |-> (-1)^{|eta||t|} eta . tbar."""
        bim = self.bimodule
        field = bim.field
        src = self._on_objects[t].carrier
        tgt = self._on_objects[t2].carrier
        # tbar: M_{t2} -> M_t has components M(1_u (x) t^op)
        tbar_components = {
            u: bim.right_images[(t, t2, u)][(m, k)] for u in bim.left_base.objects
        }

        def column(n, j):
            eta = self.nat_basis[(t, n)][j]
            composed = {
                u: eta.components[u].compose(tbar_components[u])
                for u in bim.left_base.objects
            }
            candidate = DgNatTransformation(bim.slice_t(t2), self.B, n + m, composed)
            coords = self.encode_or_raise(t2, n + m, candidate, "composite with tbar")
            sgn = field.sign(n * m)
            return tuple(field.mul(sgn, x) for x in coords)

        return map_from_action(src, tgt, m, column)


def g_on_objects(bim, B):
    """G(B): the dg T-module of transformations out of the slices of M.

    Built once per bimodule and B: a B that is, or has the values and
    basis images of, one already given for bim gets the same GModule.

    G(B) is built only from a dg U-module B and a dg-bimodule M.  When the
    construction finds that one of them is not, the report of the first
    invalid one, B then M, is raised as a ValidationFailure and nothing is
    kept; valid inputs pay nothing for this.
    """
    for built in bim._g_modules:
        if built.B is B or (
            built.B.on_objects == B.on_objects and built.B.images == B.images
        ):
            return built
    try:
        built = GModule(bim, B)
    except InternalCheckError:
        refuse_invalid_g_inputs(bim, B)
        raise
    bim._g_modules.append(built)
    return built


def refuse_invalid_g_inputs(bim, B):
    """Raise the report of the first invalid one of B, then M, if any."""
    for report in (validate_dg_functor(B), validate_bimodule(bim)):
        if not report.passed:
            raise ValidationFailure(
                f"{report.title} is invalid, so G({B.name}) is not defined", report
            ) from None


def g_on_morphisms(bim, g_source, g_target, eps):
    """G(eps): postcomposition by eps, a transformation G(B) -> G(B')."""
    T = bim.right_base
    degree = eps.degree
    components = {}
    for t in T.objects:
        src = g_source.functor.on_objects[t].carrier
        tgt = g_target.functor.on_objects[t].carrier

        def column(n, j, _t=t):
            eta = g_source.nat_basis[(_t, n)][j]
            return g_target.encode_or_raise(
                _t, n + degree, compose_nat(eps, eta), "postcomposition"
            )

        components[t] = map_from_action(src, tgt, degree, column)
    return DgNatTransformation(
        g_source.functor, g_target.functor, degree, components
    )
