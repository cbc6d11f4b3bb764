"""Dg-bimodules as two one-sided action families, and the functor G.

A bimodule over (U, T) assigns a dg K-module to each (U-object,
T-object) pair, a left action by U-morphisms and a right action by
T-morphisms (contravariant).  Each action is stored as the graded map
every basis morphism acts by, as in a DgFunctor, and a general morphism
acts by their linear combination.  The two families must commute up to
the Koszul interchange sign; this is exactly the data equivalent to a
dg-functor out of U (x) T^op.  validate_bimodule decides the interchange
(-1)^{|alpha||beta|} R.L = L.R, with L = M(alpha (x) 1) and
R = M(1 (x) beta^op), per basis pair (alpha, beta): _interchange_sides
gives both routes as terms read from left_images and right_images,
_first_failure finds the first pair whose sides differ, each one flat
entry difference (graded.first_nonzero_sum), and has _pair_witness
build the two sides of that pair as graded maps, as its witness.  When
every slice passes functoriality, L and R are functors, so the
interchange passes from (alpha, beta) and (psi, beta) to
(psi.alpha, beta), and likewise in beta: the pairs of a generator of U
and a generator of T decide it, and every pair is scanned only when a
slice fails functoriality or a generator pair fails.  The
paper's bullets m . t and u . m are not built here: Lambda's product
tables read them off the two families of images (lambda_cat).

That functor's Leibniz rule needs no scan of its own once both one-sided
actions are chain maps: with L = M(alpha (x) 1) and R = M(1 (x) beta^op),
[d, L.R] = [d, L].R + (-1)^{|alpha|} L.[d, R], and the chain-map checks
of the slices give [d, L] = M(d alpha (x) 1) and [d, R] = M(1 (x) d beta^op)
on every basis morphism.  validate_bimodule reads the two-sided Leibniz
verdict off them and scans the basis pairs for a witness only when a
slice fails its chain-map check, by the same scan and witness builder
over _leibniz_sides, which read d alpha and d beta from the columns of
the hom differentials.

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
from .graded import GradedModule, combination, first_nonzero_sum, map_from_action
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

    slices_chain_maps = slices_functorial = True
    slices = [(f"t_slice[{t}]", bim.slice_t, t) for t in T.objects] + [
        (f"u_slice[{u}]", bim.slice_u, u) for u in U.objects
    ]
    for name, slice_of, obj in slices:
        sub = validate_dg_functor(slice_of(obj))
        report.add(
            name, sub.passed, None if sub.passed else sub.first_failure().to_json()
        )
        slices_chain_maps = slices_chain_maps and sub.check("chain_map").passed
        slices_functorial = slices_functorial and sub.check("functoriality").passed

    names, sides = ("signed_t_after_u", "u_after_t"), _interchange_sides(bim)
    generators = None
    if slices_functorial:
        generators = U.spanning().generators, T.spanning().generators
    witness = _first_failure(bim, sides, 0, names, generators)
    if witness is not None and generators is not None:
        witness = _first_failure(bim, sides, 0, names)
    report.add("interchange_sign", witness is None, witness)

    witness = None
    if not slices_chain_maps:
        witness = _first_failure(bim, _leibniz_sides(bim), 1, ("lhs", "rhs"))
    report.add("two_sided_leibniz", witness is None, witness)
    return report


def _interchange_sides(bim):
    """sides(u, u2, t, t2, alpha, beta): (-1)^{|alpha||beta|}
    M(1 (x) beta^op).M(alpha (x) 1) and M(alpha (x) 1).M(1 (x) beta^op) as
    terms, for the basis pair alpha of hom_U(u, u2), beta of hom_T(t, t2)."""
    one, sign = bim.field.one(), bim.field.sign
    lefts, rights = bim.left_images, bim.right_images

    def sides(u, u2, t, t2, alpha, beta):
        signed = sign(alpha[0] * beta[0])
        lhs = [(signed, rights[(t, t2, u2)][beta], lefts[(u, u2, t2)][alpha])]
        return lhs, [(one, lefts[(u, u2, t)][alpha], rights[(t, t2, u)][beta])]

    return sides


def _leibniz_sides(bim):
    """sides(u, u2, t, t2, alpha, beta): M(d alpha (x) beta) +
    (-1)^{|alpha|} M(alpha (x) d beta) and d.M(alpha (x) beta) -
    (-1)^{|alpha|+|beta|} M(alpha (x) beta).d as terms, for the basis pair
    alpha of hom_U(u, u2), beta of hom_T(t, t2), with
    M(alpha (x) beta) = M(alpha (x) 1).M(1 (x) beta^op) and d alpha, d beta
    read from the columns of the hom differentials."""
    field = bim.field
    one, neg, mul, sign = field.one(), field.neg, field.mul, field.sign
    d_u = {key: hom.d.columns() for key, hom in bim.left_base.hom.items()}
    d_t = {key: hom.d.columns() for key, hom in bim.right_base.hom.items()}

    def sides(u, u2, t, t2, alpha, beta):
        lefts, rights = bim.left_images[(u, u2, t)], bim.right_images[(t, t2, u)]
        left, right = lefts[alpha], rights[beta]
        lhs = [(c, lefts[(alpha[0] + 1, r)], right) for r, c in d_u[(u, u2)].get(alpha, ())]
        lhs += [
            (mul(sign(alpha[0]), c), left, rights[(beta[0] + 1, r)])
            for r, c in d_t[(t, t2)].get(beta, ())
        ]
        action, sgn = left.compose(right), neg(sign(alpha[0] + beta[0]))
        d_source, d_target = bim.values[(u, t2)].d, bim.values[(u2, t)].d
        return lhs, [(one, d_target, action), (sgn, action, d_source)]

    return sides


def _first_failure(bim, sides, shift, names, generators=None):
    """The witness of the first (u, u2, t, t2, alpha, beta), over the object
    quadruples in order and then the basis pairs, whose two sides differ,
    or None; each pair is one flat difference (graded.first_nonzero_sum).
    Given generators = (U's, T's), alpha and beta run over those only."""
    U, T = bim.left_base, bim.right_base

    def bases(u, u2, t, t2):
        if generators is None:
            return bim.left_images[(u, u2, t)], bim.right_images[(t, t2, u)]
        return generators[0][(u, u2)], generators[1][(t, t2)]

    keys = (
        (u, u2, t, t2, alpha, beta)
        for u, u2, t, t2 in itertools.product(U.objects, U.objects, T.objects, T.objects)
        for alpha, beta in itertools.product(*bases(u, u2, t, t2))
    )
    first = first_nonzero_sum(bim.field, ((key, *sides(*key)) for key in keys))
    return None if first is None else _pair_witness(bim, sides, first, shift, names)


def _pair_witness(bim, sides, key, shift, names):
    """Both sides at key = (u, u2, t, t2, alpha, beta), built from their
    terms as maps M(u, t2) -> M(u2, t) of degree |alpha| + |beta| + shift,
    under the two names."""
    u, u2, t, t2, alpha, beta = key
    source, target = bim.values[(u, t2)].carrier, bim.values[(u2, t)].carrier
    degree = alpha[0] + beta[0] + shift
    lhs, rhs = (
        fmt_graded_map(combination(source, target, degree, side)) for side in sides(*key)
    )
    return {"u": [u, u2, *alpha], "t": [t, t2, *beta], names[0]: lhs, names[1]: rhs}


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
