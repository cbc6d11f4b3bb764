"""The comma category over G and the executable equivalence with
modules over the triangular matrix category.

A comma object is (A, f, B): a dg T-module, a dg U-module, and a closed
degree-0 transformation f: A -> G(B).  G(B) depends only on the bimodule
and B, so a comma object takes it from bimodule.g_on_objects, which
builds it once per value of B: objects over one B, and a restriction
that equals an earlier B, share it.  Its comma morphisms to another
object are pairs (alpha, beta) of transformations of a common degree n
satisfying the strict square f' . alpha = G(beta) . f; these are computed
as one joint linear system.  The functor to Lambda-modules sends (A,f,B)
to the block module (t,u) |-> A(t) + B(u) whose lower-left action is the
dot product m . x = (-1)^{|x||m|} [f_t(x)]_u(m), and a morphism pair to
the blockwise transformation.  The reverse direction restricts along the
two inclusions and reads f off the action of the corner morphisms; the
comparison map assembled from the two inclusion images is checked to be
a closed natural isomorphism at every object.

For the i-th basis element m of M(u, t)^j the dot product is a graded
map A(t) -> B(u) of x.  CommaObject.dot(u, t) builds those of one (u, t)
from the nonzero entries of f_t and of G(B)'s basis transformations, and
CommaObject.m_actions keeps them.  With m_j = m_actions[(u, t)][(j, i)]
of the source and m_j' of the target, the comma square at m reads
m .' alpha(x) = (-1)^{nj} beta(m . x), that is
m_j' . alpha_t = (-1)^{nj} beta_u . m_j; the comma Hom system takes its
rows from functors.square_rows on these maps, and the coproduct module
acts by them on the m-blocks of Lambda.
So the paper's identities for the dot product are the functor axioms of
that module, checked by validate_dg_functor on basis morphisms: its
chain_map on the m-blocks is the dot Leibniz rule
d(m . x) = d(m) . x + (-1)^{|m|} m . d(x), and its functoriality on the
basis pairs (t, m) and (m, u) is (m . t) . x = m . (t * x) and
(u . m) . x = u <> (m . x).

The functor laws are exact in the same way: check_equivalence computes
F(phi) once per comma basis morphism and takes F as these images
extended linearly, as every DgFunctor is, so F of any comma morphism is
sum c_b F(b) over its coordinates c in the comma basis, which the Basis
of comma_hom_space reads at the free columns indexed by the solve and
keeps only if they rebuild it.  The law
F(d phi) = d F(phi) is decided for each basis morphism, once, and
F(psi . phi) = F(psi) . F(phi) for each basis morphism psi after each
generator of the comma category on the supplied objects: the phi that
F composes with for every psi are closed under sums and composites, and
the generators, chosen in basis order by category.generator_closure
(the one-sided rule of a presentation's spanning()), reach every basis
morphism.  Each law is one flat entry difference per Lambda-object
(graded.first_nonzero_sum), so no morphism is sampled.  If the closure
fails, the composition check runs on every composable pair of basis
morphisms for the witness, so F is never evaluated off the basis.  The
comparison map is closed when d_C . phi_p = phi_p . d_p at every
Lambda-object p, decided by the same flat difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product

from . import linalg
from .bimodule import g_on_objects
from .category import generator_closure
from .complexes import direct_sum, zero_dg_module
from .errors import InternalCheckError, StructureError
from .functors import (
    Basis,
    DgNatTransformation,
    _solve_families,
    dgnat_differential,
    dgnat_space,
    dgnat_window,
    functor_from_basis_images,
    images_from_entries,
    nat_unknowns,
    naturality_witness,
    square_rows,
)
from .graded import (
    GradedMap,
    compose_graded,
    first_nonzero_sum,
    map_from_action,
    place_blocks,
    zero_map,
)
from .lambda_cat import SLOT_M, SLOT_T, SLOT_U, restrict_module
from .report import Report


class CommaObject:
    """(A, f, B) with the computed G(B) and f stored componentwise."""

    def __init__(self, bim, A, B, f, name="o"):
        self.bimodule = bim
        self.A = A
        self.B = B
        self.name = name
        self.gB = g_on_objects(bim, B)
        self.f = {}
        for t in bim.right_base.objects:
            comp = f.get(t)
            src = A.on_objects[t].carrier
            tgt = self.gB.functor.on_objects[t].carrier
            if comp is None:
                comp = GradedMap(src, tgt, 0, {})
            if comp.degree != 0 or comp.source != src or comp.target != tgt:
                raise StructureError(f"structure map at {t} has the wrong shape")
            self.f[t] = comp

    @property
    def field(self):
        return self.bimodule.field

    def f_nat(self):
        return DgNatTransformation(self.A, self.gB.functor, 0, self.f)

    @cached_property
    def m_actions(self):
        """{(u, t): self.dot(u, t)} for every pair of objects, built once."""
        bim = self.bimodule
        return {
            (u, t): self.dot(u, t)
            for u in bim.left_base.objects
            for t in bim.right_base.objects
        }

    def dot(self, u, t):
        """{(j, i): the graded map A(t) -> B(u), x |-> m . x, for the i-th
        basis element m of M(u, t)^j}, zero where m acts by zero.

        m . x = (-1)^{|x||m|} [f_t(x)]_u(m): an entry (k, a, c, v) of f_t
        and an entry (j, r, i, w) of component u of the basis
        transformation a of G(B)(t)^k add (-1)^{jk} v w at (k, r, c) of
        the (j, i) map."""
        field = self.field
        src = self.A.on_objects[t].carrier
        tgt = self.B.on_objects[u].carrier
        entries = (
            ((j, i), (k, r, c, field.mul(field.sign(j * k), field.mul(v, w))))
            for k, a, c, v in self.f[t].entries()
            for j, r, i, w in self.gB.nat_basis[(t, k)][a].components[u].entries()
        )
        images = images_from_entries(src, tgt, entries)
        m_carrier = self.bimodule.value(u, t).carrier
        return {
            (j, i): images[(j, i)] if (j, i) in images else zero_map(src, tgt, j)
            for j in m_carrier.degrees()
            for i in range(m_carrier.dim(j))
        }


def validate_comma_object(obj):
    """Degree zero, closedness, and strict naturality of the structure map."""
    report = Report(f"comma object {obj.name}")
    nat = obj.f_nat()
    report.add("degree_zero", nat.degree == 0)
    d_nat = dgnat_differential(nat)
    witness = None
    if not d_nat.is_zero():
        for t, comp in sorted(d_nat.components.items()):
            if not comp.is_zero():
                witness = {"object": t, "degree": comp.support()[0]}
                break
    report.add("closed", witness is None, witness)
    witness = naturality_witness(nat)
    report.add("natural", witness is None, witness)
    return report


@dataclass
class CommaMorphism:
    degree: int
    alpha: DgNatTransformation
    beta: DgNatTransformation


def comma_window(source, target):
    """Degrees where a comma morphism could be nonzero by shape."""
    degrees = set(dgnat_window(source.A, target.A))
    degrees.update(dgnat_window(source.B, target.B))
    return sorted(degrees)


def _square_rows(source, target, n):
    """Rows forcing f' . alpha = G(beta) . f, evaluated at each basis m of
    each M(u, t)^j: m .' alpha(x) = (-1)^{nj} beta(m . x) as graded maps
    A(t) -> B'(u) of x."""
    bim = source.bimodule
    for t, u in product(bim.right_base.objects, bim.left_base.objects):
        target_maps = target.m_actions[(u, t)]
        for (j, i), m_map in source.m_actions[(u, t)].items():
            yield from square_rows(
                target_maps[(j, i)], ("a", t), m_map, ("b", u), n, bim.field.sign(n * j)
            )


def comma_hom_space(source, target, n):
    """The Basis of degree-n comma morphisms (alpha, beta), alpha's legs first.

    One joint linear solve: naturality for alpha over T, naturality for
    beta over U, and the square constraint.  The square is strict as
    defined; since the structure maps have degree zero, the Koszul-signed
    variant (-1)^{n |f|} coincides with it.
    """
    families = [("a", source.A, target.A), ("b", source.B, target.B)]
    rows = _square_rows(source, target, n)
    return _solve_families(families, n, partial(CommaMorphism, n), rows)


def comma_differential(phi):
    """delta(alpha, beta) = (d alpha, d beta)."""
    return CommaMorphism(
        phi.degree + 1,
        dgnat_differential(phi.alpha),
        dgnat_differential(phi.beta),
    )


# ---------------------------------------------------------------------------
# the functor into Lambda-modules


def build_coproduct_module(lam, obj, name=None):
    """The Lambda-module (t,u) |-> A(t) + B(u) with the dot-product action."""
    field = lam.field
    marker = lam.zero_marker
    pres = lam.presentation
    name = name or f"{obj.A.name}(+){obj.B.name}[{obj.name}]"

    zero_val = zero_dg_module(field)

    def a_val(t):
        return zero_val if t == marker else obj.A.on_objects[t]

    def b_val(u):
        return zero_val if u == marker else obj.B.on_objects[u]

    sums, on_objects = {}, {}
    for p, (t, u) in lam.pairs.items():
        sums[p], on_objects[p] = direct_sum([a_val(t), b_val(u)])

    def image(p, q, r, k):
        (t1, u1), (t2, u2) = lam.pairs[p], lam.pairs[q]
        slot, local = lam.slots[(p, q)][r][k]
        if slot == SLOT_T:
            piece = (0, 0, obj.A.map_of_basis(t1, t2, r, local))
        elif slot == SLOT_U:
            piece = (1, 1, obj.B.map_of_basis(u1, u2, r, local))
        else:
            piece = (1, 0, obj.m_actions[(u2, t1)][(r, local)])
        return place_blocks(sums[p], sums[q], r, [piece])

    module = functor_from_basis_images(pres, on_objects, image, name=name)
    module._coproduct_sums = sums
    return module


def f_on_morphisms(lam, source_module, target_module, phi):
    """alpha (+) beta as a transformation between coproduct modules."""
    marker = lam.zero_marker
    components = {}
    for p, (t, u) in lam.pairs.items():
        src_sum = source_module._coproduct_sums[p]
        tgt_sum = target_module._coproduct_sums[p]
        pieces = []
        if t != marker:
            pieces.append((0, 0, phi.alpha.components[t]))
        if u != marker:
            pieces.append((1, 1, phi.beta.components[u]))
        components[p] = place_blocks(src_sum, tgt_sum, phi.degree, pieces)
    return DgNatTransformation(
        source_module, target_module, phi.degree, components
    )


# ---------------------------------------------------------------------------
# from Lambda-modules back to comma objects


def extract_comma_from_module(lam, module, name=None):
    """(C1, f, C2) with [f_t(x)]_u(m) = (-1)^{|x||m|} C(mbar)(x).

    The corner morphism mbar: (t, 0) -> (0, u) of the i-th basis element
    of M(u, t)^j acts on C1(t) -> C2(u); its entry (k, r, c, v) puts
    (-1)^{kj} v at (j, r, i) of component u of f_t(x_c), for x_c the c-th
    basis element of C1(t)^k.  G(C2) comes from g_on_objects, so a C2 with
    the values and basis images of a B already used with this bimodule
    reuses its G(B)."""
    bim = lam.bimodule
    field = lam.field
    marker = lam.zero_marker
    c1, c2 = restrict_module(lam, module)
    g_c2 = g_on_objects(bim, c2)

    f = {}
    for t in bim.right_base.objects:
        p = lam.object_name(t, marker)
        images = {}  # (k, c): {u: entries of component u of f_t(x_c)}
        for u in bim.left_base.objects:
            q = lam.object_name(marker, u)
            m_carrier = bim.value(u, t).carrier
            for j in m_carrier.degrees():
                offset = lam.sums[(p, q)].offset(SLOT_M, j)
                for i in range(m_carrier.dim(j)):
                    corner = module.map_of_basis(p, q, j, offset + i)
                    for k, r, c, v in corner.entries():
                        per_u = images.setdefault((k, c), {}).setdefault(u, [])
                        per_u.append((j, r, i, field.mul(field.sign(k * j), v)))

        def column(k, c, _t=t, _images=images):
            components = {
                u: GradedMap.from_entries(
                    bim.value(u, _t).carrier, c2.on_objects[u].carrier, k, entries
                )
                for u, entries in _images.get((k, c), {}).items()
            }
            candidate = DgNatTransformation(bim.slice_t(_t), c2, k, components)
            return g_c2.encode_or_raise(_t, k, candidate, "corner action")

        src = c1.on_objects[t].carrier
        tgt = g_c2.functor.on_objects[t].carrier
        f[t] = map_from_action(src, tgt, 0, column)
    return CommaObject(bim, c1, c2, f, name=name or f"extract({module.name})")


def phi_iso(lam, module):
    """The comparison transformation coproduct(extract(C)) -> C, checked.

    Returns (components, report): degree-0, closed, natural, and invertible
    at every object; a failure here contradicts the construction and is
    reported as such.
    """
    field = lam.field
    marker = lam.zero_marker
    pres = lam.presentation
    obj = extract_comma_from_module(lam, module)
    coproduct = build_coproduct_module(lam, obj)
    report = Report(f"comparison iso for {module.name}")

    components = {}
    for p, (t, u) in lam.pairs.items():
        ds = coproduct._coproduct_sums[p]
        tgt = module.on_objects[p].carrier
        pieces = []
        if t != marker:
            pieces.append((0, 0, module.map_of(lam.lambda_t_inclusion(t, u))))
        if u != marker:
            pieces.append((0, 1, module.map_of(lam.lambda_u_inclusion(t, u))))
        components[p] = place_blocks(ds, tgt, 0, pieces)

    witness = None
    for p in pres.objects:
        ds_module = coproduct.on_objects[p].carrier
        tgt = module.on_objects[p].carrier
        for i in sorted(set(ds_module.degrees()) | set(tgt.degrees())):
            rows, cols = tgt.dim(i), ds_module.dim(i)
            if rows != cols:
                witness = {"object": p, "degree": i, "dims": [cols, rows]}
                break
            if rows and linalg.rank(field, components[p].block(i)) != rows:
                witness = {"object": p, "degree": i, "rank_deficient": True}
                break
        if witness:
            break
    report.add("invertible_at_every_object", witness is None, witness)

    one = field.one()
    sums = (
        (p, [(one, module.on_objects[p].d, comp)], [(one, comp, coproduct.on_objects[p].d)])
        for p, comp in components.items()
    )
    first = first_nonzero_sum(field, sums)
    report.add("closed", first is None, None if first is None else {"object": first})

    nat = DgNatTransformation(coproduct, module, 0, components)
    nat_witness = naturality_witness(nat)
    report.add("natural", nat_witness is None, nat_witness)
    return nat, report


# ---------------------------------------------------------------------------
# the theorem report


def check_equivalence(lam, comma_objects, lambda_modules, seed=0):
    """Machine verification of the equivalence on the supplied instances.

    (i)  For every ordered pair of comma objects and every degree in the
         joint shape window, the comma Hom space and the transformation
         space between the associated Lambda-modules are computed by two
         independent linear solves; their dimensions must agree, the image
         F(phi) of each comma basis morphism must be a transformation (else
         the witness names its basis index) and the induced map must be
         bijective (exact rank).
    (ii) For every supplied Lambda-module, the comparison map from the
         coproduct of its extracted comma object is a closed natural
         isomorphism at every object.
    Extra checks: the round trip through the coproduct recovers each
    structure map on the nose; F(d phi) = d F(phi) on every comma basis
    morphism and F(psi . phi) = F(psi) . F(phi) on every composable pair of
    basis morphisms, which by linearity is F being a dg-functor on the
    supplied objects.  Both laws run after the full_faithful loop on its
    images, F extended linearly, with composition decided on the pairs
    whose phi is a generator of the comma category and, only when that
    fails, on every pair for the witness (_functor_law_witnesses); the
    witnesses name the first failing (pair, degree) or group of pairs
    (objects, degrees), so F is evaluated in the full_faithful loop only.
    A roundtrip or comparison iso whose corner actions leave G(B) FAILs
    with the error as its witness, and the remaining checks still run.
    The seed is only recorded in the report.
    """
    field = lam.field
    report = Report("dg-equivalence", seed=seed)
    coproducts = [build_coproduct_module(lam, o) for o in comma_objects]
    bases = {}  # (i, j, n): the degree-n comma Basis o_i -> o_j
    images = {}  # (i, j, n): [(phi, F(phi))] over that basis

    for i, src in enumerate(comma_objects):
        for j, tgt in enumerate(comma_objects):
            f_src, f_tgt = coproducts[i], coproducts[j]
            label = f"{src.name}->{tgt.name}"
            window = sorted(
                set(comma_window(src, tgt)) | set(dgnat_window(f_src, f_tgt))
            )
            families = ((src.A, tgt.A), (src.B, tgt.B), (f_src, f_tgt))
            outside_zero = not window or not any(
                nat_unknowns(F, G, n)
                for F, G in families
                for n in (window[0] - 1, window[-1] + 1)
            )
            report.add(
                f"window_boundaries[{label}]",
                outside_zero,
                None if outside_zero else {"window": list(window)},
                note="both sides structurally zero outside the scanned window",
            )
            comma_dims = {}
            lambda_dims = {}
            witness = None
            for n in window:
                comma_basis = bases[(i, j, n)] = comma_hom_space(src, tgt, n)
                nats_l = dgnat_space(f_src, f_tgt, n)
                mapped = images[(i, j, n)] = [
                    (phi, f_on_morphisms(lam, f_src, f_tgt, phi))
                    for phi in comma_basis
                ]
                comma_dims[str(n)] = len(comma_basis)
                lambda_dims[str(n)] = len(nats_l)
                if len(comma_basis) != len(nats_l):
                    witness = witness or {
                        "degree": n,
                        "comma_dim": len(comma_basis),
                        "lambda_dim": len(nats_l),
                    }
                    continue
                columns = [
                    nats_l.coordinates(tuple(image.components.values()))
                    for _, image in mapped
                ]
                if None in columns:  # some F(phi) is not a transformation
                    index = columns.index(None)
                    witness = witness or {"degree": n, "not_natural": index}
                elif comma_basis and linalg.rank(
                    field,
                    [linalg.dense_vector(field, c.items(), len(nats_l)) for c in columns],
                ) != len(comma_basis):
                    # the rank of the coordinate columns is that of the induced map
                    witness = witness or {"degree": n, "kernel": "nontrivial"}
            report.dimensions[f"comma[{label}]"] = comma_dims
            report.dimensions[f"lambda[{label}]"] = lambda_dims
            report.add(f"full_faithful[{label}]", witness is None, witness)

    witness = next(
        (
            {"object": obj.name, "t": t}
            for obj in comma_objects
            for t, comp in obj.f.items()
            if comp.degree != 0
        ),
        None,
    )
    report.add(
        "signed_square_variant",
        witness is None,
        witness,
        note=(
            "structure maps have degree 0, so the Koszul-signed square "
            "(-1)^{n|f|} coincides with the strict square at every degree n"
        ),
    )

    for i, obj in enumerate(comma_objects):
        try:
            extracted = extract_comma_from_module(lam, coproducts[i])
        except InternalCheckError as error:  # the corner actions left G(B)
            report.add(f"roundtrip[{obj.name}]", False, {"error": str(error)})
            continue
        same = all(
            extracted.f[t] == obj.f[t] for t in lam.bimodule.right_base.objects
        )
        report.add(f"roundtrip[{obj.name}]", same)

    for module in lambda_modules:
        try:
            _, sub = phi_iso(lam, module)
        except InternalCheckError as error:  # the corner actions left G(C2)
            report.add(f"iso[{module.name}]", False, {"error": str(error)})
            continue
        report.extend(sub, prefix=f"iso[{module.name}].")

    d_witness, witness = _functor_law_witnesses(
        lam, comma_objects, coproducts, bases, images
    )
    report.add("functor_commutes_with_differential", d_witness is None, d_witness)
    report.add("functor_commutes_with_composition", witness is None, witness)

    report.add("equivalence_verified", report.passed)
    return report


def _functor_law_witnesses(lam, comma_objects, coproducts, bases, images):
    """The first failures of F(d phi) = d F(phi), by (i, j, n), and of
    F(psi . phi) = F(psi) . F(phi), by group (i, j, k, n1, n2), or None.

    bases maps (i, j, n) to the degree-n comma Basis o_i -> o_j, and images
    to the pairs (phi, F(phi)) over it.  F is these images extended
    linearly, as every DgFunctor is: F of any comma morphism is sum c_b F(b)
    over its coordinates c, read by bases[(i, j, n)].coordinates at the
    free columns indexed by the solve (an empty Basis outside the window).
    Two checks evaluate the laws, each one flat entry difference per
    Lambda-object p (graded.first_nonzero_sum), and fail where the
    coordinates are None:
    d_law(key, b) decides d_p . F(phi)_p - (-1)^n F(phi)_p . d_p =
    sum c_b F(b)_p for phi basis morphism b of bases[key] and c the
    coordinates of d phi, and runs on every basis morphism, by key;
    composes(psi, g), for basis morphisms given as (key, index), decides
    F(psi)_p . F(g)_p = sum c_b F(b)_p with c those of psi . g, composed leg
    by leg, and returns c where the law holds, else None.

    Composition is decided by category.generator_closure over the comma
    bases in (i, j, n) order, which composes each reached psi after each
    generator g once.  The phi with F(psi . phi) = F(psi) . F(phi) for every
    psi are closed under sums and composites (F(psi . g . h) =
    F(psi . g) . F(h) = F(psi) . F(g . h)), so the law on those pairs gives
    it on every pair, whatever the d law does.  When the closure fails,
    composes runs on every composable pair, by group, for the witness.
    """
    field = lam.field
    one, neg, sign = field.one(), field.neg, field.sign
    empty = Basis(field)
    points = lam.presentation.objects
    ds = [[c.on_objects[p].d for p in points] for c in coproducts]
    # per (i, j, n): each basis morphism's images F(b)_p
    fs = {
        key: [tuple(image.components[p] for p in points) for _, image in mapped]
        for key, mapped in images.items()
    }

    def holds(key, coords, leads):
        """True iff leads[at] = sum c_b F(b)_at, with F(b) over the basis
        images[key], at every Lambda-object at."""
        if coords is None:
            return False
        images_at = fs.get(key, ())
        sums = (
            (at, lead, [(c, images_at[b][at]) for b, c in coords.items()])
            for at, lead in enumerate(leads)
        )
        return first_nonzero_sum(field, sums) is None

    def d_law(key, b):
        i, j, n = key
        d_key = (i, j, n + 1)
        d_phi = comma_differential(bases[key][b])
        d_legs = (*d_phi.alpha.components.values(), *d_phi.beta.components.values())
        coords = bases.get(d_key, empty).coordinates(d_legs)
        leads = [
            [(one, d_target, image), (neg(sign(n)), image, d_source)]
            for d_target, image, d_source in zip(ds[j], fs[key][b], ds[i])
        ]
        return holds(d_key, coords, leads)

    def composes(psi, g):
        ((_, k, n2), x), ((i, _, n1), y) = psi, g
        key = (i, k, n1 + n2)
        value = tuple(map(compose_graded, bases[psi[0]].legs[x], bases[g[0]].legs[y]))
        coords = bases.get(key, empty).coordinates(value)
        leads = [[(one, f_psi, f_g)] for f_psi, f_g in zip(fs[psi[0]][x], fs[g[0]][y])]
        return coords if holds(key, coords, leads) else None

    names = [obj.name for obj in comma_objects]
    d_witness = next(
        (
            {"pair": [names[i], names[j]], "degree": n}
            for (i, j, n), basis in bases.items()
            if not all(d_law((i, j, n), b) for b in range(len(basis)))
        ),
        None,
    )
    spaces = {key: len(basis) for key, basis in bases.items()}
    if generator_closure(field, spaces, composes) is not None:
        return d_witness, None
    witness = next(
        (
            {"objects": [names[i], names[j], names[k]], "degrees": [n1, n2]}
            for i, j, k in product(range(len(names)), repeat=3)
            for n1, n2 in product(
                comma_window(comma_objects[i], comma_objects[j]),
                comma_window(comma_objects[j], comma_objects[k]),
            )
            if not all(
                composes(((j, k, n2), x), ((i, j, n1), y)) is not None
                for x, y in product(
                    range(len(bases[(j, k, n2)])), range(len(bases[(i, j, n1)]))
                )
            )
        ),
        None,
    )
    return d_witness, witness
