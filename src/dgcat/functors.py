"""Dg-modules over a presented dg-category and their transformation spaces.

A DgFunctor packages a dg-functor into dg K-modules: a dg module per
object and, per basis morphism of each hom dg-module, the graded map it
acts by.  A general morphism acts by the linear combination of these
images.  A transformation of degree n is a family of degree-n graded
maps whose naturality squares commute up to (-1)^{nm} against degree-m
morphisms; dgnat_space computes an exact basis of these by a single
linear solve over the block entries, read from the solver's sparse
kernel vectors straight into a Basis, which indexes each element's free
column as it is solved; Basis.coordinates reads them off a family's own
entries and rebuilds it from the elements they name.  Every square of
the form g . X = +-Y . f with unknown maps X and Y, here and in the
comma category, is turned into rows by one helper, square_rows.

validate_dg_functor checks the action on basis morphisms only, where
linearity puts both axioms: F(d phi) = d F(phi), that is
d_N.F(phi) - (-1)^{|phi|} F(phi).d_M = F(d phi), and
F(g.f) = F(g).F(f), with the composite read from the base's product
table.  Each basis morphism phi, and each basis pair (f, g), is decided
by one flat entry difference of the two sides (graded.first_nonzero_sum,
chain_map_holds and _composition_sums), so no graded map is built or
composed.  Only on a failure are both sides built: _chain_map_witness
builds the Hom complex of the failing object pair's values, and
_functoriality_witness combines the terms _composition_sums decided for
the first failing basis pair, the key first_nonzero_sum returned.  The
unit law reads the image of each identity entry by entry against the
diagonal, with no identity matrix.  Naturality is decided the same way:
_naturality_sides gives the two sides of the square of one basis
morphism as terms, first_nonzero_sum finds the first that differ, and
the witness is those two sides built by graded.combination.

Three checks read the base's generators (DgCategoryPresentation.spanning).
Over an associative base the f with F(g.f) = F(g).F(f) for all g are
closed under sums and composites, so functoriality is decided for f among
the generators when base.associative() holds.  validate_dg_functor
decides functoriality first (the report keeps its order); when it passes
and the base is Leibniz (base.leibniz()), the phi with F(d phi) = d F(phi)
are closed under sums and composites, as F(d(psi.g)) = F(d psi)F(g) +
(-1)^{|psi|} F(psi)F(dg) = d(F(psi)F(g)), so chain_map_holds is asked for
the generators only.  For F and G over the same
presentation object that both satisfy F(g.f) = F(g).F(f) on the spanning
pairs (checked once per functor and kept, or settled by a functoriality
PASS), naturality along generators
gives naturality along every morphism: naturality_rows then writes the
squares of the generators only, which leaves the solution space, its
reduced row echelon form and every basis unchanged, and
naturality_witness checks the generators first.  Whenever a precondition
does not hold or a generator check fails, the scan over every basis
morphism or pair runs, so every witness is the one it was.
"""

from __future__ import annotations

import itertools

from . import linalg
from .category import opposite_category
from .complexes import HomComplex, direct_sum, hom_differential, zero_dg_module
from .errors import StructureError
from .graded import (
    GradedMap,
    combination,
    first_nonzero_sum,
    map_from_action,
    place_blocks,
    zero_map,
)
from .report import Report, fmt_graded_map


class DgFunctor:
    """A dg-functor base -> DgMod(K), given on objects and on basis morphisms.

    images[(x, y)][(m, k)] is the graded map F(x) -> F(y) of degree m by
    which the k-th basis morphism of hom(x, y)^m acts; a basis morphism
    missing from the given images acts by zero.
    """

    def __init__(self, base, on_objects, images, name="F"):
        self.base = base
        self.name = name
        field = base.field
        self.on_objects = {}
        for obj in base.objects:
            module = on_objects.get(obj)
            if module is None:
                module = zero_dg_module(field)
            self.on_objects[obj] = module
        self.images = {
            (x, y): basis_images(
                base,
                x,
                y,
                self.on_objects[x].carrier,
                self.on_objects[y].carrier,
                images.get((x, y), {}),
                f"action of {name} on hom({x},{y})",
            )
            for x in base.objects
            for y in base.objects
        }
        self._functorial = None

    @property
    def field(self):
        return self.base.field

    def functorial_on(self):
        """True iff F(g.f) = F(g).F(f) on every spanning pair of the base
        (base.spanning(), fixed with the base); the verdict is kept, and a
        functoriality PASS of validate_dg_functor sets it to True."""
        if self._functorial is None:
            sums = _composition_sums(self, self.base.spanning().pairs)
            self._functorial = first_nonzero_sum(self.field, sums) is None
        return self._functorial

    def map_of(self, element):
        """The graded map F(element): F(source) -> F(target)."""
        return image_of(
            self.images[(element.source, element.target)],
            self.on_objects[element.source].carrier,
            self.on_objects[element.target].carrier,
            element,
        )

    def map_of_basis(self, x, y, degree, index):
        return self.images[(x, y)][(degree, index)]

    def __repr__(self):
        return f"DgFunctor({self.name} over {self.base.name})"


def basis_images(base, x, y, source, target, given, what):
    """The image source -> target of every basis morphism (m, k) of hom(x, y).

    A basis morphism missing from given acts by zero; an image of the
    wrong source, target or degree, or of no basis morphism, is refused.
    """
    hom = base.hom[(x, y)]
    for (m, k), image in given.items():
        if (
            not 0 <= k < hom.dim(m)
            or image.degree != m
            or image.source != source
            or image.target != target
        ):
            raise StructureError(f"{what} has the wrong shape")
    return {
        (m, k): given[(m, k)] if (m, k) in given else zero_map(source, target, m)
        for m, k in base.basis_elements(x, y)
    }


def image_of(images, source, target, element):
    """The map source -> target by which a homogeneous morphism acts: the
    combination of the basis images images[(degree, k)] with its coordinates."""
    terms = [(c, images[(element.degree, k)]) for k, c in enumerate(element.coords)]
    return combination(source, target, element.degree, terms)


def validate_dg_functor(fun):
    """PASS/FAIL per axiom: chain map, units, functoriality on basis pairs.

    The chain-map witness is the first object pair whose action fails
    chain_map_holds, with both sides as maps into the Hom complex; the
    functoriality witness is the first basis pair with F(g.f) != F(g).F(f).
    Functoriality is decided first, as the chain-map rule is decided on
    the generators when it passes over a Leibniz base.
    """
    base = fun.base
    report = Report(f"dg-functor {fun.name}")

    witness = None
    for x in base.objects:
        bad = fun.on_objects[x].d_squared_witness()
        if bad is not None:
            witness = {"object": x, "degree": bad}
            break
    report.add("values_d_squared", witness is None, witness)

    field = fun.field
    generators = base.spanning().generators if base.associative() else None
    first = first_nonzero_sum(field, _composition_sums(fun, _basis_pairs(fun, generators)))
    if first is not None and generators is not None:
        # a generator pair fails, so some basis pair does: find the first
        first = first_nonzero_sum(field, _composition_sums(fun, _basis_pairs(fun)))
    if first is None:  # every basis pair composes, so every spanning pair
        fun._functorial = True

    # a functorial action over a Leibniz base: the generators decide the
    # chain-map rule (module docstring)
    generators = base.spanning().generators if first is None and base.leibniz() else None
    failing = _chain_map_failure(fun, generators)
    if failing is not None and generators is not None:
        failing = _chain_map_failure(fun)
    witness = None if failing is None else _chain_map_witness(fun, *failing)
    report.add("chain_map", witness is None, witness)

    witness = None
    for x in base.objects:
        image = fun.map_of(base.identity(x))
        if not _is_identity(image):
            witness = {"object": x, "image_of_identity": fmt_graded_map(image)}
            break
    report.add("unit", witness is None, witness)

    if first is None:
        report.add("functoriality", True)
    else:
        report.add("functoriality", False, _functoriality_witness(fun, first))
    return report


def _is_identity(gmap):
    """True iff the degree-0 endomorphism gmap is the identity, read entry
    by entry against the diagonal without building an identity map."""
    one = gmap.field.one()
    diagonal = 0
    for _, r, c, value in gmap.entries():
        if r != c or value != one:
            return False
        diagonal += 1
    return diagonal == gmap.source.total_dim()


def chain_map_holds(fun, x, y, basis):
    """True iff F(d phi) = d F(phi) in Hom(F x, F y) for every basis
    morphism phi (degree, index) of hom(x, y) in basis.  Per phi,
    d_N.F(phi) - (-1)^{|phi|} F(phi).d_M minus the images over the column
    of d at phi is one flat difference, which must vanish
    (graded.first_nonzero_sum)."""
    field = fun.field
    neg, sign = field.neg, field.sign
    one = field.one()
    d_source, d_target = fun.on_objects[x].d, fun.on_objects[y].d
    images = fun.images[(x, y)]
    d_columns = fun.base.hom[(x, y)].d.columns()
    sums = (
        (
            phi,
            [(one, d_target, images[phi]), (neg(sign(phi[0])), images[phi], d_source)],
            [(c, images[(phi[0] + 1, r)]) for r, c in d_columns.get(phi, ())],
        )
        for phi in basis
    )
    return first_nonzero_sum(field, sums) is None


def _chain_map_failure(fun, generators=None):
    """The first object pair (x, y) whose action fails chain_map_holds on
    the basis morphisms of hom(x, y), or on generators[(x, y)]; or None."""
    return next(
        (
            (x, y)
            for x, y in itertools.product(fun.base.objects, repeat=2)
            if not chain_map_holds(
                fun, x, y, fun.images[(x, y)] if generators is None else generators[(x, y)]
            )
        ),
        None,
    )


def _chain_map_witness(fun, x, y):
    """Both sides of the chain-map square on hom(x, y), as maps into the
    Hom complex of the values."""
    hc = HomComplex(fun.on_objects[x], fun.on_objects[y])
    hom = fun.base.hom[(x, y)]
    images = fun.images[(x, y)]
    action = action_from_basis_images(hom.carrier, hc, lambda m, k: images[(m, k)])
    return {
        "pair": [x, y],
        "action_after_d": fmt_graded_map(action.compose(hom.d)),
        "d_after_action": fmt_graded_map(hc.module.d.compose(action)),
    }


def _basis_pairs(fun, generators=None):
    """(x, y, z, g, f) for every object triple in order, f among the basis
    morphisms of hom(x, y) (or its generators) and g of hom(y, z)."""
    for x, y, z in itertools.product(fun.base.objects, repeat=3):
        for f in fun.images[(x, y)] if generators is None else generators[(x, y)]:
            for g in fun.images[(y, z)]:
                yield x, y, z, g, f


def _functoriality_witness(fun, pair):
    """Both sides of F(g).F(f) = F(g.f) at the basis pair (x, y, z, g, f),
    built from the terms _composition_sums decides."""
    x, y, z, g, f = pair
    ((_, composite, image),) = _composition_sums(fun, [pair])
    source, target = fun.on_objects[x].carrier, fun.on_objects[z].carrier
    n = f[0] + g[0]
    return {
        "objects": [x, y, z],
        "basis": [list(f), list(g)],
        "image_of_composite": fmt_graded_map(combination(source, target, n, image)),
        "composite_of_images": fmt_graded_map(combination(source, target, n, composite)),
    }


def _composition_sums(fun, pairs):
    """(pair, F(g).F(f), F(g.f)) as terms per basis pair (x, y, z, g, f) of
    pairs, for graded.first_nonzero_sum, with the composite g.f read from
    base.products(x, y, z)."""
    one = fun.field.one()
    for pair in pairs:
        x, y, z, g, f = pair
        xz_images = fun.images[(x, z)]
        n = f[0] + g[0]
        yield pair, [(one, fun.images[(y, z)][g], fun.images[(x, y)][f])], [
            (c, xz_images[(n, r)])
            for r, c in fun.base.products(x, y, z).get(f, {}).get(g, ())
        ]


class DgNatTransformation:
    """Degree-n family of component maps F(X) -> G(X)."""

    def __init__(self, source, target, degree, components):
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {}
        for obj in source.base.objects:
            comp = components.get(obj)
            if comp is None:
                comp = zero_map(
                    source.on_objects[obj].carrier,
                    target.on_objects[obj].carrier,
                    degree,
                )
            if (
                comp.degree != degree
                or comp.source != source.on_objects[obj].carrier
                or comp.target != target.on_objects[obj].carrier
            ):
                raise StructureError(f"component at {obj} has the wrong shape")
            self.components[obj] = comp

    @property
    def field(self):
        return self.source.field

    def is_zero(self):
        return all(c.is_zero() for c in self.components.values())

    def __eq__(self, other):
        return (
            isinstance(other, DgNatTransformation)
            and self.degree == other.degree
            and self.components == other.components
        )

    def __repr__(self):
        return f"DgNat(degree={self.degree})"


def naturality_witness(nat):
    """First basis morphism violating graded naturality, or None.

    Naturality is checked on the generators first when _natural_generators
    allows it; any failure there, and every other case, runs the scan
    over all basis morphisms, which finds the witness."""
    generators = _natural_generators(nat.source, nat.target)
    if generators is not None and _naturality_witness(nat, generators) is None:
        return None
    return _naturality_witness(nat)


def _natural_generators(F, G):
    """The generators of the common base of F and G, {(x, y): basis
    morphisms}, when a family natural on them is natural on every
    morphism; else None.

    That holds when F and G are over the same presentation object and
    both compose on its spanning pairs: naturality along a and along b
    then gives it along b.a, and sums keep it.
    """
    base = F.base
    if G.base is not base:
        return None
    if F.functorial_on() and G.functorial_on():
        return base.spanning().generators
    return None


def _naturality_sides(nat, x, y, m, k):
    """G(a).eta_x and (-1)^{nm} eta_y.F(a) as terms, for the k-th basis
    morphism a of hom(x, y)^m."""
    F, G, n, eta = nat.source, nat.target, nat.degree, nat.components
    lhs = [(F.field.one(), G.map_of_basis(x, y, m, k), eta[x])]
    return lhs, [(F.field.sign(n * m), eta[y], F.map_of_basis(x, y, m, k))]


def _naturality_witness(nat, generators=None):
    """First basis morphism of generators (default: all) violating graded
    naturality, with both sides of its square, or None."""
    base = nat.source.base
    keys = (
        (x, y, m, k)
        for x, y in itertools.product(base.objects, repeat=2)
        for m, k in (
            base.basis_elements(x, y) if generators is None else generators[(x, y)]
        )
    )
    first = first_nonzero_sum(
        base.field, ((key, *_naturality_sides(nat, *key)) for key in keys)
    )
    if first is None:
        return None
    x, y, m, k = first
    source = nat.source.on_objects[x].carrier
    target = nat.target.on_objects[y].carrier
    lhs, rhs = (
        fmt_graded_map(combination(source, target, nat.degree + m, side))
        for side in _naturality_sides(nat, *first)
    )
    return {"pair": [x, y], "basis": [m, k], "G_f_after_eta": lhs, "signed_eta_after_F_f": rhs}


def compose_nat(nu, eta):
    """Componentwise composite nu . eta; degrees add."""
    if eta.target is not nu.source and eta.target.on_objects != nu.source.on_objects:
        raise StructureError("transformations are not composable")
    return DgNatTransformation(
        eta.source,
        nu.target,
        nu.degree + eta.degree,
        {
            obj: nu.components[obj].compose(eta.components[obj])
            for obj in eta.components
        },
    )


def dgnat_differential(eta):
    """Componentwise Hom-complex differential of a transformation."""
    return DgNatTransformation(
        eta.source,
        eta.target,
        eta.degree + 1,
        {
            obj: hom_differential(
                eta.source.on_objects[obj], eta.target.on_objects[obj], comp
            )
            for obj, comp in eta.components.items()
        },
    )


# ---------------------------------------------------------------------------
# the DgNat linear system


def nat_unknowns(F, G, n):
    """Deterministic unknown keys (object, source degree, row, col)."""
    keys = []
    for obj in F.base.objects:
        src = F.on_objects[obj].carrier
        tgt = G.on_objects[obj].carrier
        for i in src.degrees():
            rows = tgt.dim(i + n)
            cols = src.dim(i)
            for r in range(rows):
                for c in range(cols):
                    keys.append((obj, i, r, c))
    return keys


def dgnat_window(F, G):
    """Degrees where a transformation could be nonzero by shape."""
    lo, hi = None, None
    for obj in F.base.objects:
        sw = F.on_objects[obj].carrier.window()
        tw = G.on_objects[obj].carrier.window()
        if sw is None or tw is None:
            continue
        cand_lo = tw[0] - sw[1]
        cand_hi = tw[1] - sw[0]
        lo = cand_lo if lo is None else min(lo, cand_lo)
        hi = cand_hi if hi is None else max(hi, cand_hi)
    if lo is None:
        return ()
    return range(lo, hi + 1)


def square_rows(g, x_key, f, y_key, n, sgn):
    """Linear rows forcing g . X = sgn * Y . f on unknown degree-n maps X, Y.

    g and f are graded maps of a common degree m; X runs from f.source to
    g.source and Y from f.target to g.target.  Each entry (r, c) at source
    degree i of the two sides gives one row over the unknowns
    x_key + (i, s, c) (entries of X) and y_key + (i + m, r, s) (entries of
    Y), keyed as nat_unknowns keys them.  Only nonzero entries of g and f
    are read.
    """
    field = g.field
    m = f.degree
    rows = {}

    def add(i, r, c, key, coeff):
        row = rows.setdefault((i, r, c), {})
        row[key] = field.add(row[key], coeff) if key in row else coeff

    for j, r, s, coeff in g.entries():
        i = j - n
        for c in range(f.source.dim(i)):
            add(i, r, c, x_key + (i, s, c), coeff)
    neg = field.neg(sgn)
    for i, s, c, coeff in f.entries():
        coeff = field.mul(neg, coeff)
        for r in range(g.target.dim(i + m + n)):
            add(i, r, c, y_key + (i + m, r, s), coeff)
    return list(rows.values())


def naturality_rows(F, G, n, tag):
    """Linear constraints expressing graded naturality for degree-n families.

    Unknowns are tagged (tag, object, source degree, row, col).  Rows are
    the square G(a) . eta_x = (-1)^{nm} eta_y . F(a) for every homogeneous
    basis morphism a: x -> y of degree m, or only for the generators when
    _natural_generators allows it: the solution space, hence the reduced
    row echelon form and every basis read from it, is the same.  The
    solver deduplicates.  The square of an identity adds nothing: F and G
    act linearly, so its rows are combinations of the degree-0 basis
    squares of hom(x, x).
    """
    base = F.base
    field = base.field
    generators = _natural_generators(F, G)
    for x in base.objects:
        for y in base.objects:
            basis = (
                base.basis_elements(x, y) if generators is None else generators[(x, y)]
            )
            for m, k in basis:
                yield from square_rows(
                    G.map_of_basis(x, y, m, k),
                    (tag, x),
                    F.map_of_basis(x, y, m, k),
                    (tag, y),
                    n,
                    field.sign(n * m),
                )


def linear_combination(coeffs, items):
    """The sum of c * item over the pairs of coeffs and items (transformations
    or graded maps), or None when there are no pairs."""
    terms = list(zip(coeffs, items))
    if not terms:
        return None
    first = terms[0][1]
    if isinstance(first, GradedMap):
        return combination(first.source, first.target, first.degree, terms)
    coeffs = [c for c, _ in terms]
    components = {
        obj: linear_combination(coeffs, [nat.components[obj] for _, nat in terms])
        for obj in first.components
    }
    return DgNatTransformation(first.source, first.target, first.degree, components)


class Basis(list):
    """A solved basis: the elements in solve order, legs[b] element b's
    component maps as one flat tuple in unknown order (family, then object
    in base order), and free = {(leg position, i, r, c): b}, each element's
    free column, where it is one and the others zero.  Basis(field) is empty."""

    def __init__(self, field):
        super().__init__()
        self.field = field
        self.legs = []
        self.free = {}

    def coordinates(self, value):
        """{b: c_b} of a flat tuple of leg maps: its entries at the free
        columns, if sum c_b legs[b] rebuilds every leg (one first_nonzero_sum
        pass, reading only the elements named), else None.  So an empty
        basis gives {} for a zero value and None for any other."""
        field, legs = self.field, self.legs
        one = field.one()
        coords = {}
        for at, comp in enumerate(value):
            for i, r, c, v in comp.entries():
                b = self.free.get((at, i, r, c))
                if b is not None:
                    coords[b] = v
        sums = (
            (at, [(one, comp)], [(c, legs[b][at]) for b, c in coords.items()])
            for at, comp in enumerate(value)
        )
        return coords if first_nonzero_sum(field, sums) is None else None


def _solve_families(families, n, element, rows=()):
    """The Basis of the degree-n solutions of one linear system over the
    unknowns of the (tag, F, G) families, tagged as naturality_rows tags
    them: each family's naturality rows, then rows.  Each sparse solution
    is read into one transformation F -> G per family, and element(*those)
    is its basis element.  The solution's last entry is its free column
    (linalg.nullspace), so the free-column index is built here, once."""
    keys = [(tag,) + k for tag, F, G in families for k in nat_unknowns(F, G, n)]
    naturality = [naturality_rows(F, G, n, tag) for tag, F, G in families]
    field = families[0][1].field
    positions = [(tag, obj) for tag, F, _ in families for obj in F.base.objects]
    basis = Basis(field)
    for vec in linalg.solve_linear(field, keys, itertools.chain(*naturality, rows)):
        entries = {tag: {} for tag, _, _ in families}
        for index, value in vec.items():
            tag, obj, i, r, c = keys[index]
            entries[tag].setdefault(obj, []).append((i, r, c, value))
        nats = []
        for tag, F, G in families:
            components = {
                obj: GradedMap.from_entries(
                    F.on_objects[obj].carrier, G.on_objects[obj].carrier, n, es
                )
                for obj, es in entries[tag].items()
            }
            nats.append(DgNatTransformation(F, G, n, components))
        tag, obj, i, r, c = keys[next(reversed(vec))]
        basis.free[(positions.index((tag, obj)), i, r, c)] = len(basis)
        basis.legs.append(tuple(m for nat in nats for m in nat.components.values()))
        basis.append(element(*nats))
    return basis


def dgnat_space(F, G, n):
    """The Basis of the degree-n transformations F -> G.

    Each basis transformation is natural exactly, and is one at its last
    nonzero entry (objects in base order, then (i, r, c): nat_unknowns'
    order), its free column, where the others are zero.
    """
    if F.base is not G.base and F.base.objects != G.base.objects:
        raise StructureError("functors live over different bases")
    return _solve_families([("n", F, G)], n, lambda nat: nat)


# ---------------------------------------------------------------------------
# canonical functors


def action_from_basis_images(source, hom_cx, image):
    """The degree-0 map source -> hom_cx.module sending the k-th basis
    element of source^m to the coordinates of the graded map image(m, k)."""
    return map_from_action(
        source, hom_cx.carrier, 0, lambda m, k: hom_cx.encode(image(m, k))
    )


def images_from_entries(source, target, entries):
    """{(m, k): the degree-m map source -> target} from the pairs
    ((m, k), (i, r, c, value)) of entries, one per entry of that image."""
    by_basis = {}
    for key, entry in entries:
        by_basis.setdefault(key, []).append(entry)
    return {
        key: GradedMap.from_entries(source, target, key[0], es)
        for key, es in by_basis.items()
    }


def functor_from_basis_images(base, on_objects, image, name):
    """The dg-functor with the given values whose action sends the basis
    morphism (m, k) of hom(x, y) to the graded map image(x, y, m, k)."""
    images = {
        (x, y): {(m, k): image(x, y, m, k) for m, k in base.basis_elements(x, y)}
        for x in base.objects
        for y in base.objects
    }
    return DgFunctor(base, on_objects, images, name=name)


def representable_module(cat, origin, name=None):
    """The covariant module hom(origin, -) with post-composition action.

    The image of a basis morphism g of hom(y, z) has as column f, for each
    basis morphism f of hom(origin, y), the composite g.f, read from
    products(origin, y, z)[f][g].
    """
    values = {obj: cat.hom[(origin, obj)] for obj in cat.objects}
    images = {}
    for y, z in itertools.product(cat.objects, repeat=2):
        entries = (
            (g, (i, r, j, c))
            for (i, j), per_g in cat.products(origin, y, z).items()
            for g, terms in per_g.items()
            for r, c in terms
        )
        source, target = values[y].carrier, values[z].carrier
        images[(y, z)] = images_from_entries(source, target, entries)
    return DgFunctor(cat, values, images, name=name or f"h[{origin}]")


def yoneda_module(cat, origin, name=None):
    """hom(-, origin) over the opposite category, with the Koszul sign: the
    representable module of origin there.  A basis morphism f of degree m
    sends j to (-1)^{m |j|} j . f, the opposite's composite."""
    name = name or f"y[{origin}]"
    return representable_module(opposite_category(cat), origin, name=name)


def direct_sum_functors(funs, name=None):
    """Objectwise direct sum of dg-functors over a common base."""
    funs = list(funs)
    base = funs[0].base
    sums, on_objects = {}, {}
    for obj in base.objects:
        sums[obj], on_objects[obj] = direct_sum(f.on_objects[obj] for f in funs)

    def image(x, y, m, k):
        maps = [f.map_of_basis(x, y, m, k) for f in funs]
        return place_blocks(
            sums[x], sums[y], m, [(p, p, f) for p, f in enumerate(maps)]
        )

    name = name or "(+)".join(f.name for f in funs)
    return functor_from_basis_images(base, on_objects, image, name=name), sums
