"""Finite presentations of dg-categories and their validation.

A presentation lists objects, a dg K-module of morphisms for every
ordered object pair, the coordinates of each identity and, per object
triple (x, y, z), the product table of composition hom(y,z) x hom(x,y)
-> hom(x,z): {f: {g: ((row, coeff), ...)}}, keyed by the (degree, index)
of the basis morphisms f of hom(x,y) and g of hom(y,z), with the nonzero
coordinates of g.f in hom(x,z)^(|f|+|g|) by row.  Zero composites are
left out.  Composition is bilinear, so this table is all of it, and it is
the only form composition is stored in.

Validation checks, in order: differentials square to zero, composition
is a degree-0 chain map, identities are cycles, unit laws, and
associativity on homogeneous basis triples.  All checks extend to
arbitrary morphisms by bilinearity, and the signs involved depend only on
degrees, so basis tuples decide everything.

Both composition axioms are decided by one sparse contraction of the
tables, which reads only nonzero composites and writes one flat
difference dict, summed with the native operators (dgcat.fields); the
axiom holds iff every entry is zero, and the least failing key names the
witness, whose two sides alone are then summed, in field arithmetic.
The chain-map axiom is the Leibniz rule d(g.f) = dg.f + (-1)^{|g|} g.df:
per object triple, _leibniz_defect writes d(g.f) - dg.f - (-1)^{|g|} g.df
keyed (g, f, coordinate) for the f it is given, and the witness is the
least failing pair by (|g|+|f|, |g|, g index, f index), the pure-tensor
order of hom(y,z) (x) hom(x,y).  Associativity: per object quadruple,
_associator writes h.(g.f) - (h.g).f keyed (f, g, h, coordinate) for the
f it is given, the left side through products(x, z, w) and the right
side through an index of products(y, z, w) by composite row, built once
per sweep; the witness is the least failing (f, g) in basis order, then
the least failing h.

Both axioms and the unit laws are also decided on a generating set,
which spanning() takes from generator_closure, the one rule that also
picks the comma category's generators for check-equivalence's functor
laws: basis morphisms are visited in (x, y, degree, index) order, and
each one not reached from earlier generators by sums and composites
psi . g of a reached psi after a generator g is kept (one incremental
echelon form per hom space, over the field); the pairs whose composites
raised the rank are the spanning pairs.  The f with h.(g.f) = (h.g).f
for all g, h are closed under sums and composites, so the generator f
decide associativity (associative()).  Under associativity the same
holds for the f with the Leibniz rule for every g (leibniz()) and for
the f with 1.f = f = f.1, since 1.(psi.g) = (1.psi).g and
(psi.g).1 = psi.(g.1).  A presentation's tables are given to its
constructor and never replaced, so spanning(), associative(), leibniz()
and opposite_category each build their answer once per presentation, on
first use, and keep it.  When a verdict is False, or a generator fails
the unit laws, validate_dg_category scans every basis tuple in order,
so each witness is the first failing tuple in basis order.

Every table is written from other tables, never by composing basis
pairs one at a time: the opposite category transposes them with the sign
(-1)^{|a||b|}, the triangular category (lambda_cat) shifts T's, U's and
the action columns by block offsets, and the tensor category pairs each
entry of one factor's table with each entry of the other's, with the
sign (-1)^{|b2||a1|} of moving b2 past a1.  The unit laws are read off
two tables, and the two contractions never visit a tuple without a term,
whose both sides are zero.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from . import linalg
from .complexes import TensorComplex, zero_dg_module
from .errors import StructureError
from .report import Report, fmt_vector

ZERO_OBJECT = "@0"


@dataclass(frozen=True)
class HomElement:
    """A homogeneous morphism: coordinates in hom(source, target)^degree."""

    source: str
    target: str
    degree: int
    coords: tuple

    def is_zero(self, field):
        return all(field.is_zero(x) for x in self.coords)


class DgCategoryPresentation:
    """Objects, hom dg-modules, product tables, identity coordinates.

    The tables, keyed by object triple (a missing triple has no nonzero
    composite), are checked against the hom dimensions and never replaced."""

    def __init__(self, field, objects, hom, products, ids, name="C"):
        self.field = field
        self.name = name
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise StructureError("duplicate object names")
        self.hom = {}
        for x in self.objects:
            for y in self.objects:
                module = hom.get((x, y))
                if module is None:
                    module = zero_dg_module(field)
                if module.field != field:
                    raise StructureError(f"hom({x},{y}) over the wrong field")
                self.hom[(x, y)] = module
        self._products = {}
        for x, y, z in itertools.product(self.objects, repeat=3):
            table = products.get((x, y, z), {})
            if table:
                f_dims, g_dims, out_dims = (
                    self.hom[pair].carrier.dims() for pair in ((x, y), (y, z), (x, z))
                )
            for f, per_g in table.items():
                for g, terms in per_g.items():
                    dim = out_dims.get(f[0] + g[0], 0)
                    if not (
                        0 <= f[1] < f_dims.get(f[0], 0)
                        and 0 <= g[1] < g_dims.get(g[0], 0)
                        and all(0 <= r < dim for r, _ in terms)
                    ):
                        raise StructureError(
                            f"product table for ({x},{y},{z}) has the wrong shape"
                        )
            self._products[(x, y, z)] = table
        self._spanning = self._associative = self._leibniz = self._opposite = None
        self.ids = {}
        for x in self.objects:
            vec = ids.get(x)
            dim0 = self.hom[(x, x)].dim(0)
            if vec is None:
                if dim0 != 0:
                    raise StructureError(f"missing identity coordinates for {x}")
                vec = ()
            vec = tuple(vec)
            if len(vec) != dim0:
                raise StructureError(
                    f"identity of {x} has length {len(vec)}, expected {dim0}"
                )
            self.ids[x] = vec

    def products(self, x, y, z):
        """The product table of one triple: {f: {g: ((row, coeff), ...)}}."""
        return self._products[(x, y, z)]

    def spanning(self):
        """The generators and spanning pairs of the product tables (see
        Spanning) by generator_closure, composites read from the tables
        with zero coefficients dropped; built on first call and kept."""
        if self._spanning is None:
            field, keys = self.field, tuple(itertools.product(self.objects, repeat=2))
            spaces = {
                (x, y, n): self.hom[(x, y)].dim(n)
                for x, y in keys
                for n in self.hom[(x, y)].carrier.degrees()
            }

            def compose(psi, g):
                ((y, z, m), i), ((x, _, n), j) = psi, g
                terms = self._products[(x, y, z)].get((n, j), {}).get((m, i), ())
                return {r: c for r, c in terms if not field.is_zero(c)}

            found, pairs = generator_closure(field, spaces, compose)
            generators = {key: [] for key in keys}
            for (x, y, n), k in found:
                generators[(x, y)].append((n, k))
            self._spanning = Spanning(
                {key: tuple(gens) for key, gens in generators.items()},
                tuple((x, y, z, (m, i), (n, j)) for ((y, z, m), i), ((x, _, n), j) in pairs),
            )
        return self._spanning

    def associative(self):
        """True iff h.(g.f) = (h.g).f on every basis triple, decided on the
        triples whose f is a generator; decided on first call and kept.

        The f with h.(g.f) = (h.g).f for all g and h are closed under sums
        and composites: for such f1, f2, h.(g.(f2.f1)) = h.((g.f2).f1) =
        (h.(g.f2)).f1 = ((h.g).f2).f1 = (h.g).(f2.f1).  Each generator f is
        checked by one contraction of the tables per object quadruple
        (_associator), which holds iff every entry it writes is zero.
        """
        if self._associative is None:
            generators, by_row = self.spanning().generators, _composites_by_row(self)
            is_zero = self.field.is_zero
            self._associative = all(
                is_zero(v)
                for x, y, z, w in itertools.product(self.objects, repeat=4)
                if generators[(x, y)]
                for v in _associator(self, x, y, z, w, generators[(x, y)], by_row).values()
            )
        return self._associative

    def leibniz(self):
        """True iff associative() holds and d(g.f) = dg.f + (-1)^{|g|} g.df
        on every basis pair whose f is a generator, so on every basis pair;
        decided on first call and kept.

        Under associativity the f with the Leibniz rule for every g are
        closed under sums and composites: for such f1, f2,
        d(g.(f2.f1)) = d(g.f2).f1 + (-1)^{|g|+|f2|} (g.f2).df1
        = dg.(f2.f1) + (-1)^{|g|} g.(df2.f1 + (-1)^{|f2|} f2.df1), and the
        last bracket is d(f2.f1).  Each generator f is checked by one
        contraction of the tables per object triple (_leibniz_defect).
        """
        if self._leibniz is None:
            self._leibniz = self.associative()
            if self._leibniz:
                generators, d_cols = self.spanning().generators, _d_columns(self)
                is_zero = self.field.is_zero
                self._leibniz = all(
                    is_zero(v)
                    for x, y, z in itertools.product(self.objects, repeat=3)
                    if generators[(x, y)]
                    for v in _leibniz_defect(self, d_cols, x, y, z, generators[(x, y)]).values()
                )
        return self._leibniz

    def compose_basis(self, x, y, z, gdeg, gidx, fdeg, fidx):
        """Sparse composite of two basis morphisms: ((index, coeff), ...)
        in hom(x,z)^(gdeg+fdeg), read from products(x, y, z)."""
        return self._products[(x, y, z)].get((fdeg, fidx), {}).get((gdeg, gidx), ())

    def element(self, source, target, degree, coords):
        coords = tuple(coords)
        if len(coords) != self.hom[(source, target)].dim(degree):
            raise StructureError(
                f"element of hom({source},{target})^{degree} has wrong length"
            )
        return HomElement(source, target, degree, coords)

    def basis_element(self, source, target, degree, index):
        dim = self.hom[(source, target)].dim(degree)
        return HomElement(
            source, target, degree, linalg.unit_vector(self.field, dim, index)
        )

    def basis_elements(self, source, target):
        for degree in self.hom[(source, target)].carrier.degrees():
            for index in range(self.hom[(source, target)].dim(degree)):
                yield degree, index

    def identity(self, x):
        return HomElement(x, x, 0, self.ids[x])

    def differential(self, e):
        out = self.hom[(e.source, e.target)].d.apply(e.degree, e.coords)
        return HomElement(e.source, e.target, e.degree + 1, out)


def validate_dg_category(cat):
    """Total axiom report: every axiom is checked even after a failure.

    Per axiom the witness is the first violating basis tuple together
    with both sides' coordinate vectors.  The composition axioms and the
    unit laws are decided on the generators when their closure argument
    holds (leibniz(), associative()); otherwise, or when a generator
    fails, every basis tuple is scanned for the witness.
    """
    field = cat.field
    report = Report(f"dg-category {cat.name}")

    witness = None
    for (x, y), module in sorted(cat.hom.items()):
        bad = module.d_squared_witness()
        if bad is not None:
            witness = {"hom": [x, y], "degree": bad}
            break
    report.add("d_squared", witness is None, witness)

    witness = None
    if not cat.leibniz():
        d_cols, triples = _d_columns(cat), itertools.product(cat.objects, repeat=3)
        found = (_chain_map_witness(cat, d_cols, *t) for t in triples)
        witness = next(filter(None, found), None)
    report.add("composition_chain_map", witness is None, witness)

    witness = None
    for x in cat.objects:
        d_id = cat.differential(cat.identity(x))
        if not d_id.is_zero(field):
            witness = {"object": x, "d_of_identity": fmt_vector(field, d_id.coords)}
            break
    report.add("identity_closed", witness is None, witness)

    # 1.(psi.g) = (1.psi).g and (psi.g).1 = psi.(g.1): under associativity
    # the unit laws pass from psi and g to psi.g, so the generators decide them
    generators = cat.spanning().generators if cat.associative() else None
    witness = _first_unit_witness(cat, generators)
    if witness is not None and generators is not None:
        witness = _first_unit_witness(cat)
    report.add("units", witness is None, witness)

    witness = None
    if not cat.associative():
        by_row, quadruples = _composites_by_row(cat), itertools.product(cat.objects, repeat=4)
        found = (_associativity_witness(cat, by_row, *q) for q in quadruples)
        witness = next(filter(None, found), None)
    report.add("associativity", witness is None, witness)
    return report


def _d_columns(cat):
    """The sparse differential columns of every hom, {(x, y): columns}."""
    return {key: hom.d.columns() for key, hom in cat.hom.items()}


def _add_scaled(field, acc, c, entries):
    """acc += c * entries, for a sparse vector acc (a dict) and entries."""
    for r, v in entries:
        acc[r] = field.add(acc.get(r, field.zero()), field.mul(c, v))


def _nonzero(field, acc):
    return {r: v for r, v in acc.items() if not field.is_zero(v)}


def _fmt_sparse(field, acc, dim):
    """The sparse vector acc as formatted coordinates of length dim."""
    return fmt_vector(field, linalg.dense_vector(field, acc.items(), dim))


def _leibniz_defect(cat, d_cols, x, y, z, fs):
    """d(g.f) - dg.f - (-1)^{|g|} g.df for f over fs and every basis g of
    hom(y, z), as {(g, f, coordinate): value} over the entries a table
    term reaches, zero where its terms cancel; no entry is written for a
    pair with no term.  d_cols holds the sparse differential columns of
    every hom (_d_columns); a term g'.f of dg.f is found through the
    reversed columns of hom(y, z).  The entries are summed with the native
    operators, so only field.is_zero reads them (see dgcat.fields)."""
    gf_of = cat.products(x, y, z)
    if not gf_of:
        return {}
    d_f, d_gf = d_cols[(x, y)], d_cols[(x, z)]
    d_into = {}  # g' -> [(g, c)]: dg has the term c g'
    for g, column in d_cols[(y, z)].items():
        for s, c in column:
            d_into.setdefault((g[0] + 1, s), []).append((g, c))
    diff = {}
    for f in fs:
        for g, terms in gf_of.get(f, {}).items():
            for r, c in terms:
                for t, v in d_gf.get((f[0] + g[0], r), ()):
                    key = g, f, t
                    diff[key] = diff.get(key, 0) + c * v
            for g0, c in d_into.get(g, ()):
                for r, v in terms:
                    key = g0, f, r
                    diff[key] = diff.get(key, 0) - c * v
        for s, c in d_f.get(f, ()):
            for g, terms in gf_of.get((f[0] + 1, s), {}).items():
                c_g = -c if g[0] % 2 else c
                for r, v in terms:
                    key = g, f, r
                    diff[key] = diff.get(key, 0) - c_g * v
    return diff


def _chain_map_witness(cat, d_cols, x, y, z):
    """The least basis pair (g, f) of the triple by (|g|+|f|, |g|,
    g index, f index), the pure-tensor order of hom(y,z) (x) hom(x,y),
    with d(g.f) != dg.f + (-1)^{|g|} g.df, and both sides; or None."""
    field = cat.field
    diff = _leibniz_defect(cat, d_cols, x, y, z, cat.basis_elements(x, y))
    failing = [(g, f) for (g, f, _), v in diff.items() if not field.is_zero(v)]
    if not failing:
        return None
    g, f = min(failing, key=lambda gf: (gf[0][0] + gf[1][0], gf[0][0], gf[0][1], gf[1][1]))
    gf_of, n, gdeg = cat.products(x, y, z), f[0] + g[0], g[0]
    gfs = gf_of.get(f, {})
    lhs, rhs = {}, {}
    for r, c in gfs.get(g, ()):
        _add_scaled(field, lhs, c, d_cols[(x, z)].get((n, r), ()))
    for s, c in d_cols[(y, z)].get(g, ()):
        _add_scaled(field, rhs, c, gfs.get((gdeg + 1, s), ()))
    sgn = field.sign(gdeg)
    for s, c in d_cols[(x, y)].get(f, ()):
        _add_scaled(field, rhs, field.mul(sgn, c), gf_of.get((f[0] + 1, s), {}).get(g, ()))
    dim = cat.hom[(x, z)].dim(n + 1)
    return {
        "triple": [x, y, z],
        "basis": {"g": list(g), "f": list(f)},
        "comp_after_d": _fmt_sparse(field, rhs, dim),
        "d_after_comp": _fmt_sparse(field, lhs, dim),
    }


def _first_unit_witness(cat, generators=None):
    """The witness of the first basis morphism f, over the object pairs in
    order and f among generators[(x, y)] (default: every basis morphism),
    with 1_y.f != f or f.1_x != f; or None."""
    found = (
        _unit_witness(cat, x, y, f)
        for x, y in itertools.product(cat.objects, repeat=2)
        for f in (cat.basis_elements(x, y) if generators is None else generators[(x, y)])
    )
    return next(filter(None, found), None)


def _unit_witness(cat, x, y, f):
    """None if 1_y.f = f = f.1_x for the basis morphism f of hom(x, y),
    else both sides and f, read from the tables of (x, y, y) and (x, x, y)."""
    field = cat.field
    left, right = {}, {}
    after_f, before_f = cat.products(x, y, y).get(f, {}), cat.products(x, x, y)
    for k, c in enumerate(cat.ids[y]):
        _add_scaled(field, left, c, after_f.get((0, k), ()))
    for k, c in enumerate(cat.ids[x]):
        _add_scaled(field, right, c, before_f.get((0, k), {}).get(f, ()))
    unit = {f[1]: field.one()}
    left, right = _nonzero(field, left), _nonzero(field, right)
    if left == unit == right:
        return None
    dim = cat.hom[(x, y)].dim(f[0])
    sides = {"id_then_f": left, "f_then_id": right, "f": unit}
    return {"pair": [x, y], "basis": list(f)} | {
        key: _fmt_sparse(field, side, dim) for key, side in sides.items()
    }


def _composites_by_row(cat):
    """{(y, z, w): {u: [(g, h, c)]}}: per object triple, for each basis
    morphism u of hom(y, w), the basis pairs (g, h) whose composite h.g
    has the coefficient c at u."""
    index = {}
    for triple, table in cat._products.items():
        by_row = index[triple] = {}
        for g, per_h in table.items():
            for h, terms in per_h.items():
                for s, c in terms:
                    by_row.setdefault((g[0] + h[0], s), []).append((g, h, c))
    return index


def _associator(cat, x, y, z, w, fs, by_row):
    """h.(g.f) - (h.g).f for f over fs and every basis g of hom(y, z) and
    h of hom(z, w), as {(f, g, h, coordinate): value} over the entries a
    table term reaches, zero where its terms cancel.

    The left side contracts products(x, y, z)[f] with products(x, z, w);
    the right side joins each term u.f of products(x, y, w)[f] with the
    pairs (g, h) of by_row = _composites_by_row(cat) whose h.g has a term
    at u.  No entry is written for a triple with no term.  The entries are
    summed with the native operators, so only field.is_zero reads them
    (see dgcat.fields).
    """
    gf_of, h_gf_of, hg_f_of = (cat.products(*t) for t in ((x, y, z), (x, z, w), (x, y, w)))
    hg_by_row = by_row[(y, z, w)]
    diff = {}
    for f in fs:
        for g, terms in gf_of.get(f, {}).items():
            for r, c in terms:
                for h, h_terms in h_gf_of.get((f[0] + g[0], r), {}).items():
                    for s, v in h_terms:
                        key = f, g, h, s
                        diff[key] = diff.get(key, 0) + c * v
        for u, terms in hg_f_of.get(f, {}).items():
            for g, h, c in hg_by_row.get(u, ()):
                for r, v in terms:
                    key = f, g, h, r
                    diff[key] = diff.get(key, 0) - c * v
    return diff


def _associativity_witness(cat, by_row, x, y, z, w):
    """The least basis triple (f, g, h) of the quadruple, in basis order,
    with h.(g.f) != (h.g).f, and both sides; or None."""
    field = cat.field
    diff = _associator(cat, x, y, z, w, cat.basis_elements(x, y), by_row)
    failing = [(f, g, h) for (f, g, h, _), v in diff.items() if not field.is_zero(v)]
    if not failing:
        return None
    f, g, h = min(failing)
    left, right = {}, {}
    for r, c in cat.products(x, y, z).get(f, {}).get(g, ()):
        _add_scaled(field, left, c, cat.products(x, z, w).get((f[0] + g[0], r), {}).get(h, ()))
    hg_fs = cat.products(x, y, w).get(f, {})
    for s, c in cat.products(y, z, w).get(g, {}).get(h, ()):
        _add_scaled(field, right, c, hg_fs.get((g[0] + h[0], s), ()))
    dim = cat.hom[(x, w)].dim(f[0] + g[0] + h[0])
    return {
        "objects": [x, y, z, w],
        "basis": [list(f), list(g), list(h)],
        "h_after_gf": _fmt_sparse(field, left, dim),
        "hg_after_f": _fmt_sparse(field, right, dim),
    }


@dataclass(frozen=True)
class Spanning:
    """A set of basis morphisms generating a presentation under sums and
    composition, with the composites that reach the rest.

    generators[(x, y)] lists the basis morphisms (degree, index) of
    hom(x, y) kept as generators; pairs lists as (x, y, z, g, f) the basis
    pairs, g of hom(y, z) and f of hom(x, y), whose composites g.f reached
    the other basis morphisms.  Both members of a pair were reached before
    its composite was added.  So a property of morphisms that holds on the
    generators, is kept by sums and passes from g and f to g.f on each
    spanning pair holds on every morphism.
    """

    generators: dict
    pairs: tuple


def generator_closure(field, spaces, compose):
    """(generators, pairs) of the basis morphisms of spaces under the
    composites compose gives, or None.

    spaces is {(source, target, degree): dim} in visiting order; a basis
    morphism is (key, index).  Each one not yet reached when visited is
    kept as a generator.  One Echelon per space holds the span of the
    generators' unit vectors and of the composites psi . g of a reached
    psi after a generator g, and names the basis morphisms each rise
    reaches; a full space takes no more rows.  Each reached psi is
    composed after each generator g exactly once, a generator after
    itself included.  compose(psi, g) gives the nonzero coordinates of
    psi . g in space (source of g, target of psi, |g| + |psi|), or None
    when the pair fails the property being proved, which ends the closure
    with None.  pairs are the (psi, g) whose composite raised the rank,
    both reached before it: a property that holds on the generators, is
    kept by sums and passes from psi and g to psi . g on each pair holds
    on every basis morphism.
    """
    echelons = {key: linalg.Echelon(field) for key in spaces}
    queue = deque()
    generators, pairs = [], []
    # per object: the reached morphisms processed out of it, the generators into it
    out_of, into = {}, {}

    def grow(key, row):
        """Add row to the span of space key and queue the basis morphisms
        it reaches; True iff the rank rose."""
        echelon = echelons[key]
        if len(echelon.pivots) == spaces[key]:
            return False
        units = echelon.add(row)
        queue.extend((key, b) for b in units or ())
        return units is not None

    def closed(psi, g):
        """False iff compose(psi, g) fails; a composite that raises the
        rank records the pair."""
        coords = compose(psi, g)
        if coords is None:
            return False
        ((_, target, m), _), ((source, _, n), _) = psi, g
        if coords and grow((source, target, n + m), coords):
            pairs.append((psi, g))
        return True

    for key, dim in spaces.items():
        pivots = echelons[key].pivots
        for a in range(dim):
            if len(pivots.get(a, ())) == 1:  # reached: its unit vector is a pivot row
                continue
            generators.append((key, a))
            grow(key, {a: field.one()})
            while queue:
                b = queue.popleft()
                (p, q, _), _ = b
                todo = [(b, g) for g in into.get(p, ())]
                if b == generators[-1]:  # no other generator is ever queued
                    todo += [(psi, b) for psi in out_of.get(q, ())] + [(b, b)] * (p == q)
                    into.setdefault(q, []).append(b)
                if not all(closed(psi, g) for psi, g in todo):
                    return None
                out_of.setdefault(p, []).append(b)
    return tuple(generators), tuple(pairs)


def opposite_category(cat):
    """Same objects, reversed homs, composition with the (-1)^{|a||b|} sign;
    built on first call and kept on cat."""
    if cat._opposite is not None:
        return cat._opposite
    field = cat.field
    hom = {(a, b): cat.hom[(b, a)] for a in cat.objects for b in cat.objects}
    tables = {}
    for x, y, z in itertools.product(cat.objects, repeat=3):
        # b in hom(z,y) is the op-morphism y->z and a in hom(y,x) the
        # op-morphism x->y; b after a in the opposite is (-1)^{|a||b|} a.b
        table = tables[(x, y, z)] = {}
        for b, per_a in cat.products(z, y, x).items():
            for a, terms in per_a.items():
                sgn = field.sign(a[0] * b[0])
                table.setdefault(a, {})[b] = tuple((r, field.mul(sgn, c)) for r, c in terms)
    cat._opposite = DgCategoryPresentation(
        field, cat.objects, hom, tables, cat.ids, name=f"{cat.name}.op"
    )
    return cat._opposite


def tensor_category(cat_a, cat_b, name=None):
    """Product objects, tensor-complex homs, interchange-signed composition.

    (a2 (x) b2) . (a1 (x) b1) = (-1)^{|b2||a1|} (a2 . a1) (x) (b2 . b1), so
    each entry (a1, a2) of A's table, paired with each entry (b1, b2) of
    B's, is one entry of the product's table.  Distinct row pairs of the
    two composites are distinct pure tensors, so no terms are summed.
    """
    if cat_a.field != cat_b.field:
        raise StructureError("tensor product over mismatched fields")
    field = cat_a.field
    name = name or f"({cat_a.name})x({cat_b.name})"
    pair_of = {
        f"({xa},{xb})": (xa, xb) for xa in cat_a.objects for xb in cat_b.objects
    }
    hom_tensors = {
        (p, q): TensorComplex(cat_a.hom[(xa, ya)], cat_b.hom[(xb, yb)])
        for p, (xa, xb) in pair_of.items()
        for q, (ya, yb) in pair_of.items()
    }
    ids = {
        p: hom_tensors[(p, p)].encode_pure(0, cat_a.ids[xa], 0, cat_b.ids[xb])
        for p, (xa, xb) in pair_of.items()
    }
    hom = {key: tensor.module for key, tensor in hom_tensors.items()}
    tables = {}
    for p, q, r in itertools.product(pair_of, repeat=3):
        (xa, xb), (ya, yb), (za, zb) = pair_of[p], pair_of[q], pair_of[r]
        f_index, g_index, gf_index = (
            hom_tensors[key].index for key in ((p, q), (q, r), (p, r))
        )
        a_entries, b_entries = (
            [(f, g, terms) for f, per_g in table.items() for g, terms in per_g.items()]
            for table in (cat_a.products(xa, ya, za), cat_b.products(xb, yb, zb))
        )
        table = tables[(p, q, r)] = {}
        for (a1, a2, a_terms), (b1, b2, b_terms) in itertools.product(a_entries, b_entries):
            fdeg, gdeg = a1[0] + b1[0], a2[0] + b2[0]
            f = (fdeg, f_index(fdeg)[(a1[0], a1[1], b1[1])])
            g = (gdeg, g_index(gdeg)[(a2[0], a2[1], b2[1])])
            rows, sgn = gf_index(fdeg + gdeg), field.sign(b2[0] * a1[0])
            table.setdefault(f, {})[g] = tuple(
                (rows[(a1[0] + a2[0], ra, rb)], field.mul(sgn, field.mul(ca, cb)))
                for ra, ca in a_terms
                for rb, cb in b_terms
            )
    return DgCategoryPresentation(field, pair_of, hom, tables, ids, name=name)


def with_zero_object(cat):
    """Adjoin the formal object ZERO_OBJECT with all-zero hom spaces."""
    if ZERO_OBJECT in cat.objects:
        raise StructureError(f"object name {ZERO_OBJECT!r} is reserved")
    objects = cat.objects + (ZERO_OBJECT,)
    ids = {**cat.ids, ZERO_OBJECT: ()}
    return DgCategoryPresentation(
        cat.field, objects, cat.hom, cat._products, ids, name=f"{cat.name}+0"
    )


def one_object_category(field, hom_module, table, id_coords, name="A", obj="*"):
    """A dg-algebra presented as a one-object dg-category."""
    return DgCategoryPresentation(
        field,
        (obj,),
        {(obj, obj): hom_module},
        {(obj, obj, obj): table},
        {obj: id_coords},
        name=name,
    )
