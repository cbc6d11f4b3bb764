"""Graded modules over an exact field and degree-homogeneous maps.

A GradedModule is a finitely supported map degree -> dimension; a basis
vector is named by its degree and its index there.  A GradedMap of
degree n sends source degree i to target degree i + n; its block at i is
the matrix of that component, with rows indexed by the target basis and
columns by the source basis.

This module is the one place that knows how a map is stored: as its
nonzero entries only, in the private slot _nonzeros = {i: {r: {c: v}}},
kept in (i, r, c) order with no zero entry, no empty row and no empty
block.  Elsewhere a map is built from its (i, r, c, value) entries with
GradedMap.from_entries (or column by column with map_from_action, or
from sub-maps with place_blocks), and read with GradedMap.entries (the
nonzero entries), GradedMap.columns (the same, grouped by column),
GradedMap.entry (one entry), GradedMap.apply (the image of a vector),
GradedMap.support (the source degrees with a nonzero block) or
GradedMap.block (the one dense view, for rank, kernels, reports and
files).  A map of one nonzero entry takes one entry's memory, whatever
the sizes of its blocks.

Invariant: the stored entries hold the order and have no zeros, so maps
are equal exactly when their data are.  GradedMap(...) takes dense
blocks from outside and checks their shapes; from_entries and
map_from_action take entries from outside or from callbacks.  add, sub,
scale, compose_graded, combination and place_blocks derive a map from
maps that hold the invariant and build it through GradedMap._built:
scaling by zero gives the zero map, and an entry that cancels in a
composite or a sum is dropped.

An identity lhs = rhs between sums of maps and of composites is decided
by first_nonzero_sum: lhs - rhs is added up entry by entry into one flat
dict, with no map built, and the sides are equal iff every entry is
zero.  Its witness is each side built by combination from the same
terms.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import StructureError


class GradedModule:
    """Finitely supported degree -> dimension table."""

    __slots__ = ("field", "_dims")

    def __init__(self, field, dims):
        self.field = field
        clean = {}
        for deg, dim in dims.items():
            if not isinstance(deg, int):
                raise StructureError(f"degree must be an int: {deg!r}")
            if not isinstance(dim, int) or dim < 0:
                raise StructureError(f"dimension must be a non-negative int: {dim!r}")
            if dim > 0:
                clean[deg] = dim
        self._dims = dict(sorted(clean.items()))

    def dim(self, degree):
        return self._dims.get(degree, 0)

    def degrees(self):
        return tuple(self._dims)

    def dims(self):
        return dict(self._dims)

    def total_dim(self):
        return sum(self._dims.values())

    def is_zero(self):
        return not self._dims

    def window(self):
        """(lo, hi) support bounds, or None for the zero module."""
        if not self._dims:
            return None
        keys = list(self._dims)
        return (keys[0], keys[-1])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedModule)
            and self.field == other.field
            and self._dims == other._dims
        )

    def __hash__(self):
        return hash((self.field, tuple(self._dims.items())))

    def __repr__(self):
        return f"GradedModule({self._dims})"


def zero_module(field):
    return GradedModule(field, {})


class GradedMap:
    """Degree-homogeneous linear map between graded modules.

    The entry at row r, column c of the block at source degree i is the
    coefficient of target basis vector r of degree i + degree in the
    image of source basis vector c of degree i.  Only the nonzero entries
    are stored (see the module docstring), so equality is plain data
    equality.
    """

    __slots__ = ("source", "target", "degree", "_nonzeros", "_hash")

    def __init__(self, source, target, degree, blocks):
        """The map with the given dense blocks {i: rows}; an absent block
        is zero, and every block must have the shape of its degree."""
        if source.field != target.field:
            raise StructureError("source and target live over different fields")
        dense = {}
        for i, block in blocks.items():
            nr, nc = len(block), len(block[0]) if block else 0
            want = (target.dim(i + degree), source.dim(i))
            if (nr, nc) != want:
                raise StructureError(
                    f"block at degree {i} has shape {(nr, nc)}, expected {want}"
                )
            dense[i] = {r: dict(enumerate(row)) for r, row in enumerate(block)}
        self.source, self.target, self.degree = source, target, degree
        self._nonzeros = _normal(source.field.is_zero, dense)
        self._hash = None

    @classmethod
    def _built(cls, source, target, degree, nonzeros):
        """The map with the given nonzero entries {i: {r: {c: v}}}, which
        already hold the module invariant."""
        out = object.__new__(cls)
        out.source, out.target, out.degree = source, target, degree
        out._nonzeros = nonzeros
        out._hash = None
        return out

    @classmethod
    def from_entries(cls, source, target, degree, entries):
        """The map with the given (i, r, c, value) entries: value at row r,
        column c of the block at source degree i.  Entries at one position
        are summed; every position no entry names is zero."""
        field = source.field
        is_zero, add, zero = field.is_zero, field.add, field.zero()
        acc = {}
        for i, r, c, value in entries:
            if is_zero(value):
                continue
            if not (0 <= r < target.dim(i + degree) and 0 <= c < source.dim(i)):
                raise StructureError(f"entry {(i, r, c)} lies outside its block")
            row = acc.setdefault(i, {}).setdefault(r, {})
            row[c] = add(row.get(c, zero), value)
        return cls._built(source, target, degree, _normal(is_zero, acc))

    def entries(self):
        """The nonzero entries (i, r, c, value), by source degree i, then
        row r, then column c."""
        for i, rows in self._nonzeros.items():
            for r, row in rows.items():
                for c, value in row.items():
                    yield i, r, c, value

    def columns(self):
        """{(i, c): ((r, value), ...)}: the nonzero entries of every column
        c of the block at source degree i that has one, by row."""
        out = {}
        for i, r, c, value in self.entries():
            out.setdefault((i, c), []).append((r, value))
        return {key: tuple(entries) for key, entries in out.items()}

    def entry(self, i, r, c):
        """Row r, column c of the block at source degree i."""
        row = self._nonzeros.get(i, {}).get(r)
        zero = self.field.zero()
        return zero if row is None else row.get(c, zero)

    def support(self):
        """The source degrees whose block is nonzero, in order."""
        return tuple(self._nonzeros)

    @property
    def field(self):
        return self.source.field

    def block(self, i):
        """The dense block at source degree i: a tuple of row tuples."""
        zero = self.field.zero()
        rows = self._nonzeros.get(i, {})
        ncols = self.source.dim(i)
        return tuple(
            tuple(rows.get(r, {}).get(c, zero) for c in range(ncols))
            for r in range(self.target.dim(i + self.degree))
        )

    def apply(self, i, vec):
        """Image of a degree-i coordinate vector; lands in degree i + degree."""
        if len(vec) != self.source.dim(i):
            raise StructureError(
                f"vector length {len(vec)} != source dimension {self.source.dim(i)} at degree {i}"
            )
        field = self.field
        is_zero, add, mul = field.is_zero, field.add, field.mul
        out = [field.zero()] * self.target.dim(i + self.degree)
        for r, row in self._nonzeros.get(i, {}).items():
            acc = out[r]
            for c, value in row.items():
                x = vec[c]
                if not is_zero(x):
                    acc = add(acc, mul(value, x))
            out[r] = acc
        return tuple(out)

    def is_zero(self):
        return not self._nonzeros

    def compose(self, other):
        return compose_graded(self, other)

    def sub(self, other):
        one = self.field.one()
        terms = ((one, self), (self.field.neg(one), other))
        return combination(self.source, self.target, self.degree, terms)

    def scale(self, c):
        return combination(self.source, self.target, self.degree, ((c, self),))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self._nonzeros == other._nonzeros
        )

    def __hash__(self):
        if self._hash is None:
            key = (self.source, self.target, self.degree, tuple(self.entries()))
            self._hash = hash(key)
        return self._hash

    def __repr__(self):
        return f"GradedMap(degree={self.degree}, blocks at {list(self._nonzeros)})"


def _normal(is_zero, acc):
    """{i: {r: {c: v}}} in (i, r, c) order, with zero entries, empty rows
    and empty blocks dropped."""
    out = {}
    for i in sorted(acc):
        rows = {}
        for r in sorted(acc[i]):
            row = {c: v for c, v in sorted(acc[i][r].items()) if not is_zero(v)}
            if row:
                rows[r] = row
        if rows:
            out[i] = rows
    return out


def zero_map(source, target, degree):
    return GradedMap._built(source, target, degree, {})


def identity_map(module):
    one = module.field.one()
    nonzeros = {
        i: {r: {r: one} for r in range(module.dim(i))} for i in module.degrees()
    }
    return GradedMap._built(module, module, 0, nonzeros)


def compose_graded(g, f):
    """g after f; degrees add, block_i(g . f) = block_{i+deg f}(g) . block_i(f)."""
    if f.target != g.source:
        raise StructureError("maps are not composable: target/source mismatch")
    field = f.field
    is_zero, add, mul = field.is_zero, field.add, field.mul
    out = {}
    for i, f_rows in f._nonzeros.items():
        g_rows = g._nonzeros.get(i + f.degree)
        if g_rows is None:
            continue
        block = {}
        for r, g_row in g_rows.items():
            acc = {}
            for s, w in g_row.items():
                for c, v in f_rows.get(s, {}).items():
                    x = mul(w, v)
                    acc[c] = add(acc[c], x) if c in acc else x
            row = {c: v for c, v in sorted(acc.items()) if not is_zero(v)}
            if row:
                block[r] = row
        if block:
            out[i] = block
    return GradedMap._built(f.source, g.target, f.degree + g.degree, out)


def combination(source, target, degree, terms):
    """The sum of the terms, each (c, m) for c * m or (c, g, f) for
    c * (g . f), a map source -> target of the given degree, built in one
    pass (a composite is built first)."""
    field = source.field
    is_zero, add, mul, one = field.is_zero, field.add, field.mul, field.one()
    live = []
    for term in terms:
        c, m = term[0], term[1] if len(term) == 2 else compose_graded(*term[1:])
        if (m.source, m.target, m.degree) != (source, target, degree):
            raise StructureError("cannot combine maps of different shapes")
        if m._nonzeros and not is_zero(c):
            live.append((c, m))
    if len(live) == 1 and live[0][0] == one:
        return live[0][1]
    acc = {}
    for c, m in live:
        for i, rows in m._nonzeros.items():
            block = acc.setdefault(i, {})
            for r, row in rows.items():
                out = block.setdefault(r, {})
                for k, v in row.items():
                    x = mul(c, v)
                    out[k] = add(out[k], x) if k in out else x
    return GradedMap._built(source, target, degree, _normal(is_zero, acc))


def first_nonzero_sum(field, sums):
    """The key of the first (key, lhs, rhs) triple of sums whose two sides
    differ, or None.

    A side is a list of terms, each (c, m) for c * m or (c, g, f) for
    c * (g . f), every term of one triple a map of one source, target and
    degree.  lhs - rhs is added up entry by entry into one flat
    {(i, row, col): value} dict, read off the stored entries and with the
    coefficients of rhs negated on the way, so no map is built and nothing
    is composed; the sides are equal iff every entry is zero.  sums is read
    lazily, so the triples after the first unequal one are never formed.
    The entries are summed with the native operators, so only
    field.is_zero reads them (see dgcat.fields).
    """
    is_zero = field.is_zero
    for key, lhs, rhs in sums:
        acc = {}
        for negate, side in ((False, lhs), (True, rhs)):
            for term in side:
                c = -term[0] if negate else term[0]
                scaled = c != 1
                if len(term) == 2:
                    for i, r, k, v in term[1].entries():
                        x, at = c * v if scaled else v, (i, r, k)
                        acc[at] = acc[at] + x if at in acc else x
                    continue
                g, f = term[1], term[2]
                for i, f_rows in f._nonzeros.items():
                    g_rows = g._nonzeros.get(i + f.degree)
                    if g_rows is None:
                        continue
                    for r, g_row in g_rows.items():
                        for s, w in g_row.items():
                            cw = c * w if scaled else w
                            for k, v in f_rows.get(s, {}).items():
                                x, at = cw * v, (i, r, k)
                                acc[at] = acc[at] + x if at in acc else x
        if not all(map(is_zero, acc.values())):
            return key
    return None


def map_from_action(source, target, degree, action):
    """Assemble a GradedMap from its action on source basis vectors.

    action(i, k) must return the image coordinates (length target.dim(i +
    degree)) of the k-th basis vector of source^i.
    """
    is_zero = source.field.is_zero
    acc = {}
    for i in source.degrees():
        rows = target.dim(i + degree)
        if rows == 0:
            continue
        block = acc[i] = {}
        for k in range(source.dim(i)):
            image = action(i, k)
            if len(image) != rows:
                raise StructureError(
                    f"action at degree {i} returned length {len(image)}, expected {rows}"
                )
            for r, x in enumerate(image):
                if not is_zero(x):
                    block.setdefault(r, {})[k] = x
    return GradedMap._built(source, target, degree, _normal(is_zero, acc))


def kernel(f):
    """Degreewise exact kernel with its inclusion map."""
    field = f.field
    dims, entries = {}, []
    for i in f.source.degrees():
        rows = list(f._nonzeros.get(i, {}).values())
        basis = linalg.nullspace(field, rows, ncols=f.source.dim(i))
        if basis:
            dims[i] = len(basis)
            entries += [(i, r, k, x) for k, vec in enumerate(basis) for r, x in vec.items()]
    ker = GradedModule(field, dims)
    return ker, GradedMap.from_entries(ker, f.source, 0, entries)


class DirectSum:
    """Ordered direct sum of graded modules with coordinate bookkeeping."""

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise StructureError("direct sum needs at least one part")
        field = parts[0].field
        for part in parts:
            if part.field != field:
                raise StructureError("direct sum parts over different fields")
        degrees = {d for p in parts for d in p.degrees()}
        # _offsets[degree][k]: the dimension of parts 0..k-1 at degree
        self._offsets = {
            deg: tuple(itertools.accumulate((p.dim(deg) for p in parts), initial=0))
            for deg in degrees
        }
        self.parts = parts
        self.module = GradedModule(
            field, {deg: offsets[-1] for deg, offsets in self._offsets.items()}
        )

    def offset(self, part_index, degree):
        offsets = self._offsets.get(degree)
        return 0 if offsets is None else offsets[part_index]

    def inject(self, part_index, degree, vec):
        field = self.module.field
        out = [field.zero()] * self.module.dim(degree)
        off = self.offset(part_index, degree)
        for k, x in enumerate(vec):
            out[off + k] = x
        return tuple(out)


def place_blocks(source, target, degree, pieces):
    """The map source -> target of the given degree, zero outside the pieces.

    source and target are DirectSums, or GradedModules standing for a sum
    of one part.  Each piece (target part, source part, map) puts a
    graded map between those two parts at their offsets; two pieces for
    the same pair of parts are refused.
    """
    src, src_parts, src_offset = _as_sum(source)
    tgt, tgt_parts, tgt_offset = _as_sum(target)
    placed = set()
    for tp, sp, m in pieces:
        if m.degree != degree or m.source != src_parts[sp] or m.target != tgt_parts[tp]:
            raise StructureError(f"map for parts {(tp, sp)} does not match the direct sums")
        if (tp, sp) in placed:
            raise StructureError(f"two maps for parts {(tp, sp)}")
        placed.add((tp, sp))
    acc = {}
    for tp, sp, m in pieces:
        for i, rows in m._nonzeros.items():
            ro, co = tgt_offset(tp, i + degree), src_offset(sp, i)
            block = acc.setdefault(i, {})
            for r, row in rows.items():
                block.setdefault(ro + r, {}).update((co + c, v) for c, v in row.items())
    # the pieces fill disjoint sub-blocks, so no entry is written twice
    return GradedMap._built(src, tgt, degree, _normal(src.field.is_zero, acc))


def _as_sum(module):
    """(module, parts, offset) of a DirectSum or of a one-part GradedModule."""
    if isinstance(module, DirectSum):
        return module.module, module.parts, module.offset
    return module, (module,), lambda part, degree: 0
