"""Graded modules over an exact field and degree-homogeneous maps.

A GradedModule is a finitely supported map degree -> dimension; a basis
vector is named by its degree and its index there.  A GradedMap of
degree n is a sparse family of blocks, one row-major matrix per source
degree i, sending degree i to i + n; an absent block is the zero block.

This module is the one place that knows that layout.  Elsewhere a map is
built from its (i, r, c, value) entries with GradedMap.from_entries (or
column by column with map_from_action, or from sub-maps with
place_blocks), and read with GradedMap.entries, which yields the nonzero
entries (GradedMap.columns groups them by column), or GradedMap.entry,
which reads one.

Invariant: every stored block is a tuple of row tuples of shape
(target.dim(i + degree), source.dim(i)), none is zero, and they are kept
in degree order, so maps are equal exactly when their data are.
GradedMap(...), from_entries and map_from_action take blocks from
outside or from callbacks, so they check shapes and drop zero blocks.
add, sub, scale, compose_graded, MapStack.after, combination and
place_blocks derive a map from maps that hold the invariant and build it
once, already in final form, through GradedMap._built: scaling by zero
gives the zero map, and a block that cancels in a composite or a sum is
dropped.

An identity between sums of maps and of composites, checked once per
basis pair of some category, is decided by first_nonzero_sum: each sum
is added up entry by entry from the blocks into one flat dict, with no
map built, and is zero iff every entry is.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    blocks[i] is the matrix of the component source^i -> target^(i+degree);
    blocks with a zero-dimensional side or all-zero entries are dropped at
    construction, so equality is plain data equality.
    """

    __slots__ = ("source", "target", "degree", "blocks")

    def __init__(self, source, target, degree, blocks):
        if source.field != target.field:
            raise StructureError("source and target live over different fields")
        self.source = source
        self.target = target
        self.degree = degree
        field = source.field
        clean = {}
        for i, block in blocks.items():
            nr, nc = len(block), len(block[0]) if block else 0
            want = (target.dim(i + degree), source.dim(i))
            if (nr, nc) != want:
                raise StructureError(
                    f"block at degree {i} has shape {(nr, nc)}, expected {want}"
                )
            if nr == 0 or nc == 0:
                continue
            if linalg.is_zero_matrix(field, block):
                continue
            clean[i] = linalg.freeze(block)
        self.blocks = dict(sorted(clean.items()))

    @classmethod
    def _built(cls, source, target, degree, blocks):
        """The map with the given blocks, which already hold the module
        invariant: frozen, of the right shape, none zero, in degree order."""
        out = object.__new__(cls)
        out.source, out.target, out.degree, out.blocks = source, target, degree, blocks
        return out

    @classmethod
    def from_entries(cls, source, target, degree, entries):
        """The map with the given (i, r, c, value) entries: value at row r,
        column c of the block at source degree i.  Entries at one position
        are summed; every position no entry names is zero."""
        field = source.field
        blocks = {}
        for i, r, c, value in entries:
            if field.is_zero(value):
                continue
            block = blocks.get(i)
            if block is None:
                block = blocks[i] = [
                    [field.zero()] * source.dim(i)
                    for _ in range(target.dim(i + degree))
                ]
            block[r][c] = field.add(block[r][c], value)
        return cls(source, target, degree, blocks)

    def entries(self):
        """The nonzero entries (i, r, c, value), by source degree i, then
        row r, then column c."""
        is_zero = self.field.is_zero
        for i, block in self.blocks.items():
            for r, row in enumerate(block):
                for c, value in enumerate(row):
                    if not is_zero(value):
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
        block = self.blocks.get(i)
        return self.field.zero() if block is None else block[r][c]

    @property
    def field(self):
        return self.source.field

    def block(self, i):
        if i in self.blocks:
            return self.blocks[i]
        return linalg.zeros(self.field, self.target.dim(i + self.degree), self.source.dim(i))

    def apply(self, i, vec):
        """Image of a degree-i coordinate vector; lands in degree i + degree."""
        if len(vec) != self.source.dim(i):
            raise StructureError(
                f"vector length {len(vec)} != source dimension {self.source.dim(i)} at degree {i}"
            )
        tdim = self.target.dim(i + self.degree)
        if tdim == 0:
            return ()
        if i not in self.blocks:
            return (self.field.zero(),) * tdim
        return linalg.mat_vec(self.field, self.blocks[i], vec)

    def is_zero(self):
        return not self.blocks

    def compose(self, other):
        return compose_graded(self, other)

    def add(self, other):
        one = self.field.one()
        terms = ((one, self), (one, other))
        return combination(self.source, self.target, self.degree, terms)

    def sub(self, other):
        one = self.field.one()
        terms = ((one, self), (self.field.neg(one), other))
        return combination(self.source, self.target, self.degree, terms)

    def scale(self, c):
        field = self.field
        out = {} if field.is_zero(c) else {
            i: linalg.mat_scale(field, c, b) for i, b in self.blocks.items()
        }
        return GradedMap._built(self.source, self.target, self.degree, out)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.source, self.target, self.degree, tuple(self.blocks)))

    def __repr__(self):
        return f"GradedMap(degree={self.degree}, blocks at {list(self.blocks)})"


def zero_map(source, target, degree):
    return GradedMap(source, target, degree, {})


def identity_map(module):
    blocks = {
        i: linalg.identity(module.field, module.dim(i)) for i in module.degrees()
    }
    return GradedMap(module, module, 0, blocks)


def compose_graded(g, f):
    """g after f; degrees add, block_i(g . f) = block_{i+deg f}(g) . block_i(f)."""
    if f.target != g.source:
        raise StructureError("maps are not composable: target/source mismatch")
    field = f.field
    out = {}
    for i, block in f.blocks.items():
        after = g.blocks.get(i + f.degree)
        if after is not None:
            prod = linalg.mat_mul(field, after, block)
            if not linalg.is_zero_matrix(field, prod):
                out[i] = prod
    return GradedMap._built(f.source, g.target, f.degree + g.degree, out)


def maps_key(maps):
    """A hashable key of a sequence of maps: the degree and blocks of each.

    Two sequences of maps with the same sources and targets have equal
    keys exactly when the maps are equal (GradedMap's own hash reads only
    the block degrees)."""
    return tuple((m.degree, tuple(m.blocks.items())) for m in maps)


class MapStack:
    """Maps out of one graded module, of any targets and degrees, laid out
    once per source degree i for MapStack.after: the blocks at i of the
    maps that have one, one above another (tall) or side by side (wide,
    for maps that share a target and a degree)."""

    __slots__ = ("source", "maps", "_talls", "_wides")

    def __init__(self, source, maps):
        self.source = source
        self.maps = tuple(maps)
        if any(m.source != source for m in self.maps):
            raise StructureError("cannot stack maps out of different modules")
        self._talls, self._wides = {}, {}

    def _blocks(self, i):
        present = [k for k, m in enumerate(self.maps) if i in m.blocks]
        return present, [self.maps[k].blocks[i] for k in present]

    def _tall(self, i):
        if i not in self._talls:
            present, blocks = self._blocks(i)
            self._talls[i] = present, tuple(row for block in blocks for row in block)
        return self._talls[i]

    def _wide(self, i):
        if i not in self._wides:
            present, blocks = self._blocks(i)
            self._wides[i] = present, tuple(
                tuple(x for row in rows for x in row) for rows in zip(*blocks)
            )
        return self._wides[i]

    def after(self, fs):
        """[[g . f for f in fs.maps] for g in self.maps], as compose_graded
        gives them pair by pair, for maps fs of one target, self.source, and
        one degree n.  One linalg.mat_mul per source degree i: the tall
        matrix of the g blocks at i + n times the wide matrix of the f
        blocks at i, whose sub-block in the rows of g_a and the columns of
        f_b is the block of g_a . f_b."""
        n = fs.maps[0].degree if fs.maps else 0
        if any(f.target != self.source or f.degree != n for f in fs.maps):
            raise StructureError("maps are not composable: target/source mismatch")
        field = fs.source.field
        is_zero = field.is_zero
        blocks = {}  # (a, b): the nonzero blocks of g_a . f_b
        for i in fs.source.degrees():
            f_present, wide = fs._wide(i)
            g_present, tall = self._tall(i + n) if f_present else ((), ())
            if not g_present:
                continue
            prod = linalg.mat_mul(field, tall, wide)
            nc, start = fs.source.dim(i), 0
            for a in g_present:
                g = self.maps[a]
                rows = prod[start : start + g.target.dim(i + n + g.degree)]
                start += len(rows)
                live = {
                    c // nc for row in rows for c, x in enumerate(row) if not is_zero(x)
                }
                for fb in live:
                    block = tuple(row[fb * nc : (fb + 1) * nc] for row in rows)
                    blocks.setdefault((a, f_present[fb]), {})[i] = block
        out, zero = [], None
        for g in self.maps:  # one zero map per run of maps of one shape
            degree = n + g.degree
            if zero is None or zero.target is not g.target or zero.degree != degree:
                zero = GradedMap._built(fs.source, g.target, degree, {})
            out.append([zero] * len(fs.maps))
        for (a, b), found in blocks.items():
            g = self.maps[a]
            out[a][b] = GradedMap._built(fs.source, g.target, n + g.degree, found)
        return out


def combination(source, target, degree, terms):
    """The sum of c * m over the (c, m) pairs of terms, each m a map
    source -> target of the given degree, built in one pass."""
    field = source.field
    is_zero, add, mul, one = field.is_zero, field.add, field.mul, field.one()
    live = []
    for c, m in terms:
        if (m.source, m.target, m.degree) != (source, target, degree):
            raise StructureError("cannot combine maps of different shapes")
        if m.blocks and not is_zero(c):
            live.append((c, m))
    if len(live) == 1 and live[0][0] == one:
        return live[0][1]
    sums, summed = {}, set()
    for c, m in live:
        for i, block in m.blocks.items():
            acc = sums.get(i)
            if acc is None:
                sums[i] = [[mul(c, x) for x in row] for row in block]
                continue
            summed.add(i)
            for arow, row in zip(acc, block):
                for k, x in enumerate(row):
                    if not is_zero(x):
                        arow[k] = add(arow[k], mul(c, x))
    blocks = {}
    for i in sorted(sums):
        block = linalg.freeze(sums[i])
        if i not in summed or not linalg.is_zero_matrix(field, block):
            blocks[i] = block
    return GradedMap._built(source, target, degree, blocks)


def first_nonzero_sum(field, sums):
    """The key of the first (key, terms) pair of sums whose terms add up to
    a nonzero map, or None.

    A term is (c, m) for c * m or (c, g, f) for c * (g . f); every term of
    one sum is a map of one source, target and degree.  A sum is added up
    entry by entry into one flat {(i, row, col): value} dict, read off the
    blocks, so no map is built and nothing is composed; it is zero iff
    every entry is.  sums is read lazily, so the sums after the first
    nonzero one are never formed.
    """
    add, mul, is_zero = field.add, field.mul, field.is_zero
    one = field.one()
    for key, terms in sums:
        acc = {}
        for term in terms:
            c = term[0]
            scaled = c != one
            if len(term) == 2:
                for i, block in term[1].blocks.items():
                    for r, row in enumerate(block):
                        for k, v in enumerate(row):
                            if not is_zero(v):
                                x, at = mul(c, v) if scaled else v, (i, r, k)
                                acc[at] = add(acc[at], x) if at in acc else x
                continue
            g, f = term[1], term[2]
            for i, f_block in f.blocks.items():
                g_block = g.blocks.get(i + f.degree)
                if g_block is None:
                    continue
                for r, g_row in enumerate(g_block):
                    for s, w in enumerate(g_row):
                        if is_zero(w):
                            continue
                        cw = mul(c, w) if scaled else w
                        for k, v in enumerate(f_block[s]):
                            if not is_zero(v):
                                x, at = mul(cw, v), (i, r, k)
                                acc[at] = add(acc[at], x) if at in acc else x
        if not all(map(is_zero, acc.values())):
            return key
    return None


def map_from_action(source, target, degree, action):
    """Assemble a GradedMap from its action on source basis vectors.

    action(i, k) must return the image coordinates (length target.dim(i +
    degree)) of the k-th basis vector of source^i.
    """
    field = source.field
    blocks = {}
    for i in source.degrees():
        rows = target.dim(i + degree)
        cols = source.dim(i)
        if rows == 0:
            continue
        block = [[field.zero()] * cols for _ in range(rows)]
        for k in range(cols):
            image = action(i, k)
            if len(image) != rows:
                raise StructureError(
                    f"action at degree {i} returned length {len(image)}, expected {rows}"
                )
            for r, x in enumerate(image):
                block[r][k] = x
        blocks[i] = block
    return GradedMap(source, target, degree, blocks)


def kernel(f):
    """Degreewise exact kernel with its inclusion map."""
    field = f.field
    dims = {}
    incl_blocks = {}
    for i in f.source.degrees():
        n = f.source.dim(i)
        basis = linalg.nullspace(field, f.block(i), ncols=n)
        if not basis:
            continue
        dims[i] = len(basis)
        incl_blocks[i] = tuple(
            tuple(vec[r] for vec in basis) for r in range(n)
        )
    ker = GradedModule(f.source.field, dims)
    incl = GradedMap(ker, f.source, 0, incl_blocks)
    return ker, incl


@dataclass(frozen=True)
class Homog:
    """A homogeneous element: a degree and its coordinate vector."""

    degree: int
    coords: tuple

    def is_zero(self, field):
        return all(field.is_zero(x) for x in self.coords)


def basis_vector(module, degree, index):
    """The index-th basis element of module^degree, as a Homog."""
    return Homog(degree, linalg.unit_vector(module.field, module.dim(degree), index))


def homogeneous_basis(module):
    """(degree, index, basis element) for every basis vector of a graded
    module, in degree order and then by index."""
    for deg in module.degrees():
        for i in range(module.dim(deg)):
            yield deg, i, basis_vector(module, deg, i)


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
        dims = {deg: sum(p.dim(deg) for p in parts) for deg in degrees}
        self.parts = parts
        self.module = GradedModule(field, dims)

    def offset(self, part_index, degree):
        return sum(p.dim(degree) for p in self.parts[:part_index])

    def inject(self, part_index, degree, vec):
        field = self.module.field
        out = [field.zero()] * self.module.dim(degree)
        off = self.offset(part_index, degree)
        for k, x in enumerate(vec):
            out[off + k] = x
        return tuple(out)

    def block_diag(self, maps, degree=0):
        """Blockwise endomorphism from per-part maps of a common degree."""
        if len(maps) != len(self.parts):
            raise StructureError("one map per part required")
        return place_blocks(self, self, degree, [(k, k, m) for k, m in enumerate(maps)])


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
    field = src.field
    blocks = {}
    for i in src.degrees():
        subs = [(tp, sp, m.blocks[i]) for tp, sp, m in pieces if i in m.blocks]
        if not subs:
            continue
        block = [[field.zero()] * src.dim(i) for _ in range(tgt.dim(i + degree))]
        for tp, sp, sub in subs:
            ro, co = tgt_offset(tp, i + degree), src_offset(sp, i)
            for r, row in enumerate(sub):
                block[ro + r][co : co + len(row)] = row
        # the pieces fill disjoint sub-blocks, and each placed one is nonzero
        blocks[i] = linalg.freeze(block)
    return GradedMap._built(src, tgt, degree, blocks)


def _as_sum(module):
    """(module, parts, offset) of a DirectSum or of a one-part GradedModule."""
    if isinstance(module, DirectSum):
        return module.module, module.parts, module.offset
    return module, (module,), lambda part, degree: 0
