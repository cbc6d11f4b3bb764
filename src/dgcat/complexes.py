"""Dg K-modules and the two workhorse complexes built from them.

The Hom complex carries the differential d(a) = d_N . a - (-1)^|a| a . d_M
on graded maps; the tensor complex carries d(m (x) n) = d(m) (x) n +
(-1)^|m| m (x) d(n) on pure tensors.  Both come with deterministic bases:
Hom^n is spanned by elementary maps ordered by (source degree, source
index, target index); (M (x) N)^n by pure tensors ordered by (left degree,
left index, right index).

A complex builds its differential matrix only when .module is first
read: most callers need just the basis and the carrier, and
hom_differential evaluates d(f) on one map without any matrix.
Composition in a dg-category is not stored over a tensor complex; it is
the product table of category.py.
"""

from __future__ import annotations

from functools import cached_property

from .errors import StructureError
from .graded import (
    DirectSum,
    GradedMap,
    GradedModule,
    map_from_action,
    place_blocks,
    zero_module,
)


class DgModule:
    """A graded module with a degree +1 differential squaring to zero."""

    __slots__ = ("carrier", "d")

    def __init__(self, carrier, d, check=True):
        if d.source != carrier or d.target != carrier or d.degree != 1:
            raise StructureError("differential must be a degree +1 endomorphism")
        self.carrier = carrier
        self.d = d
        if check:
            witness = self.d_squared_witness()
            if witness is not None:
                raise StructureError(
                    f"differential does not square to zero at degree {witness}"
                )

    @property
    def field(self):
        return self.carrier.field

    def d_squared_witness(self):
        """First degree where d . d has a nonzero block, or None."""
        return next(iter(self.d.compose(self.d).support()), None)

    def dim(self, n):
        return self.carrier.dim(n)

    def is_zero(self):
        return self.carrier.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, DgModule)
            and self.carrier == other.carrier
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.carrier, self.d))

    def __repr__(self):
        return f"DgModule({self.carrier.dims()})"


def zero_dg_module(field):
    z = zero_module(field)
    return DgModule(z, GradedMap(z, z, 1, {}), check=False)


def dg_module(field, dims, d_blocks, check=True):
    carrier = GradedModule(field, dims)
    return DgModule(carrier, GradedMap(carrier, carrier, 1, d_blocks), check=check)


def direct_sum(parts):
    """(DirectSum of the carriers, DgModule) of dg modules, with the
    blockwise differential."""
    parts = tuple(parts)
    ds = DirectSum([part.carrier for part in parts])
    d = place_blocks(ds, ds, 1, [(k, k, part.d) for k, part in enumerate(parts)])
    return ds, DgModule(ds.module, d, check=False)


def hom_differential(source, target, f):
    """Direct evaluation of d(f) = d_N . f - (-1)^|f| f . d_M on a graded map."""
    field = f.field
    left = target.d.compose(f)
    right = f.compose(source.d).scale(field.sign(f.degree))
    return left.sub(right)


class _PairComplex:
    """The basis the Hom and tensor complexes share.

    Degree n is spanned by triples (i, a, b), ordered as written, pairing
    the a-th basis vector of first^i with the b-th of second^j, where j =
    partner(n, i).  carrier and basis are built at once; module,
    whose differential comes from the subclass's _d_column, on first read.
    """

    def __init__(self, first, second, degrees, partner):
        if first.field != second.field:
            raise StructureError(f"{type(self).__name__} over mismatched fields")
        self._basis = {}
        for n in degrees:
            triples = tuple(
                (i, a, b)
                for i in first.carrier.degrees()
                for a in range(first.dim(i))
                for b in range(second.dim(partner(n, i)))
            )
            if triples:
                self._basis[n] = triples
        self.carrier = GradedModule(
            first.field, {n: len(ts) for n, ts in self._basis.items()}
        )
        self._index = {
            n: {t: k for k, t in enumerate(ts)} for n, ts in self._basis.items()
        }

    @cached_property
    def module(self):
        """The complex as a dg K-module."""
        d = map_from_action(self.carrier, self.carrier, 1, self._d_column)
        return DgModule(self.carrier, d, check=False)

    def basis(self, n):
        return self._basis.get(n, ())

    def index(self, n):
        """{(i, a, b): position} of the basis of degree n."""
        return self._index.get(n, {})


class HomComplex(_PairComplex):
    """Hom(M, N) as a dg K-module with the elementary-map basis."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        src_w = source.carrier.window()
        tgt_w = target.carrier.window()
        degrees = ()
        if src_w and tgt_w:
            degrees = range(tgt_w[0] - src_w[1], tgt_w[1] - src_w[0] + 1)
        super().__init__(source, target, degrees, lambda n, i: i + n)

    def _d_column(self, n, k):
        field = self.source.field
        i, a, b = self._basis[n][k]
        out = [field.zero()] * self.carrier.dim(n + 1)
        index = self._index.get(n + 1, {})
        # d_N after the elementary map: column b of d_N at degree i + n.
        for b2 in range(self.target.dim(i + n + 1)):
            key = (i, a, b2)
            x = self.target.d.entry(i + n, b2, b)
            if key in index and not field.is_zero(x):
                out[index[key]] = field.add(out[index[key]], x)
        # minus (-1)^n times the elementary map after d_M: row a of d_M at i - 1.
        sgn = field.neg(field.sign(n))
        for a2 in range(self.source.dim(i - 1)):
            key = (i - 1, a2, b)
            x = self.source.d.entry(i - 1, a, a2)
            if key in index and not field.is_zero(x):
                out[index[key]] = field.add(out[index[key]], field.mul(sgn, x))
        return out

    def encode(self, gmap):
        """Coordinates of a graded map M -> N in the elementary basis."""
        if gmap.source != self.source.carrier or gmap.target != self.target.carrier:
            raise StructureError("graded map does not belong to this hom complex")
        return tuple(gmap.entry(i, b, a) for i, a, b in self.basis(gmap.degree))

    def decode(self, n, vec):
        """The graded map of degree n with the given coordinates."""
        if len(vec) != self.carrier.dim(n):
            raise StructureError(
                f"vector length {len(vec)} != hom dimension {self.carrier.dim(n)}"
            )
        return GradedMap.from_entries(
            self.source.carrier,
            self.target.carrier,
            n,
            ((i, b, a, x) for (i, a, b), x in zip(self.basis(n), vec)),
        )


class TensorComplex(_PairComplex):
    """M (x) N as a dg K-module with the pure-tensor basis."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        lw = left.carrier.window()
        rw = right.carrier.window()
        degrees = ()
        if lw and rw:
            degrees = range(lw[0] + rw[0], lw[1] + rw[1] + 1)
        super().__init__(left, right, degrees, lambda n, i: n - i)

    def _d_column(self, n, k):
        field = self.left.field
        i, a, b = self._basis[n][k]
        j = n - i
        out = [field.zero()] * self.carrier.dim(n + 1)
        index = self._index.get(n + 1, {})
        for a2 in range(self.left.dim(i + 1)):
            key = (i + 1, a2, b)
            x = self.left.d.entry(i, a2, a)
            if key in index and not field.is_zero(x):
                out[index[key]] = field.add(out[index[key]], x)
        sgn = field.sign(i)
        for b2 in range(self.right.dim(j + 1)):
            key = (i, a, b2)
            x = self.right.d.entry(j, b2, b)
            if key in index and not field.is_zero(x):
                out[index[key]] = field.add(out[index[key]], field.mul(sgn, x))
        return out

    def encode_pure(self, i, left_vec, j, right_vec):
        """Coordinates of left_vec (x) right_vec at degree i + j."""
        field = self.left.field
        n = i + j
        out = [field.zero()] * self.carrier.dim(n)
        if len(left_vec) != self.left.dim(i) or len(right_vec) != self.right.dim(j):
            raise StructureError("pure tensor factors have wrong lengths")
        for a, x in enumerate(left_vec):
            if field.is_zero(x):
                continue
            for b, y in enumerate(right_vec):
                if field.is_zero(y):
                    continue
                out[self._index[n][(i, a, b)]] = field.mul(x, y)
        return tuple(out)
