"""Exact linear algebra over a coefficient field.

A dense matrix is a sequence of rows; entry [r][c] is the coefficient
of source basis vector c in target basis vector r.  Rank, kernels and
linear systems go through one sparse exact elimination on
{column: value} rows.  All routines are deterministic: the reduced row
echelon form is unique, so no pivoting choice can change a result.
"""

from __future__ import annotations

from .errors import StructureError


def unit_vector(field, n, k):
    """The k-th standard basis vector of length n."""
    z, o = field.zero(), field.one()
    return tuple(o if i == k else z for i in range(n))


def dense_vector(field, entries, n):
    """Length-n vector from sparse (index, value) pairs."""
    out = [field.zero()] * n
    for k, v in entries:
        out[k] = v
    return tuple(out)


def is_zero_matrix(field, mat):
    return all(field.is_zero(x) for row in mat for x in row)


def vec_add(field, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))


def vec_scale(field, c, v):
    return tuple(field.mul(c, x) for x in v)


def _eliminate(field, row, c, pivot_row):
    """row - row[c] * pivot_row in place; column c drops out."""
    f = row.pop(c)
    for j, v in pivot_row.items():
        if j != c:
            x = field.sub(row.get(j, field.zero()), field.mul(f, v))
            if field.is_zero(x):
                row.pop(j, None)
            else:
                row[j] = x


class Echelon:
    """Sparse reduced row echelon form, grown one row at a time.

    pivots is {pivot column: row}, each row a {column: value} dict with a
    one at its pivot and zeros at every other pivot column.  add reduces a
    new row against the pivot rows, normalises it at its smallest
    remaining column and clears that column from the earlier rows.  The
    reduced row echelon form is unique, so it equals the dense one.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def add(self, row):
        """Add a dense sequence or {column: value} dict; True iff the rank rose."""
        field, pivots = self.field, self.pivots
        if isinstance(row, dict):
            row = dict(row)
        else:
            row = {c: x for c, x in enumerate(row) if not field.is_zero(x)}
        for c in [c for c in row if c in pivots]:
            _eliminate(field, row, c, pivots[c])
        if not row:
            return False
        p = min(row)
        inv = field.inv(row[p])
        row = {j: field.mul(inv, x) for j, x in row.items()}
        for other in pivots.values():
            if p in other:
                _eliminate(field, other, p, row)
        pivots[p] = row
        return True

    def has_unit(self, k):
        """True iff the k-th unit vector lies in the row space: in reduced
        form that is exactly when k is a pivot whose row is that unit."""
        return len(self.pivots.get(k, ())) == 1


def _rref(field, rows):
    """Sparse reduced row echelon form of rows (see Echelon): {pivot
    column: row}."""
    echelon = Echelon(field)
    for row in rows:
        echelon.add(row)
    return echelon.pivots


def rank(field, mat):
    return len(_rref(field, mat))


def nullspace(field, mat, ncols=None):
    """Deterministic basis of the right kernel.

    Rows as for _rref; dict rows need ncols.  Each basis vector has a
    single free column set to one, and that column is its last nonzero
    entry; free columns are taken in ascending order.
    """
    if ncols is None:
        if not mat:
            raise StructureError("nullspace of empty matrix needs ncols")
        ncols = len(mat[0])
    pivots = _rref(field, mat)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = field.neg(row[fc])
        basis.append(tuple(vec))
    return basis


def nullspace_coordinates(field, basis, target):
    """Coordinates of target in a basis returned by nullspace, or None.

    The coordinate on each basis vector is the target's entry at that
    vector's free column (its last nonzero entry); the coordinates are
    returned only if they rebuild the target exactly.
    """
    coords = []
    rebuilt = [field.zero()] * len(target)
    for vec in basis:
        fc = max(j for j, x in enumerate(vec) if not field.is_zero(x))
        c = target[fc]
        coords.append(c)
        if not field.is_zero(c):
            for j, x in enumerate(vec):
                if not field.is_zero(x):
                    rebuilt[j] = field.add(rebuilt[j], field.mul(c, x))
    if any(not field.is_zero(field.sub(x, y)) for x, y in zip(rebuilt, target)):
        return None
    return tuple(coords)


def solve_linear(field, unknowns, constraints):
    """Exact basis of the solution space of homogeneous constraints.

    unknowns: ordered sequence of hashable names.
    constraints: iterable of {name: coefficient} mappings, each meaning
    sum(coeff * value(name)) == 0.  Referencing an undeclared unknown is
    a structural error.  Zero and duplicate rows are dropped, so rank is
    counted once per independent constraint.
    """
    unknowns = list(unknowns)
    index = {}
    for i, name in enumerate(unknowns):
        if name in index:
            raise StructureError(f"duplicate unknown: {name!r}")
        index[name] = i
    seen = set()
    rows = []
    for constraint in constraints:
        row = {}
        for name, coeff in constraint.items():
            if name not in index:
                raise StructureError(f"constraint references undeclared unknown: {name!r}")
            if not field.is_zero(coeff):
                row[index[name]] = coeff
        key = tuple(sorted(row.items()))
        if not row or key in seen:
            continue
        seen.add(key)
        rows.append(row)
    return nullspace(field, rows, ncols=len(unknowns))
