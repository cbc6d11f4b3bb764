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
        """Add a {column: value} row of nonzero values: None if the rank
        stays, else, sorted, the columns whose unit vector the row space
        holds only now, which in reduced form are the pivots of the new row
        if it has one entry and of each earlier row cut to one entry."""
        field, pivots = self.field, self.pivots
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _eliminate(field, row, c, pivots[c])
        if not row:
            return None
        p = min(row)
        inv = field.inv(row[p])
        row = {j: field.mul(inv, x) for j, x in row.items()}
        units = [p] if len(row) == 1 else []
        for q, other in pivots.items():
            if p in other:
                _eliminate(field, other, p, row)
                if len(other) == 1:
                    units.append(q)
        pivots[p] = row
        return sorted(units)


def _rref(field, rows):
    """Sparse reduced row echelon form of rows (see Echelon): {pivot
    column: row}."""
    echelon = Echelon(field)
    for row in rows:
        echelon.add(row)
    return echelon.pivots


def rank(field, mat):
    """Rank of a dense matrix."""
    rows = ({c: x for c, x in enumerate(row) if not field.is_zero(x)} for row in mat)
    return len(_rref(field, rows))


def nullspace(field, rows, ncols):
    """Deterministic basis of the right kernel of {column: value} rows of
    nonzero values over ncols columns, one vector per free column in
    ascending order.  A vector is the dict of its nonzero entries in
    column order: a one at its free column, which is its last entry, after
    minus the reduced rows' values there at their pivot columns."""
    pivots = _rref(field, rows)
    basis = {fc: {} for fc in range(ncols) if fc not in pivots}
    for pc in sorted(pivots):
        for fc, x in pivots[pc].items():
            if fc != pc:
                basis[fc][pc] = field.neg(x)
    for fc, vec in basis.items():
        vec[fc] = field.one()
    return list(basis.values())


def solve_linear(field, unknowns, constraints):
    """Exact basis of the solution space of homogeneous constraints.

    unknowns: ordered sequence of hashable names.
    constraints: iterable of {name: coefficient} mappings, each meaning
    sum(coeff * value(name)) == 0.  Referencing an undeclared unknown is
    a structural error.  Zero and duplicate rows are dropped, so rank is
    counted once per independent constraint.  Returns nullspace's sparse
    basis, each vector keyed by positions in unknowns.
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
