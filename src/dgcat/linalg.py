"""Dense exact linear algebra over a coefficient field.

Matrices are tuples of row tuples; entry [r][c] is the coefficient of
source basis vector c in target basis vector r.  All routines are
deterministic: no pivoting heuristics, first nonzero entry wins.
"""

from __future__ import annotations

from .errors import StructureError


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def zeros(field, nrows, ncols):
    z = field.zero()
    return tuple((z,) * ncols for _ in range(nrows))


def identity(field, n):
    z, o = field.zero(), field.one()
    return tuple(
        tuple(o if i == j else z for j in range(n)) for i in range(n)
    )


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


def shape(mat):
    return (len(mat), len(mat[0]) if mat else 0)


def is_zero_matrix(field, mat):
    return all(field.is_zero(x) for row in mat for x in row)


def mat_add(field, a, b):
    if shape(a) != shape(b):
        raise StructureError(f"matrix shapes differ: {shape(a)} vs {shape(b)}")
    return tuple(
        tuple(field.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(field, c, a):
    return tuple(tuple(field.mul(c, x) for x in row) for row in a)


def mat_neg(field, a):
    return tuple(tuple(field.neg(x) for x in row) for row in a)


def mat_mul(field, a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise StructureError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    z = field.zero()
    out = []
    for i in range(ra):
        arow = a[i]
        row = []
        for j in range(cb):
            acc = z
            for k in range(ca):
                x = arow[k]
                if not field.is_zero(x):
                    acc = field.add(acc, field.mul(x, b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(field, a, v):
    nr, nc = shape(a)
    if len(v) != nc:
        raise StructureError(f"matrix is {nr}x{nc}, vector has length {len(v)}")
    z = field.zero()
    out = []
    for i in range(nr):
        acc = z
        row = a[i]
        for k, x in enumerate(v):
            if not field.is_zero(x):
                acc = field.add(acc, field.mul(row[k], x))
        out.append(acc)
    return tuple(out)


def vec_add(field, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))


def vec_sub(field, u, v):
    return tuple(field.sub(x, y) for x, y in zip(u, v))


def vec_scale(field, c, v):
    return tuple(field.mul(c, x) for x in v)


def is_zero_vector(field, v):
    return all(field.is_zero(x) for x in v)


def rref(field, rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not field.is_zero(mat[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return freeze(mat), pivots


def rank(field, mat):
    return len(rref(field, mat)[1]) if mat else 0


def nullspace(field, mat, ncols=None):
    """Deterministic basis of the right kernel.

    Each basis vector has a single free column set to one; free columns
    are taken in ascending order.
    """
    if ncols is None:
        if not mat:
            raise StructureError("nullspace of empty matrix needs ncols")
        ncols = len(mat[0])
    if not mat:
        return [
            tuple(
                field.one() if j == i else field.zero() for j in range(ncols)
            )
            for i in range(ncols)
        ]
    red, pivots = rref(field, mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for row_idx, pc in enumerate(pivots):
            vec[pc] = field.neg(red[row_idx][fc])
        basis.append(tuple(vec))
    return basis


def solve(field, mat, target):
    """One exact solution of mat * x = target, or None if inconsistent."""
    nr, nc = shape(mat) if mat else (len(target), 0)
    if nr != len(target):
        raise StructureError("right-hand side length mismatch")
    if nc == 0:
        return () if is_zero_vector(field, target) else None
    aug = [list(row) + [t] for row, t in zip(mat, target)]
    red, pivots = rref(field, aug)
    if nc in pivots:
        return None
    x = [field.zero()] * nc
    for row_idx, pc in enumerate(pivots):
        x[pc] = red[row_idx][nc]
    return tuple(x)


def solve_in_span(field, vectors, target):
    """Coordinates of target in the span of vectors, or None.

    vectors is a list of equal-length tuples; the returned tuple c
    satisfies sum(c[i] * vectors[i]) == target exactly.
    """
    if not vectors:
        return () if is_zero_vector(field, target) else None
    mat = tuple(
        tuple(vec[r] for vec in vectors) for r in range(len(target))
    )
    return solve(field, mat, target)


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
        row = [field.zero()] * len(unknowns)
        for name, coeff in constraint.items():
            if name not in index:
                raise StructureError(f"constraint references undeclared unknown: {name!r}")
            row[index[name]] = field.add(row[index[name]], coeff)
        if all(field.is_zero(x) for x in row):
            continue
        key = tuple(field.format(x) for x in row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(tuple(row))
    return nullspace(field, rows, ncols=len(unknowns))
