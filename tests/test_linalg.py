import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F5, QQ, nat_from_flat, nat_to_flat
from dgcat import linalg
from dgcat.comma import build_coproduct_module
from dgcat.complexes import dg_module
from dgcat.errors import StructureError
from dgcat.fields import PrimeField, field_from_descriptor
from dgcat.fixtures import random_theorem_fixture, trivial_category
from dgcat.functors import (
    Basis,
    DgFunctor,
    _solve_families,
    dgnat_space,
    dgnat_window,
    nat_unknowns,
)
from dgcat.linalg import dense_vector


def test_field_axioms_spot():
    for field in (QQ, F5, PrimeField(2)):
        a = field.from_int(3)
        b = field.from_int(-7)
        assert field.add(a, field.neg(a)) == field.zero()
        assert field.mul(a, field.one()) == a
        if not field.is_zero(b):
            assert field.mul(b, field.inv(b)) == field.one()
        with pytest.raises(ZeroDivisionError):
            field.div(a, field.zero())


def test_prime_field_rejects_composites():
    with pytest.raises(StructureError):
        PrimeField(6)
    with pytest.raises(StructureError):
        PrimeField(1)


def test_prime_field_checks_a_large_modulus_fast():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    with pytest.raises(StructureError):
        PrimeField(561)  # a Carmichael number: 3 * 11 * 17


@pytest.mark.parametrize("modulus", [2**64 + 13, "5", True])
def test_field_descriptor_rejects_bad_modulus(modulus):
    with pytest.raises(StructureError):
        field_from_descriptor({"Fp": modulus})


def test_scalar_parse_format_roundtrip():
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.format(QQ.parse("-3/6")) == "-1/2"
    with pytest.raises(StructureError):
        QQ.parse("1.5")
    assert F5.parse("4") == 4
    with pytest.raises(StructureError):
        F5.parse("7")
    with pytest.raises(StructureError):
        F5.parse("-1")


def test_field_descriptor_roundtrip():
    assert field_from_descriptor(QQ.descriptor()) == QQ
    assert field_from_descriptor(F5.descriptor()) == F5


def test_sign_scalar():
    assert QQ.sign(3) == Fraction(-1)
    assert QQ.sign(4) == Fraction(1)
    assert PrimeField(2).sign(1) == 1  # signs collapse in characteristic 2
    assert F5.sign(1) == 4


def test_rref_and_rank():
    mat = (
        (Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(2), Fraction(4), Fraction(6)),
        (Fraction(0), Fraction(1), Fraction(1)),
    )
    assert linalg.rank(QQ, mat) == 2


def test_nullspace_satisfies_system():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    basis = linalg.nullspace(QQ, rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(a * vec.get(c, 0) for c, a in row.items()) == 0 for row in rows)


def _column_pair(field, rows):
    """A dg-functor pair over K whose degree-0 transformations are the
    columns K -> K^rows, and their unknown keys: one per row."""
    cat = trivial_category(field)
    F = DgFunctor(cat, {"*": dg_module(field, {0: 1}, {})}, {})
    G = DgFunctor(cat, {"*": dg_module(field, {0: rows}, {})}, {})
    return F, G, nat_unknowns(F, G, 0)


def _kernel_basis(field, rows, ncols):
    """(F, G, keys, basis): _column_pair(field, ncols), and the Basis that
    _solve_families reads off the kernel of rows, {column: value} dicts
    over its ncols unknowns, passed as extra rows."""
    F, G, keys = _column_pair(field, ncols)
    tagged = [("n",) + key for key in keys]
    constraints = [{tagged[c]: x for c, x in row.items()} for row in rows]
    return F, G, keys, _solve_families([("n", F, G)], 0, lambda nat: nat, constraints)


def _coordinates(basis, F, G, keys, flat):
    nat = nat_from_flat(F, G, 0, keys, flat)
    return basis.coordinates(tuple(nat.components.values()))


def _flat_elements(basis, F, G, keys):
    return [nat_to_flat(F, G, 0, keys, nat) for nat in basis]


def test_basis_coordinates_in_and_out_of_span():
    # kernel of x + y - z: free columns 1 and 2, each the last entry of its
    # vector and a one there
    rows = [{0: 1, 1: 1, 2: -1}]
    kernel = linalg.nullspace(QQ, rows, 3)
    assert kernel == [{0: -1, 1: 1}, {0: 1, 2: 1}]
    assert [list(vec.items())[-1] for vec in kernel] == [(1, 1), (2, 1)]
    F, G, keys, basis = _kernel_basis(QQ, rows, 3)
    assert _flat_elements(basis, F, G, keys) == [(-1, 1, 0), (1, 0, 1)]
    # the index is (leg position, degree, row, column): rows 1 and 2
    assert basis.free == {(0, 0, 1, 0): 0, (0, 0, 2, 0): 1}
    assert _coordinates(basis, F, G, keys, (1, 2, 3)) == {0: 2, 1: 3}
    assert _coordinates(basis, F, G, keys, (0, 1, 0)) is None
    # a trivial kernel: zero gives no coordinates, anything else None
    F, G, keys, empty = _kernel_basis(QQ, [{0: 1}, {1: 1}, {2: 1}], 3)
    assert empty == [] and empty.legs == [] and empty.free == {}
    for basis in (empty, Basis(QQ)):
        assert _coordinates(basis, F, G, keys, (0, 0, 0)) == {}
        assert _coordinates(basis, F, G, keys, (1, 0, 0)) is None


def test_basis_coordinates_of_a_consistent_system():
    # a zero row adds no constraint
    rows = [{0: Fraction(1), 1: Fraction(1)}, {}]
    assert linalg.nullspace(QQ, rows, 2) == [{0: -1, 1: 1}]
    F, G, keys, basis = _kernel_basis(QQ, rows, 2)
    assert _flat_elements(basis, F, G, keys) == [(-1, 1)]
    assert _coordinates(basis, F, G, keys, (-2, 2)) == {0: 2}
    assert _coordinates(basis, F, G, keys, (0, 1)) is None


def test_solve_linear_one_equation():
    basis = linalg.solve_linear(QQ, ["x", "y"], [{"x": Fraction(1), "y": Fraction(1)}])
    assert len(basis) == 1
    x, y = dense_vector(QQ, basis[0].items(), 2)
    assert x + y == 0 and (x, y) != (0, 0)


def test_solve_linear_empty_system_full_space():
    basis = linalg.solve_linear(QQ, ["x", "y"], [])
    assert len(basis) == 2


def test_solve_linear_duplicate_rows_counted_once():
    rows = [{"x": Fraction(1)}, {"x": Fraction(1)}]
    basis = linalg.solve_linear(QQ, ["x", "y"], rows)
    assert len(basis) == 1


def test_solve_linear_undeclared_unknown():
    with pytest.raises(StructureError):
        linalg.solve_linear(QQ, ["x"], [{"z": Fraction(1)}])


def test_solve_linear_over_f5():
    basis = linalg.solve_linear(F5, ["x", "y"], [{"x": 2, "y": 3}])
    assert len(basis) == 1
    x, y = dense_vector(F5, basis[0].items(), 2)
    assert (2 * x + 3 * y) % 5 == 0


# ---------------------------------------------------------------------------
# the sparse solve path against a dense Gauss-Jordan reference


def reference_nullspace(field, rows, ncols):
    """Kernel basis by textbook dense Gauss-Jordan elimination: first
    nonzero pivot per column, one free column set to one per vector."""
    mat = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(mat[i][fc])
        basis.append(tuple(vec))
    return basis


SCALARS = {
    "Q": st.builds(QQ.div, st.integers(-3, 3), st.integers(1, 3)),
    "F5": st.integers(0, 4),
}


@st.composite
def sparse_system(draw, name):
    """(field, dense rows, ncols, a vector); each row has at most three
    nonzero entries."""
    field = {"Q": QQ, "F5": F5}[name]
    scalar = SCALARS[name]
    ncols = draw(st.integers(1, 8))
    entries = st.lists(st.tuples(st.integers(0, ncols - 1), scalar), max_size=3)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [field.zero()] * ncols
        for c, x in draw(entries):
            row[c] = x
        rows.append(tuple(row))
    vector = tuple(draw(st.lists(scalar, min_size=ncols, max_size=ncols)))
    return field, rows, ncols, vector


def _combine(field, coeffs, basis, ncols):
    out = [field.zero()] * ncols
    for c, vec in zip(coeffs, basis):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, vec)]
    return tuple(out)


@pytest.mark.parametrize("name", ["Q", "F5"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_solve_matches_dense_reference(name, data):
    field, rows, ncols, vector = data.draw(sparse_system(name))
    expected = reference_nullspace(field, rows, ncols)
    sparse = [{c: x for c, x in enumerate(row) if not field.is_zero(x)} for row in rows]
    basis = linalg.nullspace(field, sparse, ncols)
    assert [dense_vector(field, vec.items(), ncols) for vec in basis] == expected
    for vec, dense in zip(basis, expected):
        # no zero is stored, and the last entry is a one at the free column
        assert not any(field.is_zero(x) for x in vec.values())
        free = max(c for c, x in enumerate(dense) if not field.is_zero(x))
        assert list(vec.items())[-1] == (free, field.one())
        assert list(vec) == sorted(vec)
    assert linalg.rank(field, rows) == ncols - len(expected)
    names = [f"x{c}" for c in range(ncols)]
    constraints = [{names[c]: x for c, x in row.items()} for row in sparse]
    assert linalg.solve_linear(field, names, constraints) == basis

    F, G, keys, solved = _kernel_basis(field, sparse, ncols)
    assert _flat_elements(solved, F, G, keys) == expected
    coeffs = data.draw(st.lists(SCALARS[name], min_size=len(expected), max_size=len(expected)))
    inside = _combine(field, coeffs, expected, ncols)
    nonzero = {b: c for b, c in enumerate(coeffs) if not field.is_zero(c)}
    assert _coordinates(solved, F, G, keys, inside) == nonzero

    in_kernel = all(
        field.is_zero(sum(field.mul(a, x) for a, x in zip(row, vector))) for row in rows
    )
    coords = _coordinates(solved, F, G, keys, vector)
    if in_kernel:
        dense = dense_vector(field, coords.items(), len(expected))
        assert _combine(field, dense, expected, ncols) == vector
    else:
        assert coords is None


@pytest.mark.parametrize("name", ["Q", "F5"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_add_names_the_unit_vectors_it_brings_in(name, data):
    """Echelon.add returns None iff the rank stays, and else, sorted, the
    columns whose unit vector the row space holds now and did not before:
    in reduced form, those whose pivot row is that unit."""
    field, rows, _, _ = data.draw(sparse_system(name))
    echelon = linalg.Echelon(field)

    def units():
        return {k for k, row in echelon.pivots.items() if len(row) == 1}

    for row in rows:
        before, rank = units(), len(echelon.pivots)
        added = echelon.add({c: x for c, x in enumerate(row) if not field.is_zero(x)})
        if len(echelon.pivots) == rank:
            assert added is None and units() == before
        else:
            assert added == sorted(units() - before) and before <= units()


# ---------------------------------------------------------------------------
# Q scalars are ints or Fractions, never floats or bools


def _is_q_scalar(x):
    return type(x) is int or type(x) is Fraction


def test_rational_operations_return_int_or_fraction():
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.parse("4")) is int and type(QQ.parse("-3/6")) is Fraction
    assert type(QQ.from_int(True)) is int
    values = [QQ.zero(), QQ.one(), QQ.from_int(-3), QQ.sign(1), QQ.sign(2),
              QQ.parse("1/2"), QQ.parse("6/3")]
    for a in values:
        for b in values:
            results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
            if b != 0:
                results += [QQ.div(a, b), QQ.inv(b)]
            assert all(_is_q_scalar(x) for x in results), (a, b, results)


def test_dgnat_basis_entries_are_int_or_fraction():
    fx = random_theorem_fixture(2, QQ)
    lam = fx["lambda"]
    modules = [build_coproduct_module(lam, o) for o in fx["comma_objects"]]
    checked = 0
    for F in modules:
        for G in modules:
            for n in dgnat_window(F, G):
                keys = nat_unknowns(F, G, n)
                for nat in dgnat_space(F, G, n):
                    vec = nat_to_flat(F, G, n, keys, nat)
                    assert all(_is_q_scalar(x) for x in vec), vec
                    checked += len(vec)
    assert checked > 0
