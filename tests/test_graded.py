import random
from fractions import Fraction

import pytest

from dgcat import linalg
from dgcat.errors import StructureError
from dgcat.fields import PrimeField, Rationals
from dgcat.graded import (
    DirectSum,
    GradedMap,
    GradedModule,
    compose_graded,
    identity_map,
    kernel,
    map_from_action,
    zero_map,
)

QQ = Rationals()


def qmat(rows):
    return linalg.freeze([[Fraction(x) for x in row] for row in rows])


def random_module(rng, field, max_dim=3, lo=-2, hi=2):
    dims = {}
    for deg in range(lo, hi + 1):
        if rng.random() < 0.6:
            dims[deg] = rng.randint(1, max_dim)
    return GradedModule(field, dims)


def random_map(rng, field, source, target, degree):
    blocks = {}
    for i in source.degrees():
        rows = target.dim(i + degree)
        cols = source.dim(i)
        if rows and cols:
            blocks[i] = [
                [field.from_int(rng.randint(-2, 2)) for _ in range(cols)]
                for _ in range(rows)
            ]
    return GradedMap(source, target, degree, blocks)


def test_module_drops_zero_dims_and_sorts():
    m = GradedModule(QQ, {3: 0, -1: 2, 0: 1})
    assert m.dims() == {-1: 2, 0: 1}
    assert m.degrees() == (-1, 0)
    assert m.window() == (-1, 0)
    assert m.total_dim() == 3
    assert m.dim(5) == 0


def test_map_entries_build_and_read_blocks():
    src = GradedModule(QQ, {0: 2, 1: 1})
    tgt = GradedModule(QQ, {1: 2, 2: 1})
    f = GradedMap.from_entries(
        src,
        tgt,
        1,
        [(1, 0, 0, Fraction(3)), (0, 1, 0, Fraction(1)), (0, 1, 0, Fraction(1, 2)),
         (0, 0, 1, Fraction(2)), (0, 0, 0, Fraction(0))],
    )
    assert f.blocks == {0: qmat([[0, 2], [Fraction(3, 2), 0]]), 1: qmat([[3]])}
    assert list(f.entries()) == [
        (0, 0, 1, 2),
        (0, 1, 0, Fraction(3, 2)),
        (1, 0, 0, 3),
    ]
    g = GradedMap.from_entries(src, tgt, 1, [(0, 0, 0, Fraction(1))])
    assert 1 not in g.blocks
    assert g.entry(1, 0, 0) == 0
    assert 1 not in g.blocks
    assert g.entry(0, 0, 0) == 1
    cancelled = GradedMap.from_entries(
        src, tgt, 1, [(0, 0, 0, Fraction(1)), (0, 0, 0, Fraction(-1))]
    )
    assert cancelled.is_zero()


def test_map_shape_validation():
    src = GradedModule(QQ, {0: 2})
    tgt = GradedModule(QQ, {0: 1})
    with pytest.raises(StructureError):
        GradedMap(src, tgt, 0, {0: qmat([[1, 2], [3, 4]])})


def test_map_drops_zero_blocks():
    src = GradedModule(QQ, {0: 1})
    f = GradedMap(src, src, 0, {0: qmat([[0]])})
    assert f.is_zero()
    assert f == zero_map(src, src, 0)


def test_compose_identity_and_zero():
    rng = random.Random(1)
    src = random_module(rng, QQ)
    tgt = random_module(rng, QQ)
    f = random_map(rng, QQ, src, tgt, 1)
    assert compose_graded(identity_map(tgt), f) == f
    assert compose_graded(f, identity_map(src)) == f
    z = zero_map(tgt, tgt, 0)
    assert compose_graded(z, f).is_zero()


def test_compose_degrees_add_scalar_blocks():
    m = GradedModule(QQ, {0: 1})
    f = GradedMap(m, m, 0, {0: qmat([[3]])})
    g = GradedMap(m, m, 0, {0: qmat([[2]])})
    assert compose_graded(g, f).block(0) == qmat([[6]])


def test_compose_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(25):
        a = random_module(rng, QQ, max_dim=2)
        b = random_module(rng, QQ, max_dim=2)
        c = random_module(rng, QQ, max_dim=2)
        d = random_module(rng, QQ, max_dim=2)
        f = random_map(rng, QQ, a, b, rng.randint(-1, 1))
        g = random_map(rng, QQ, b, c, rng.randint(-1, 1))
        h = random_map(rng, QQ, c, d, rng.randint(-1, 1))
        assert compose_graded(h, compose_graded(g, f)) == compose_graded(
            compose_graded(h, g), f
        )


def test_compose_associative_over_f5():
    rng = random.Random(11)
    field = PrimeField(5)
    for _ in range(10):
        a = random_module(rng, field, max_dim=2)
        b = random_module(rng, field, max_dim=2)
        c = random_module(rng, field, max_dim=2)
        d = random_module(rng, field, max_dim=2)
        f = random_map(rng, field, a, b, 0)
        g = random_map(rng, field, b, c, 1)
        h = random_map(rng, field, c, d, -1)
        assert compose_graded(h, compose_graded(g, f)) == compose_graded(
            compose_graded(h, g), f
        )


def test_kernel_of_zero_is_source():
    src = GradedModule(QQ, {0: 2, 1: 1})
    tgt = GradedModule(QQ, {0: 1})
    f = zero_map(src, tgt, 0)
    ker, incl = kernel(f)
    assert ker.dims() == src.dims()
    assert compose_graded(f, incl).is_zero()


def test_kernel_of_identity_is_zero():
    src = GradedModule(QQ, {0: 2})
    ker, _ = kernel(identity_map(src))
    assert ker.is_zero()


def test_kernel_rank_nullity():
    src = GradedModule(QQ, {0: 2})
    tgt = GradedModule(QQ, {0: 1})
    f = GradedMap(src, tgt, 0, {0: qmat([[1, 1]])})
    ker, incl = kernel(f)
    assert ker.dim(0) == 1
    assert compose_graded(f, incl).is_zero()


def test_kernel_inclusion_composes_to_zero_random():
    rng = random.Random(23)
    for _ in range(20):
        src = random_module(rng, QQ, max_dim=3)
        tgt = random_module(rng, QQ, max_dim=3)
        f = random_map(rng, QQ, src, tgt, rng.randint(-1, 1))
        ker, incl = kernel(f)
        assert compose_graded(f, incl).is_zero()
        for i in src.degrees():
            assert ker.dim(i) == src.dim(i) - linalg.rank(QQ, f.block(i))


def test_map_from_action_matches_blocks():
    src = GradedModule(QQ, {0: 2})
    tgt = GradedModule(QQ, {1: 2})
    want = GradedMap(src, tgt, 1, {0: qmat([[1, 2], [3, 4]])})
    got = map_from_action(src, tgt, 1, lambda i, k: tuple(want.block(i)[r][k] for r in range(2)))
    assert got == want


def test_direct_sum_offsets_and_injections():
    a = GradedModule(QQ, {0: 1, 1: 2})
    b = GradedModule(QQ, {0: 2})
    ds = DirectSum([a, b])
    assert ds.module.dims() == {0: 3, 1: 2}
    assert ds.offset(1, 0) == 1
    vec = ds.inject(1, 0, (Fraction(5), Fraction(7)))
    assert vec == (Fraction(0), Fraction(5), Fraction(7))
    assert ds.project(0, 0, vec) == (Fraction(0),)
    assert ds.project(1, 0, vec) == (Fraction(5), Fraction(7))


def test_block_diag_map():
    a = GradedModule(QQ, {0: 1})
    b = GradedModule(QQ, {0: 1})
    ds = DirectSum([a, b])
    fa = GradedMap(a, a, 0, {0: qmat([[2]])})
    fb = GradedMap(b, b, 0, {0: qmat([[3]])})
    m = ds.block_diag([fa, fb])
    assert m.block(0) == qmat([[2, 0], [0, 3]])
