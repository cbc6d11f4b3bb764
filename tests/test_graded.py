import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F5, QQ, dense_blocks, qmat
from dgcat import linalg
from dgcat.complexes import dg_module, direct_sum
from dgcat.errors import StructureError
from dgcat.functors import linear_combination
from dgcat.graded import (
    DirectSum,
    GradedMap,
    GradedModule,
    combination,
    compose_graded,
    first_nonzero_sum,
    identity_map,
    kernel,
    map_from_action,
    place_blocks,
    zero_map,
)


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
    assert dense_blocks(f) == {0: qmat([[0, 2], [Fraction(3, 2), 0]]), 1: qmat([[3]])}
    assert f.support() == (0, 1)
    assert list(f.entries()) == [
        (0, 0, 1, 2),
        (0, 1, 0, Fraction(3, 2)),
        (1, 0, 0, 3),
    ]
    g = GradedMap.from_entries(src, tgt, 1, [(0, 0, 0, Fraction(1))])
    assert g.support() == (0,)
    assert g.entry(1, 0, 0) == 0
    assert g.entry(0, 0, 0) == 1
    assert g.block(1) == ((0,),)
    cancelled = GradedMap.from_entries(
        src, tgt, 1, [(0, 0, 0, Fraction(1)), (0, 0, 0, Fraction(-1))]
    )
    assert cancelled.is_zero()
    for outside in [(0, 2, 0), (0, -1, 0), (0, 0, 2), (1, 1, 0), (2, 0, 0)]:
        with pytest.raises(StructureError):
            GradedMap.from_entries(src, tgt, 1, [(*outside, Fraction(1))])


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
    field = F5
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


def _project(ds, part_index, degree, vec):
    """The coordinates of part part_index in a vector of the direct sum."""
    off = ds.offset(part_index, degree)
    return tuple(vec[off : off + ds.parts[part_index].dim(degree)])


def test_direct_sum_offsets_and_injections():
    a = GradedModule(QQ, {0: 1, 1: 2})
    b = GradedModule(QQ, {0: 2})
    ds = DirectSum([a, b])
    assert ds.module.dims() == {0: 3, 1: 2}
    assert ds.offset(1, 0) == 1
    vec = ds.inject(1, 0, (Fraction(5), Fraction(7)))
    assert vec == (Fraction(0), Fraction(5), Fraction(7))
    assert _project(ds, 0, 0, vec) == (Fraction(0),)
    assert _project(ds, 1, 0, vec) == (Fraction(5), Fraction(7))


def test_block_diag_map():
    a = dg_module(QQ, {0: 1, 1: 1}, {0: qmat([[2]])})
    b = dg_module(QQ, {0: 1, 1: 2}, {0: qmat([[3], [5]])})
    ds, module = direct_sum([a, b])
    assert ds.parts == (a.carrier, b.carrier)
    assert module.carrier == ds.module
    assert module.d.block(0) == qmat([[2, 0], [0, 3], [0, 5]])
    assert module.d.support() == (0,)


# Property test: every map graded.py derives from clean maps equals the
# checked GradedMap built from the same blocks computed densely.


@st.composite
def small_module(draw, field):
    return GradedModule(field, draw(st.dictionaries(st.integers(-1, 1), st.integers(0, 2))))


@st.composite
def dense_map(draw, field, source, target, degree):
    """Every block of a map source -> target, zeros included, entries in
    {-1, 0, 1} so that sums and products often cancel."""
    return {
        i: [
            [field.from_int(draw(st.integers(-1, 1))) for _ in range(source.dim(i))]
            for _ in range(target.dim(i + degree))
        ]
        for i in source.degrees()
        if target.dim(i + degree)
    }


def dense_zero(field, rows, cols):
    return [[field.zero()] * cols for _ in range(rows)]


def dense_sum(field, terms, source, target, degree):
    out = {}
    for i in source.degrees():
        rows, cols = target.dim(i + degree), source.dim(i)
        if rows:
            out[i] = dense_zero(field, rows, cols)
            for c, blocks in terms:
                for r in range(rows):
                    for k in range(cols):
                        out[i][r][k] = field.add(out[i][r][k], field.mul(c, blocks[i][r][k]))
    return out


def dense_product(field, g, f, a, b, c, n, m):
    """The blocks of g . f for dense f: a -> b of degree n, g: b -> c of degree m."""
    out = {}
    for i in a.degrees():
        rows, inner, cols = c.dim(i + n + m), b.dim(i + n), a.dim(i)
        if rows:
            out[i] = dense_zero(field, rows, cols)
            for r in range(rows):
                for k in range(cols):
                    for j in range(inner):
                        out[i][r][k] = field.add(
                            out[i][r][k], field.mul(g[i + n][r][j], f[i][j][k])
                        )
    return out


def dense_placed(field, source, target, degree, pieces):
    out = {}
    for i in source.module.degrees():
        rows = target.module.dim(i + degree)
        if rows:
            out[i] = dense_zero(field, rows, source.module.dim(i))
            for tp, sp, blocks in pieces:
                if i in blocks:
                    ro, co = target.offset(tp, i + degree), source.offset(sp, i)
                    for r, row in enumerate(blocks[i]):
                        out[i][ro + r][co : co + len(row)] = row
    return out


def assert_built_like_checked(got, source, target, degree, dense):
    """got equals the checked map of the dense blocks and is stored as
    their nonzero entries: entries() in (i, r, c) order with no zero, and
    support() the degrees whose dense block is nonzero."""
    field = got.field
    want = GradedMap(source, target, degree, dense)
    assert (got.source, got.target, got.degree) == (source, target, degree)
    assert got == want and hash(got) == hash(want)
    nonzero = [
        (i, r, c, v)
        for i, block in sorted(dense.items())
        for r, row in enumerate(block)
        for c, v in enumerate(row)
        if not field.is_zero(v)
    ]
    assert list(got.entries()) == nonzero
    assert got.support() == tuple(
        i for i, block in sorted(dense.items()) if not linalg.is_zero_matrix(field, block)
    )
    for i in source.degrees():
        block = got.block(i)
        assert type(block) is tuple and all(type(row) is tuple for row in block)
        rows, cols = target.dim(i + degree), source.dim(i)
        assert block == tuple(
            tuple(dense[i][r]) if i in dense else (field.zero(),) * cols
            for r in range(rows)
        )


@settings(deadline=None)
@given(st.data())
def test_derived_maps_equal_checked_dense_maps(data):
    field = data.draw(st.sampled_from([QQ, F5]))
    a, b, c = (data.draw(small_module(field)) for _ in range(3))
    n, m = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    dense = [data.draw(dense_map(field, a, b, n)) for _ in range(3)]
    maps = [GradedMap(a, b, n, blocks) for blocks in dense]
    coeffs = [field.from_int(data.draw(st.integers(-2, 2))) for _ in dense]
    one, minus = field.one(), field.neg(field.one())

    def check(got, terms):
        assert_built_like_checked(got, a, b, n, dense_sum(field, terms, a, b, n))

    check(maps[0].sub(maps[1]), [(one, dense[0]), (minus, dense[1])])
    check(maps[0].sub(maps[0]), [])
    check(maps[0].scale(coeffs[0]), [(coeffs[0], dense[0])])
    check(maps[0].scale(field.zero()), [])
    check(combination(a, b, n, list(zip(coeffs, maps))), list(zip(coeffs, dense)))
    check(linear_combination(coeffs, maps), list(zip(coeffs, dense)))
    # entries out of order, and summed where two maps share a position
    both = [*maps[1].entries(), *maps[0].entries()]
    check(GradedMap.from_entries(a, b, n, both), [(one, dense[0]), (one, dense[1])])
    check(
        map_from_action(a, b, n, lambda i, k: [row[k] for row in maps[2].block(i)]),
        [(one, dense[2])],
    )

    g_dense = data.draw(dense_map(field, b, c, m))
    g = GradedMap(b, c, m, g_dense)
    full = dense_sum(field, [(one, dense[0])], a, b, n)
    g_full = dense_sum(field, [(one, g_dense)], b, c, m)
    assert_built_like_checked(
        compose_graded(g, maps[0]), a, c, n + m,
        dense_product(field, g_full, full, a, b, c, n, m),
    )
    # g after the inclusion of its kernel: every product block cancels
    ker, incl = kernel(g)
    incl_full = {i: incl.block(i) for i in ker.degrees()}
    assert_built_like_checked(
        compose_graded(g, incl), ker, c, m,
        dense_product(field, g_full, incl_full, ker, b, c, 0, m),
    )

    # pieces at distinct pairs of parts; a second piece at one pair is refused
    source, target = DirectSum([a, a]), DirectSum([b, b])
    candidates = [(0, 0, 0), (1, 1, 1), (1, 0, 2), (0, 0, 1)]
    chosen = data.draw(
        st.lists(st.sampled_from(candidates), max_size=4, unique_by=lambda p: p[:2])
    )
    pieces = [(tp, sp, maps[k]) for tp, sp, k in chosen]
    assert_built_like_checked(
        place_blocks(source, target, n, pieces),
        source.module, target.module, n,
        dense_placed(field, source, target, n, [(tp, sp, dense[k]) for tp, sp, k in chosen]),
    )
    if pieces:
        tp, sp, _ = data.draw(st.sampled_from(pieces))
        again = (tp, sp, maps[data.draw(st.integers(0, 2))])
        with pytest.raises(StructureError):
            place_blocks(source, target, n, pieces + [again])


def test_place_blocks_refuses_two_maps_for_one_pair_of_parts():
    # a draw of the property test above: a later zero piece at the same
    # pair of parts once left the earlier block in place
    a, b = GradedModule(QQ, {0: 1}), GradedModule(QQ, {1: 2})
    first = GradedMap(a, b, 1, {0: qmat([[0], [1]])})
    source, target = DirectSum([a, a]), DirectSum([b, b])
    with pytest.raises(StructureError):
        place_blocks(source, target, 1, [(0, 0, first), (0, 0, zero_map(a, b, 1))])
    placed = qmat([[0, 0], [1, 0], [0, 0], [0, 0]])
    assert place_blocks(source, target, 1, [(0, 0, first)]) == GradedMap(
        source.module, target.module, 1, {0: placed}
    )


def test_cancelling_blocks_are_dropped():
    m = GradedModule(QQ, {0: 2})
    row = GradedMap(m, GradedModule(QQ, {0: 1}), 0, {0: qmat([[1, 1]])})
    column = GradedMap(GradedModule(QQ, {0: 1}), m, 0, {0: qmat([[1], [-1]])})
    assert compose_graded(row, column).support() == ()
    assert combination(m, m, 0, [(1, identity_map(m)), (-1, identity_map(m))]).support() == ()


@settings(deadline=None)
@given(st.data())
def test_compose_graded_equals_the_dense_product(data):
    # small_module leaves degrees out, so blocks go absent and middle
    # degrees are zero-dimensional; entries in {-1, 0, 1} often cancel
    field = data.draw(st.sampled_from([QQ, F5]))
    a, b, c = (data.draw(small_module(field)) for _ in range(3))
    n, m = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    f_dense = data.draw(dense_map(field, a, b, n))
    g_dense = data.draw(dense_map(field, b, c, m))
    got = compose_graded(GradedMap(b, c, m, g_dense), GradedMap(a, b, n, f_dense))
    want = dense_product(field, g_dense, f_dense, a, b, c, n, m)
    assert_built_like_checked(got, a, c, n + m, want)


@settings(deadline=None)
@given(st.data())
def test_first_nonzero_sum_is_the_first_sum_not_the_zero_map(data):
    """Triples (key, lhs, rhs) of sides of terms c * m and c * (g . f), with
    c in -2..2, against the totals of their sides built by combination:
    the key of the first triple whose totals differ.  About half of the
    triples get lhs's own total as rhs, so their sides are equal, by
    cancellation between terms of any coefficient, and nonzero whenever
    that total is.  No triple after the first unequal one is read."""
    field = data.draw(st.sampled_from([QQ, F5]))
    one = field.one()
    # every degree of -1..1 present, so that most composites are nonzero
    a, b, c = (
        GradedModule(field, {d: data.draw(st.integers(1, 2)) for d in (-1, 0, 1)})
        for _ in range(3)
    )
    n, m = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))

    def draw_map(source, target, degree):
        return GradedMap(source, target, degree, data.draw(dense_map(field, source, target, degree)))

    def draw_side():
        terms = []
        for _ in range(data.draw(st.integers(0, 3))):
            coeff = field.from_int(data.draw(st.integers(-2, 2)))
            if data.draw(st.booleans()):
                terms.append((coeff, draw_map(a, c, n + m)))
            else:
                terms.append((coeff, draw_map(b, c, m), draw_map(a, b, n)))
        return terms, combination(a, c, n + m, terms)

    triples = []
    for key in range(3):
        (lhs, lhs_total), (rhs, rhs_total) = draw_side(), draw_side()
        if data.draw(st.booleans()):
            rhs, rhs_total = [(one, lhs_total)], lhs_total
        triples.append((key, lhs, rhs, lhs_total != rhs_total))
    want = next((key for key, _, _, differ in triples if differ), None)

    def lazily():
        for key, lhs, rhs, _ in triples:
            yield key, lhs, rhs
            assert key != want, "a triple after the first unequal one was read"

    assert first_nonzero_sum(field, lazily()) == want
    # equal nonzero sides: 2 * id + (id . id) = 3 * id, and its mirror
    ident, two = identity_map(a), field.from_int(2)
    lhs, rhs = [(two, ident), (one, ident, ident)], [(field.from_int(3), ident)]
    assert first_nonzero_sum(field, [("equal", lhs, rhs), ("mirror", rhs, lhs)]) is None
    assert first_nonzero_sum(field, [("unequal", lhs, [(two, ident)])]) == "unequal"


def test_compose_graded_absent_blocks_empty_middle_and_cancellation():
    a = GradedModule(QQ, {0: 1, 1: 1})
    b = GradedModule(QQ, {0: 2})  # b^1 = 0: nothing passes through degree 1
    c = GradedModule(QQ, {0: 1, 1: 1})
    f = GradedMap(a, b, 0, {0: qmat([[1], [1]])})
    cancels = GradedMap(b, c, 0, {0: qmat([[1, -1]])})
    shifts = GradedMap(b, c, 1, {0: qmat([[0, 3]])})
    assert compose_graded(cancels, f).support() == ()
    assert dense_blocks(compose_graded(shifts, f)) == {0: qmat([[3]])}
    assert compose_graded(shifts, zero_map(a, b, 0)).is_zero()
    with pytest.raises(StructureError):
        compose_graded(f, f)


def test_maps_are_hashed_and_compared_by_their_entries():
    m = GradedModule(QQ, {0: 1})
    one, two = (GradedMap(m, m, 0, {0: qmat([[x]])}) for x in (1, 2))
    memo = {(one, two): "a", (two, one): "b"}
    two_again = combination(m, m, 0, [(1, two), (1, zero_map(m, m, 0))])
    assert memo[(identity_map(m), two_again)] == "a"
    assert memo[(two.scale(1), one)] == "b"


def test_a_map_of_one_entry_is_stored_in_the_size_of_one_entry():
    # a dense 120 x 120 block takes more than 100 KB; one nonzero entry
    # of it, and the composite of two such maps, take under 16 KB each
    m = GradedModule(QQ, {0: 120})

    def allocated(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_entry = [(0, 3, 5, Fraction(2))]
    f = GradedMap.from_entries(m, m, 0, one_entry)
    g = GradedMap.from_entries(m, m, 0, [(0, 7, 3, Fraction(3))])
    assert allocated(lambda: GradedMap.from_entries(m, m, 0, one_entry)) < 16_000
    assert allocated(lambda: compose_graded(g, f)) < 16_000
    assert list(compose_graded(g, f).entries()) == [(0, 7, 5, 6)]
    assert allocated(lambda: f.block(0)) > 100_000
