import random
from fractions import Fraction

from conftest import F5, QQ, k_module, qmat, tensor_differential_oracle
from dgcat import linalg
from dgcat.graded import GradedMap, GradedModule
from dgcat.complexes import (
    DgModule,
    HomComplex,
    TensorComplex,
    dg_module,
    hom_differential,
    zero_dg_module,
)


def is_closed_degree_zero(source, target, f):
    """True iff f has degree 0 and commutes with the differentials."""
    if f.degree != 0:
        return False
    return hom_differential(source, target, f).is_zero()


def contractible(field=QQ):
    """K in degrees 0 and 1 with the identity differential."""
    return dg_module(field, {0: 1, 1: 1}, {0: [[field.one()]]})


def random_dg_module(rng, field, max_dim=2, lo=-2, hi=2):
    dims = {}
    for deg in range(lo, hi + 1):
        if rng.random() < 0.6:
            dims[deg] = rng.randint(1, max_dim)
    carrier = GradedModule(field, dims)
    blocks = {}
    prev_nonzero = False
    for i in sorted(dims):
        rows = carrier.dim(i + 1)
        cols = carrier.dim(i)
        if rows and cols and not prev_nonzero and rng.random() < 0.5:
            block = [
                [field.from_int(rng.randint(-1, 1)) for _ in range(cols)]
                for _ in range(rows)
            ]
            blocks[i] = block
            prev_nonzero = not linalg.is_zero_matrix(field, block)
        else:
            prev_nonzero = False
    return DgModule(carrier, GradedMap(carrier, carrier, 1, blocks))


def test_dg_module_rejects_bad_square():
    import pytest
    from dgcat.errors import StructureError

    carrier = GradedModule(QQ, {0: 1, 1: 1, 2: 1})
    d = GradedMap(carrier, carrier, 1, {0: qmat([[1]]), 1: qmat([[1]])})
    with pytest.raises(StructureError):
        DgModule(carrier, d)


def test_hom_complex_dimension_bookkeeping():
    rng = random.Random(3)
    for _ in range(15):
        m = random_dg_module(rng, QQ)
        n = random_dg_module(rng, QQ)
        hc = HomComplex(m, n)
        for deg in range(-6, 7):
            expected = sum(
                m.dim(i) * n.dim(i + deg) for i in m.carrier.degrees()
            )
            assert hc.module.dim(deg) == expected


def test_hom_complex_d_squared_zero():
    rng = random.Random(5)
    for _ in range(15):
        m = random_dg_module(rng, QQ)
        n = random_dg_module(rng, QQ)
        assert HomComplex(m, n).module.d_squared_witness() is None


def test_hom_complex_matches_direct_formula():
    # The assembled differential matrix must agree with evaluating
    # d(a) = d_N . a - (-1)^|a| a . d_M on every basis element.
    rng = random.Random(9)
    for _ in range(10):
        m = random_dg_module(rng, QQ)
        n = random_dg_module(rng, QQ)
        hc = HomComplex(m, n)
        for deg in hc.module.carrier.degrees():
            for k in range(hc.module.dim(deg)):
                vec = tuple(
                    QQ.one() if t == k else QQ.zero()
                    for t in range(hc.module.dim(deg))
                )
                elementary = hc.decode(deg, vec)
                want = hom_differential(m, n, elementary)
                got = hc.decode(deg + 1, hc.module.d.apply(deg, vec))
                assert got == want


def test_hom_complex_contractible_example():
    # Source K in degrees {0,1} with identity differential, target K in
    # degree 0: Hom^0 and Hom^-1 are one-dimensional, and for the basis
    # element a of Hom^-1 we get d(a) = a . d_M (the sign -(-1)^-1 = +1),
    # which is the nonzero basis element of Hom^0.
    m = contractible()
    n = k_module()
    hc = HomComplex(m, n)
    assert hc.module.dim(0) == 1
    assert hc.module.dim(-1) == 1
    image = hc.module.d.apply(-1, (Fraction(1),))
    assert image == (Fraction(1),)
    alpha = hc.decode(-1, (Fraction(1),))
    assert hom_differential(m, n, alpha) == alpha.compose(m.d)


def test_d_of_identity_is_zero():
    rng = random.Random(13)
    for _ in range(10):
        m = random_dg_module(rng, QQ)
        hc = HomComplex(m, m)
        from dgcat.graded import identity_map

        ident = identity_map(m.carrier)
        assert hom_differential(m, m, ident).is_zero()
        if hc.module.dim(0):
            vec = hc.encode(ident)
            assert all(QQ.is_zero(x) for x in hc.module.d.apply(0, vec))


def test_hom_encode_decode_roundtrip():
    rng = random.Random(17)
    m = random_dg_module(rng, QQ)
    n = random_dg_module(rng, QQ)
    hc = HomComplex(m, n)
    for deg in hc.module.carrier.degrees():
        vec = tuple(
            QQ.from_int(rng.randint(-3, 3)) for _ in range(hc.module.dim(deg))
        )
        assert hc.encode(hc.decode(deg, vec)) == vec


def test_tensor_complex_dims_and_d_squared():
    rng = random.Random(21)
    for _ in range(15):
        m = random_dg_module(rng, QQ)
        n = random_dg_module(rng, QQ)
        tc = TensorComplex(m, n)
        for deg in range(-6, 7):
            expected = sum(
                m.dim(i) * n.dim(deg - i) for i in m.carrier.degrees()
            )
            assert tc.module.dim(deg) == expected
        assert tc.module.d_squared_witness() is None


def test_tensor_leibniz_on_random_pure_tensors():
    rng = random.Random(25)
    for _ in range(10):
        m = random_dg_module(rng, QQ)
        n = random_dg_module(rng, QQ)
        tc = TensorComplex(m, n)
        for i in m.carrier.degrees():
            for j in n.carrier.degrees():
                x = tuple(QQ.from_int(rng.randint(-2, 2)) for _ in range(m.dim(i)))
                y = tuple(QQ.from_int(rng.randint(-2, 2)) for _ in range(n.dim(j)))
                via_matrix = tc.module.d.apply(i + j, tc.encode_pure(i, x, j, y))
                via_oracle = tensor_differential_oracle(tc, i, x, j, y)
                assert via_matrix == via_oracle


def test_tensor_sign_degree_one_example():
    # |m| = 1: d(m (x) n) = d(m) (x) n - m (x) d(n).
    m = dg_module(QQ, {1: 1, 2: 1}, {1: [[Fraction(1)]]})
    n = contractible()
    tc = TensorComplex(m, n)
    x = (Fraction(1),)
    y = (Fraction(1),)
    got = tc.module.d.apply(1, tc.encode_pure(1, x, 0, y))
    dm_part = tc.encode_pure(2, (Fraction(1),), 0, y)
    dn_part = tc.encode_pure(1, x, 1, (Fraction(1),))
    want = tuple(a - b for a, b in zip(dm_part, dn_part))
    assert got == want


def test_tensor_with_unit_is_identity_shape():
    rng = random.Random(29)
    unit = k_module()
    for _ in range(8):
        n = random_dg_module(rng, QQ)
        tc = TensorComplex(unit, n)
        assert tc.module.carrier.dims() == n.carrier.dims()
        assert tc.module.d == n.d


def test_zero_differentials_give_zero_tensor_differential():
    m = dg_module(QQ, {0: 2, 1: 1}, {})
    n = dg_module(QQ, {-1: 1, 0: 1}, {})
    tc = TensorComplex(m, n)
    assert tc.module.d.is_zero()


def test_is_closed_degree_zero():
    m = contractible()
    n = k_module()
    from dgcat.graded import identity_map, zero_map

    assert is_closed_degree_zero(m, m, identity_map(m.carrier))
    assert is_closed_degree_zero(m, n, zero_map(m.carrier, n.carrier, 0))
    # degree-0 map M -> K is closed iff it kills the image of d;
    # the projection to degree 0 does not (d hits degree 1 from 0, and the
    # block M^0 -> N^0 composed with d at -1 vanishes, so closedness holds).
    f = GradedMap(m.carrier, n.carrier, 0, {0: qmat([[1]])})
    assert is_closed_degree_zero(m, n, f)
    # a degree-1 map is never closed-degree-zero
    g = GradedMap(m.carrier, n.carrier, -1, {1: qmat([[1]])})
    assert not is_closed_degree_zero(m, n, g)


def test_closedness_decided_by_exact_computation():
    # M contractible (degrees 0,1, d = id), N = K in degree 1:
    # f of degree 0 maps M^1 -> N^1; closed iff d_N . f = f . d_M, i.e.
    # 0 = f . d, and f . d is the composite M^0 -> M^1 -> N^1 = f, nonzero.
    m = contractible()
    n = k_module(degree=1)
    f = GradedMap(m.carrier, n.carrier, 0, {1: qmat([[1]])})
    assert not is_closed_degree_zero(m, n, f)


def test_zero_dg_module_and_f5_complexes():
    field = F5
    z = zero_dg_module(field)
    assert z.is_zero()
    rng = random.Random(31)
    m = random_dg_module(rng, field)
    n = random_dg_module(rng, field)
    assert HomComplex(m, n).module.d_squared_witness() is None
    assert TensorComplex(m, n).module.d_squared_witness() is None
