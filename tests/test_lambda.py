import itertools
from fractions import Fraction

import pytest

from conftest import (
    F5,
    QQ,
    compose,
    compose_basis_coords,
    compose_from_products,
    kkk_setup,
    leibniz_witness,
    product_tables,
    random_setup,
    with_first_right_action_negated,
    zero_functor,
)
from dgcat import linalg
from dgcat.bimodule import Bimodule
from dgcat.category import (
    DgCategoryPresentation,
    validate_dg_category,
    with_zero_object,
)
from dgcat.errors import ValidationFailure
from dgcat.fixtures import random_axiom_fixture, random_theorem_fixture, zero_bimodule
from dgcat.functors import representable_module, validate_dg_functor
from dgcat.lambda_cat import (
    SLOT_M,
    SLOT_T,
    SLOT_U,
    build_lambda,
    restrict_module,
)
from dgcat.shipped import NAMES, shipped_workspace


def test_kkk_lambda_end_dims_and_table():
    # The one-pair endomorphism space is the lower triangular 2x2 algebra:
    # dimension 3 in degree 0, zero elsewhere, with the multiplication
    # table e_t e_t = e_t, e_m e_t = e_m, e_u e_m = e_m, e_u e_u = e_u and
    # all other products zero (hand-checked oracle).
    u_cat, t_cat, _, _, bim = kkk_setup()
    lam = build_lambda(t_cat, u_cat, bim)
    pres = lam.presentation
    pair = lam.object_name("t0", "u0")
    end = pres.hom[(pair, pair)]
    assert end.carrier.dims() == {0: 3}
    basis = {
        "t": pres.basis_element(pair, pair, 0, 0),
        "m": pres.basis_element(pair, pair, 0, 1),
        "u": pres.basis_element(pair, pair, 0, 2),
    }
    table = {}
    for gname, g in basis.items():
        for fname, f in basis.items():
            table[(gname, fname)] = compose(pres, g, f).coords
    one = Fraction(1)
    zero3 = (Fraction(0),) * 3
    assert table[("t", "t")] == (one, Fraction(0), Fraction(0))
    assert table[("m", "t")] == (Fraction(0), one, Fraction(0))
    assert table[("u", "m")] == (Fraction(0), one, Fraction(0))
    assert table[("u", "u")] == (Fraction(0), Fraction(0), one)
    for key in [("t", "m"), ("t", "u"), ("m", "m"), ("m", "u"), ("u", "t")]:
        assert table[key] == zero3
    assert validate_dg_category(pres).passed


def test_lambda_identity_is_diagonal():
    u_cat, t_cat, _, _, bim = kkk_setup()
    lam = build_lambda(t_cat, u_cat, bim)
    pair = lam.object_name("t0", "u0")
    ident = lam.presentation.identity(pair)
    assert ident.coords == (Fraction(1), Fraction(0), Fraction(1))


def test_zero_bimodule_block_diagonal():
    u_cat, t_cat, _, _, _ = kkk_setup()
    lam = build_lambda(t_cat, u_cat, zero_bimodule(u_cat, t_cat))
    pres = lam.presentation
    pair = lam.object_name("t0", "u0")
    end = pres.hom[(pair, pair)]
    # no m-block: only hom_T + hom_U survive
    assert end.carrier.dims() == {0: 2}
    assert validate_dg_category(pres).passed


def test_lambda_validates_on_random_fixtures():
    for seed in (0, 3):
        u_cat, t_cat, u_cx, t_cx, bim, _ = random_setup(seed, max_objects=1)
        lam = build_lambda(t_cat, u_cat, bim)
        assert validate_dg_category(lam.presentation).passed


def test_lambda_validates_f5():
    u_cat, t_cat, u_cx, t_cx, bim, _ = random_setup(
        1, field=F5, max_objects=1
    )
    lam = build_lambda(t_cat, u_cat, bim)
    assert validate_dg_category(lam.presentation).passed


def test_lambda_refuses_invalid_bimodule():
    u_cat, t_cat, u_cx, t_cx, bim, _ = random_setup(7, max_objects=1)
    bim = with_first_right_action_negated(bim)
    with pytest.raises(ValidationFailure) as exc:
        build_lambda(t_cat, u_cat, bim)
    assert exc.value.report is not None


def test_lambda_leibniz_identities():
    """Both bullet Leibniz identities are Lambda's composition_chain_map on
    the basis pairs (m, t) and (u, m)."""
    for seed in (0, 2, 5):
        u_cat, t_cat, u_cx, t_cx, bim, _ = random_setup(seed, max_objects=2)
        lam = build_lambda(t_cat, u_cat, bim, validate=False)
        report = validate_dg_category(lam.presentation)
        assert report.check("composition_chain_map").passed, report.render()


def test_lambda_leibniz_trivial_when_differentials_vanish():
    u_cat, t_cat, _, _, bim = kkk_setup()
    lam = build_lambda(t_cat, u_cat, bim)
    assert validate_dg_category(lam.presentation).check("composition_chain_map").passed


def _doubled_odd_lambda():
    """Lambda over the bimodule of random theorem seed 1 over Q with every
    odd-degree left and right action image doubled, so a bullet Leibniz
    identity fails at more than one degree of m."""
    fx = random_theorem_fixture(1, QQ)
    bim = fx["bimodule"]
    two = QQ.from_int(2)

    def doubled(images):
        return {
            key: {(m, k): im.scale(two) if m % 2 else im for (m, k), im in table.items()}
            for key, table in images.items()
        }

    bad = Bimodule(
        bim.left_base,
        bim.right_base,
        bim.values,
        doubled(bim.left_images),
        doubled(bim.right_images),
    )
    return build_lambda(fx["t_cat"], fx["u_cat"], bad, validate=False)


def test_lambda_leibniz_witness_is_the_first_violation():
    """Doubling the odd action images breaks d(u . m) = d(u) . m +
    (-1)^{|u|} u . d(m): Lambda fails composition_chain_map first, at a
    u-block morphism after an m-block one, and the witness is the first
    failing pair of a pair-by-pair oracle."""
    lam = _doubled_odd_lambda()
    failure = validate_dg_category(lam.presentation).first_failure()
    assert failure is not None and failure.name == "composition_chain_map"
    assert failure.witness == leibniz_witness(lam.presentation)
    x, y, z = failure.witness["triple"]
    (gd, gi), (fd, fi) = failure.witness["basis"]["g"], failure.witness["basis"]["f"]
    assert lam.slots[(y, z)][gd][gi][0] == SLOT_U
    assert lam.slots[(x, y)][fd][fi][0] == SLOT_M


def test_restrict_representable_module():
    # C = hom((t0,u0), -): C1(t) = hom_T(t0, t), C2(u) = M(u, t0) + hom_U(u0, u)
    u_cat, t_cat, _, _, bim = kkk_setup()
    lam = build_lambda(t_cat, u_cat, bim)
    pres = lam.presentation
    origin = lam.object_name("t0", "u0")
    module = representable_module(pres, origin)
    c1, c2 = restrict_module(lam, module)
    assert validate_dg_functor(c1).passed
    assert validate_dg_functor(c2).passed
    assert c1.on_objects["t0"].carrier.dims() == {0: 1}
    assert c2.on_objects["u0"].carrier.dims() == {0: 2}


def test_restrict_zero_module():
    u_cat, t_cat, _, _, bim = kkk_setup()
    lam = build_lambda(t_cat, u_cat, bim)
    c1, c2 = restrict_module(lam, zero_functor(lam.presentation))
    assert all(m.is_zero() for m in (*c1.on_objects.values(), *c2.on_objects.values()))


def test_restrict_on_random_lambda_representables():
    u_cat, t_cat, u_cx, t_cx, bim, rng = random_setup(4, max_objects=1)
    lam = build_lambda(t_cat, u_cat, bim, validate=False)
    pres = lam.presentation
    for origin in pres.objects:
        module = representable_module(pres, origin)
        c1, c2 = restrict_module(lam, module)
        r1, r2 = validate_dg_functor(c1), validate_dg_functor(c2)
        assert r1.passed, r1.render()
        assert r2.passed, r2.render()


def _oracle_tables(lam):
    """Lambda's product tables as the per-pair rule gives them: every basis
    pair of every object triple is multiplied as lower-triangular 2x2
    matrices through the bullet actions, and the dense composites are
    packed by compose_from_products."""
    pres, bimodule = lam.presentation, lam.bimodule
    field = pres.field
    t_ext, u_ext = with_zero_object(lam.t_cat), with_zero_object(lam.u_cat)
    pair_of = {p: tuple(p.split("|", 1)) for p in pres.objects}
    sums, slots = lam.sums, lam.slots

    def matrix_product(p1, p2, p3, gdeg, gidx, fdeg, fidx):
        slot_g, lg = slots[(p2, p3)][gdeg][gidx]
        slot_f, lf = slots[(p1, p2)][fdeg][fidx]
        (t1, u1), (t2, u2), (t3, u3) = pair_of[p1], pair_of[p2], pair_of[p3]
        n = gdeg + fdeg
        if slot_g == slot_f == SLOT_T:
            out = compose_basis_coords(t_ext, t1, t2, t3, gdeg, lg, fdeg, lf)
            return sums[(p1, p3)].inject(SLOT_T, n, out)
        if slot_g == slot_f == SLOT_U:
            out = compose_basis_coords(u_ext, u1, u2, u3, gdeg, lg, fdeg, lf)
            return sums[(p1, p3)].inject(SLOT_U, n, out)
        if (slot_g, slot_f) == (SLOT_M, SLOT_T):
            image = bimodule.right_images[(t1, t2, u3)][(fdeg, lf)]
            out = image.apply(gdeg, linalg.unit_vector(field, image.source.dim(gdeg), lg))
            out = tuple(field.mul(field.sign(gdeg * fdeg), v) for v in out)
            return sums[(p1, p3)].inject(SLOT_M, n, out)
        if (slot_g, slot_f) == (SLOT_U, SLOT_M):
            image = bimodule.left_images[(u2, u3, t1)][(gdeg, lg)]
            out = image.apply(fdeg, linalg.unit_vector(field, image.source.dim(fdeg), lf))
            return sums[(p1, p3)].inject(SLOT_M, n, out)
        return (field.zero(),) * pres.hom[(p1, p3)].dim(n)

    oracle = DgCategoryPresentation(field, pres.objects, pres.hom, {}, pres.ids)
    return product_tables(compose_from_products(oracle, matrix_product))


def _odd_sign_terms(lam):
    """The number of table entries m.t with |m| and |t| both odd."""
    pres = lam.presentation
    count = 0
    for p1, p2, p3 in itertools.product(pres.objects, repeat=3):
        for f, per_g in pres.products(p1, p2, p3).items():
            for g in per_g:
                if f[0] % 2 and g[0] % 2:
                    slot_f = lam.slots[(p1, p2)][f[0]][f[1]][0]
                    slot_g = lam.slots[(p2, p3)][g[0]][g[1]][0]
                    count += (slot_g, slot_f) == (SLOT_M, SLOT_T)
    return count


def _lambdas(theorem_fixtures):
    for name in NAMES:
        ws = shipped_workspace(name)
        yield name, (ws.categories["T"], ws.categories["U"], ws.bimodules["M"])
    for fx in theorem_fixtures:
        yield fx["name"], (fx["t_cat"], fx["u_cat"], fx["bimodule"])
    for field, seed in itertools.product((QQ, F5), range(10)):
        fx = random_axiom_fixture(seed, field)
        yield f"axiom{seed}/{field}", (fx["t_cat"], fx["u_cat"], fx["bimodule"])


def test_lambda_tables_equal_the_per_pair_rule(theorem_fixtures):
    """The blockwise tables equal the per-pair matrix products on every
    shipped, theorem and axiom instance, over Q and F_5."""
    odd_signs, d_of_m = 0, set()
    for name, inputs in _lambdas(theorem_fixtures):
        lam = build_lambda(*inputs, validate=False)
        assert product_tables(lam.presentation) == _oracle_tables(lam), name
        odd_signs += _odd_sign_terms(lam)
        if any(not value.d.is_zero() for value in lam.bimodule.values.values()):
            d_of_m.add(name)
    # the sign (-1)^{|m||t|} is -1 on some entries, and contractible's
    # bimodule has a nonzero differential
    assert odd_signs > 0
    assert "contractible" in d_of_m


def test_build_lambda_reads_no_composite_pair_by_pair(monkeypatch):
    """Work-count guard: the tables of Lambda are read off the tables of T
    and U and the action images, and the validation of its inputs and of
    Lambda reads tables too; no basis pair is composed on its own."""
    fx = random_theorem_fixture(6, QQ, max_objects=2)
    calls = []
    compose_basis = DgCategoryPresentation.compose_basis

    def counted(self, *args):
        calls.append(args)
        return compose_basis(self, *args)

    monkeypatch.setattr(DgCategoryPresentation, "compose_basis", counted)
    lam = build_lambda(fx["t_cat"], fx["u_cat"], fx["bimodule"])
    assert len(lam.presentation.objects) == 6
    assert calls == []
