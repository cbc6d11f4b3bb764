import itertools
import random

import pytest

from conftest import (
    F5,
    QQ,
    bimodule_with_entry,
    compose,
    entry_spots,
    identity_nat,
    k_module,
    kkk_setup,
    random_setup,
    with_entry,
    with_first_right_action_negated,
    zero_functor,
)
from dgcat.bimodule import (
    Bimodule,
    GModule,
    g_on_objects,
    g_on_morphisms,
    validate_bimodule,
)
from dgcat.category import opposite_category, tensor_category
from dgcat.cli import main
from dgcat.complexes import DgModule, TensorComplex
from dgcat.errors import StructureError, ValidationFailure
from dgcat.fixtures import (
    hom_from_module,
    random_dg_module,
    random_theorem_fixture,
    zero_bimodule,
)
from dgcat.functors import (
    DgFunctor,
    dgnat_differential,
    dgnat_space,
    dgnat_window,
    functor_from_basis_images,
    image_of,
    naturality_witness,
    representable_module,
    validate_dg_functor,
)
from dgcat.graded import GradedMap, combination
from dgcat.shipped import FIXTURE_DIR, NAMES, shipped_workspace


def test_kkk_bimodule_validates():
    _, _, _, _, bim = kkk_setup()
    report = validate_bimodule(bim)
    assert report.passed, report.render()
    assert bim.value("u0", "t0").carrier.dims() == {0: 1}


def test_zero_bimodule_validates():
    u_cat, t_cat, _, _, _ = kkk_setup()
    report = validate_bimodule(zero_bimodule(u_cat, t_cat))
    assert report.passed


def test_random_hom_bimodules_validate():
    for seed in range(4):
        *_, bim, _ = random_setup(seed)
        report = validate_bimodule(bim)
        assert report.passed, report.render()


def test_hom_bimodule_validates_f5():
    *_, bim, _ = random_setup(2, field=F5)
    assert validate_bimodule(bim).passed


def test_images_of_the_wrong_shape_are_refused():
    # degree, source, target, and a basis morphism hom(u0, u0) lacks
    u_cat, t_cat, _, _, bim = kkk_setup()
    fun = representable_module(u_cat, "u0")
    good = fun.map_of_basis("u0", "u0", 0, 0)
    other = k_module(degree=1).carrier
    wrong = [
        ((0, 0), GradedMap(good.source, good.target, 1, {})),
        ((0, 0), GradedMap(other, good.target, 0, {})),
        ((0, 0), GradedMap(good.source, other, 0, {})),
        ((0, 1), good),
    ]
    for basis, image in wrong:
        with pytest.raises(StructureError):
            DgFunctor(u_cat, fun.on_objects, {("u0", "u0"): {basis: image}})
        with pytest.raises(StructureError):
            Bimodule(u_cat, t_cat, bim.values, {("u0", "u0", "t0"): {basis: image}}, {})
        with pytest.raises(StructureError):
            Bimodule(u_cat, t_cat, bim.values, {}, {("t0", "t0", "u0"): {basis: image}})


def test_interchange_negative_control():
    # Corrupt one right-action sign; the interchange check must catch it
    # with a witness, while the slice functors can stay valid.
    u_cat, t_cat, u_cx, t_cx, bim, _ = random_setup(7)
    report = validate_bimodule(with_first_right_action_negated(bim))
    assert not report.passed


def left_action(bim, alpha, t):
    """M(alpha (x) 1_t): M(source(alpha), t) -> M(target(alpha), t)."""
    u, u2 = alpha.source, alpha.target
    images = bim.left_images[(u, u2, t)]
    return image_of(images, bim.values[(u, t)].carrier, bim.values[(u2, t)].carrier, alpha)


def right_action(bim, beta, u):
    """M(1_u (x) beta^op): M(u, target(beta)) -> M(u, source(beta))."""
    t, t2 = beta.source, beta.target
    images = bim.right_images[(t, t2, u)]
    return image_of(images, bim.values[(u, t2)].carrier, bim.values[(u, t)].carrier, beta)


def bimodule_to_tensor_functor(bim):
    """The bimodule as a module over U (x) T^op, the basis morphism
    alpha (x) beta^op acting by M(alpha (x) 1) . M(1 (x) beta^op).

    It must pass validate_dg_functor, which re-derives the interchange and
    Leibniz identities from the tensor-category axioms.
    """
    U, T = bim.left_base, bim.right_base
    opp = opposite_category(T)
    base = tensor_category(U, opp, name=f"({U.name})x({T.name}.op)")
    pair_of = {f"({u},{t})": (u, t) for u in U.objects for t in T.objects}
    # basis of hom((u,t),(u2,t2)) = hom_U(u,u2) (x) hom_{T^op}(t,t2)
    # decodes through the tensor complex of the product category
    tensors = {
        (p, q): TensorComplex(U.hom[(u, u2)], opp.hom[(t, t2)])
        for p, (u, t) in pair_of.items()
        for q, (u2, t2) in pair_of.items()
    }

    def image(p, q, n, k):
        (u, t), (u2, t2) = pair_of[p], pair_of[q]
        ud, uidx, tidx = tensors[(p, q)].basis(n)[k]
        alpha = U.basis_element(u, u2, ud, uidx)
        # hom_{T^op}(t, t2) = hom_T(t2, t): basis is beta: t2 -> t
        beta = T.basis_element(t2, t, n - ud, tidx)
        return left_action(bim, alpha, t2).compose(right_action(bim, beta, u))

    return functor_from_basis_images(
        base,
        {obj: bim.values[pair_of[obj]] for obj in base.objects},
        image,
        name=f"{bim.name}~tensor",
    )


def test_bimodule_round_trip_tensor_functor():
    *_, bim, _ = random_setup(3, max_objects=1)
    fun = bimodule_to_tensor_functor(bim)
    report = validate_dg_functor(fun)
    assert report.passed, report.render()


def test_kkk_tensor_functor_roundtrip():
    *_, bim = kkk_setup()
    fun = bimodule_to_tensor_functor(bim)
    assert validate_dg_functor(fun).passed


def test_g_on_objects_kkk():
    u_cat, t_cat, u_cx, t_cx, bim = kkk_setup()
    B = representable_module(u_cat, "u0")
    gb = g_on_objects(bim, B)
    assert gb.functor.on_objects["t0"].carrier.dims() == {0: 1}
    report = validate_dg_functor(gb.functor)
    assert report.passed, report.render()


def test_g_on_objects_zero_module():
    u_cat, t_cat, *_ , bim = kkk_setup()
    gb = g_on_objects(bim, zero_functor(u_cat))
    assert all(m.is_zero() for m in gb.functor.on_objects.values())


def test_g_on_objects_is_built_once_per_value_of_b():
    u_cat, t_cat, u_cx, t_cx, bim, rng = random_setup(4, max_objects=1)
    B = representable_module(u_cat, u_cat.objects[0])
    gb = g_on_objects(bim, B)
    assert g_on_objects(bim, B) is gb
    assert g_on_objects(bim, DgFunctor(B.base, B.on_objects, B.images)) is gb
    other = hom_from_module(u_cat, u_cx, random_dg_module(rng, QQ))
    assert other.on_objects != B.on_objects
    g_other = g_on_objects(bim, other)
    assert g_other is not gb and g_other.B is other
    assert g_on_objects(bim, B) is gb
    # another bimodule with the same actions builds its own
    twin = Bimodule(
        bim.left_base, bim.right_base, bim.values, bim.left_images, bim.right_images
    )
    assert g_on_objects(twin, B) is not gb


def test_g_on_objects_refuses_an_invalid_b_on_every_call():
    # d^{-3} of B2 of o_mix in random theorem seed 4 changed to (2 3), so
    # d^2 != 0; the failed build is not kept, so the second call fails too.
    fx = random_theorem_fixture(4, QQ)
    bim = fx["bimodule"]
    B = fx["comma_objects"][2].B
    value = B.on_objects["u0"]
    d = with_entry(value.d, (-3, 0, 1))
    bad = DgFunctor(
        B.base, {"u0": DgModule(value.carrier, d, check=False)}, B.images, name="Bbad"
    )
    built = len(bim._g_modules)
    for _ in range(2):
        with pytest.raises(ValidationFailure) as exc:
            g_on_objects(bim, bad)
        assert exc.value.report.title == "dg-functor Bbad"
    assert len(bim._g_modules) == built


@pytest.mark.parametrize("name", ["kkk", "exterior", "contractible"])
def test_check_equivalence_builds_g_once_per_module_value(name, monkeypatch, tmp_path):
    # o_can and o_zero share B, and their round trips restrict to B again;
    # the restriction of C to U is the one other module.
    built = []
    init = GModule.__init__

    def counted(self, bim, B):
        built.append(B.name)
        init(self, bim, B)

    monkeypatch.setattr(GModule, "__init__", counted)
    source = FIXTURE_DIR / f"{name}.json"
    argv = ["check-equivalence", "--input", str(source), "--output", str(tmp_path / "r")]
    assert main(argv) == 0
    assert len(built) == 2, built


def test_g_functor_validates_on_random_fixtures():
    for seed in (0, 5):
        u_cat, t_cat, u_cx, t_cx, bim, rng = random_setup(seed, max_objects=1)
        B = representable_module(u_cat, u_cat.objects[0])
        gb = g_on_objects(bim, B)
        report = validate_dg_functor(gb.functor)
        assert report.passed, report.render()


def test_g_identity_action_is_identity():
    # identity t acts with sign (-1)^{|eta| . 0} = +1 and tbar = id.
    u_cat, t_cat, u_cx, t_cx, bim = kkk_setup()
    B = representable_module(u_cat, "u0")
    gb = g_on_objects(bim, B)
    from dgcat.graded import identity_map

    image = gb.functor.map_of(t_cat.identity("t0"))
    assert image == identity_map(gb.functor.on_objects["t0"].carrier)


def test_g_on_morphisms_validates():
    for seed in (1, 4):
        u_cat, t_cat, u_cx, t_cx, bim, rng = random_setup(seed, max_objects=1)
        B = representable_module(u_cat, u_cat.objects[0])
        Zmod = random_dg_module(rng, QQ)
        B2 = hom_from_module(u_cat, u_cx, Zmod)
        assert validate_dg_functor(B2).passed
        gb = g_on_objects(bim, B)
        gb2 = g_on_objects(bim, B2)
        for n in dgnat_window(B, B2):
            nats = dgnat_space(B, B2, n)
            for eps in nats[:2]:
                g_eps = g_on_morphisms(bim, gb, gb2, eps)
                assert g_eps.degree == eps.degree
                assert naturality_witness(g_eps) is None


def test_g_commutes_with_differential_and_composition():
    # G is a dg-functor: G(d eps) = d G(eps), G(eps' . eps) = G(eps') . G(eps)
    u_cat, t_cat, u_cx, t_cx, bim, rng = random_setup(9, max_objects=1)
    from dgcat.functors import compose_nat

    B = representable_module(u_cat, u_cat.objects[0])
    gb = g_on_objects(bim, B)
    for n in dgnat_window(B, B):
        nats = dgnat_space(B, B, n)
        for eps in nats[:2]:
            g_eps = g_on_morphisms(bim, gb, gb, eps)
            lhs = g_on_morphisms(bim, gb, gb, dgnat_differential(eps))
            rhs = dgnat_differential(g_eps)
            assert lhs == rhs
            for eps2 in nats[:2]:
                g_eps2 = g_on_morphisms(bim, gb, gb, eps2)
                assert g_on_morphisms(bim, gb, gb, compose_nat(eps2, eps)) == (
                    compose_nat(g_eps2, g_eps)
                )


def test_regular_bimodule_over_exterior_algebra():
    # U = K, T = the exterior algebra; M is the regular right module
    # hom_T(*, *) with right multiplication carrying the Koszul sign.
    from dgcat.fixtures import exterior_category, trivial_category
    from dgcat.graded import identity_map, map_from_action

    field = QQ
    t_cat = exterior_category(field, name="T", obj="t")
    u_cat = trivial_category(field, name="U", obj="u")
    value = t_cat.hom[("t", "t")]
    left = {(0, 0): identity_map(value.carrier)}

    def right_image(m, k):
        t_elem = t_cat.basis_element("t", "t", m, k)

        def inner(i, j):
            j_elem = t_cat.basis_element("t", "t", i, j)
            composed = compose(t_cat, j_elem, t_elem)
            sgn = field.sign(m * i)
            return tuple(field.mul(sgn, v) for v in composed.coords)

        return map_from_action(value.carrier, value.carrier, m, inner)

    right = {(m, k): right_image(m, k) for m, k in t_cat.basis_elements("t", "t")}
    bim = Bimodule(
        u_cat,
        t_cat,
        {("u", "t"): value},
        {("u", "u", "t"): left},
        {("t", "t", "u"): right},
        name="regular",
    )
    report = validate_bimodule(bim)
    assert report.passed, report.render()
    # x acts by right multiplication: 1 |-> x (sign +1 on degree 0)
    x_map = right_action(bim, t_cat.basis_element("t", "t", 1, 0), "u")
    assert x_map.block(0) == ((field.one(),),)


def test_g_on_morphisms_identity_and_zero():
    from dgcat.functors import DgNatTransformation
    from dgcat.graded import identity_map

    u_cat, t_cat, u_cx, t_cx, bim = kkk_setup()
    B = representable_module(u_cat, "u0")
    gb = g_on_objects(bim, B)
    ident = identity_nat(B)
    g_ident = g_on_morphisms(bim, gb, gb, ident)
    for t in t_cat.objects:
        assert g_ident.components[t] == identity_map(
            gb.functor.on_objects[t].carrier
        )
    zero = DgNatTransformation(B, B, 0, {})
    assert g_on_morphisms(bim, gb, gb, zero).is_zero()


# ---------------------------------------------------------------------------
# the two-sided Leibniz identity, decided from the slice chain maps


def _oracle_leibniz_witness(bim):
    """The first basis pair (alpha, beta) over every object quadruple with
    M(d alpha (x) beta) + (-1)^|alpha| M(alpha (x) d beta) !=
    d.M(alpha (x) beta) - (-1)^{|alpha|+|beta|} M(alpha (x) beta).d, scanned
    unconditionally, as validate_bimodule did before it read the slices."""
    from dgcat.report import fmt_graded_map

    field = bim.field
    U, T = bim.left_base, bim.right_base

    def action(alpha, beta):
        left = left_action(bim, alpha, beta.source)
        return left.compose(right_action(bim, beta, alpha.source))

    for u, u2, t, t2 in itertools.product(U.objects, U.objects, T.objects, T.objects):
        for ud, ui in U.basis_elements(u, u2):
            alpha = U.basis_element(u, u2, ud, ui)
            d_alpha = U.differential(alpha)
            for td, ti in T.basis_elements(t, t2):
                beta = T.basis_element(t, t2, td, ti)
                d_beta = T.differential(beta)
                first = action(d_alpha, beta)
                terms = [(field.one(), first), (field.sign(ud), action(alpha, d_beta))]
                lhs = combination(first.source, first.target, first.degree, terms)
                both = action(alpha, beta)
                rhs = bim.values[(u2, t)].d.compose(both).sub(
                    both.compose(bim.values[(u, t2)].d).scale(field.sign(ud + td))
                )
                if lhs != rhs:
                    return {
                        "u": [u, u2, ud, ui],
                        "t": [t, t2, td, ti],
                        "lhs": fmt_graded_map(lhs),
                        "rhs": fmt_graded_map(rhs),
                    }
    return None


def _slices_are_chain_maps(bim):
    slices = [bim.slice_t(t) for t in bim.right_base.objects]
    slices += [bim.slice_u(u) for u in bim.left_base.objects]
    return all(validate_dg_functor(s).check("chain_map").passed for s in slices)


def _action_mutants(bim, side):
    """Bimodules equal to bim but for one entry of one left ("left") or
    right ("right") basis image, or of one value's differential ("d")."""
    if side == "d":
        spots = entry_spots({key: value.d for key, value in bim.values.items()})
    else:
        spots = entry_spots(bim.left_images if side == "left" else bim.right_images)
    for spot in spots:
        yield bimodule_with_entry(bim, side, spot)


def _first_chain_map_breaking_mutant(theorem_fixtures, side):
    for fx in theorem_fixtures:
        for mutant in _action_mutants(fx["bimodule"], side):
            if not _slices_are_chain_maps(mutant):
                return mutant
    raise AssertionError(f"no {side} mutant breaks a slice chain map")


def _leibniz_check(bim, monkeypatch):
    """(two_sided_leibniz check of validate_bimodule, basis pairs whose
    Leibniz sides were read)."""
    from dgcat import bimodule

    calls = []
    leibniz_sides = bimodule._leibniz_sides

    def counted(bim):
        sides = leibniz_sides(bim)

        def counted_sides(*key):
            calls.append(key)
            return sides(*key)

        return counted_sides

    with monkeypatch.context() as mp:
        mp.setattr(bimodule, "_leibniz_sides", counted)
        report = validate_bimodule(bim)
    return report.check("two_sided_leibniz"), len(calls)


def test_leibniz_scan_matches_the_whole_map_rule(theorem_fixtures):
    """The two-sided Leibniz scan, run unconditionally, gives the oracle's
    verdict and witness on every theorem fixture's bimodule and on a
    sample of its single-entry mutants (a left or right image or a
    value's differential), over Q and F_5."""
    from dgcat import bimodule

    rng = random.Random(0)
    verdicts, fields = set(), set()
    for fx in theorem_fixtures:
        bim = fx["bimodule"]
        fields.add(bim.field)
        mutants = [m for side in ("left", "right", "d") for m in _action_mutants(bim, side)]
        for mutant in [bim, *rng.sample(mutants, min(10, len(mutants)))]:
            sides = bimodule._leibniz_sides(mutant)
            want = _oracle_leibniz_witness(mutant)
            assert bimodule._first_failure(mutant, sides, 1, ("lhs", "rhs")) == want
            verdicts.add(want is None)
    assert verdicts == {True, False} and fields == {QQ, F5}


def test_leibniz_on_valid_bimodules_is_read_from_the_slices(
    theorem_fixtures, monkeypatch
):
    bimodules = [(fx["name"], fx["bimodule"]) for fx in theorem_fixtures] + [
        (name, shipped_workspace(name).bimodules["M"]) for name in NAMES
    ]
    for name, bim in bimodules:
        check, scanned = _leibniz_check(bim, monkeypatch)
        assert check.passed and check.witness is None, name
        assert _oracle_leibniz_witness(bim) is None, name
        assert scanned == 0, name


def test_leibniz_on_mutants_matches_the_unconditional_scan(
    theorem_fixtures, monkeypatch
):
    failed = []
    for side in ("left", "right", "d"):
        mutant = _first_chain_map_breaking_mutant(theorem_fixtures, side)
        check, scanned = _leibniz_check(mutant, monkeypatch)
        oracle = _oracle_leibniz_witness(mutant)
        assert check.witness == oracle, side
        assert check.passed == (oracle is None), side
        assert scanned > 0, side
        failed.append(not check.passed)
    assert any(failed)
