import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    F5,
    QQ,
    dot_by_vectors,
    extract_by_columns,
    identity_nat,
    kkk_setup,
    nat_to_flat,
    raw_dot,
    shipped_theorem_fixture,
    zero_functor,
)
from dgcat import linalg
from dgcat.cli import main
from dgcat.bimodule import GModule, g_on_objects
from dgcat.comma import (
    CommaMorphism,
    CommaObject,
    build_coproduct_module,
    check_equivalence,
    comma_hom_space,
    comma_window,
    extract_comma_from_module,
    f_on_morphisms,
    phi_iso,
    validate_comma_object,
)
from dgcat.fields import PrimeField
from dgcat.fixtures import random_theorem_fixture
from dgcat.functors import (
    DgNatTransformation,
    linear_combination,
    nat_unknowns,
    naturality_witness,
    representable_module,
    validate_dg_functor,
)
from dgcat.graded import GradedMap, identity_map
from dgcat.lambda_cat import SLOT_M, SLOT_T, SLOT_U, build_lambda
from dgcat.shipped import NAMES, shipped_text


def is_comma_morphism(source, target, phi):
    """Exact check of naturality of both legs and of the square
    m .' alpha(x) = (-1)^{nj} beta(m . x), as graded maps of x, for every
    basis m of every M(u, t)^j."""
    if naturality_witness(phi.alpha) is not None:
        return False
    if naturality_witness(phi.beta) is not None:
        return False
    bim = source.bimodule
    field = bim.field
    for t, u in product(bim.right_base.objects, bim.left_base.objects):
        alpha, beta = phi.alpha.components[t], phi.beta.components[u]
        target_maps = target.m_actions[(u, t)]
        for (j, i), m_map in source.m_actions[(u, t)].items():
            lhs = target_maps[(j, i)].compose(alpha)
            rhs = beta.compose(m_map)
            if lhs != rhs.scale(field.sign(phi.degree * j)):
                return False
    return True


def kkk_comma_setup():
    u_cat, t_cat, u_cx, t_cx, bim = kkk_setup()
    lam = build_lambda(t_cat, u_cat, bim, validate=False)
    A = representable_module(t_cat, "t0")
    B = representable_module(u_cat, "u0")
    gb = g_on_objects(bim, B)
    # G(B)(t0) is one-dimensional in degree 0; the canonical structure map
    # sends the generator of A(t0) = K to the generator transformation.
    f_map = GradedMap(
        A.on_objects["t0"].carrier,
        gb.functor.on_objects["t0"].carrier,
        0,
        {0: [[QQ.one()]]},
    )
    obj = CommaObject(bim, A, B, {"t0": f_map}, name="o_can")
    zero_obj = CommaObject(bim, A, B, {}, name="o_zero")
    return lam, obj, zero_obj


def test_validate_comma_objects_kkk():
    lam, obj, zero_obj = kkk_comma_setup()
    assert validate_comma_object(obj).passed
    assert validate_comma_object(zero_obj).passed


def test_comma_object_with_zero_b_forces_zero_f():
    u_cat, t_cat, _, _, bim = kkk_setup()
    A = representable_module(t_cat, "t0")
    obj = CommaObject(bim, A, zero_functor(u_cat), {}, name="oB0")
    assert validate_comma_object(obj).passed


def test_non_closed_f_detected():
    # fixture with a nonzero differential on G(B): T = U = K, M contractible
    from dgcat.complexes import dg_module
    from dgcat.fixtures import endomorphism_category, hom_bimodule

    field = QQ
    k = dg_module(field, {0: 1}, {})
    contractible = dg_module(field, {0: 1, 1: 1}, {0: [[field.one()]]})
    u_cat, u_cx = endomorphism_category(field, {"u0": k}, name="U")
    t_cat, t_cx = endomorphism_category(field, {"t0": contractible}, name="T")
    bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx)
    A = representable_module(t_cat, "t0")
    B = representable_module(u_cat, "u0")
    gb = g_on_objects(bim, B)
    # G(B)(t0) = Hom(M_t0, B): M_t0 = Hom(contractible, K), so the carrier is
    # two-dimensional across degrees 0 and 1 with a nonzero differential.
    carrier = gb.functor.on_objects["t0"].carrier
    src = A.on_objects["t0"].carrier
    candidates = []
    for k_deg in src.degrees():
        if carrier.dim(k_deg) and src.dim(k_deg):
            block = [[field.one()] * src.dim(k_deg) for _ in range(carrier.dim(k_deg))]
            candidates.append(
                GradedMap(src, carrier, 0, {k_deg: block})
            )
    found_invalid = False
    for f_map in candidates:
        obj = CommaObject(bim, A, B, {"t0": f_map}, name="bad")
        report = validate_comma_object(obj)
        if not report.passed:
            found_invalid = True
            names = [c.name for c in report.failures()]
            assert "closed" in names or "natural" in names
    assert found_invalid


def test_dot_product_zero_cases():
    # o_zero's f is zero, and so is every f over a zero B: each basis m of
    # M(u0, t0) acts by the zero map
    lam, obj, zero_obj = kkk_comma_setup()
    u_cat, t_cat, _, _, bim = kkk_setup()
    A = representable_module(t_cat, "t0")
    zero_b = CommaObject(bim, A, zero_functor(u_cat), {})
    for o in (zero_obj, zero_b):
        maps = o.dot("u0", "t0")
        assert list(maps) == [(0, 0)]
        assert maps[(0, 0)].degree == 0 and maps[(0, 0)].is_zero()


def test_dot_product_canonical_kkk():
    # f sends the generator of A(t0) = K to the generator transformation,
    # so the generator m of M(u0, t0) = K acts by the identity of K
    lam, obj, _ = kkk_comma_setup()
    maps = obj.dot("u0", "t0")
    assert maps == {(0, 0): identity_map(obj.A.on_objects["t0"].carrier)}
    assert maps[(0, 0)].target == obj.B.on_objects["u0"].carrier


def test_product_identities_and_dot_leibniz_kkk():
    """Lambda of kkk composes the m-block with both t and u, so the
    functoriality of each coproduct module covers both bullet
    compatibilities, and with chain_map (the dot Leibniz rule) it passes."""
    lam, obj, zero_obj = kkk_comma_setup()
    pair = lam.object_name("t0", "u0")
    slots = lam.slots[(pair, pair)]
    kinds = {
        (slots[g[0]][g[1]][0], slots[f[0]][f[1]][0])
        for f, per_g in lam.presentation.products(pair, pair, pair).items()
        for g in per_g
    }
    assert {(SLOT_M, SLOT_T), (SLOT_U, SLOT_M)} <= kinds
    for o in (obj, zero_obj):
        report = validate_dg_functor(build_coproduct_module(lam, o))
        assert report.check("functoriality").passed, report.render()
        assert report.check("chain_map").passed, report.render()


def test_comma_hom_space_contains_identity():
    lam, obj, _ = kkk_comma_setup()
    morphisms = comma_hom_space(obj, obj, 0)
    assert len(morphisms) == 1
    phi = morphisms[0]
    assert is_comma_morphism(obj, obj, phi)
    # alpha and beta are forced equal by the square: check scalar equality
    assert phi.alpha.components["t0"].block(0) == phi.beta.components["u0"].block(0)


def test_every_comma_hom_basis_morphism_is_a_comma_morphism(theorem_fixtures):
    # The square's (-1)^{nj} matters where beta_u . (m . -) is nonzero for a
    # basis m of odd degree j and odd n; random0 over Q has such morphisms,
    # so a sign dropped on either side rejects some of them.
    signed = set()
    for fx in theorem_fixtures:
        bim = fx["bimodule"]
        for src, tgt in product(fx["comma_objects"], repeat=2):
            for n in comma_window(src, tgt):
                for phi in comma_hom_space(src, tgt, n):
                    assert is_comma_morphism(src, tgt, phi), (fx["name"], n)
                    for t, u in product(bim.right_base.objects, bim.left_base.objects):
                        beta = phi.beta.components[u]
                        for (j, _), m_map in src.m_actions[(u, t)].items():
                            if n * j % 2 and not beta.compose(m_map).is_zero():
                                signed.add(fx["name"])
    assert "random0" in signed


def test_square_failure_alone_is_refused_kkk():
    # (identity, 0) has natural legs, but f . id = f differs from G(0) . f = 0
    lam, obj, _ = kkk_comma_setup()
    zero_beta = DgNatTransformation(obj.B, obj.B, 0, {})
    phi = CommaMorphism(0, identity_nat(obj.A), zero_beta)
    assert naturality_witness(phi.alpha) is None
    assert naturality_witness(phi.beta) is None
    assert not is_comma_morphism(obj, obj, phi)

    a_keys = nat_unknowns(obj.A, obj.A, 0)
    b_keys = nat_unknowns(obj.B, obj.B, 0)

    def flat(psi):
        return nat_to_flat(obj.A, obj.A, 0, a_keys, psi.alpha) + nat_to_flat(
            obj.B, obj.B, 0, b_keys, psi.beta
        )

    basis = [flat(psi) for psi in comma_hom_space(obj, obj, 0)]
    assert linalg.rank(QQ, basis + [flat(phi)]) == len(basis) + 1


def test_comma_hom_space_zero_target():
    lam, obj, zero_obj = kkk_comma_setup()
    morphisms = comma_hom_space(obj, zero_obj, 0)
    # beta is forced to zero, alpha unconstrained by the square (f' = 0):
    # the only constraint left is naturality, so dim = 1 here
    for phi in morphisms:
        assert is_comma_morphism(obj, zero_obj, phi)


def test_coproduct_module_is_dg_functor():
    lam, obj, zero_obj = kkk_comma_setup()
    for o in (obj, zero_obj):
        module = build_coproduct_module(lam, o)
        report = validate_dg_functor(module)
        assert report.passed, report.render()


def test_coproduct_module_kkk_column_shape():
    lam, obj, _ = kkk_comma_setup()
    module = build_coproduct_module(lam, obj)
    pair = lam.object_name("t0", "u0")
    assert module.on_objects[pair].carrier.dims() == {0: 2}
    # the m-basis morphism acts K -> K by the identity (sign +1 in degree 0)
    pres = lam.presentation
    m_elem = pres.basis_element(pair, pair, 0, 1)
    action = module.map_of(m_elem)
    assert action.block(0) == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


def test_f_on_morphisms_identity_and_naturality():
    from dgcat.functors import naturality_witness

    lam, obj, _ = kkk_comma_setup()
    module = build_coproduct_module(lam, obj)
    morphisms = comma_hom_space(obj, obj, 0)
    image = f_on_morphisms(lam, module, module, morphisms[0])
    assert naturality_witness(image) is None


def test_extract_comma_roundtrip_kkk():
    lam, obj, zero_obj = kkk_comma_setup()
    for o in (obj, zero_obj):
        module = build_coproduct_module(lam, o)
        back = extract_comma_from_module(lam, module)
        assert validate_comma_object(back).passed
        for t in ("t0",):
            assert back.f[t] == o.f[t]


def test_extract_from_zero_module():
    lam, *_ = kkk_comma_setup()
    back = extract_comma_from_module(lam, zero_functor(lam.presentation))
    assert validate_comma_object(back).passed
    assert all(m.is_zero() for m in (*back.A.on_objects.values(), *back.B.on_objects.values()))


def test_phi_iso_on_representable():
    lam, *_ = kkk_comma_setup()
    pres = lam.presentation
    for origin in pres.objects:
        module = representable_module(pres, origin)
        nat, report = phi_iso(lam, module)
        assert report.passed, report.render()


def test_check_equivalence_kkk():
    lam, obj, zero_obj = kkk_comma_setup()
    module = representable_module(lam.presentation, lam.object_name("t0", "u0"))
    report = check_equivalence(lam, [obj, zero_obj], [module], seed=3)
    assert report.passed, report.render()
    dims = report.dimensions["comma[o_can->o_can]"]
    assert dims["0"] == 1
    assert report.dimensions["lambda[o_can->o_can]"]["0"] == 1


def test_check_equivalence_empty_lists():
    lam, *_ = kkk_comma_setup()
    report = check_equivalence(lam, [], [], seed=0)
    assert report.passed


def test_random_theorem_fixture_q():
    fx = random_theorem_fixture(0, QQ)
    report = check_equivalence(
        fx["lambda"], fx["comma_objects"], fx["lambda_modules"], seed=fx["seed"]
    )
    assert report.passed, report.render()


def test_random_theorem_fixture_f5():
    fx = random_theorem_fixture(1, F5)
    report = check_equivalence(
        fx["lambda"], fx["comma_objects"], fx["lambda_modules"], seed=fx["seed"]
    )
    assert report.passed, report.render()


def test_product_identities_on_random_fixture():
    fx = random_theorem_fixture(2, QQ)
    for obj in fx["comma_objects"]:
        assert validate_comma_object(obj).passed
        report = validate_dg_functor(build_coproduct_module(fx["lambda"], obj))
        assert report.passed, report.render()


def test_faithfulness_nonzero_morphism_has_nonzero_image():
    # a nonzero comma morphism maps to a nonzero transformation
    from dgcat.comma import f_on_morphisms

    lam, obj, zero_obj = kkk_comma_setup()
    src = build_coproduct_module(lam, obj)
    for tgt_obj in (obj, zero_obj):
        tgt = build_coproduct_module(lam, tgt_obj)
        for n in comma_window_list(obj, tgt_obj):
            for phi in comma_hom_space(obj, tgt_obj, n):
                nonzero = (not phi.alpha.is_zero()) or (not phi.beta.is_zero())
                if nonzero:
                    image = f_on_morphisms(lam, src, tgt, phi)
                    assert not image.is_zero()


def comma_window_list(a, b):
    from dgcat.comma import comma_window

    return comma_window(a, b)


def test_prime_two_is_permitted_and_flagged(tmp_path):
    # sign bookkeeping still runs over F_2; the CLI report carries a note
    # that sign identities are vacuous by collapse
    import json

    from dgcat.cli import main
    from dgcat.fields import PrimeField
    from dgcat.io_json import emit_workspace, render_document
    from dgcat.shipped import shipped_workspace

    ws = shipped_workspace("kkk", PrimeField(2))
    src = tmp_path / "kkk2.json"
    src.write_text(render_document(emit_workspace(ws)), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["validate", "--input", str(src), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    notes = [c.get("note", "") for c in report["checks"]]
    assert any("characteristic 2" in note for note in notes)
    code = main(
        ["check-equivalence", "--input", str(src), "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["passed"] is True


def test_dot_product_sign_on_degree_one_pair():
    # |m| |x| odd: m . x is minus the raw component evaluation [f_t(x)]_u(m).
    # random0's o_rand has nonzero such values at (u0, t0), at (|m|, |x|) =
    # (1, -1) and (-1, 1), so a dropped sign changes some compared value.
    fx = random_theorem_fixture(0, QQ)
    (obj,) = [o for o in fx["comma_objects"] if o.name == "o_rand"]
    src = obj.A.on_objects["t0"].carrier
    nonzero = 0
    for (j, i), m_map in obj.dot("u0", "t0").items():
        for k in src.degrees():
            if not j * k % 2:
                continue
            for c in range(src.dim(k)):
                raw = raw_dot(obj, "u0", "t0", j, i, k, c)
                assert [m_map.entry(k, r, c) for r in range(len(raw))] == [
                    QQ.neg(v) for v in raw
                ], (j, i, k, c)
                nonzero += sum(1 for v in raw if v)
    assert nonzero


@pytest.fixture(scope="module")
def shipped_f5_fixtures():
    return [shipped_theorem_fixture(name, F5) for name in NAMES]


def test_dot_equals_the_per_vector_rule(theorem_fixtures, shipped_f5_fixtures):
    """CommaObject.dot, built from entries, equals m . x = (-1)^{|x||m|}
    [f_t(x)]_u(m) evaluated one basis m and one basis x at a time, map by
    map and in the basis order of M(u, t), on every comma object."""
    for fx in theorem_fixtures + shipped_f5_fixtures:
        bim = fx["lambda"].bimodule
        for obj in fx["comma_objects"]:
            for t, u in product(bim.right_base.objects, bim.left_base.objects):
                expected = list(dot_by_vectors(obj, u, t).items())
                assert list(obj.dot(u, t).items()) == expected, (fx["name"], obj.name)


def test_extract_equals_the_per_column_rule(theorem_fixtures, shipped_f5_fixtures):
    """extract_comma_from_module, read off the corner actions' entries,
    equals the rule applied to one basis vector x of C1(t) at a time, on
    every coproduct module and Lambda-module of every instance."""
    for fx in theorem_fixtures + shipped_f5_fixtures:
        lam = fx["lambda"]
        coproducts = [build_coproduct_module(lam, o) for o in fx["comma_objects"]]
        for module in coproducts + fx["lambda_modules"]:
            extracted = extract_comma_from_module(lam, module)
            assert extracted.f == extract_by_columns(lam, module), (
                fx["name"],
                module.name,
            )


def test_check_equivalence_applies_no_map_to_a_vector(monkeypatch):
    """Both translations run on entries: check_equivalence on random0, 3, 6
    and 7 applies no graded map to a vector and decodes no element of any
    G(B).  A work count, not a timing; the per-vector path made 1,790
    applications and 172 decodes here."""
    instances = [
        random_theorem_fixture(seed, field, max_objects=max_objects)
        for seed, field, max_objects in ((0, QQ, 1), (3, F5, 1), (6, QQ, 2), (7, F5, 2))
    ]
    counts = Counter()
    apply, decode = GradedMap.apply, GModule.decode

    def counted_apply(self, *args):
        counts["apply"] += 1
        return apply(self, *args)

    def counted_decode(self, *args):
        counts["decode"] += 1
        return decode(self, *args)

    monkeypatch.setattr(GradedMap, "apply", counted_apply)
    monkeypatch.setattr(GModule, "decode", counted_decode)
    for fx in instances:
        report = check_equivalence(
            fx["lambda"], fx["comma_objects"], fx["lambda_modules"], seed=fx["seed"]
        )
        assert report.passed, report.render()
    assert counts == Counter(), counts


def test_restrict_coproduct_recovers_module_actions():
    # C = coproduct(A, f, B): the two restrictions act exactly as A and B
    from dgcat.lambda_cat import restrict_module

    lam, obj, zero_obj = kkk_comma_setup()
    for o in (obj, zero_obj):
        module = build_coproduct_module(lam, o)
        c1, c2 = restrict_module(lam, module)
        for t in lam.t_cat.objects:
            assert c1.on_objects[t].carrier.dims() == (
                o.A.on_objects[t].carrier.dims()
            )
        assert c1.images == o.A.images
        assert c2.images == o.B.images


def test_phi_components_identity_on_coproduct_form():
    # for a module already of block form, the comparison map is the
    # identity matrix in the stable bases
    lam, obj, _ = kkk_comma_setup()
    module = build_coproduct_module(lam, obj)
    nat, report = phi_iso(lam, module)
    assert report.passed, report.render()
    for p in lam.presentation.objects:
        assert nat.components[p] == identity_map(module.on_objects[p].carrier)


def test_actions_are_built_without_hom_complexes(monkeypatch):
    """A bimodule, G(B), a coproduct module and a restriction store their
    actions as basis images: none of them builds a Hom complex, and the
    bimodule leaves the opposite of T unbuilt until a u-slice asks for it."""
    import dgcat.bimodule
    from dgcat.bimodule import Bimodule
    from dgcat.complexes import HomComplex
    from dgcat.lambda_cat import restrict_module

    fx = random_theorem_fixture(3, QQ, max_objects=2)
    bim, lam = fx["bimodule"], fx["lambda"]
    obj = fx["comma_objects"][1]
    built = {"hom_complex": 0, "opposite": 0}
    hom_complex_init = HomComplex.__init__
    opposite = dgcat.bimodule.opposite_category

    def counted_hom_complex(self, *args):
        built["hom_complex"] += 1
        hom_complex_init(self, *args)

    def counted_opposite(*args, **kwargs):
        built["opposite"] += 1
        return opposite(*args, **kwargs)

    monkeypatch.setattr(HomComplex, "__init__", counted_hom_complex)
    monkeypatch.setattr(dgcat.bimodule, "opposite_category", counted_opposite)
    copy = Bimodule(
        bim.left_base, bim.right_base, bim.values, bim.left_images, bim.right_images
    )
    g_on_objects(copy, obj.B)
    module = build_coproduct_module(lam, obj)
    restrict_module(lam, module)
    assert built == {"hom_complex": 0, "opposite": 0}
    copy.slice_u(copy.left_base.objects[0])
    assert built == {"hom_complex": 0, "opposite": 1}


def test_functor_laws_fail_for_every_seed_when_f_is_wrong_on_one_basis_morphism(
    monkeypatch,
):
    # F'(phi) = F(phi) + c(phi) F(b), with c(phi) the coordinate of phi along
    # the one basis morphism b: o_zero -> o_mix of degree -4, so F' is twice F
    # on b (where d b != 0) and F on every other basis morphism.  A sampled
    # combination misses b whenever its coefficient draws 0.
    import dgcat.comma

    fx = random_theorem_fixture(4, QQ)
    objs = {o.name: o for o in fx["comma_objects"]}
    (b,) = comma_hom_space(objs["o_zero"], objs["o_mix"], -4)
    leg, obj, i, r, c, value = next(
        (leg, obj, *entry)
        for leg in ("alpha", "beta")
        for obj, comp in getattr(b, leg).components.items()
        for entry in comp.entries()
    )
    hom_of_b = tuple(
        build_coproduct_module(fx["lambda"], objs[name]).name
        for name in ("o_zero", "o_mix")
    ) + (-4,)
    f_on_morphisms = dgcat.comma.f_on_morphisms

    def wrong_on_b(lam, source, target, phi):
        image = f_on_morphisms(lam, source, target, phi)
        if (source.name, target.name, phi.degree) == hom_of_b:
            coeff = QQ.div(getattr(phi, leg).components[obj].entry(i, r, c), value)
            image = linear_combination(
                (QQ.one(), coeff), (image, f_on_morphisms(lam, source, target, b))
            )
        return image

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", wrong_on_b)
    expected = {
        "functor_commutes_with_differential": {
            "pair": ["o_zero", "o_mix"],
            "degree": -4,
        },
        "functor_commutes_with_composition": {
            "objects": ["o_zero", "o_rand", "o_mix"],
            "degrees": [0, -4],
        },
        "equivalence_verified": None,
    }
    for seed in range(10):
        report = check_equivalence(
            fx["lambda"], fx["comma_objects"], fx["lambda_modules"], seed=seed
        )
        failed = {ch.name: ch.witness for ch in report.checks if not ch.passed}
        assert failed == expected, seed


def test_signed_square_variant_fails_on_a_structure_map_of_nonzero_degree():
    # CommaObject refuses such a map, so it is swapped in afterwards; the
    # check reads the degrees instead of asserting PASS.
    lam, obj, zero_obj = kkk_comma_setup()
    f_t0 = obj.f["t0"]
    obj.f["t0"] = GradedMap(f_t0.source, f_t0.target, 1, {})
    report = check_equivalence(lam, [zero_obj, obj], [])
    checks = {c.name: c for c in report.checks}
    assert not checks["signed_square_variant"].passed
    assert checks["signed_square_variant"].witness == {"object": "o_can", "t": "t0"}


@pytest.mark.parametrize("seed,field", [(0, QQ), (1, F5)], ids=["Q", "F5"])
def test_roundtrip_fails_in_the_report_when_the_dot_sign_is_dropped(
    monkeypatch, seed, field
):
    # CommaObject.dot without its sign (-1)^{jk}: the coproduct's corner
    # actions then leave G(B), so reading f back from them raises
    # InternalCheckError, which the report turns into a roundtrip FAIL
    # while the other stages still run.  f = 0 at seeds 2, 4 and 7, where
    # this mutant cannot show.
    dot = CommaObject.dot

    def unsigned(self, u, t):
        sign, mul = self.field.sign, self.field.mul
        return {
            (j, i): GradedMap.from_entries(
                m.source,
                m.target,
                j,
                [(k, r, c, mul(sign(j * k), v)) for k, r, c, v in m.entries()],
            )
            for (j, i), m in dot(self, u, t).items()
        }

    monkeypatch.setattr(CommaObject, "dot", unsigned)
    fx = random_theorem_fixture(seed, field)
    report = check_equivalence(fx["lambda"], fx["comma_objects"], fx["lambda_modules"])
    roundtrips = [ch for ch in report.checks if ch.name.startswith("roundtrip[")]
    assert len(roundtrips) == len(fx["comma_objects"])
    failed = [ch for ch in roundtrips if not ch.passed]
    assert failed and all(
        ch.witness["error"].startswith("corner action left the transformations")
        for ch in failed
    )
    later = {"functor_commutes_with_differential", "functor_commutes_with_composition"}
    assert later <= {ch.name for ch in report.checks}
    assert not report.passed


class _CornersUnsigned:
    """A Lambda-module whose corner actions carry an extra (-1)^{kj} on
    each entry (k, r, c, v) of the action of a degree-j m-block basis
    morphism; read back by extract_comma_from_module, whose sign then
    cancels, it is the reverse direction without its sign."""

    def __init__(self, lam, module):
        marker = lam.zero_marker
        self._module = module
        self._corners = {
            (lam.object_name(t, marker), lam.object_name(marker, u))
            for t in lam.t_cat.objects
            for u in lam.u_cat.objects
        }

    def __getattr__(self, name):
        return getattr(self._module, name)

    def map_of_basis(self, p, q, j, index):
        m = self._module.map_of_basis(p, q, j, index)
        if (p, q) not in self._corners:
            return m
        sign, mul = m.field.sign, m.field.mul
        return GradedMap.from_entries(
            m.source,
            m.target,
            m.degree,
            [(k, r, c, mul(sign(k * j), v)) for k, r, c, v in m.entries()],
        )


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_iso_fails_in_the_report_when_the_extract_sign_is_dropped(monkeypatch, field):
    # extract_comma_from_module without its sign (-1)^{kj}: the corner
    # actions of a supplied Lambda-module then leave G(C2), and phi_iso's
    # InternalCheckError becomes an iso[<module>] FAIL while the other
    # stages still run
    import dgcat.comma

    extract = dgcat.comma.extract_comma_from_module

    def unsigned(lam, module, name=None):
        return extract(lam, _CornersUnsigned(lam, module), name)

    monkeypatch.setattr(dgcat.comma, "extract_comma_from_module", unsigned)
    laws = {"functor_commutes_with_differential", "functor_commutes_with_composition"}
    for seed in (0, 1, 3, 6):
        fx = random_theorem_fixture(seed, field)
        report = check_equivalence(fx["lambda"], fx["comma_objects"], fx["lambda_modules"])
        isos = {f"iso[{module.name}]" for module in fx["lambda_modules"]}
        failed = [ch for ch in report.checks if ch.name in isos]
        assert failed, seed
        assert all(
            not ch.passed
            and ch.witness["error"].startswith("corner action left the transformations")
            for ch in failed
        )
        assert laws <= {ch.name for ch in report.checks}
        assert not report.passed


# ---------------------------------------------------------------------------
# work count on a wide instance

# SHA-256 of the check-equivalence report of the width-8 kkk document,
# recorded while kernel bases were still dense vectors
WIDTH_8_REPORT = "ae9ca716f3fa1229469d71499c6db77855cada8c5f631b779a1fdc67e16df856"


def _wide_kkk(n):
    """kkk with A = K^n in degree 0, its identity action listed, and o_zero
    the only comma object: the comma Hom space of o_zero has n^2 + 1
    dimensions, and every kernel basis vector of its solves is wide."""
    doc = json.loads(shipped_text("kkk"))
    doc["modules"]["A"]["on_objects"]["t"]["dims"] = {"0": n}
    doc["modules"]["A"]["on_hom"]["t"]["t"] = [[0, 0, 0, j, j, "1"] for j in range(n)]
    doc["fixtures"]["main"]["comma_objects"] = ["o_zero"]
    del doc["comma_objects"]["o_can"]
    return doc


def test_wide_kernel_bases_store_only_their_nonzeros(monkeypatch, tmp_path, capsys):
    """Kernel vectors hold their nonzero entries only: on the width-8 kkk
    check, fewer than two per vector, where a dense vector holds one per
    unknown.  A work count, not a timing; the report bytes are pinned.
    When written, 133 vectors stored 198 entries, against 13,720 dense."""
    src = tmp_path / "kkk8.json"
    src.write_text(json.dumps(_wide_kkk(8)), encoding="utf-8")
    counts = []
    nullspace = linalg.nullspace

    def counted(field, rows, ncols):
        basis = nullspace(field, rows, ncols)
        counts.append((len(basis), sum(map(len, basis)), len(basis) * ncols))
        return basis

    monkeypatch.setattr(linalg, "nullspace", counted)
    assert main(["check-equivalence", "--input", str(src)]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == WIDTH_8_REPORT
    vectors, stored, dense = map(sum, zip(*counts))
    assert vectors > 100 and dense > 50 * vectors, (vectors, dense)
    assert stored < 2 * vectors, (vectors, stored)


def test_wide_functor_laws_run_on_generators(monkeypatch, tmp_path, capsys):
    """The functor laws on the width-8 kkk check: F runs once per comma
    basis morphism, and composition is decided on the pairs of a basis
    morphism after a generator only.  A work count, not a timing; the
    report bytes are pinned.  When written, 16 of the 65 basis morphisms
    were generators, so 1,040 pairs were checked where the per-pair scan
    visits 65^2 = 4,225."""
    import dgcat.comma

    src = tmp_path / "kkk8.json"
    src.write_text(json.dumps(_wide_kkk(8)), encoding="utf-8")
    calls, runs = [], []
    f_on_morphisms = dgcat.comma.f_on_morphisms
    generator_closure = dgcat.comma.generator_closure

    def counted_f(*args):
        calls.append(args)
        return f_on_morphisms(*args)

    def recorded(field, spaces, compose):
        """(generators, pairs checked) of the comma category's closure."""
        checked = []

        def counted(psi, g):
            checked.append((psi, g))
            return compose(psi, g)

        closure = generator_closure(field, spaces, counted)
        runs.append((closure[0], len(checked)))
        return closure

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", counted_f)
    monkeypatch.setattr(dgcat.comma, "generator_closure", recorded)
    assert main(["check-equivalence", "--input", str(src)]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == WIDTH_8_REPORT
    ((generators, pairs),) = runs
    assert (len(calls), len(generators), pairs) == (65, 16, 1040)
    assert pairs == len(generators) * len(calls) < len(calls) ** 2 // 4


def test_wide_coordinate_reads_touch_only_the_live_basis_elements(
    monkeypatch, tmp_path, capsys
):
    """One coordinate read in a solved basis reads the maps of the basis
    elements with a nonzero coordinate only, never all N of them: on the
    width-8 kkk check, every Basis.coordinates call is recorded with the
    basis elements whose maps it read (entries, entry, is_zero or
    columns).  A work count, not a timing; the report bytes are pinned.
    When written, 1,105 of the 1,182 reads were in a 65-element basis,
    each with at most one nonzero coordinate."""
    import dgcat.functors

    src = tmp_path / "kkk8.json"
    src.write_text(json.dumps(_wide_kkk(8)), encoding="utf-8")
    touched, reads = set(), []
    for name in ("entries", "entry", "is_zero", "columns"):
        method = getattr(GradedMap, name)

        def recorded(self, *args, _method=method):
            touched.add(id(self))
            return _method(self, *args)

        monkeypatch.setattr(GradedMap, name, recorded)
    coordinates = dgcat.functors.Basis.coordinates

    def counted(basis, value):
        touched.clear()
        coords = coordinates(basis, value)
        read = touched - {id(m) for m in value}
        elements = {
            b for b, legs in enumerate(basis.legs) if read & {id(m) for m in legs}
        }
        reads.append((len(basis), coords, elements))
        return coords

    monkeypatch.setattr(dgcat.functors.Basis, "coordinates", counted)
    assert main(["check-equivalence", "--input", str(src)]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == WIDTH_8_REPORT
    for size, coords, elements in reads:
        assert coords is not None and elements <= set(coords), (size, coords, elements)
    wide = [coords for size, coords, _ in reads if size == 65]
    assert len(wide) > 1000 and max(map(len, wide)) < 65, (len(wide), len(reads))
