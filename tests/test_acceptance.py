"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every tolerance is zero: two values agree
when their coordinates are equal in the coefficient field.
"""

import json
import time

from conftest import (
    F5,
    QQ,
    compose,
    compose_from_products,
    opposite_tables,
    path_category,
    presentation_with,
    product_tables,
    tensor_differential_oracle,
    tensor_tables,
)
from dgcat import linalg
from dgcat.bimodule import Bimodule, validate_bimodule
from dgcat.category import (
    DgCategoryPresentation,
    one_object_category,
    opposite_category,
    tensor_category,
    validate_dg_category,
)
from dgcat.comma import (
    CommaObject,
    build_coproduct_module,
    check_equivalence,
    validate_comma_object,
)
from dgcat.complexes import (
    HomComplex,
    TensorComplex,
    dg_module,
    hom_differential,
)
from dgcat.fixtures import (
    endomorphism_category,
    exterior_category,
    random_axiom_fixture,
    random_dg_module,
    random_theorem_fixture,
    trivial_category,
)
from dgcat.functors import (
    DgFunctor,
    naturality_witness,
    representable_module,
    validate_dg_functor,
    yoneda_module,
)
from dgcat.graded import GradedMap, identity_map
from dgcat.lambda_cat import build_lambda
from dgcat.shipped import NAMES, shipped_workspace


def test_criterion_1_axiom_suite():
    """Shipped and 200 seeded random fixtures validate, in under 60 s."""
    started = time.monotonic()
    count = 0
    for name in NAMES:
        ws = shipped_workspace(name)
        for cat in ws.categories.values():
            assert validate_dg_category(cat).passed, name
        for bim in ws.bimodules.values():
            assert validate_bimodule(bim).passed, name
        for fun in ws.modules.values():
            assert validate_dg_functor(fun).passed, name
        count += 1
    for seed in range(200):
        field = QQ if seed < 100 else F5
        fx = random_axiom_fixture(seed, field)
        for cat in (fx["t_cat"], fx["u_cat"]):
            report = validate_dg_category(cat)
            assert report.passed, f"seed {seed}: {report.render()}"
            # d-squared is checked exactly, blockwise
            assert report.checks[0].name == "d_squared" and report.checks[0].passed
        report = validate_bimodule(fx["bimodule"])
        assert report.passed, f"seed {seed}: {report.render()}"
        for fun in fx["modules"]:
            report = validate_dg_functor(fun)
            assert report.passed, f"seed {seed}: {report.render()}"
        count += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 1: axiom suite on {count} fixtures "
        f"(Q and F_5) in {elapsed:.1f}s"
    )


def _opposite_sign_holds(cat):
    opp = opposite_category(cat)
    return (
        validate_dg_category(opp).passed
        and product_tables(opp) == opposite_tables(cat)
        and product_tables(opposite_category(opp)) == product_tables(cat)
    )


def _tensor_sign_holds(cat_a, cat_b):
    prod = tensor_category(cat_a, cat_b)
    return (
        validate_dg_category(prod).passed
        and product_tables(prod) == tensor_tables(prod, cat_a, cat_b)[0]
    )


def _complex_differentials_match(module_a, module_b):
    field = module_a.field
    hc = HomComplex(module_a, module_b)
    for n in hc.module.carrier.degrees():
        for k in range(hc.module.dim(n)):
            vec = linalg.unit_vector(field, hc.module.dim(n), k)
            got = hc.decode(n + 1, hc.module.d.apply(n, vec))
            want = hom_differential(module_a, module_b, hc.decode(n, vec))
            if got != want:
                return False
    tc = TensorComplex(module_a, module_b)
    for i in module_a.carrier.degrees():
        for j in module_b.carrier.degrees():
            for a in range(module_a.dim(i)):
                for b in range(module_b.dim(j)):
                    x = linalg.unit_vector(field, module_a.dim(i), a)
                    y = linalg.unit_vector(field, module_b.dim(j), b)
                    got = tc.module.d.apply(i + j, tc.encode_pure(i, x, j, y))
                    want = tensor_differential_oracle(tc, i, x, j, y)
                    if got != want:
                        return False
    return True


def _hom_variance_signs_hold(cat):
    field = cat.field
    for origin in cat.objects:
        contra = yoneda_module(cat, origin)
        if not validate_dg_functor(contra).passed:
            return False
        cova = representable_module(cat, origin)
        if not validate_dg_functor(cova).passed:
            return False
        for x in cat.objects:
            for y in cat.objects:
                for m, k in cat.basis_elements(y, x):
                    f_elem = cat.basis_element(y, x, m, k)
                    action = contra.map_of_basis(x, y, m, k)
                    for i, j in cat.basis_elements(x, origin):
                        j_elem = cat.basis_element(x, origin, i, j)
                        got = action.apply(i, j_elem.coords)
                        want = compose(cat, j_elem, f_elem).coords
                        sgn = field.sign(m * i)
                        want = tuple(field.mul(sgn, v) for v in want)
                        if got != want:
                            return False
                for m, k in cat.basis_elements(x, y):
                    f_elem = cat.basis_element(x, y, m, k)
                    action = cova.map_of_basis(x, y, m, k)
                    for i, j in cat.basis_elements(origin, x):
                        j_elem = cat.basis_element(origin, x, i, j)
                        got = action.apply(i, j_elem.coords)
                        want = compose(cat, f_elem, j_elem).coords
                        if got != want:
                            return False
    return True


def test_criterion_2_sign_rules(theorem_fixtures):
    """Every Koszul sign rule verified on all basis tuples, zero failures."""
    failures = []
    for fx in theorem_fixtures:
        for cat in (fx["t_cat"], fx["u_cat"]):
            if not _opposite_sign_holds(cat):
                failures.append((fx["name"], cat.name, "opposite sign"))
        if not _tensor_sign_holds(fx["t_cat"], fx["u_cat"]):
            failures.append((fx["name"], "tensor sign"))
        bim = fx["bimodule"]
        modules = [
            bim.value(u, t)
            for u in bim.left_base.objects
            for t in bim.right_base.objects
        ]
        for obj in fx["comma_objects"][:1]:
            modules.extend(obj.A.on_objects.values())
            modules.extend(obj.B.on_objects.values())
        for module in modules:
            if not _complex_differentials_match(module, module):
                failures.append((fx["name"], "hom/tensor differential"))
        for cat in (fx["t_cat"], fx["u_cat"]):
            if not _hom_variance_signs_hold(cat):
                failures.append((fx["name"], cat.name, "hom variance signs"))
        for obj in fx["comma_objects"]:
            for key, nats in obj.gB.nat_basis.items():
                for nat in nats:
                    if naturality_witness(nat) is not None:
                        failures.append((fx["name"], "graded naturality", key))
    assert not failures, failures
    print(f"\n[PASS] criterion 2: sign rules on {len(theorem_fixtures)} fixtures")


def test_criterion_3_triangular_category(theorem_fixtures):
    """Lambda passes full validation; its composition_chain_map on the basis
    pairs (m, t) and (u, m) is both bullet Leibniz identities."""
    for fx in theorem_fixtures:
        report = validate_dg_category(fx["lambda"].presentation)
        assert report.passed, f"{fx['name']}: {report.render()}"
    print(
        f"\n[PASS] criterion 3: triangular matrix category valid on "
        f"{len(theorem_fixtures)} fixtures"
    )


def test_criterion_4_action_product_identities(theorem_fixtures):
    """The product identities and the dot Leibniz rule, exactly: the
    coproduct module of each comma object is a dg Lambda-module.  Its
    functoriality on the basis pairs (t, m) and (m, u) is the pair of
    bullet compatibilities (distributivity is their sum), and its
    chain_map on the m-blocks is the dot Leibniz rule."""
    count = 0
    for fx in theorem_fixtures:
        for obj in fx["comma_objects"]:
            assert validate_comma_object(obj).passed, fx["name"]
            report = validate_dg_functor(build_coproduct_module(fx["lambda"], obj))
            assert report.passed, f"{fx['name']}: {report.render()}"
            count += 1
    print(f"\n[PASS] criterion 4: action product identities on {count} comma objects")


def test_criterion_5_equivalence_theorem(theorem_fixtures):
    """Hom dimensions agree, induced maps are bijective, comparisons invert."""
    for fx in theorem_fixtures:
        report = check_equivalence(
            fx["lambda"],
            fx["comma_objects"],
            fx["lambda_modules"],
            seed=fx["seed"],
        )
        assert report.passed, f"{fx['name']}: {report.render()}"
        for key, comma_dims in report.dimensions.items():
            if key.startswith("comma["):
                other = "lambda[" + key[len("comma[") :]
                assert report.dimensions[other] == comma_dims, (fx["name"], key)
    print(
        f"\n[PASS] criterion 5: equivalence verified on "
        f"{len(theorem_fixtures)} fixtures"
    )


def _direct_module_hom_dims(bim, B):
    """Independent route for one-object fixtures: graded module maps
    h: N -> B(*) with h(a n) = (-1)^{|h||a|} a h(n), solved directly."""
    field = bim.field
    u = bim.left_base.objects[0]
    t = bim.right_base.objects[0]
    value = bim.value(u, t)
    target = B.on_objects[u]
    n_window = []
    vw, tw = value.carrier.window(), target.carrier.window()
    if vw and tw:
        n_window = range(tw[0] - vw[1], tw[1] - vw[0] + 1)
    algebra = bim.left_base.hom[(u, u)]
    dims = {}
    for n in n_window:
        unknowns = []
        for i in value.carrier.degrees():
            for r in range(target.dim(i + n)):
                for c in range(value.dim(i)):
                    unknowns.append((i, r, c))
        index = {key: pos for pos, key in enumerate(unknowns)}
        rows = []
        for m in algebra.carrier.degrees():
            for k in range(algebra.dim(m)):
                act_n = bim.left_images[(u, u, t)][(m, k)]
                act_b = B.map_of_basis(u, u, m, k)
                sgn = field.sign(n * m)
                for i in value.carrier.degrees():
                    for r in range(target.dim(i + n + m)):
                        for c in range(value.dim(i)):
                            row = [field.zero()] * len(unknowns)
                            bb = act_b.block(i + n)
                            for s in range(target.dim(i + n)):
                                if (i, s, c) in index:
                                    row[index[(i, s, c)]] = field.add(
                                        row[index[(i, s, c)]], bb[r][s]
                                    )
                            nb = act_n.block(i)
                            for s in range(value.dim(i + m)):
                                if (i + m, r, s) in index:
                                    row[index[(i + m, r, s)]] = field.sub(
                                        row[index[(i + m, r, s)]],
                                        field.mul(sgn, nb[s][c]),
                                    )
                            nonzero = {
                                k: x for k, x in enumerate(row) if not field.is_zero(x)
                            }
                            if nonzero:
                                rows.append(nonzero)
        basis = linalg.nullspace(field, rows, ncols=len(unknowns))
        if basis:
            dims[n] = len(basis)
    return dims


def test_criterion_6_algebra_corollary(theorem_fixtures):
    """One-object fixtures: G-carrier dims equal module-hom dims directly."""
    checked = 0
    for fx in theorem_fixtures:
        bim = fx["bimodule"]
        if len(bim.left_base.objects) != 1 or len(bim.right_base.objects) != 1:
            continue
        t = bim.right_base.objects[0]
        u = bim.left_base.objects[0]
        for obj in fx["comma_objects"]:
            g_dims = obj.gB.functor.on_objects[t].carrier.dims()
            direct = _direct_module_hom_dims(bim, obj.B)
            assert g_dims == direct, (fx["name"], g_dims, direct)
            # when the algebra is K itself, the module-hom complex is the
            # plain Hom complex: compare against it literally
            if bim.left_base.hom[(u, u)].carrier.dims() == {0: 1}:
                plain = HomComplex(bim.value(u, t), obj.B.on_objects[u])
                assert g_dims == plain.module.carrier.dims(), fx["name"]
            checked += 1
    assert checked >= 6
    print(f"\n[PASS] criterion 6: dg-algebra corollary on {checked} one-object cases")


def _scaled_images(fun, pair, factor, degree=None):
    """fun's basis images with those on pair (of one degree, if given) scaled."""
    field = fun.field
    images = dict(fun.images)
    images[pair] = {
        (m, k): image.scale(field.from_int(factor))
        if degree is None or m == degree
        else image
        for (m, k), image in images[pair].items()
    }
    return images


def _first_failure_is(report, name):
    failure = report.first_failure()
    return failure is not None and failure.name == name


def _fails_only(report, name):
    return [c.name for c in report.checks if not c.passed] == [name]


def _one_object_bimodule(u_cat, t_cat, value_module):
    """Bimodule over one-object categories whose degree-0 generators act
    by the identity; higher-degree generators act by zero."""
    identity = {(0, 0): identity_map(value_module.carrier)}
    u, t = u_cat.objects[0], t_cat.objects[0]
    return Bimodule(
        u_cat, t_cat, {(u, t): value_module}, {(u, u, t): identity}, {(t, t, u): identity}
    )


def test_criterion_7_negative_controls():
    """Each axiom has a corrupted fixture failing there and no earlier."""
    field = QQ
    results = {}

    # d squared
    bad = {
        "field": "Q",
        "categories": {
            "T": {
                "objects": ["t"],
                "hom": {
                    "t": {
                        "t": {
                            "dims": {"0": 1, "1": 1, "2": 1},
                            "d": {"0": [["1"]], "1": [["1"]]},
                        }
                    }
                },
                "comp": {"t": {"t": {"t": [[0, 0, 0, 0, 0, "1"]]}}},
                "id": {"t": ["1"]},
            }
        },
    }
    from dgcat.io_json import parse_text

    workspace = parse_text(json.dumps(bad))
    report = validate_dg_category(workspace.categories["T"])
    results["d_squared"] = _first_failure_is(report, "d_squared")

    # composition chain map: nonzero differential, one comp block rescaled
    import random as _random

    found = False
    for seed in range(20):
        rng = _random.Random(seed)
        modules = {"m0": random_dg_module(rng, field)}
        if modules["m0"].d.is_zero():
            continue
        cat, _ = endomorphism_category(field, modules, name="E")
        key = ("m0", "m0", "m0")
        table = cat.products(*key)
        two = field.from_int(2)
        # every composite of one total degree scaled by 2
        for deg in sorted({f[0] + g[0] for f, per_g in table.items() for g in per_g}):
            candidate = {
                f: {
                    g: tuple((r, field.mul(two, c)) for r, c in terms)
                    if f[0] + g[0] == deg
                    else terms
                    for g, terms in per_g.items()
                }
                for f, per_g in table.items()
            }
            report = validate_dg_category(presentation_with(cat, {key: candidate}))
            if _first_failure_is(report, "composition_chain_map"):
                found = True
                break
        if found:
            break
    results["composition_chain_map"] = found

    # identity cycle: zero composition makes the chain-map axiom vacuous,
    # isolating d(1) != 0
    hom = dg_module(field, {0: 1, 1: 1}, {0: [[field.one()]]})
    cat = one_object_category(field, hom, {}, (field.one(),), name="BadIdOnly")
    report = validate_dg_category(cat)
    results["identity_closed"] = _first_failure_is(report, "identity_closed")

    # units: scaled multiplication on the one-object trivial category
    hom = dg_module(field, {0: 1}, {})
    table = {(0, 0): {(0, 0): ((0, field.from_int(2)),)}}
    cat = one_object_category(field, hom, table, (field.one(),), name="BadUnit")
    report = validate_dg_category(cat)
    results["units"] = _first_failure_is(report, "units")

    # associativity: corrupted middle composite in a path category
    bad = {(0, 0): {(0, 0): ((0, field.from_int(2)),)}}
    cat = presentation_with(path_category(field, 3), {("x0", "x2", "x3"): bad})
    report = validate_dg_category(cat)
    results["associativity"] = _first_failure_is(report, "associativity")

    # functor unit: action scaled uniformly by 2
    cat = trivial_category(field)
    fun = representable_module(cat, "*")
    fun = DgFunctor(cat, fun.on_objects, _scaled_images(fun, ("*", "*"), 2))
    report = validate_dg_functor(fun)
    results["functor_unit"] = _first_failure_is(report, "unit")

    # functor functoriality: one off-diagonal action scaled in a 2-object base
    import random as _random2

    found = False
    for seed in range(30):
        rng = _random2.Random(seed)
        modules = {
            "m0": random_dg_module(rng, field),
            "m1": random_dg_module(rng, field),
        }
        cat, _ = endomorphism_category(field, modules, name="E2")
        fun = representable_module(cat, "m0")
        fun = DgFunctor(cat, fun.on_objects, _scaled_images(fun, ("m0", "m1"), 2))
        report = validate_dg_functor(fun)
        if _first_failure_is(report, "functoriality"):
            found = True
            break
    results["functor_functoriality"] = found

    # functor chain map: rescale a single degree block of an action on a
    # base with a nonzero hom differential
    found = False
    for seed in range(30):
        rng = _random2.Random(seed)
        modules = {"m0": random_dg_module(rng, field)}
        if modules["m0"].d.is_zero():
            continue
        cat, _ = endomorphism_category(field, modules, name="E3")
        fun = representable_module(cat, "m0")
        images = fun.images[("m0", "m0")]
        acting = sorted({m for (m, _), image in images.items() if not image.is_zero()})
        for deg in acting:
            scaled = _scaled_images(fun, ("m0", "m0"), 2, degree=deg)
            report = validate_dg_functor(DgFunctor(cat, fun.on_objects, scaled))
            if _first_failure_is(report, "chain_map"):
                found = True
                break
        if found:
            break
    results["functor_chain_map"] = found

    # bimodule interchange: conjugate the left action per T-object with a
    # factor that is not constant in t.  Each T-slice is conjugated by a
    # diagonal automorphism, so both slice families stay valid dg-functors,
    # but the two interchange routes now pick up different factors.
    found = False
    from dgcat.fixtures import hom_bimodule, random_endo_category

    for seed in range(30):
        rng = _random2.Random(seed)
        u_cat, u_cx = random_endo_category(rng, field, "U", max_objects=2)
        t_cat, t_cx = random_endo_category(rng, field, "T", max_objects=2)
        if len(u_cat.objects) < 2 or len(t_cat.objects) < 2:
            continue
        bim = hom_bimodule(u_cat, u_cx, t_cat, t_cx)
        u_special, t_special = u_cat.objects[1], t_cat.objects[0]

        def conj(u, t):
            if u == u_special and t == t_special:
                return field.from_int(2)
            return field.one()

        left = {
            (u, u2, t): {
                key: image.scale(field.div(conj(u2, t), conj(u, t)))
                for key, image in images.items()
            }
            for (u, u2, t), images in bim.left_images.items()
        }
        bim = Bimodule(u_cat, t_cat, bim.values, left, bim.right_images)
        report = validate_bimodule(bim)
        failure = report.first_failure()
        if failure is not None and failure.name == "interchange_sign":
            found = True
            break
    results["bimodule_interchange"] = found

    # comma closedness: structure map hitting a non-cycle
    t_cat = trivial_category(field, name="T", obj="t")
    u_cat = trivial_category(field, name="U", obj="u")
    value = dg_module(field, {0: 1}, {})
    bim = _one_object_bimodule(u_cat, t_cat, value)
    A = representable_module(t_cat, "t")
    contractible = dg_module(field, {0: 1, 1: 1}, {0: [[field.one()]]})
    B = DgFunctor(
        u_cat,
        {"u": contractible},
        {("u", "u"): {(0, 0): identity_map(contractible.carrier)}},
        name="Bc",
    )
    assert validate_dg_functor(B).passed
    from dgcat.bimodule import g_on_objects

    gb = g_on_objects(bim, B)
    f_map = GradedMap(
        A.on_objects["t"].carrier,
        gb.functor.on_objects["t"].carrier,
        0,
        {0: [[field.one()]]},
    )
    obj = CommaObject(bim, A, B, {"t": f_map}, name="not_closed")
    report = validate_comma_object(obj)
    results["comma_closed"] = _first_failure_is(report, "closed")
    # the action of a structure map that is not closed breaks d(m . x),
    # the chain-map axiom of the coproduct module
    lam = build_lambda(t_cat, u_cat, bim, validate=False)
    report = validate_dg_functor(build_coproduct_module(lam, obj))
    results["comma_dot_leibniz"] = _fails_only(report, "chain_map")

    # comma naturality: closed but non-natural structure map over the
    # exterior algebra
    t_cat = exterior_category(field, name="T", obj="t")
    u_cat = trivial_category(field, name="U", obj="u")
    bim = _one_object_bimodule(u_cat, t_cat, value)
    A = representable_module(t_cat, "t")
    two_line = dg_module(field, {0: 1, 1: 1}, {})
    B = DgFunctor(
        u_cat,
        {"u": two_line},
        {("u", "u"): {(0, 0): identity_map(two_line.carrier)}},
        name="B2",
    )
    assert validate_dg_functor(B).passed
    gb = g_on_objects(bim, B)
    src = A.on_objects["t"].carrier
    tgt = gb.functor.on_objects["t"].carrier
    f_map = GradedMap(src, tgt, 0, {0: [[field.one()]], 1: [[field.one()]]})
    obj = CommaObject(bim, A, B, {"t": f_map}, name="not_natural")
    report = validate_comma_object(obj)
    results["comma_natural"] = _first_failure_is(report, "natural")
    # the action of a structure map that is not natural breaks
    # (m . t) . x = m . (t * x), functoriality of the coproduct module
    lam = build_lambda(t_cat, u_cat, bim, validate=False)
    report = validate_dg_functor(build_coproduct_module(lam, obj))
    results["comma_bullet_right"] = _fails_only(report, "functoriality")

    # opposite category without the Koszul sign fails the chain-map axiom
    found = False
    for seed in range(30):
        rng = _random2.Random(seed)
        modules = {"m0": random_dg_module(rng, field)}
        if modules["m0"].d.is_zero():
            continue
        cat, _ = endomorphism_category(field, modules, name="E4")
        unsigned = _unsigned_opposite(cat)
        report = validate_dg_category(unsigned)
        failure = report.first_failure()
        if failure is not None and failure.name in (
            "composition_chain_map",
            "associativity",
        ):
            found = True
            break
    results["opposite_sign_necessary"] = found

    bad = [name for name, ok in results.items() if not ok]
    assert not bad, f"negative controls not isolated: {bad}"
    print(f"\n[PASS] criterion 7: {len(results)} negative controls fail exactly as intended")


def _unsigned_opposite(cat):
    hom = {(a, b): cat.hom[(b, a)] for a in cat.objects for b in cat.objects}
    out = DgCategoryPresentation(
        cat.field,
        cat.objects,
        hom,
        {},
        {x: cat.ids[x] for x in cat.objects},
        name=f"{cat.name}.op_nosign",
    )

    def product(x, y, z, p, ib, q, ia):
        b = cat.basis_element(z, y, p, ib)
        a = cat.basis_element(y, x, q, ia)
        return compose(cat, a, b).coords

    return compose_from_products(out, product)


def test_criterion_8_determinism(tmp_path):
    """Identical inputs and seeds produce byte-identical reports."""
    from dgcat.cli import main
    from dgcat.io_json import emit_workspace, render_document

    emitted = [render_document(emit_workspace(shipped_workspace("kkk"))) for _ in range(2)]
    assert emitted[0] == emitted[1]
    src = tmp_path / "kkk.json"
    src.write_text(emitted[0], encoding="utf-8")
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        code = main(
            [
                "check-equivalence",
                "--input",
                str(src),
                "--seed",
                "42",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    fx = random_theorem_fixture(0, QQ)
    first = check_equivalence(
        fx["lambda"], fx["comma_objects"], fx["lambda_modules"], seed=5
    ).render()
    fx2 = random_theorem_fixture(0, QQ)
    second = check_equivalence(
        fx2["lambda"], fx2["comma_objects"], fx2["lambda_modules"], seed=5
    ).render()
    assert first == second
    print("\n[PASS] criterion 8: byte-identical reports for identical inputs and seeds")
