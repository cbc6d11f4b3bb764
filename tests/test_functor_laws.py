"""check_equivalence's functor laws against a scan over every pair.

The report takes F as its images on the comma basis, extended linearly,
and decides F(d phi) = d F(phi) on every basis morphism phi and
F(psi . g) = F(psi) . F(g) on every basis morphism psi after a
generator g of the comma category, one flat entry difference per
Lambda-object; the laws on the generators give them on every pair, since
the phi that F composes with are closed under sums and composites.  When
that does not pass, the report runs the same two checks on every basis
morphism and every composable pair of basis morphisms for the witnesses,
so F is never evaluated off the basis.  The oracle below takes the same
definition of F without the report's Basis: F(x) = sum c_b F(b), with
x's coordinates c found by dense elimination on its flat entries, and it
builds both sides of each law whole for every comma basis morphism and
every composable basis pair; both must give the same verdicts and the
same first witnesses, also when F is wrong on one basis morphism.
"""

from itertools import product

import pytest

import dgcat.comma
from conftest import F5, QQ, dense_coordinates, nat_to_flat
from dgcat.comma import (
    CommaMorphism,
    build_coproduct_module,
    check_equivalence,
    comma_differential,
    comma_hom_space,
    comma_window,
)
from dgcat.fixtures import random_theorem_fixture
from dgcat.functors import (
    DgNatTransformation,
    compose_nat,
    dgnat_differential,
    dgnat_window,
    linear_combination,
    nat_unknowns,
)

LAWS = ("functor_commutes_with_differential", "functor_commutes_with_composition")
HEAVY = [(0, 1), (3, 1), (6, 2), (7, 2)]


def compose_comma(psi, phi):
    return CommaMorphism(
        psi.degree + phi.degree,
        compose_nat(psi.alpha, phi.alpha),
        compose_nat(psi.beta, phi.beta),
    )


def comma_bases(lam, comma_objects, coproducts):
    """(i, j, n) -> the degree-n comma basis o_i -> o_j, over the window
    check_equivalence scans."""
    bases = {}
    for (i, src), (j, tgt) in product(enumerate(comma_objects), repeat=2):
        window = set(comma_window(src, tgt))
        window |= set(dgnat_window(coproducts[i], coproducts[j]))
        for n in sorted(window):
            bases[(i, j, n)] = comma_hom_space(src, tgt, n)
    return bases


def oracle_witnesses(lam, comma_objects):
    """The two functor-law witnesses of the scan over every pair, F read
    from dgcat.comma on each comma basis morphism and extended linearly:
    F(x) = sum c_b F(b), with c the coordinates dense_coordinates finds for
    x's alpha and beta entries, flattened over nat_unknowns, in the flat
    basis vectors; F(x) is None when x has none, which fails its law."""
    field = lam.field
    coproducts = [build_coproduct_module(lam, o) for o in comma_objects]
    bases = comma_bases(lam, comma_objects, coproducts)

    def flat(i, j, phi):
        src, tgt = comma_objects[i], comma_objects[j]
        return tuple(
            x
            for F, G, nat in ((src.A, tgt.A, phi.alpha), (src.B, tgt.B, phi.beta))
            for x in nat_to_flat(F, G, phi.degree, nat_unknowns(F, G, phi.degree), nat)
        )

    vectors = {
        (i, j, n): [flat(i, j, phi) for phi in basis]
        for (i, j, n), basis in bases.items()
    }
    images = {
        (i, j, n): [
            dgcat.comma.f_on_morphisms(lam, coproducts[i], coproducts[j], phi)
            for phi in basis
        ]
        for (i, j, n), basis in bases.items()
    }

    def f(i, j, phi):
        key = (i, j, phi.degree)
        coords = dense_coordinates(field, vectors.get(key, []), flat(i, j, phi))
        if coords is None:
            return None
        zero = DgNatTransformation(coproducts[i], coproducts[j], phi.degree, {})
        return linear_combination((field.one(), *coords), (zero, *images.get(key, ())))

    d_witness = next(
        (
            {"pair": [comma_objects[i].name, comma_objects[j].name], "degree": n}
            for (i, j, n), basis in bases.items()
            if any(
                f(i, j, comma_differential(phi)) != dgnat_differential(image)
                for phi, image in zip(basis, images[(i, j, n)])
            )
        ),
        None,
    )

    def composition_failures():
        for i, j, k in product(range(len(comma_objects)), repeat=3):
            src, mid, tgt = comma_objects[i], comma_objects[j], comma_objects[k]
            for n1, n2 in product(comma_window(src, mid), comma_window(mid, tgt)):
                for (phi, f_phi), (psi, f_psi) in product(
                    zip(bases[(i, j, n1)], images[(i, j, n1)]),
                    zip(bases[(j, k, n2)], images[(j, k, n2)]),
                ):
                    lhs = f(i, k, compose_comma(psi, phi))
                    if lhs != compose_nat(f_psi, f_phi):
                        yield {
                            "objects": [src.name, mid.name, tgt.name],
                            "degrees": [n1, n2],
                        }

    return {
        LAWS[0]: d_witness,
        LAWS[1]: next(composition_failures(), None),
    }


def report_witnesses(fx):
    report = check_equivalence(fx["lambda"], fx["comma_objects"], fx["lambda_modules"])
    checks = {c.name: c for c in report.checks}
    for name in LAWS:
        assert checks[name].passed == (checks[name].witness is None)
    return {name: checks[name].witness for name in LAWS}


def value_of(phi):
    return (
        phi.degree,
        *(
            tuple(tuple(m.entries()) for m in leg.components.values())
            for leg in (phi.alpha, phi.beta)
        ),
    )


def wrong_on(monkeypatch, source_name, target_name, value):
    """Patch F so that on the one comma morphism source_name -> target_name
    of the given value its component at the last Lambda-object where it
    is nonzero is doubled; F elsewhere."""
    f_on_morphisms = dgcat.comma.f_on_morphisms

    def patched(lam, source, target, phi):
        image = f_on_morphisms(lam, source, target, phi)
        if (source.name, target.name, value_of(phi)) == (
            source_name,
            target_name,
            value,
        ):
            comps = dict(image.components)
            p = [p for p, comp in comps.items() if not comp.is_zero()][-1]
            comps[p] = comps[p].scale(lam.field.from_int(2))
            image = DgNatTransformation(source, target, image.degree, comps)
        return image

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", patched)


def module_names(fx, *indices):
    objs = fx["comma_objects"]
    return [build_coproduct_module(fx["lambda"], objs[x]).name for x in indices]


def basis_composites(fx):
    """(i, k, phi, psi, composite, basis of o_i -> o_k at its degree) for
    every composable pair of comma basis morphisms, in the scan's order."""
    lam, objs = fx["lambda"], fx["comma_objects"]
    coproducts = [build_coproduct_module(lam, o) for o in objs]
    bases = comma_bases(lam, objs, coproducts)
    for i, j, k in product(range(len(objs)), repeat=3):
        for n1, n2 in product(
            comma_window(objs[i], objs[j]), comma_window(objs[j], objs[k])
        ):
            for phi, psi in product(bases[(i, j, n1)], bases[(j, k, n2)]):
                yield i, k, phi, psi, compose_comma(psi, phi), bases.get(
                    (i, k, n1 + n2), []
                )


def test_functor_laws_match_the_per_pair_scan_on_theorem_fixtures(theorem_fixtures):
    for fx in theorem_fixtures:
        want = oracle_witnesses(fx["lambda"], fx["comma_objects"])
        assert report_witnesses(fx) == want, fx["name"]


@pytest.mark.parametrize("seed,max_objects", HEAVY)
def test_functor_laws_match_the_per_pair_scan_on_the_heavy_set(seed, max_objects):
    fx = random_theorem_fixture(seed, QQ, max_objects=max_objects)
    want = oracle_witnesses(fx["lambda"], fx["comma_objects"])
    assert want == {name: None for name in LAWS}
    assert report_witnesses(fx) == want


def wrong_on_a_served_composite(monkeypatch, fx):
    """Patch F wrong on the first comma basis morphism, in the scan's order,
    that is the composite of a basis pair and neither of the two."""
    i, k, chi = next(
        (i, k, chi)
        for i, k, phi, psi, composite, basis in basis_composites(fx)
        for chi in basis
        if value_of(composite) == value_of(chi)
        and value_of(chi) not in (value_of(phi), value_of(psi))
    )
    wrong_on(monkeypatch, *module_names(fx, i, k), value_of(chi))


def test_f_wrong_on_a_basis_morphism_served_as_a_composite(monkeypatch):
    fx = random_theorem_fixture(1, QQ)
    wrong_on_a_served_composite(monkeypatch, fx)
    want = oracle_witnesses(fx["lambda"], fx["comma_objects"])
    assert want == {
        LAWS[0]: None,
        LAWS[1]: {"objects": ["o_zero"] * 3, "degrees": [-1, 1]},
    }
    assert report_witnesses(fx) == want


def law_generators(monkeypatch, fx):
    """The generators that check_equivalence's functor laws run on, as
    (i, j, n, basis index), from one unpatched run."""
    seen = []
    generator_closure = dgcat.comma.generator_closure

    def recorded(*args):
        seen.append(generator_closure(*args))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(dgcat.comma, "generator_closure", recorded)
        check_equivalence(fx["lambda"], fx["comma_objects"], fx["lambda_modules"])
    ((generators, _),) = seen
    return [(*key, b) for key, b in generators]


def test_f_wrong_on_a_basis_morphism_that_is_no_generator(monkeypatch):
    """F is wrong on the first basis morphism chi, in basis order, that is
    no generator, so the closure reaches it only through composites: the
    generator path fails, and the report gives the scan's witnesses.  F
    extended linearly also fails F(d phi) = d F(phi) one degree below chi,
    at a basis morphism phi whose d phi has a chi coordinate."""
    fx = random_theorem_fixture(36, QQ)
    lam, objs = fx["lambda"], fx["comma_objects"]
    generators = law_generators(monkeypatch, fx)
    coproducts = [build_coproduct_module(lam, o) for o in objs]
    i, j, chi = next(
        (i, j, chi)
        for (i, j, n), basis in comma_bases(lam, objs, coproducts).items()
        for b, chi in enumerate(basis)
        if (i, j, n, b) not in generators
    )
    wrong_on(monkeypatch, *module_names(fx, i, j), value_of(chi))
    want = oracle_witnesses(lam, objs)
    assert want == {
        LAWS[0]: {"pair": ["o_rand", "o_mix"], "degree": -3},
        LAWS[1]: {"objects": ["o_rand", "o_zero", "o_mix"], "degrees": [0, -2]},
    }
    assert report_witnesses(fx) == want


def basis_values(fx):
    """(source, target, value) of every comma basis morphism, in the order
    check_equivalence's full_faithful loop maps them."""
    lam, objs = fx["lambda"], fx["comma_objects"]
    coproducts = [build_coproduct_module(lam, o) for o in objs]
    names = [c.name for c in coproducts]
    return [
        (names[i], names[j], value_of(phi))
        for (i, j, _), phis in comma_bases(lam, objs, coproducts).items()
        for phi in phis
    ]


def f_calls(monkeypatch, fx):
    """The report's functor-law witnesses and the (source, target, value)
    of every call check_equivalence makes to F, as F is patched now."""
    calls = []
    f_on_morphisms = dgcat.comma.f_on_morphisms

    def counted(lam, source, target, phi):
        calls.append((source.name, target.name, value_of(phi)))
        return f_on_morphisms(lam, source, target, phi)

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", counted)
    return report_witnesses(fx), calls


@pytest.mark.parametrize("seed", [0, 1, 2, 36])
def test_f_runs_once_per_comma_basis_morphism(monkeypatch, seed):
    """A PASS reads F on the comma basis only: the full_faithful loop maps
    each basis morphism once, and the functor laws evaluate F on no
    composite and no differential.  Seed 0 has odd-degree basis morphisms
    phi with F(phi) . d nonzero, where a wrong sign in the differential law
    would fail the check."""
    fx = random_theorem_fixture(seed, QQ)
    assert f_calls(monkeypatch, fx) == ({name: None for name in LAWS}, basis_values(fx))


def legs_of(phi):
    return (*phi.alpha.components.values(), *phi.beta.components.values())


def closed_non_boundary(fx):
    """(i, j, phi, its free column (leg position, i, r, c)) for the first
    comma basis morphism phi, in basis order, with d phi = 0 at which no
    basis differential of the degree below has a nonzero coordinate: the
    entry of each at phi's free column, its last nonzero leg entry."""
    lam, objs = fx["lambda"], fx["comma_objects"]
    coproducts = [build_coproduct_module(lam, o) for o in objs]
    bases = comma_bases(lam, objs, coproducts)
    for (i, j, n), basis in bases.items():
        for phi in basis:
            if not all(m.is_zero() for m in legs_of(comma_differential(phi))):
                continue
            at, (deg, r, c, _) = [
                (at, entry) for at, m in enumerate(legs_of(phi)) for entry in m.entries()
            ][-1]
            if all(
                legs_of(comma_differential(psi))[at].entry(deg, r, c) == 0
                for psi in bases.get((i, j, n - 1), [])
            ):
                return i, j, phi, (at, deg, r, c)
    raise AssertionError("no closed comma basis morphism outside the boundaries")


def doubled_where_the_differential_law_cannot_see(monkeypatch, fx):
    """Patch F to F' = F + c_phi F(phi), with c_phi the coordinate along
    the closed basis morphism phi of closed_non_boundary."""
    field = fx["lambda"].field
    i, j, phi, (at, deg, r, c) = closed_non_boundary(fx)
    names = module_names(fx, i, j)
    f_on_morphisms = dgcat.comma.f_on_morphisms

    def doubled(lam, source, target, chi):
        image = f_on_morphisms(lam, source, target, chi)
        if [source.name, target.name] == names and chi.degree == phi.degree:
            coeff = legs_of(chi)[at].entry(deg, r, c)
            image = linear_combination(
                (field.one(), coeff), (image, f_on_morphisms(lam, source, target, phi))
            )
        return image

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", doubled)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_f_doubled_where_the_differential_law_cannot_see(monkeypatch, field):
    """F' = F + c_phi F(phi), with c_phi the coordinate along a closed basis
    morphism phi that no basis differential reaches, is F doubled on phi and
    linear.  F'(d psi) = d F'(psi) holds for every psi, since d phi = 0 and
    no d psi has a phi coordinate, so only the composition law can catch
    it: the generator path must fail there, and the report gives the
    scan's witness, with no exception."""
    fx = random_theorem_fixture(5, field)
    lam, objs = fx["lambda"], fx["comma_objects"]
    doubled_where_the_differential_law_cannot_see(monkeypatch, fx)
    want = oracle_witnesses(lam, objs)
    assert want == {
        LAWS[0]: None,
        LAWS[1]: {"objects": ["o_zero"] * 3, "degrees": [-2, 0]},
    }
    report = check_equivalence(lam, objs, fx["lambda_modules"])
    failed = {ch.name: ch.witness for ch in report.checks if not ch.passed}
    assert failed == {LAWS[1]: want[LAWS[1]], "equivalence_verified": None}


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_f_scaled_by_degree_fails_the_differential_law_only(monkeypatch, field):
    """F'(phi) = 2^{|phi|} F(phi) still composes, since degrees add, but
    F'(d phi) = 2 d F'(phi), so only the differential law fails.  The
    generator closure alone decides composition, and passes, while the
    one scan of the differential law gives its witness; both verdicts are
    the oracle's."""
    fx = random_theorem_fixture(3, field)
    lam, objs = fx["lambda"], fx["comma_objects"]
    f_on_morphisms = dgcat.comma.f_on_morphisms
    two = field.from_int(2)

    def scaled(lam, source, target, phi):
        image = f_on_morphisms(lam, source, target, phi)
        c = field.one()
        for _ in range(abs(phi.degree)):
            c = field.mul(c, two if phi.degree > 0 else field.inv(two))
        comps = {p: comp.scale(c) for p, comp in image.components.items()}
        return DgNatTransformation(source, target, image.degree, comps)

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", scaled)
    closures = []
    generator_closure = dgcat.comma.generator_closure

    def recorded(*args):
        closures.append(generator_closure(*args))
        return closures[-1]

    monkeypatch.setattr(dgcat.comma, "generator_closure", recorded)
    want = oracle_witnesses(lam, objs)
    assert want == {LAWS[0]: {"pair": ["o_zero", "o_zero"], "degree": -2}, LAWS[1]: None}
    assert report_witnesses(fx) == want
    assert len(closures) == 1 and closures[0] is not None


@pytest.mark.parametrize(
    "seed,wrong,witness",
    [
        (
            5,
            doubled_where_the_differential_law_cannot_see,
            {"objects": ["o_zero"] * 3, "degrees": [-2, 0]},
        ),
        (1, wrong_on_a_served_composite, {"objects": ["o_zero"] * 3, "degrees": [-1, 1]}),
    ],
    ids=["doubled", "wrong_on"],
)
def test_f_runs_once_per_comma_basis_morphism_on_a_fail(
    monkeypatch, seed, wrong, witness
):
    """A FAIL reads F on the comma basis only, too: the witness scan runs
    the generator path's two checks on every pair, so F runs once per
    comma basis morphism, in the full_faithful loop, and on nothing else."""
    fx = random_theorem_fixture(seed, QQ)
    wrong(monkeypatch, fx)
    assert f_calls(monkeypatch, fx) == (
        {LAWS[0]: None, LAWS[1]: witness},
        basis_values(fx),
    )
