"""The generating set of a presentation and the checks that read it.

DgCategoryPresentation.spanning() keeps some basis morphisms as
generators and records the basis pairs whose composites reach the rest.
Associativity, functoriality and naturality are decided on the generators
when their preconditions hold, and by the scan over every basis morphism
otherwise or on a failure.  Each test here compares an answer with the
all-basis one, computed with spanning() replaced by every basis morphism
as a generator and no spanning pair, which is exactly the full scan.
"""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    F5,
    QQ,
    associativity_witness,
    axiom_categories,
    draw_image_spot,
    identity_nat,
    nat_from_flat,
    nat_to_flat,
    presentation_with,
    table_spots,
    with_image_entry,
    with_table_coordinate,
)
from dgcat import functors, linalg
from dgcat.category import (
    DgCategoryPresentation,
    Spanning,
    _associator,
    _composites_by_row,
    one_object_category,
    validate_dg_category,
)
from dgcat.comma import build_coproduct_module, comma_hom_space, comma_window
from dgcat.complexes import dg_module
from dgcat.fixtures import random_axiom_fixture
from dgcat.functors import (
    DgFunctor,
    DgNatTransformation,
    dgnat_space,
    dgnat_window,
    nat_unknowns,
    naturality_witness,
    representable_module,
    validate_dg_functor,
)


def _every_basis_morphism(cat):
    return Spanning(
        {
            (x, y): tuple(cat.basis_elements(x, y))
            for x, y in itertools.product(cat.objects, repeat=2)
        },
        (),
    )


@contextlib.contextmanager
def _all_basis():
    """spanning() lists every basis morphism as a generator and no pair, so
    every fast path reads every basis morphism: the full scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DgCategoryPresentation, "spanning", _every_basis_morphism)
        yield


def _basis(cat):
    return {
        (x, y, b)
        for x, y in itertools.product(cat.objects, repeat=2)
        for b in cat.basis_elements(x, y)
    }


def _replayed(cat, spanning):
    """The basis morphisms reached from the generators by the spanning pairs
    whose members are reached, to a fixed point."""
    one = cat.field.one()
    reached = set()
    while True:
        echelons = {}

        def add(x, y, n, row):
            echelons.setdefault((x, y, n), linalg.Echelon(cat.field)).add(row)

        for (x, y), generators in spanning.generators.items():
            for n, k in generators:
                add(x, y, n, {k: one})
        for x, y, z, g, f in spanning.pairs:
            if (x, y, f) in reached and (y, z, g) in reached:
                add(x, z, f[0] + g[0], dict(cat.products(x, y, z)[f][g]))
        now = {
            (x, y, (n, k))
            for (x, y, n), echelon in echelons.items()
            for k in range(cat.hom[(x, y)].dim(n))
            if len(echelon.pivots.get(k, ())) == 1
        }
        if now == reached:
            return reached
        reached = now


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 79), field=st.sampled_from([QQ, F5]))
def test_closure_reaches_every_basis_morphism(seed, field):
    for cat in axiom_categories(field, seed).values():
        spanning = cat.spanning()
        assert presentation_with(cat).spanning() == spanning
        assert _replayed(cat, spanning) == _basis(cat)
        # the generators' unit vectors and the pairs' composites are
        # independent in each hom(x, y)^n, and there are dim of them
        vectors = {}
        for (x, y), generators in spanning.generators.items():
            for n, k in generators:
                dim = cat.hom[(x, y)].dim(n)
                vectors.setdefault((x, y, n), []).append(
                    linalg.unit_vector(field, dim, k)
                )
        for x, y, z, g, f in spanning.pairs:
            n = f[0] + g[0]
            dim = cat.hom[(x, z)].dim(n)
            vectors.setdefault((x, z, n), []).append(
                linalg.dense_vector(field, cat.products(x, y, z)[f][g], dim)
            )
        for (x, y, n), rows in vectors.items():
            assert linalg.rank(field, rows) == len(rows) == cat.hom[(x, y)].dim(n)


def test_closure_skips_zero_coefficients_in_a_table():
    """A composite written with an explicit zero coefficient is zero: the
    closure must not pivot on it."""
    hom = dg_module(QQ, {0: 2}, {})
    one, zero = QQ.one(), QQ.zero()
    table = {(0, 0): {(0, 0): ((0, one), (1, zero))}}
    cat = one_object_category(QQ, hom, table, (one, zero))
    spanning = cat.spanning()
    assert spanning.generators[("*", "*")] == ((0, 0), (0, 1))
    assert spanning.pairs == ()


# mutants per category; a triangular category has hundreds of triples
SAMPLE = 4


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, F5]))
def test_associator_finds_the_pairwise_sweeps_first_pair(data, field):
    """One coordinate of one composite of T or U is moved by 1, 2 or -1, or
    set to zero; some such changes leave the category associative, as they
    cancel between the two sides of each triple they reach.  On each object
    quadruple before the one of the pairwise sweep's witness the associator
    has no nonzero entry, on that one its least failing (f, g) is the
    witness's, and associative() holds iff the sweep finds nothing."""
    seed = data.draw(st.integers(0, 79), label="seed")
    fx = random_axiom_fixture(seed, field)
    cat = fx[data.draw(st.sampled_from(["t_cat", "u_cat"]), label="category")]
    spots = list(table_spots(cat))
    if spots:
        spot = data.draw(st.sampled_from(spots), label="entry")
        step = data.draw(st.sampled_from([1, 2, -1, "zero"]), label="step")
        cat = with_table_coordinate(cat, spot, step)
    expected = associativity_witness(cat)
    by_row = _composites_by_row(cat)
    for quadruple in itertools.product(cat.objects, repeat=4):
        diff = _associator(cat, *quadruple, cat.basis_elements(*quadruple[:2]), by_row)
        failing = sorted((f, g) for (f, g, _, _), v in diff.items() if not field.is_zero(v))
        if expected is not None and list(quadruple) == expected["objects"]:
            assert [list(failing[0][0]), list(failing[0][1])] == expected["basis"][:2]
            break
        assert not failing, quadruple
    assert cat.associative() == (expected is None)


def test_associativity_fallback_keeps_the_full_scan_report():
    """Composites of one basis pair (f, g) are bumped; with f a generator
    or not, the generator check catches the defect and the full scan
    writes the report."""
    kinds = set()
    for field, seed in itertools.product((QQ, F5), range(2)):
        rng = random.Random(f"assoc/{field}/{seed}")
        for cat in axiom_categories(field, seed).values():
            generators = cat.spanning().generators
            keys = list(itertools.product(cat.objects, repeat=3))
            for key in rng.sample(keys, min(SAMPLE, len(keys))):
                spots = list(table_spots(cat, keys=[key]))
                if not spots:
                    continue
                spot = rng.choice(spots)
                f = spot[1]
                bad = with_table_coordinate(cat, spot)
                fast = validate_dg_category(bad)
                with _all_basis():
                    full = validate_dg_category(presentation_with(bad))
                assert fast.render() == full.render()
                if fast.check("associativity").witness is not None:
                    kinds.add(f in generators[key[:2]])
    assert kinds == {True, False}


def test_functoriality_fallback_keeps_the_full_scan_report():
    """The image of one basis morphism is bumped; with it a generator or
    not, the generator check over the associative base catches the defect
    and the full scan writes the report."""
    kinds = set()
    for field, seed in itertools.product((QQ, F5), range(2)):
        rng = random.Random(f"functor/{field}/{seed}")
        cats = axiom_categories(field, seed)
        for cat in (cats["T"], cats["Lambda"]):
            fun = representable_module(cat, cat.objects[0])
            assert fun.base.associative()
            keys = sorted(fun.images)
            for key in rng.sample(keys, min(SAMPLE, len(keys))):
                spot = draw_image_spot(fun, key, rng)
                if spot is None:
                    continue
                bad, a = with_image_entry(fun, spot), spot[1]
                fast = validate_dg_functor(bad)
                with _all_basis():
                    full = validate_dg_functor(bad)
                assert fast.render() == full.render()
                if fast.check("functoriality").witness is not None:
                    kinds.add(a in fun.base.spanning().generators[key])
    assert kinds == {True, False}


def test_functoriality_over_a_non_associative_base_is_the_full_scan():
    rng = random.Random("non-associative")
    seen = 0
    for field in (QQ, F5):
        lam_cat = axiom_categories(field, 1)["Lambda"]
        fun = representable_module(lam_cat, lam_cat.objects[0])
        keys = list(itertools.product(lam_cat.objects, repeat=3))
        for key in rng.sample(keys, 3):
            spots = list(table_spots(lam_cat, keys=[key]))
            if not spots:
                continue
            base = with_table_coordinate(lam_cat, rng.choice(spots))
            if base.associative():
                continue
            moved = DgFunctor(base, fun.on_objects, fun.images, name=fun.name)
            fast = validate_dg_functor(moved)
            with _all_basis():
                full = validate_dg_functor(moved)
            assert fast.render() == full.render()
            seen += 1
    assert seen


def test_a_functoriality_pass_answers_functorial_on(monkeypatch):
    """A PASS covers every basis pair, so the spanning pairs are not
    checked again."""
    cat = axiom_categories(QQ, 1)["Lambda"]
    fun = representable_module(cat, cat.objects[0])
    assert validate_dg_functor(fun).passed
    monkeypatch.setattr(functors, "_composition_sums", None)
    assert fun.functorial_on()


# ---------------------------------------------------------------------------
# naturality on generators against the all-basis rows


def _naturality_answers(pairs):
    """dgnat_space over each pair's window, and naturality_witness of each
    basis transformation and of each unit family of the first unknowns."""
    out = []
    for F, G in pairs:
        for n in dgnat_window(F, G):
            keys = nat_unknowns(F, G, n)
            nats = dgnat_space(F, G, n)
            out.append((n, keys, [nat_to_flat(F, G, n, keys, nat) for nat in nats]))
            out.extend(naturality_witness(nat) for nat in nats)
            unknowns = nat_unknowns(F, G, n)
            for i in range(min(4, len(unknowns))):
                unit = linalg.unit_vector(F.field, len(unknowns), i)
                family = nat_from_flat(F, G, n, unknowns, unit)
                out.append(naturality_witness(family))
    return out


def _comma_answers(objects):
    """The flat (alpha, beta) of each comma basis morphism over each window."""
    out = []
    for src, tgt in itertools.product(objects, repeat=2):
        for n in comma_window(src, tgt):
            a_keys = nat_unknowns(src.A, tgt.A, n)
            b_keys = nat_unknowns(src.B, tgt.B, n)
            out.extend(
                (
                    n,
                    nat_to_flat(src.A, tgt.A, n, a_keys, phi.alpha),
                    nat_to_flat(src.B, tgt.B, n, b_keys, phi.beta),
                )
                for phi in comma_hom_space(src, tgt, n)
            )
    return out


def test_naturality_on_generators_matches_all_basis_on_theorem_fixtures(
    theorem_fixtures,
):
    fields = set()
    for fx in theorem_fixtures:
        lam, objects = fx["lambda"], fx["comma_objects"]
        coproducts = [build_coproduct_module(lam, o) for o in objects]
        pairs = list(itertools.product(coproducts, repeat=2))
        pairs += [(m, m) for m in fx["lambda_modules"]]
        fast = (_naturality_answers(pairs), _comma_answers(objects))
        with _all_basis():
            full = (_naturality_answers(pairs), _comma_answers(objects))
        assert fast == full, fx["name"]
        assert any(w is not None for w in fast[0]), fx["name"]
        fields.add(lam.field)
    assert fields == {QQ, F5}


@pytest.mark.parametrize("seed", range(0, 12))
def test_naturality_on_generators_matches_all_basis_on_axiom_fixtures(seed):
    for field in (QQ, F5):
        fx = random_axiom_fixture(seed, field)
        a_module, b_module = fx["modules"]
        bim = fx["bimodule"]
        pairs = [(a_module, a_module), (b_module, b_module)]
        pairs += [(bim.slice_t(t), b_module) for t in fx["t_cat"].objects]
        fast = _naturality_answers(pairs)
        with _all_basis():
            full = _naturality_answers(pairs)
        assert fast == full


def _doubled_off_generators(fun):
    """fun with the image of one non-generator basis morphism doubled: a
    basis morphism in the composite of a spanning pair, acting by a
    nonzero map.  fun then fails functoriality on that pair but agrees
    with fun on every generator."""
    base = fun.base
    spanning = base.spanning()
    field = fun.field
    for x, y, z, g, f in spanning.pairs:
        n = f[0] + g[0]
        for r, _ in base.products(x, y, z)[f][g]:
            image = fun.images[(x, z)][(n, r)]
            if (n, r) not in spanning.generators[(x, z)] and not image.is_zero():
                doubled = image.scale(field.from_int(2))
                images = {
                    **fun.images,
                    (x, z): {**fun.images[(x, z)], (n, r): doubled},
                }
                return DgFunctor(base, fun.on_objects, images, name=f"{fun.name}'")
    return None


def test_unchecked_generator_rows_give_a_larger_space(theorem_fixtures):
    """Negative control for the functoriality precondition: with one image
    off the generators doubled, rows on generators alone admit the
    identity family, which is not natural.  The guarded path sees the
    failing spanning pair and writes every square."""
    checked = 0
    for fx in theorem_fixtures:
        lam = fx["lambda"]
        fun = representable_module(lam.presentation, lam.presentation.objects[0])
        bad = _doubled_off_generators(fun)
        if bad is None:
            continue
        identity = DgNatTransformation(bad, fun, 0, identity_nat(fun).components)
        # bad keeps its functoriality verdict, so it is asked on the real base first
        guarded = dgnat_space(bad, fun, 0)
        with _all_basis():
            full = dgnat_space(bad, fun, 0)
            full_witness = naturality_witness(identity)
        assert guarded == full
        assert full_witness is not None
        assert naturality_witness(identity) == full_witness
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DgFunctor, "functorial_on", lambda self: True)
            forced = dgnat_space(bad, fun, 0)
            assert naturality_witness(identity) is None
        assert len(forced) > len(full)
        checked += 1
    assert checked >= 6
