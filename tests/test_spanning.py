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
    bimodule_with_entry,
    changed,
    draw_image_spot,
    entry_spots,
    identity_nat,
    nat_from_flat,
    nat_to_flat,
    presentation_with,
    table_spots,
    with_entry,
    with_image_entry,
    with_table_coordinate,
)
from dgcat import bimodule, category, functors, linalg
from dgcat.bimodule import Bimodule, validate_bimodule
from dgcat.category import (
    DgCategoryPresentation,
    Spanning,
    _associator,
    _composites_by_row,
    one_object_category,
    validate_dg_category,
)
from dgcat.comma import build_coproduct_module, comma_hom_space, comma_window
from dgcat.complexes import DgModule, dg_module
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


# the verdicts a presentation or a functor keeps once decided
_VERDICTS = {
    DgCategoryPresentation: ("_associative", "_leibniz"),
    DgFunctor: ("_functorial",),
}


@contextlib.contextmanager
def _all_basis():
    """spanning() lists every basis morphism as a generator and no pair, so
    every fast path reads every basis morphism: the full scan.

    A verdict kept inside rests on that stand-in (functorial_on() finds no
    pair to check, so it holds), so every verdict written inside is
    cleared on the way out and is decided again when next asked."""
    written = []

    def recording(names):
        def setattr_(self, name, value):
            if name in names:
                written.append((self, name))
            object.__setattr__(self, name, value)

        return setattr_

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DgCategoryPresentation, "spanning", _every_basis_morphism)
            for cls, names in _VERDICTS.items():
                mp.setattr(cls, "__setattr__", recording(names))
            yield
    finally:
        for obj, name in written:
            setattr(obj, name, None)


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
# the Leibniz rule, the unit laws, a functor's chain-map rule and a
# bimodule's interchange on generators, against the all-basis scans


def _with_d_entry(module, spot):
    """module with the entry (degree, row, column) of its differential
    bumped by one."""
    return DgModule(module.carrier, with_entry(module.d, spot), check=False)


def _d_spots(cat):
    """(object pair, degree, row, column) of every entry of every hom
    differential of cat."""
    return [(key, *spot) for key in sorted(cat.hom) for spot in entry_spots(cat.hom[key].d)]


def test_leibniz_fallback_keeps_the_full_scan_report():
    """One entry of one hom differential is bumped, so the tables stay
    associative and leibniz() contracts generator f only; with the bumped
    column's basis morphism a generator or not, the generator contraction
    catches the defect and the full scan writes the report."""
    kinds = set()
    for field, seed in itertools.product((QQ, F5), range(2)):
        rng = random.Random(f"leibniz/{field}/{seed}")
        for cat in axiom_categories(field, seed).values():
            generators = cat.spanning().generators
            spots = _d_spots(cat)
            for key, i, row, col in rng.sample(spots, min(SAMPLE, len(spots))):
                bad = presentation_with(cat, hom={key: _with_d_entry(cat.hom[key], (i, row, col))})
                fast = validate_dg_category(bad)
                with _all_basis():
                    full = validate_dg_category(presentation_with(bad))
                assert fast.render() == full.render()
                if bad.associative() and not fast.check("composition_chain_map").passed:
                    kinds.add((i, col) in generators[key])
    assert kinds == {True, False}


def test_units_fallback_keeps_the_full_scan_report():
    """One coordinate of one identity is bumped, so the tables stay
    associative and the unit laws are checked on the generators; with the
    bumped coordinate's basis morphism a generator or not, the generator
    check catches the defect and the full scan writes the report."""
    kinds = set()
    for field, seed in itertools.product((QQ, F5), range(2)):
        rng = random.Random(f"units/{field}/{seed}")
        for cat in axiom_categories(field, seed).values():
            generators = cat.spanning().generators
            spots = [(x, k) for x in cat.objects for k in range(len(cat.ids[x]))]
            for x, k in rng.sample(spots, min(SAMPLE, len(spots))):
                coords = list(cat.ids[x])
                coords[k] = changed(field, coords[k], 1)
                bad = presentation_with(cat, ids={x: tuple(coords)})
                fast = validate_dg_category(bad)
                with _all_basis():
                    full = validate_dg_category(presentation_with(bad))
                assert fast.render() == full.render()
                assert bad.associative()
                if not fast.check("units").passed:
                    kinds.add((0, k) in generators[(x, x)])
    assert kinds == {True, False}


def test_chain_map_fallback_keeps_the_full_scan_report():
    """One entry of one value's differential of a representable module
    h[o] is bumped, so its action stays functorial and its base Leibniz,
    and chain_map is checked on the generators.  The basis of h[o](x) is
    that of hom(o, x); with the bumped column's basis morphism a generator
    or not, the generator check catches the defect and the full scan
    writes the report."""
    kinds = set()
    for field, seed in itertools.product((QQ, F5), range(2)):
        rng = random.Random(f"chain/{field}/{seed}")
        cats = axiom_categories(field, seed)
        for cat in (cats["T"], cats["Lambda"]):
            assert cat.leibniz()
            generators = cat.spanning().generators
            fun = representable_module(cat, cat.objects[0])
            values = fun.on_objects
            spots = [(x, *spot) for x in cat.objects for spot in entry_spots(values[x].d)]
            for x, i, row, col in rng.sample(spots, min(SAMPLE, len(spots))):
                moved = {**values, x: _with_d_entry(values[x], (i, row, col))}
                bad = DgFunctor(cat, moved, fun.images, name=fun.name)
                fast = validate_dg_functor(bad)
                with _all_basis():
                    full = validate_dg_functor(bad)
                assert fast.render() == full.render()
                assert fast.check("functoriality").passed
                if not fast.check("chain_map").passed:
                    kinds.add((i, col) in generators[(cat.objects[0], x)])
    assert kinds == {True, False}


def test_chain_map_over_a_non_leibniz_base_is_the_full_scan(monkeypatch):
    """Precondition control: with one hom differential entry of the base
    bumped, the base is not Leibniz although the action still composes,
    and chain_map_holds reads every basis morphism."""
    rng = random.Random("non-leibniz")
    read = []
    holds = functors.chain_map_holds

    def recorded(fun, x, y, basis):
        basis = tuple(basis)
        read.append(basis == tuple(fun.images[(x, y)]))
        return holds(fun, x, y, basis)

    seen = 0
    for field in (QQ, F5):
        cat = axiom_categories(field, 1)["Lambda"]
        fun = representable_module(cat, cat.objects[0])
        for key, *spot in rng.sample(_d_spots(cat), 6):
            base = presentation_with(cat, hom={key: _with_d_entry(cat.hom[key], spot)})
            if base.leibniz():
                continue
            moved = DgFunctor(base, fun.on_objects, fun.images, name=fun.name)
            with monkeypatch.context() as mp:
                mp.setattr(functors, "chain_map_holds", recorded)
                fast = validate_dg_functor(moved)
            with _all_basis():
                full = validate_dg_functor(moved)
            assert fast.render() == full.render()
            assert fast.check("functoriality").passed
            seen += 1
    assert seen and read and all(read)


def _gauged(bim, u0, t0):
    """bim with M(u0, t0) rescaled by 2 against the left action only: the
    left image of alpha: u -> u2 at t times lambda(u2, t) / lambda(u, t),
    lambda 2 at (u0, t0) and 1 elsewhere.  Each t-slice is conjugated by
    an automorphism of its values, so every slice stays a functor; the
    right action is unchanged, so the interchange fails on the pairs
    whose alpha enters or leaves u0 at t0 and whose two sides are not
    zero."""
    field = bim.field
    scale = {(u, t): field.from_int(2 if (u, t) == (u0, t0) else 1) for u, t in bim.values}
    left = {
        (u, u2, t): {
            alpha: image.scale(field.div(scale[(u2, t)], scale[(u, t)]))
            for alpha, image in images.items()
        }
        for (u, u2, t), images in bim.left_images.items()
    }
    return Bimodule(
        bim.left_base, bim.right_base, bim.values, left, bim.right_images, name=bim.name
    )


def test_interchange_fallback_keeps_the_full_scan_report():
    """Two kinds of change, each report the all-basis one.  One entry of
    one left or right image is bumped, at a generator of its category or
    not.  And M(u0, t0) is rescaled against the left action (_gauged):
    every slice stays functorial, so the interchange is checked on
    generator pairs, fails there, and the full scan writes the report."""
    kinds, gauged = set(), 0
    # seed 10 has two objects on each side, which a rescaling needs to show
    for field, seed in itertools.product((QQ, F5), (1, 10)):
        rng = random.Random(f"interchange/{field}/{seed}")
        bim = random_axiom_fixture(seed, field)["bimodule"]
        U, T = bim.left_base, bim.right_base
        generators = {"left": U.spanning().generators, "right": T.spanning().generators}
        changes = []
        for side, images in (("left", bim.left_images), ("right", bim.right_images)):
            spots = list(entry_spots(images))
            for spot in rng.sample(spots, min(SAMPLE, len(spots))):
                (a, b, _), basis = spot[:2]
                kind = basis in generators[side][(a, b)]
                changes.append((kind, bimodule_with_entry(bim, side, spot)))
        changes += [(None, _gauged(bim, u0, t0)) for u0, t0 in bim.values]
        for kind, bad in changes:
            fast = validate_bimodule(bad)
            with _all_basis():
                full = validate_bimodule(bad)
            assert fast.render() == full.render()
            if fast.check("interchange_sign").passed:
                continue
            if kind is None:
                assert all(
                    validate_dg_functor(s).check("functoriality").passed
                    for s in [*map(bad.slice_t, T.objects), *map(bad.slice_u, U.objects)]
                )
                gauged += 1
            else:
                kinds.add(kind)
    assert kinds == {True, False}
    assert gauged


def test_interchange_with_a_slice_not_functorial_is_the_full_scan(monkeypatch):
    """Precondition control: with one entry of one left or right image
    bumped so that a slice fails functoriality, the interchange reads
    every basis pair."""
    rng = random.Random("slice-not-functorial")
    calls = []
    first_failure = bimodule._first_failure

    def recorded(bim, sides, shift, names, generators=None):
        if shift == 0:
            calls.append(generators)
        return first_failure(bim, sides, shift, names, generators)

    seen = 0
    for field in (QQ, F5):
        bim = random_axiom_fixture(1, field)["bimodule"]
        for side, images in (("left", bim.left_images), ("right", bim.right_images)):
            for spot in rng.sample(list(entry_spots(images)), 4):
                bad = bimodule_with_entry(bim, side, spot)
                calls.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(bimodule, "_first_failure", recorded)
                    fast = validate_bimodule(bad)
                U, T = bad.left_base, bad.right_base
                slices = [*map(bad.slice_t, T.objects), *map(bad.slice_u, U.objects)]
                if all(validate_dg_functor(s).check("functoriality").passed for s in slices):
                    continue
                with _all_basis():
                    full = validate_bimodule(bad)
                assert fast.render() == full.render()
                assert calls == [None]
                seen += 1
    assert seen


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


def test_no_verdict_kept_inside_all_basis_outlives_it(monkeypatch):
    """Inside _all_basis a functor with one image off the generators
    doubled composes on every spanning pair (there are none); outside it
    does not.  The presentation's associativity and Leibniz verdicts
    decided inside are decided again outside."""
    cat = presentation_with(axiom_categories(QQ, 1)["Lambda"])
    bad = _doubled_off_generators(representable_module(cat, cat.objects[0]))
    with _all_basis():
        assert bad.functorial_on()
        assert cat.associative() and cat.leibniz()
    assert not bad.functorial_on()
    contracted = []
    for name in ("_associator", "_leibniz_defect"):
        kernel = getattr(category, name)
        monkeypatch.setattr(
            category, name, lambda *a, _k=kernel, _n=name: contracted.append(_n) or _k(*a)
        )
    assert cat.associative() and cat.leibniz()
    assert set(contracted) == {"_associator", "_leibniz_defect"}


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
        with _all_basis():
            full = dgnat_space(bad, fun, 0)
            full_witness = naturality_witness(identity)
        assert dgnat_space(bad, fun, 0) == full
        assert full_witness is not None
        assert naturality_witness(identity) == full_witness
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DgFunctor, "functorial_on", lambda self: True)
            forced = dgnat_space(bad, fun, 0)
            assert naturality_witness(identity) is None
        assert len(forced) > len(full)
        checked += 1
    assert checked >= 6
