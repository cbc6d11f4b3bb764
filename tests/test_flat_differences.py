"""Functoriality, the functor chain-map axiom and bimodule interchange,
each decided by one flat entry difference per basis pair
(graded.first_nonzero_sum), against the per-pair scans they replace.

The oracles are those scans as they were before: both sides of every
basis pair are built as graded maps and compared.  The properties change
one entry of one basis image of a dg-functor, or of one action image of a
bimodule (+1, x2, -1 or set to zero; some changes leave the axiom true),
and require the fast verdict, the reported witness and whether the
witness was built to agree with the oracle.  The guard tests count the
calls that build witnesses: none runs on valid inputs, and each runs on
an input that fails its check.
"""

import contextlib
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bimodule_with_entry,
    entry_spots,
    theorem_modules,
    whole_map_chain_map,
    with_image_entry,
)
from dgcat import bimodule, functors
from dgcat.bimodule import validate_bimodule
from dgcat.cli import main
from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import random_axiom_fixture
from dgcat.functors import representable_module, validate_dg_functor
from dgcat.graded import combination, first_nonzero_sum
from dgcat.lambda_cat import build_lambda
from dgcat.report import fmt_graded_map
from dgcat.shipped import FIXTURE_DIR

FIELDS = {"Q": Rationals(), "F5": PrimeField(5)}
STEPS = (1, "x2", -1, "zero")
SHIPPED = sorted(FIXTURE_DIR.glob("*.json"))


# ---------------------------------------------------------------------------
# the per-pair scans, as oracles


def _oracle_functor_sides(fun, x, y, z, g, f):
    """(F(g.f), F(g).F(f)) as graded maps."""
    n = f[0] + g[0]
    xz_images = fun.images[(x, z)]
    terms = [
        (c, xz_images[(n, r)])
        for r, c in fun.base.products(x, y, z).get(f, {}).get(g, ())
    ]
    image = combination(
        fun.on_objects[x].carrier, fun.on_objects[z].carrier, n, terms
    )
    return image, fun.images[(y, z)][g].compose(fun.images[(x, y)][f])


def _oracle_functoriality_witness(fun):
    """The first basis pair, over the object triples in order, with
    F(g.f) != F(g).F(f), or None."""
    for x, y, z in itertools.product(fun.base.objects, repeat=3):
        for f in fun.images[(x, y)]:
            for g in fun.images[(y, z)]:
                image, composite = _oracle_functor_sides(fun, x, y, z, g, f)
                if image != composite:
                    return {
                        "objects": [x, y, z],
                        "basis": [list(f), list(g)],
                        "image_of_composite": fmt_graded_map(image),
                        "composite_of_images": fmt_graded_map(composite),
                    }
    return None


def _oracle_interchange_witness(bim):
    """The first basis pair (alpha, beta), over the object quadruples in
    order, whose two routes differ by more than (-1)^{|alpha||beta|}."""
    return next(_oracle_interchange_failures(bim), None)


def _oracle_interchange_failures(bim):
    """The witness of every basis pair (alpha, beta) whose two routes
    differ by more than (-1)^{|alpha||beta|}: over the object quadruples
    in order, then alpha-major."""
    U, T = bim.left_base, bim.right_base
    sign = bim.field.sign
    for u, u2, t, t2 in itertools.product(U.objects, U.objects, T.objects, T.objects):
        for (ud, ui), (td, ti) in itertools.product(
            U.basis[(u, u2)], T.basis[(t, t2)]
        ):
            via_left_first = bim.right_images[(t, t2, u2)][(td, ti)].compose(
                bim.left_images[(u, u2, t2)][(ud, ui)]
            ).scale(sign(ud * td))
            via_right_first = bim.left_images[(u, u2, t)][(ud, ui)].compose(
                bim.right_images[(t, t2, u)][(td, ti)]
            )
            if via_left_first != via_right_first:
                yield {
                    "u": [u, u2, ud, ui],
                    "t": [t, t2, td, ti],
                    "signed_t_after_u": fmt_graded_map(via_left_first),
                    "u_after_t": fmt_graded_map(via_right_first),
                }


@functools.lru_cache(maxsize=None)
def _axiom_instance(field, seed):
    """(bimodule, functors) of one axiom fixture: its two modules, a slice
    of each side and a representable Lambda-module."""
    fx = random_axiom_fixture(seed, FIELDS[field])
    bim = fx["bimodule"]
    lam = build_lambda(fx["t_cat"], fx["u_cat"], bim).presentation
    funs = (
        *fx["modules"],
        bim.slice_t(fx["t_cat"].objects[0]),
        bim.slice_u(fx["u_cat"].objects[-1]),
        representable_module(lam, lam.objects[-1]),
    )
    return bim, funs


INTERCHANGE_NAMES = ("signed_t_after_u", "u_after_t")


@contextlib.contextmanager
def _scan_calls():
    """Count the calls of the three witness builders, by check: the
    bimodule's shared builder, _pair_witness, counts for the interchange
    when it names the sides as the interchange does."""
    scans = (
        (functors, "_functoriality_witness", "functoriality"),
        (functors, "_chain_map_witness", "chain_map"),
        (bimodule, "_pair_witness", "interchange_sign"),
    )
    calls = {check: 0 for _, _, check in scans}
    with pytest.MonkeyPatch.context() as mp:
        for module, name, check in scans:

            def counted(*args, _scan=getattr(module, name), _check=check):
                if _check != "interchange_sign" or args[-1] == INTERCHANGE_NAMES:
                    calls[_check] += 1
                return _scan(*args)

            mp.setattr(module, name, counted)
        yield calls


# ---------------------------------------------------------------------------
# the fast verdicts against the oracles


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(sorted(FIELDS)))
def test_functoriality_difference_matches_the_pairwise_scan(data, field):
    """The kernel's first failing pair over every basis pair is the
    oracle's witness pair; validate_dg_functor reports the oracle's
    verdict and witness and runs the scan only on a failure; and
    functorial_on agrees with the oracle sides on the spanning pairs."""
    seed = data.draw(st.integers(0, 39), label="seed")
    fun = data.draw(st.sampled_from(_axiom_instance(field, seed)[1]), label="functor")
    spots = list(entry_spots(fun.images))
    if spots:
        spot = data.draw(st.sampled_from(spots), label="entry")
        fun = with_image_entry(fun, spot, data.draw(st.sampled_from(STEPS), label="step"))
    expected = _oracle_functoriality_witness(fun)

    base = fun.base
    pairs = (
        (x, y, z, g, f)
        for x, y, z in itertools.product(base.objects, repeat=3)
        for f in fun.images[(x, y)]
        for g in fun.images[(y, z)]
    )
    first = first_nonzero_sum(fun.field, functors._composition_sums(fun, pairs))
    if expected is None:
        assert first is None
    else:
        f, g = expected["basis"]
        assert first == (*expected["objects"], tuple(g), tuple(f))

    spanning = base.spanning()
    sides = (_oracle_functor_sides(fun, *pair) for pair in spanning.pairs)
    assert fun.functorial_on() == all(a == b for a, b in sides)

    with _scan_calls() as calls:
        check = validate_dg_functor(fun).check("functoriality")
    assert (check.passed, check.witness) == (expected is None, expected)
    assert (calls["functoriality"] > 0) == (expected is not None)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(sorted(FIELDS)))
def test_interchange_difference_matches_the_pairwise_scan(data, field):
    """_first_failure over _interchange_sides gives the oracle's witness,
    and validate_bimodule reports the oracle's verdict and witness,
    building it only on a failure."""
    seed = data.draw(st.integers(0, 39), label="seed")
    bim = _axiom_instance(field, seed)[0]
    side = data.draw(st.sampled_from(["left", "right"]), label="side")
    table = bim.left_images if side == "left" else bim.right_images
    spots = list(entry_spots(table))
    if spots:
        spot = data.draw(st.sampled_from(spots), label="entry")
        step = data.draw(st.sampled_from(STEPS), label="step")
        bim = bimodule_with_entry(bim, side, spot, step)
    expected = _oracle_interchange_witness(bim)

    sides = bimodule._interchange_sides(bim)
    bases = bim.left_base.basis, bim.right_base.basis
    assert bimodule._first_failure(bim, sides, 0, INTERCHANGE_NAMES, bases) == expected
    with _scan_calls() as calls:
        check = validate_bimodule(bim).check("interchange_sign")
    assert (check.passed, check.witness) == (expected is None, expected)
    assert (calls["interchange_sign"] > 0) == (expected is not None)


# ---------------------------------------------------------------------------
# the witness scans run only on failures


def test_interchange_witness_is_the_first_failing_pair_alpha_major():
    """With one left and one right image entry bumped, the failing pairs
    of an object quadruple need not be all pairs of some alphas and some
    betas, so the first failing pair alpha-major need not be the first
    beta-major.  validate_bimodule reports the first alpha-major, as the
    oracle does, and some instances tell the two orders apart."""
    rng = random.Random("alpha-major")
    apart = 0
    for field, seed in itertools.product(sorted(FIELDS), range(6)):
        bim = _axiom_instance(field, seed)[0]
        lefts, rights = list(entry_spots(bim.left_images)), list(entry_spots(bim.right_images))
        for _ in range(4 if lefts and rights else 0):
            bad = bimodule_with_entry(bim, "left", rng.choice(lefts))
            bad = bimodule_with_entry(bad, "right", rng.choice(rights))
            failures = list(_oracle_interchange_failures(bad))
            want = failures[0] if failures else None
            assert validate_bimodule(bad).check("interchange_sign").witness == want
            quadruple = None if want is None else want["u"][:2] + want["t"][:2]
            apart += any(
                w["u"][:2] + w["t"][:2] == quadruple and w["t"][2:] < want["t"][2:]
                for w in failures
            )
    assert apart


def test_valid_inputs_run_no_witness_scan(theorem_fixtures, capsys):
    with _scan_calls() as calls:
        for fx in theorem_fixtures:
            assert validate_bimodule(fx["bimodule"]).passed, fx["name"]
            lam = fx["lambda"].presentation
            funs = [*theorem_modules(fx), representable_module(lam, lam.objects[0])]
            for fun in funs:
                assert validate_dg_functor(fun).passed, (fx["name"], fun.name)
        for path in SHIPPED:
            for command in ("validate", "check-equivalence"):
                assert main([command, "--input", str(path)]) == 0, (path.name, command)
    capsys.readouterr()
    assert calls == dict.fromkeys(calls, 0)


def _first_functor_mutant(theorem_fixtures, fails):
    for fx in theorem_fixtures:
        for fun in theorem_modules(fx):
            for spot in entry_spots(fun.images):
                mutant = with_image_entry(fun, spot)
                if fails(mutant):
                    return mutant
    raise AssertionError("no single-entry change fails the check")


def _first_bimodule_mutant(theorem_fixtures):
    for fx in theorem_fixtures:
        bim = fx["bimodule"]
        for side in ("left", "right"):
            table = bim.left_images if side == "left" else bim.right_images
            for spot in entry_spots(table):
                mutant = bimodule_with_entry(bim, side, spot)
                if _oracle_interchange_witness(mutant) is not None:
                    return mutant
    raise AssertionError("no single-entry change breaks the interchange")


def _breaks_chain_map(fun):
    return not all(
        whole_map_chain_map(fun, x, y)
        for x, y in itertools.product(fun.base.objects, repeat=2)
    )


def test_each_witness_scan_runs_on_an_input_failing_its_check(theorem_fixtures):
    functoriality = _first_functor_mutant(
        theorem_fixtures, lambda fun: _oracle_functoriality_witness(fun) is not None
    )
    chain_map = _first_functor_mutant(theorem_fixtures, _breaks_chain_map)
    interchange = _first_bimodule_mutant(theorem_fixtures)
    cases = [
        (validate_dg_functor, functoriality, "functoriality"),
        (validate_dg_functor, chain_map, "chain_map"),
        (validate_bimodule, interchange, "interchange_sign"),
    ]
    for validate, mutant, check_name in cases:
        with _scan_calls() as calls:
            check = validate(mutant).check(check_name)
        assert not check.passed and check.witness is not None, check_name
        assert calls[check_name] > 0, check_name
