"""CLI output bytes and equivalence reports pinned across commits.

Each digest in GOLDEN is the SHA-256 of what one CLI command writes to
stdout on a shipped fixture.  The digests were recorded before the functor
builders were merged into one helper; a refactor that keeps the outputs
must keep them.  Each digest in HEAVY_REPORTS is the SHA-256 of the
rendered check_equivalence report (seed 5) on one random theorem instance
over Q, recorded before the exact solve path went sparse.  Each digest in
COPRODUCT_REPORTS is the SHA-256 of the rendered validate_dg_category
report of Lambda of one theorem fixture of the acceptance suite followed
by the validate_dg_functor report of the coproduct module of each of its
comma objects; these are the checks of the bullet and dot-product
identities, recorded before the special-case checkers of those
identities were deleted.
Each digest in BASIS_VECTORS is the SHA-256 of the flat basis vectors
(conftest.nat_to_flat) of dgnat_space between the coproduct modules and
of comma_hom_space, for
every ordered pair of comma objects and every degree of the window
check_equivalence scans, on one theorem fixture; each digest in
EMITTED_CATEGORIES is the SHA-256 of the rendered emit_category document
of the opposites of both categories, their tensor product or their
triangular category on one axiom fixture, or of a path category.  Both
were recorded before composition tensors and square rows were each built
through one helper.  Each digest in CORRUPTED_REPORTS is the SHA-256 of
the rendered validate_dg_category reports of T, U or Lambda of one axiom
fixture, each with one composition entry bumped in one object triple,
recorded while associativity was still a pair-by-pair sweep over
compose_basis and the chain-map axiom still composed with the tensor
differential.  Each digest in CORRUPTED_MODULE_REPORTS is the SHA-256 of
the rendered validate_dg_functor reports of a module, a bimodule slice or
a representable Lambda-module of one axiom fixture, each with one entry of
one basis image bumped on one object pair, recorded while the chain-map
axiom was still one comparison of whole maps into a Hom complex and
functoriality still went through dense composite coordinates.  A change
that alters an output on purpose records the new digest here and says
why.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random

import pytest

from conftest import (
    associativity_witness,
    axiom_categories,
    draw_image_spot,
    nat_to_flat,
    path_category,
    theorem_modules,
    whole_map_chain_map,
    with_image_entry,
    with_table_coordinate,
)
from dgcat.category import opposite_category, tensor_category, validate_dg_category
from dgcat.cli import main
from dgcat.complexes import HomComplex, TensorComplex
from dgcat.comma import (
    build_coproduct_module,
    check_equivalence,
    comma_hom_space,
    comma_window,
)
from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import random_axiom_fixture, random_theorem_fixture
from dgcat.functors import (
    chain_map_holds,
    dgnat_space,
    dgnat_window,
    nat_unknowns,
    representable_module,
    validate_dg_functor,
)
from dgcat.io_json import emit_category, render_document
from dgcat.lambda_cat import build_lambda
from dgcat.shipped import FIXTURE_DIR

COMMANDS = {
    "validate": ["validate"],
    "oppose": ["oppose", "--category", "T"],
    "tensor": ["tensor", "--left", "T", "--right", "U"],
    "lambda": ["lambda", "--t", "T", "--u", "U", "--bimodule", "M"],
    "check-equivalence": ["check-equivalence", "--seed", "7"],
}

GOLDEN = {
    ("contractible", "validate"): "284cfb53cf8eb4f232f65e5a1d24751fc2ee9948a07d8a32e2b2960b9dc5815b",
    ("contractible", "oppose"): "df44602c237d246c14e3df8827321ca450da8647ee231d200abe5ac653b0db0f",
    ("contractible", "tensor"): "8c32b48894d9893cdb758b6b61c5fc66b959f2c3d3c1fa9c98ea8a7f09d233ca",
    ("contractible", "lambda"): "0d24c41aa1425609d0e41700e6e498d15b6ad8bd846868fac159099b7846c605",
    ("contractible", "check-equivalence"): "6e01807d1848bfc5f562bec344f9e23890adcf730812fefa8501e9ed0aeb16a0",
    ("exterior", "validate"): "284cfb53cf8eb4f232f65e5a1d24751fc2ee9948a07d8a32e2b2960b9dc5815b",
    ("exterior", "oppose"): "1e74ffae9f96aae0d1138ca522deb08e4e767ba4ba2fa04b93e033691ae0c44d",
    ("exterior", "tensor"): "b814ea348d878c56c95c9b22e70ad2819b5e19fdb674e9a1594a7ae9a885b049",
    ("exterior", "lambda"): "c43d7ccd1605c9dee233b337efe6075ea787d71c21430493081e0d6a8cb82ae6",
    ("exterior", "check-equivalence"): "0de9eb5134ddf7b5ebf319c62d8fb0b1814c0b2888bdd9cdaac52366a69c6bc9",
    ("kkk", "validate"): "284cfb53cf8eb4f232f65e5a1d24751fc2ee9948a07d8a32e2b2960b9dc5815b",
    ("kkk", "oppose"): "df44602c237d246c14e3df8827321ca450da8647ee231d200abe5ac653b0db0f",
    ("kkk", "tensor"): "8c32b48894d9893cdb758b6b61c5fc66b959f2c3d3c1fa9c98ea8a7f09d233ca",
    ("kkk", "lambda"): "aaa997c0bfe00548d33705fb123e5b052670c28f43d085bc8bef05bb4b240b90",
    ("kkk", "check-equivalence"): "6e01807d1848bfc5f562bec344f9e23890adcf730812fefa8501e9ed0aeb16a0",
}


def _assert_pinned_output(fixture, command):
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = COMMANDS[command] + ["--input", str(FIXTURE_DIR / f"{fixture}.json")]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, stderr.getvalue()
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[(fixture, command)]


@pytest.mark.parametrize("fixture,command", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(fixture, command):
    _assert_pinned_output(fixture, command)


@pytest.mark.parametrize("fixture", ["contractible", "exterior", "kkk"])
def test_verdicts_build_no_pair_complex_differential(fixture, monkeypatch):
    """validate and check-equivalence read no Hom or tensor differential
    matrix: with both column builders refusing, the bytes are the same."""

    def refuse(self, n, k):
        raise AssertionError(f"{type(self).__name__} differential built")

    monkeypatch.setattr(HomComplex, "_d_column", refuse)
    monkeypatch.setattr(TensorComplex, "_d_column", refuse)
    for command in ("validate", "check-equivalence"):
        _assert_pinned_output(fixture, command)


# (fixture seed, max_objects) -> SHA-256 of the rendered report
HEAVY_REPORTS = {
    (0, 1): "3f856e6906ca79ce6a7ef891c3e734aa1da0560f94712bacbcff1db7f69bf188",
    (3, 1): "cf47b5a0f7d695cae781af465147a03ec1ab2ec51af24c71a6a4480c15209ca0",
    (6, 2): "70e9840df9c0befc5ec9bba1d4c6280d0659aad4088143a633a5e676f0d118e9",
    (7, 2): "f6c188279246ef09c954430ee7d15cd6c6884842c3c7704e97006eabe6fc529d",
}


@pytest.mark.parametrize("seed,max_objects", sorted(HEAVY_REPORTS))
def test_theorem_report_bytes_are_pinned(seed, max_objects):
    fx = random_theorem_fixture(seed, Rationals(), max_objects=max_objects)
    report = check_equivalence(
        fx["lambda"], fx["comma_objects"], fx["lambda_modules"], seed=5
    )
    digest = hashlib.sha256(report.render().encode("utf-8")).hexdigest()
    assert digest == HEAVY_REPORTS[(seed, max_objects)]


# theorem fixture name -> SHA-256 of the reports of Lambda and of its
# coproduct modules, rendered and joined
COPRODUCT_REPORTS = {
    "contractible": "9bb8f8c049815a0da69144e39b3443b143505e0e8eab4f72e4611fc903112d34",
    "exterior": "9bb8f8c049815a0da69144e39b3443b143505e0e8eab4f72e4611fc903112d34",
    "kkk": "9bb8f8c049815a0da69144e39b3443b143505e0e8eab4f72e4611fc903112d34",
    "random0": "a243cb4983a2cabf64a61a513fa651df9e1d59376406d91585893c4b0012f57f",
    "random1": "da306be33345ed301baa17ed6045f2d3daef4020a84d2992e0ff32358c35a1bc",
    "random2": "a243cb4983a2cabf64a61a513fa651df9e1d59376406d91585893c4b0012f57f",
    "random3": "462ef5368a1561143f78a1cdeac8b1392dc3e31a48beb93d3a9f26ef02e46fe9",
    "random4": "9221f976aa71c24dc8d0dd14a0323b80be8020993c88bc433e600910c5aa8f0f",
    "random5": "462ef5368a1561143f78a1cdeac8b1392dc3e31a48beb93d3a9f26ef02e46fe9",
    "random6": "2b0b77b3e3dbfb4092601f90f354914484291b15dc5549b73944c00f49200e9c",
    "random7": "cd5471757b67a55cd28120779d5cefb2302841532162c59d0944eb9046696418",
}


@pytest.mark.parametrize("name", sorted(COPRODUCT_REPORTS))
def test_identity_report_bytes_are_pinned(name, theorem_fixtures):
    (fx,) = [fx for fx in theorem_fixtures if fx["name"] == name]
    lam = fx["lambda"]
    text = validate_dg_category(lam.presentation).render()
    for obj in fx["comma_objects"]:
        text += validate_dg_functor(build_coproduct_module(lam, obj)).render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == COPRODUCT_REPORTS[name]


# theorem fixture name -> SHA-256 of its DgNat and comma basis vectors
BASIS_VECTORS = {
    "random0": "00575d249ab32353f104441e4d021055b9775c64a93be888feef87051fc14d37",
    "random3": "f84768c50d1bca5d4233a7b04fd407e137698f7fdc6f899476c22724c8565c52",
    "random6": "6452984ce7f70a975a2ea3361fae2191dfc6c2c81e51d44744474d0b3dfc1732",
    "random7": "e94545c688be7ecb258125eabb7ee7935c2d3510bbd80d838c8f2d0c05e4fe59",
}


def _basis_text(fx):
    field = fx["lambda"].field
    objects = fx["comma_objects"]
    coproducts = [build_coproduct_module(fx["lambda"], o) for o in objects]

    def flat(vectors):
        return json.dumps([[field.format(x) for x in vec] for vec in vectors])

    lines = []
    for src, f_src in zip(objects, coproducts):
        for tgt, f_tgt in zip(objects, coproducts):
            window = set(comma_window(src, tgt)) | set(dgnat_window(f_src, f_tgt))
            for n in sorted(window):
                l_keys = nat_unknowns(f_src, f_tgt, n)
                lambda_vecs = [
                    nat_to_flat(f_src, f_tgt, n, l_keys, nat)
                    for nat in dgnat_space(f_src, f_tgt, n)
                ]
                a_keys = nat_unknowns(src.A, tgt.A, n)
                b_keys = nat_unknowns(src.B, tgt.B, n)
                comma_vecs = [
                    nat_to_flat(src.A, tgt.A, n, a_keys, phi.alpha)
                    + nat_to_flat(src.B, tgt.B, n, b_keys, phi.beta)
                    for phi in comma_hom_space(src, tgt, n)
                ]
                label = f"{src.name}->{tgt.name} {n}"
                lines.append(f"{label} lambda {flat(lambda_vecs)}")
                lines.append(f"{label} comma {flat(comma_vecs)}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(BASIS_VECTORS))
def test_basis_vectors_are_pinned(name, theorem_fixtures):
    (fx,) = [fx for fx in theorem_fixtures if fx["name"] == name]
    digest = hashlib.sha256(_basis_text(fx).encode("utf-8")).hexdigest()
    assert digest == BASIS_VECTORS[name]


# (construction, field, axiom fixture seed) -> SHA-256 of the emitted document
EMITTED_CATEGORIES = {
    ("opposite", "Q", 2): "bba1f6e30af15a2e2cb40c92d1f17584a4ba65677c875abf21fae580d0c19e52",
    ("tensor", "Q", 2): "8e6e4075ddc0e93ef5907149119487c5253526ac9ce052591b8ec61496fd8a0f",
    ("lambda", "Q", 2): "c40474c4c029f1d75e7aae920b6166c770f01b4358370b059531d506e1be2d37",
    ("opposite", "F5", 9): "9b69e451e5ba2366aaf951a5ad2d2dda3520f3c86cd3f701378514c76b1df056",
    ("tensor", "F5", 9): "04fbd4521dad1e20adffcd354b61bbdce452a7853e8ece3dbbbe549a92b163e9",
    ("lambda", "F5", 9): "ba73b7f93899a49b0ef51aca98c2c3cbe1613fc37335aa612063a1fdd2fad97a",
    ("path", "Q", 3): "d4c44ece8866c69a4294a675b90b6e9f7104843399f6e9239ebad8075102987e",
}

FIELDS = {"Q": Rationals(), "F5": PrimeField(5)}


def _constructions(kind, field, seed):
    if kind == "path":
        return [path_category(field, seed)]
    fx = random_axiom_fixture(seed, field)
    t_cat, u_cat = fx["t_cat"], fx["u_cat"]
    if kind == "opposite":
        return [opposite_category(t_cat), opposite_category(u_cat)]
    if kind == "tensor":
        return [tensor_category(t_cat, u_cat)]
    return [build_lambda(t_cat, u_cat, fx["bimodule"], validate=False).presentation]


@pytest.mark.parametrize("kind,field,seed", sorted(EMITTED_CATEGORIES))
def test_emitted_category_bytes_are_pinned(kind, field, seed):
    cats = _constructions(kind, FIELDS[field], seed)
    text = render_document({"categories": {c.name: emit_category(c) for c in cats}})
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == EMITTED_CATEGORIES[(kind, field, seed)]


# (field, axiom fixture seed, category) -> SHA-256 of the joined reports
CORRUPTED_REPORTS = {
    ("F5", 2, "Lambda"): "ce4ba36ac5bd274ab2d0c28c027c07837e5f82daf00fdc01f70925a664b4413f",
    ("F5", 4, "Lambda"): "bd1603a328cde1ed7795cbec844af2e5f17b6f08ffc66068eec8f6fc6fcacfda",
    ("F5", 4, "T"): "96f7883435de0fb0664ac2e9780ad82907f288ecbfa6893c34cfac6be0ee5633",
    ("F5", 4, "U"): "0743e37f24f22d675e47f1d0e0e4bb8e0b80898abc5ae4290195c6c2d973475a",
    ("F5", 6, "T"): "a634640bb4aba3c9a1e2cddd589c020977f82aa10bc68dd09815262150d6d32a",
    ("F5", 8, "Lambda"): "aa88008e36efe8a550b8f050816121881b0b9e3e700a5387deab2e99baa28a50",
    ("F5", 9, "U"): "25c5726de5efa2c8e91dd55f5eb1dcbf86f6519cf95f3884f229ecef8833a74f",
    ("Q", 4, "Lambda"): "2381015382628a31afa017b3f934eba50b0e9d545fdf2808e295bbcac5024327",
    ("Q", 4, "T"): "e30bdb8403632d76a73bd6e414f53516395b97c6a644670a2f4f7329a7b968f2",
    ("Q", 4, "U"): "92aa7a0f0b5f3705d0dd8a6e0f7201e2051db17ee3b4b7bf502f76975d7029ae",
    ("Q", 6, "T"): "411080081ebe6ea6ac74c6cc8829ca9d6bc1a94edc99abb78eb66eb5a6faa54a",
    ("Q", 8, "Lambda"): "9e7dd19b8c4f0ee55dd383929f6fd69d41c2a5f4ccf6fd127de4a63aa0c55eae",
    ("Q", 9, "Lambda"): "1b32196032912e934393692d5b39d59b73fbcf465ae4a9251e492ca37b00cf67",
    ("Q", 9, "U"): "3ce2b17e93d8becfdda3d2a38e62dbbbc37b460baf5348e1451f892dc84292ba",
}

# a Lambda has up to hundreds of nonempty triples; a sample keeps the sweep short
LAMBDA_TRIPLES = 6


def _bump(cat, key, rng):
    """The spot of one coordinate of one composite of the triple key, or
    None when it composes into zero spaces only.  The position is drawn as
    (degree, row, column) of the matrix of composition out of the tensor
    complex hom(y,z) (x) hom(x,y)."""
    x, y, z = key
    source = TensorComplex(cat.hom[(y, z)], cat.hom[(x, y)])
    target = cat.hom[(x, z)].carrier
    degrees = [n for n in source.carrier.degrees() if target.dim(n)]
    if not degrees:
        return None
    n = rng.choice(degrees)
    row, col = rng.randrange(target.dim(n)), rng.randrange(source.carrier.dim(n))
    gdeg, gidx, fidx = source.basis(n)[col]
    return key, (n - gdeg, fidx), (gdeg, gidx), row


def _corrupted(field, seed, label):
    """(cat, report) per bumped triple: cat with one coordinate plus one."""
    cat = axiom_categories(FIELDS[field], seed)[label]
    rng = random.Random(f"{field}/{seed}/{label}")
    keys = sorted(itertools.product(cat.objects, repeat=3))
    spots = [_bump(cat, key, rng) for key in keys]
    spots = [spot for spot in spots if spot is not None]
    if label == "Lambda":
        spots = rng.sample(spots, min(LAMBDA_TRIPLES, len(spots)))
    for spot in spots:
        bad = with_table_coordinate(cat, spot)
        yield bad, validate_dg_category(bad)


@functools.lru_cache(maxsize=None)
def _corrupted_reports(field, seed, label):
    return tuple(report for _, report in _corrupted(field, seed, label))


@pytest.mark.parametrize("field,seed,label", sorted(CORRUPTED_REPORTS))
def test_corrupted_category_reports_are_pinned(field, seed, label):
    text = "".join(r.render() for r in _corrupted_reports(field, seed, label))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == CORRUPTED_REPORTS[(field, seed, label)]


def test_corrupted_reports_cover_both_composition_axioms():
    failing = {"associativity": set(), "composition_chain_map": set()}
    for field, seed, label in sorted(CORRUPTED_REPORTS):
        for report in _corrupted_reports(field, seed, label):
            for check in report.failures():
                if check.name in failing:
                    failing[check.name].add(label)
    assert failing == {
        "associativity": {"T", "U", "Lambda"},
        "composition_chain_map": {"T", "U", "Lambda"},
    }


@pytest.mark.parametrize("field,seed,label", sorted(CORRUPTED_REPORTS))
def test_associativity_witness_matches_pairwise_sweep(field, seed, label):
    for cat, report in _corrupted(field, seed, label):
        (check,) = [c for c in report.checks if c.name == "associativity"]
        assert check.witness == associativity_witness(cat)


# (field, axiom fixture seed, module) -> SHA-256 of the joined reports
CORRUPTED_MODULE_REPORTS = {
    ("F5", 5, "Lambda"): "748164ac23ee044231e1a6cb24f15bd34ec81d7b6378e91f3e3b44d88c1402fd",
    ("F5", 5, "module"): "3daec147cfaf14d08821bd1d6097ef606833c89276a3278d8e5fa2d097da936d",
    ("F5", 5, "slice"): "7cdbf2ef12de685dac3f8e56e4a46ef421c8b692aef9dbe28dc20992e3e24c9e",
    ("F5", 11, "Lambda"): "137c4f9e28623d4a7ac0918582ff16baea3139176071095ec627fa83450f5ff2",
    ("F5", 11, "module"): "666c0481e02a459c0e248aac3809b220942edf3fcf060d1f228fc1feb6a184da",
    ("F5", 11, "slice"): "705ab9c891eb17b1152f9f1bd861c3579416aa50fefa35602a8e1c44961b8066",
    ("Q", 1, "Lambda"): "3b39f56a67e065344027205d08816a531a91998c5efc3899e32a5055e69161b4",
    ("Q", 1, "module"): "b77b406214ceebcfb2a61c6024c1a81b691df706b90a2c045c61074811656f9e",
    ("Q", 1, "slice"): "dc460ad131453d05f5bca98b9704bf26b8ee72c022c50e598d30ca3ccf18f5f2",
    ("Q", 5, "Lambda"): "3d584d4e83b6d16a40ebcf53e4820755a0dc9d879bff08a298e76e3f22b8d673",
    ("Q", 5, "module"): "931a21e3f7f9933105f0f54b8dc862c63f90cda17b0c647c9fecc0f2a176c2a7",
    ("Q", 5, "slice"): "e31c122fb2cf40a507599c2ebb6c2b98acfa072a9b8724b8f1e82bd739598017",
}

# a Lambda-module has dozens of object pairs; a sample keeps the sweep short
LAMBDA_PAIRS = 6


def _axiom_modules(field, seed):
    """A module, a bimodule slice and a representable Lambda-module of one
    axiom fixture."""
    fx = random_axiom_fixture(seed, FIELDS[field])
    lam = build_lambda(fx["t_cat"], fx["u_cat"], fx["bimodule"], validate=False)
    return {
        "module": fx["modules"][1],
        "slice": fx["bimodule"].slice_u(fx["u_cat"].objects[0]),
        "Lambda": representable_module(lam.presentation, lam.presentation.objects[0]),
    }


def _corrupted_modules(field, seed, label):
    """One functor per object pair, each with one bumped basis image."""
    fun = _axiom_modules(field, seed)[label]
    rng = random.Random(f"{field}/{seed}/{label}")
    spots = [draw_image_spot(fun, key, rng) for key in sorted(fun.images)]
    spots = [spot for spot in spots if spot is not None]
    if label == "Lambda":
        spots = rng.sample(spots, min(LAMBDA_PAIRS, len(spots)))
    return [with_image_entry(fun, spot) for spot in spots]


@functools.lru_cache(maxsize=None)
def _corrupted_module_reports(field, seed, label):
    return tuple(validate_dg_functor(f) for f in _corrupted_modules(field, seed, label))


@pytest.mark.parametrize("field,seed,label", sorted(CORRUPTED_MODULE_REPORTS))
def test_corrupted_module_reports_are_pinned(field, seed, label):
    text = "".join(r.render() for r in _corrupted_module_reports(field, seed, label))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == CORRUPTED_MODULE_REPORTS[(field, seed, label)]


def test_corrupted_module_reports_cover_both_functor_axioms():
    failing = {"chain_map": set(), "functoriality": set()}
    for field, seed, label in sorted(CORRUPTED_MODULE_REPORTS):
        for report in _corrupted_module_reports(field, seed, label):
            for check in report.failures():
                if check.name in failing:
                    failing[check.name].add(label)
    assert failing == {
        "chain_map": {"module", "slice", "Lambda"},
        "functoriality": {"module", "slice", "Lambda"},
    }


def test_basis_chain_map_check_matches_whole_map_test(theorem_fixtures):
    funs = [f for fx in theorem_fixtures for f in theorem_modules(fx)]
    for key in sorted(CORRUPTED_MODULE_REPORTS):
        funs.extend(_corrupted_modules(*key))
    verdicts = []
    for fun in funs:
        for x, y in itertools.product(fun.base.objects, repeat=2):
            verdict = chain_map_holds(fun, x, y, fun.images[(x, y)])
            assert verdict == whole_map_chain_map(fun, x, y), (fun.name, x, y)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
