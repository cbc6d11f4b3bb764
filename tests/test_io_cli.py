import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import product_tables
from dgcat.category import DgCategoryPresentation
from dgcat.cli import build_parser, main
from dgcat.errors import StructureError
from dgcat.fields import Rationals
from dgcat.fixtures import random_theorem_fixture
from dgcat.io_json import (
    Workspace,
    emit_workspace,
    parse_text,
    render_document,
)
from dgcat.report import Report
from dgcat.shipped import FIXTURE_DIR, NAMES, shipped_text


def _oracle(value):
    """The standard library's canonical text, which render_document must match."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀'), st.characters())
)
_INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _TEXT)
# sparse entry rows, and 6-element lists that break the row shape
_ROWS = st.one_of(
    st.tuples(*[_INTS] * 5, _TEXT).map(list),
    st.lists(_LEAVES, min_size=6, max_size=6),
    st.tuples(st.booleans(), *[_INTS] * 4, _TEXT).map(list),
    st.tuples(*[_INTS] * 5, st.one_of(st.none(), _INTS)).map(list),
)
_VALUES = st.recursive(
    st.one_of(_LEAVES, _ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_TEXT, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=5),
        st.dictionaries(_INTS, inner, max_size=3),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_matches_the_standard_encoder(value):
    assert render_document(value) == _oracle(value)


def test_writer_sorts_and_quotes_int_keys_as_the_standard_encoder():
    value = {10: "a", 2: [1, 2, 3, 4, 5, "x"], -1: {3: None, 1: True}}
    assert render_document(value) == _oracle(value)
    assert list(json.loads(render_document(value))) == ["-1", "2", "10"]


def test_writer_refuses_a_float():
    with pytest.raises(TypeError):
        render_document({"x": [1, 2, 3, 4, 5, 0.5]})
    report = Report("floats")
    report.add("ratio", True, witness={"ratio": 0.5})
    with pytest.raises(TypeError):
        report.render()


def test_parse_emit_roundtrip_is_canonical():
    for name in NAMES:
        text = shipped_text(name)
        workspace = parse_text(text)
        emitted = render_document(emit_workspace(workspace))
        assert emitted == text
        again = render_document(emit_workspace(parse_text(emitted)))
        assert again == emitted


def test_parse_rejects_bad_scalar():
    text = shipped_text("kkk").replace('"1"', '"1.5"', 1)
    with pytest.raises(StructureError):
        parse_text(text)


def _set_identity(doc, value):
    doc["categories"]["T"]["id"]["t"][0] = value


def _set_comp_degree(doc, value):
    doc["categories"]["T"]["comp"]["t"]["t"]["t"][0][0] = value


def _set_comp_gidx(doc, value):
    doc["categories"]["T"]["comp"]["t"]["t"]["t"][0][1] = value


def _set_d_key(doc, key):
    doc["categories"]["T"]["hom"]["t"]["t"]["d"] = {key: [["1"]]}


def _set_structure_entry(doc, value):
    doc["comma_objects"]["o_can"]["f"]["t"]["0"][0][0] = value


def _add_left_action(doc, source):
    doc["bimodules"]["M"]["left_action"][source] = {"u": {"t": [[0, 0, 0, 0, 0, "1"]]}}


def _set_t_hom(doc, key, value):
    doc["categories"]["T"]["hom"]["t"]["t"][key] = value


def _set_fixture_refs(doc, key, value):
    doc["fixtures"]["main"][key] = value


def _append_row(table, key, row):
    """table[key] with row appended after its valid first row."""
    table[key] = table[key] + [row]


@pytest.mark.parametrize(
    "edit,path",
    [
        (lambda doc: _set_identity(doc, "1/0"), "$.categories.T.id.t:"),
        (lambda doc: _set_comp_degree(doc, "0"), "$.categories.T.comp.t.t.t[0]:"),
        (lambda doc: _set_comp_gidx(doc, -1), "$.categories.T.comp.t.t.t[0]:"),
        (lambda doc: _set_d_key(doc, "z"), "$.categories.T.hom.t.t.d:"),
        (lambda doc: _add_left_action(doc, "nope"), "$.bimodules.M.left_action:"),
        (lambda doc: doc["categories"]["T"]["id"].update(t="1"), "$.categories.T.id.t:"),
        (lambda doc: _set_identity(doc, "2/4"), "$.categories.T.id.t:"),
        (lambda doc: _set_identity(doc, "-3/6"), "$.categories.T.id.t:"),
        (lambda doc: _set_identity(doc, "4/2"), "$.categories.T.id.t:"),
        (lambda doc: doc.update(field={"Fp": "5"}), "$.field:"),
        (lambda doc: doc.update(field={"Fp": True}), "$.field:"),
        (lambda doc: _set_identity(doc, 1), "$.categories.T.id.t:"),
        (
            lambda doc: _set_structure_entry(doc, 1),
            "$.comma_objects.o_can.f.t[0]:",
        ),
        (
            lambda doc: _set_t_hom(doc, "labels", {"0": 5}),
            "$.categories.T.hom.t.t.labels[0]:",
        ),
        (
            lambda doc: _set_t_hom(doc, "labels", {"0": "x"}),
            "$.categories.T.hom.t.t.labels[0]:",
        ),
        (
            lambda doc: _set_t_hom(doc, "labels", {"0": []}),
            "$.categories.T.hom.t.t.labels[0]:",
        ),
        (
            lambda doc: _set_t_hom(doc, "dims", {"0": True}),
            "$.categories.T.hom.t.t.dims[0]:",
        ),
        (
            lambda doc: _set_t_hom(doc, "dims", {" 0": 1}),
            "$.categories.T.hom.t.t.dims:",
        ),
        (
            lambda doc: _set_t_hom(doc, "dims", {"0_0": 1}),
            "$.categories.T.hom.t.t.dims:",
        ),
        (
            lambda doc: _set_fixture_refs(doc, "comma_objects", 5),
            "$.fixtures.main.comma_objects:",
        ),
        (
            lambda doc: _set_fixture_refs(doc, "lambda_modules", "C"),
            "$.fixtures.main.lambda_modules:",
        ),
        (
            lambda doc: doc["bimodules"]["M"].update(left=["U"]),
            "$.bimodules.M.left:",
        ),
        (lambda doc: _set_fixture_refs(doc, "t", {"T": 1}), "$.fixtures.main.t:"),
        (
            lambda doc: doc["comma_objects"]["o_can"].update(bimodule=["M"]),
            "$.comma_objects.o_can.bimodule:",
        ),
        (
            lambda doc: doc["comma_objects"]["o_can"].update(module_t={"A": 1}),
            "$.comma_objects.o_can.module_t:",
        ),
        (
            lambda doc: doc["modules"]["C"]["base"]["lambda"].update(t=["T"]),
            "$.modules.C.base.lambda.t:",
        ),
        (
            lambda doc: doc["modules"]["C"]["base"]["lambda"].update(u="Nope"),
            "$.modules.C.base.lambda.u:",
        ),
        (lambda doc: doc["modules"]["A"].update(base=["T"]), "$.modules.A.base:"),
        (
            lambda doc: _append_row(
                doc["categories"]["T"]["comp"]["t"]["t"], "t", [0, 0, 0, 0, 1, "1"]
            ),
            "$.categories.T.comp.t.t.t[1]: output index out of range",
        ),
        (
            lambda doc: doc["bimodules"]["M"]["right_action"]["t"]["t"].update(
                u=[[0, 0, 0, 0, 0, "1/2"], [0, 0, 0, 0, 0, "2/4"]]
            ),
            "$.bimodules.M.right_action.t.t.u[1]: fraction not in lowest terms",
        ),
        (
            lambda doc: _append_row(
                doc["modules"]["A"]["on_hom"]["t"], "t", [0, 1, 0, 0, 0, "1"]
            ),
            "$.modules.A.on_hom.t.t[1]: morphism index out of range",
        ),
        (
            lambda doc: _append_row(
                doc["modules"]["B"]["on_hom"]["u"], "u", [0, 0, 0, 1, 0, "1"]
            ),
            "$.modules.B.on_hom.u.u[1]: block entry out of range",
        ),
    ],
    ids=[
        "zero_denominator",
        "string_comp_degree",
        "negative_comp_index",
        "letter_d_key",
        "unknown_action",
        "string_identity",
        "unreduced_2/4",
        "unreduced_-3/6",
        "unreduced_4/2",
        "string_modulus",
        "bool_modulus",
        "numeric_identity",
        "numeric_matrix_entry",
        "numeric_labels",
        "string_labels",
        "short_labels",
        "bool_dimension",
        "padded_degree_key",
        "underscored_degree_key",
        "numeric_fixture_objects",
        "string_fixture_modules",
        "list_bimodule_base",
        "dict_fixture_category",
        "list_comma_bimodule",
        "dict_comma_module",
        "list_lambda_category",
        "unknown_lambda_category",
        "list_module_base",
        "comp_output_index_in_second_row",
        "unreduced_right_action_after_its_reduced_form",
        "on_hom_morphism_index_in_second_row",
        "on_hom_block_entry_in_second_row",
    ],
)
def test_parse_rejects_malformed_entry_with_its_path(edit, path, tmp_path):
    document = json.loads(shipped_text("kkk"))
    edit(document)
    with pytest.raises(StructureError) as info:
        parse_text(json.dumps(document))
    assert str(info.value).startswith(path)
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code, text = run_cli(["validate", "--input", str(src)], tmp_path)
    assert (code, text) == (2, "")


@pytest.mark.parametrize("value", ["1/2", "-1/2", "3"])
def test_parse_accepts_reduced_scalars(value):
    document = json.loads(shipped_text("kkk"))
    _set_identity(document, value)
    parse_text(json.dumps(document))


@pytest.mark.parametrize(
    "entries,emitted",
    [
        ([[0, 0, 0, 0, 0, "1/2"], [0, 0, 0, 0, 0, "1/2"]], [[0, 0, 0, 0, 0, "1"]]),
        ([[0, 0, 0, 0, 0, "1"], [0, 0, 0, 0, 0, "-1"]], None),
    ],
    ids=["listed_twice", "cancelling"],
)
def test_parse_sums_comp_entries_at_one_position(entries, emitted):
    document = json.loads(shipped_text("kkk"))
    document["categories"]["T"]["comp"]["t"]["t"]["t"] = entries
    category = emit_workspace(parse_text(json.dumps(document)))["categories"]["T"]
    comp = category.get("comp")
    assert comp == (None if emitted is None else {"t": {"t": {"t": emitted}}})


def test_each_parsed_category_is_constructed_once_with_its_tables(monkeypatch):
    """Each category of a document is built by one construction, which is
    given the parsed product tables: none is built empty and filled later."""
    built = []
    init = DgCategoryPresentation.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, product_tables(self)))

    monkeypatch.setattr(DgCategoryPresentation, "__init__", recorded)
    categories = parse_text(shipped_text("exterior")).categories
    parsed = [(cat, tables) for cat, tables in built if cat.name in categories]
    assert sorted(cat.name for cat, _ in parsed) == sorted(categories)
    for cat, tables in parsed:
        assert cat is categories[cat.name] and tables == product_tables(cat)
        assert any(tables.values())


def test_scalar_text_is_read_afresh_in_each_document():
    """The scalar table lives for one document: "3" and "7" read over Q do
    not carry into the next document, read over F_5."""
    document = json.loads(shipped_text("kkk"))
    table = document["categories"]["T"]["comp"]["t"]["t"]
    table["t"] = [[0, 0, 0, 0, 0, "3"], [0, 0, 0, 0, 0, "7"]]
    over_q = parse_text(json.dumps(document)).categories["T"]
    assert over_q.products("t", "t", "t") == {(0, 0): {(0, 0): ((0, 10),)}}
    document["field"] = {"Fp": 5}
    with pytest.raises(StructureError) as info:
        parse_text(json.dumps(document))
    refused = "$.categories.T.comp.t.t.t[1]: F_5 scalar out of range"
    assert str(info.value).startswith(refused)
    table["t"] = [[0, 0, 0, 0, 0, "3"], [0, 0, 0, 0, 0, "4"]]
    over_f5 = parse_text(json.dumps(document)).categories["T"]
    assert over_f5.products("t", "t", "t") == {(0, 0): {(0, 0): ((0, 2),)}}


def test_parse_rejects_bad_json():
    with pytest.raises(StructureError):
        parse_text("{not json")


def test_d_squared_nonzero_parses_and_fails_validation(tmp_path):
    # A bad differential is a mathematical failure with a witness degree,
    # not a schema rejection.
    document = {
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
    src = tmp_path / "dd.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code, text = run_cli(["validate", "--input", str(src)], tmp_path)
    assert code == 1
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    bad = checks["category[T].d_squared"]
    assert bad["status"] == "FAIL"
    assert bad["witness"]["degree"] == 0


def run_cli(args, tmp_path, stdin_text=None):
    out_file = tmp_path / "out.json"
    argv = list(args) + ["--output", str(out_file)]
    code = main(argv)
    text = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
    return code, text


def test_cli_validate_shipped(tmp_path):
    for name in NAMES:
        src = tmp_path / f"{name}.json"
        src.write_text(shipped_text(name), encoding="utf-8")
        code, text = run_cli(["validate", "--input", str(src)], tmp_path)
        assert code == 0, text
        report = json.loads(text)
        assert report["passed"] is True


def test_cli_validate_negative_control(tmp_path):
    # corrupt the exterior fixture so that x . x = 1 is claimed, which is a
    # degree violation caught as a structural error at parse time; instead
    # corrupt an identity coordinate, a mathematical failure
    document = json.loads(shipped_text("kkk"))
    document["categories"]["T"]["id"]["t"] = ["2"]
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code, text = run_cli(["validate", "--input", str(src)], tmp_path)
    assert code == 1
    report = json.loads(text)
    failing = [c["name"] for c in report["checks"] if c["status"] == "FAIL"]
    assert any("units" in name for name in failing)


def test_cli_check_equivalence_shipped(tmp_path):
    for name in NAMES:
        src = tmp_path / f"{name}.json"
        src.write_text(shipped_text(name), encoding="utf-8")
        code, text = run_cli(
            ["check-equivalence", "--input", str(src), "--seed", "7"], tmp_path
        )
        assert code == 0, text
        report = json.loads(text)
        assert report["passed"] is True
        assert report["seed"] == 7


def test_cli_check_equivalence_deterministic(tmp_path):
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    _, first = run_cli(
        ["check-equivalence", "--input", str(src), "--seed", "11"], tmp_path
    )
    _, second = run_cli(
        ["check-equivalence", "--input", str(src), "--seed", "11"], tmp_path
    )
    assert first == second


def test_cli_check_equivalence_validates_and_builds_once(tmp_path, monkeypatch):
    """T, U and Lambda are each validated once; Lambda is built once."""
    import dgcat.cli
    import dgcat.io_json
    import dgcat.lambda_cat

    calls = {"validate": [], "build": 0}
    validate = dgcat.lambda_cat.validate_dg_category
    build = dgcat.lambda_cat.build_lambda

    def counted_validate(cat):
        calls["validate"].append(cat.name)
        return validate(cat)

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    for module in (dgcat.cli, dgcat.lambda_cat):
        monkeypatch.setattr(module, "validate_dg_category", counted_validate)
    monkeypatch.setattr(dgcat.io_json, "build_lambda", counted_build)
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    code, _ = run_cli(["check-equivalence", "--input", str(src)], tmp_path)
    assert code == 0
    assert calls == {"validate": ["T", "U", "[[T,0],[M,U]]"], "build": 1}


def test_cli_lambda_validates_and_builds_once(tmp_path, monkeypatch):
    """T, U and Lambda are each validated once, and the one Lambda the
    workspace builds while parsing the document's Lambda-modules is the
    one written."""
    import dgcat.io_json
    import dgcat.lambda_cat

    calls = {"validate": [], "build": 0}
    validate = dgcat.lambda_cat.validate_dg_category
    build = dgcat.lambda_cat.build_lambda

    def counted_validate(cat):
        calls["validate"].append(cat.name)
        return validate(cat)

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(dgcat.lambda_cat, "validate_dg_category", counted_validate)
    monkeypatch.setattr(dgcat.io_json, "build_lambda", counted_build)
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    argv = ["lambda", "--input", str(src), "--t", "T", "--u", "U", "--bimodule", "M"]
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    assert calls == {"validate": ["T", "U", "[[T,0],[M,U]]"], "build": 1}


def test_cli_check_equivalence_rejects_degree_window(tmp_path, capsys):
    """The option is gone: argparse refuses it with exit 2."""
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["check-equivalence", "--input", str(src), "--degree-window", "0:0"])
    assert info.value.code == 2
    assert "--degree-window" in capsys.readouterr().err


def test_cli_corrupted_composition_fails_at_lambda_validation(tmp_path):
    document = json.loads(shipped_text("kkk"))
    # flip the sign of the only composition entry in T
    entry = document["categories"]["T"]["comp"]["t"]["t"]["t"][0]
    entry[5] = "-1"
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code, text = run_cli(["check-equivalence", "--input", str(src)], tmp_path)
    assert code == 1
    report = json.loads(text)
    failing = [c["name"] for c in report["checks"] if c["status"] == "FAIL"]
    assert failing
    assert all(not name.startswith("full_faithful") for name in failing)
    assert any(name == "equivalence_verified" for name in failing)


def test_cli_oppose_and_tensor_roundtrip(tmp_path):
    src = tmp_path / "exterior.json"
    src.write_text(shipped_text("exterior"), encoding="utf-8")
    code, text = run_cli(
        ["oppose", "--input", str(src), "--category", "T"], tmp_path
    )
    assert code == 0
    opposed = parse_text(text)
    assert "T.op" in opposed.categories
    from dgcat.category import validate_dg_category

    assert validate_dg_category(opposed.categories["T.op"]).passed

    code, text = run_cli(
        ["tensor", "--input", str(src), "--left", "T", "--right", "U"], tmp_path
    )
    assert code == 0
    product = parse_text(text)
    name = "T.tensor.U"
    assert name in product.categories
    assert validate_dg_category(product.categories[name]).passed


def test_cli_lambda_emission_roundtrips(tmp_path):
    for name in NAMES:
        src = tmp_path / f"{name}.json"
        src.write_text(shipped_text(name), encoding="utf-8")
        code, text = run_cli(
            [
                "lambda",
                "--input",
                str(src),
                "--t",
                "T",
                "--u",
                "U",
                "--bimodule",
                "M",
                "--name",
                "L",
            ],
            tmp_path,
        )
        assert code == 0
        emitted = parse_text(text)
        assert "L" in emitted.categories
        from dgcat.category import validate_dg_category

        assert validate_dg_category(emitted.categories["L"]).passed
        # byte-identical re-emission
        out = tmp_path / "again.json"
        out.write_text(text, encoding="utf-8")
        code2, text2 = run_cli(
            ["validate", "--input", str(out)], tmp_path
        )
        assert code2 == 0
        from dgcat.io_json import emit_workspace as _ew, render_document as _rd

        assert _rd(_ew(parse_text(text))) == text


def test_cli_lambda_kkk_dims(tmp_path):
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    code, text = run_cli(
        ["lambda", "--input", str(src), "--t", "T", "--u", "U", "--bimodule", "M"],
        tmp_path,
    )
    assert code == 0
    document = json.loads(text)
    cat = next(iter(document["categories"].values()))
    pair = "t|u"
    assert cat["hom"][pair][pair]["dims"] == {"0": 3}


def test_cli_unknown_name_is_structural(tmp_path):
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    code = main(
        [
            "oppose",
            "--input",
            str(src),
            "--category",
            "NOPE",
            "--output",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oppose", "--category", "T"],
        ["tensor", "--left", "T", "--right", "U"],
        ["lambda", "--t", "T", "--u", "U", "--bimodule", "M"],
    ],
    ids=["oppose", "tensor", "lambda"],
)
def test_seed_is_refused_where_no_report_records_it(argv, capsys):
    source = str(FIXTURE_DIR / "kkk.json")
    with pytest.raises(SystemExit) as info:
        main(argv + ["--input", source, "--seed", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    src = tmp_path / "kkk.json"
    src.write_text(shipped_text("kkk"), encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dgcat.cli",
            "validate",
            "--input",
            str(src),
            "--output",
            "-",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
    assert "wall time" in proc.stderr


def _failing(report):
    return [c["name"] for c in report["checks"] if c["status"] == "FAIL"]


def test_cli_check_equivalence_refuses_an_invalid_comma_module(tmp_path, capsys):
    # The identity of A acts by 2 in degree 1, so A breaks the unit law and
    # functoriality; both comma objects of the fixture are built over A.
    document = json.loads(shipped_text("exterior"))
    document["modules"]["A"]["on_hom"]["t"]["t"][1][5] = "2"
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code, text = run_cli(["validate", "--input", str(src)], tmp_path)
    assert code == 1
    assert _failing(json.loads(text)) == ["module[A].unit", "module[A].functoriality"]
    capsys.readouterr()
    out = tmp_path / "equivalence.json"
    code = main(["check-equivalence", "--input", str(src), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    report = json.loads(capsys.readouterr().out)
    assert report["title"] == "dg-functor A"
    assert _failing(report) == ["unit", "functoriality"]


def _theorem_document(seed):
    """random_theorem_fixture(seed, Q) as a document: T, U, M, the modules of
    the comma objects named t0, t1, ... and u0, u1, ... in order of first
    use, the Lambda-modules c0, c1, ... and the fixture main."""
    fx = random_theorem_fixture(seed, Rationals())
    ws = Workspace(fx["t_cat"].field)
    ws.categories.update(T=fx["t_cat"], U=fx["u_cat"])
    ws.bimodules["M"] = fx["bimodule"]
    names = {}
    for obj in fx["comma_objects"]:
        for module, base in ((obj.A, "T"), (obj.B, "U")):
            if id(module) not in names:
                count = list(ws.module_bases.values()).count(base)
                names[id(module)] = name = f"{base.lower()}{count}"
                ws.modules[name], ws.module_bases[name] = module, base
        ws.comma_objects[obj.name] = obj
        ws.comma_refs[obj.name] = {
            "bimodule": "M",
            "module_t": names[id(obj.A)],
            "module_u": names[id(obj.B)],
        }
    for i, module in enumerate(fx["lambda_modules"]):
        ws.modules[f"c{i}"] = module
        ws.module_bases[f"c{i}"] = {"lambda": {"t": "T", "u": "U", "bimodule": "M"}}
    ws.fixtures["main"] = {
        "name": "main",
        "t": "T",
        "u": "U",
        "bimodule": "M",
        "comma_objects": [o.name for o in fx["comma_objects"]],
        "lambda_modules": [f"c{i}" for i in range(len(fx["lambda_modules"]))],
    }
    return json.loads(render_document(emit_workspace(ws)))


def _set_u1_d(doc, value):
    doc["modules"]["u1"]["on_objects"]["u0"]["d"]["-3"][0][1] = value


def _set_m_left_action(doc, value):
    doc["bimodules"]["M"]["left_action"]["u0"]["u0"]["t0"][0][5] = value


@pytest.mark.parametrize(
    "seed,edit,title,failing",
    [
        # d^{-3} = (2 3), was (2 2), makes d^2 of u1, B of o_mix, nonzero
        (4, _set_u1_d, "dg-functor u1", ["values_d_squared", "chain_map"]),
        (0, _set_m_left_action, "bimodule M", ["t_slice[t0]", "interchange_sign"]),
    ],
    ids=["u_module", "bimodule"],
)
def test_input_that_g_cannot_be_built_from_exits_1_with_its_report(
    seed, edit, title, failing, tmp_path, capsys
):
    # G(B) of each comma object is built while the file is read; an invalid
    # B or M stops every command there with that entity's own report.
    document = _theorem_document(seed)
    parse_text(json.dumps(document))
    edit(document, "3")
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    for command in ("validate", "check-equivalence"):
        capsys.readouterr()
        assert main([command, "--input", str(src)]) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["title"] == title
        assert _failing(report) == failing
        assert f"{title} is invalid, so G(" in err


def test_comma_object_over_an_invalid_bimodule_exits_1_with_its_report(
    tmp_path, capsys
):
    # The left action of the identity of u doubled: G(B) still builds, with
    # G(B)(t) zero, so the f of o_can no longer fits it.  The bimodule is
    # at fault, so every command stops with its report, not a shape error.
    document = json.loads(shipped_text("exterior"))
    document["bimodules"]["M"]["left_action"]["u"]["u"]["t"][0][5] = "2"
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    for command in ("validate", "check-equivalence"):
        capsys.readouterr()
        assert main([command, "--input", str(src)]) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["title"] == "bimodule M"
        assert _failing(report) == ["t_slice[t]"]
        assert "bimodule M is invalid, so G(B) is not defined" in err
    # with a valid bimodule, an f of the wrong shape is still a shape error
    document = json.loads(shipped_text("exterior"))
    document["comma_objects"]["o_can"]["f"]["t"]["0"][0].append("1")
    src.write_text(json.dumps(document), encoding="utf-8")
    assert main(["validate", "--input", str(src)]) == 2
    assert "matrix has wrong shape" in capsys.readouterr().err


def test_cli_validate_checks_a_large_unit_sparsely(tmp_path):
    # A module acting by zero on a 100000-dimensional value: an identity
    # matrix of that size would hold 10^10 entries, so only a check that
    # reads the image of the identity entry by entry finishes here.
    document = json.loads(shipped_text("kkk"))
    del document["comma_objects"], document["fixtures"]
    document["modules"]["A"] = {
        "base": "T",
        "on_objects": {"t": {"dims": {"0": 100000}}},
    }
    src = tmp_path / "large.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    code, text = run_cli(["validate", "--input", str(src)], tmp_path)
    assert code == 1
    assert _failing(json.loads(text)) == ["module[A].unit"]


def _rename(*steps):
    """Edit: the key at the end of steps gets a misspelt name."""

    def edit(doc):
        for step in steps[:-1]:
            doc = doc[step]
        doc[steps[-1] + "_typo"] = doc.pop(steps[-1])

    return edit


def _drop_fixtures_and_rename_comma_objects(doc):
    # At the parent this document passed `validate` with no comma object read.
    del doc["fixtures"]
    _rename("comma_objects")(doc)


@pytest.mark.parametrize(
    "edit,path",
    [
        (_drop_fixtures_and_rename_comma_objects, "$:"),
        (_rename("categories", "T", "comp"), "$.categories.T:"),
        (
            lambda doc: doc["categories"]["T"]["hom"]["t"]["t"].update(lables={}),
            "$.categories.T.hom.t.t:",
        ),
        (_rename("bimodules", "M", "values"), "$.bimodules.M:"),
        (_rename("modules", "A", "on_hom"), "$.modules.A:"),
        (
            _rename("modules", "C", "base", "lambda", "bimodule"),
            "$.modules.C.base.lambda:",
        ),
        (_rename("comma_objects", "o_can", "f"), "$.comma_objects.o_can:"),
        (_rename("fixtures", "main", "lambda_modules"), "$.fixtures.main:"),
    ],
    ids=[
        "document",
        "category",
        "dg_module",
        "bimodule",
        "module",
        "base_lambda",
        "comma_object",
        "fixture",
    ],
)
def test_parse_rejects_an_undefined_key_with_its_object_path(edit, path, tmp_path):
    # Read as an absent entry, a misspelt key would leave its data unchecked.
    document = json.loads(shipped_text("exterior"))
    edit(document)
    with pytest.raises(StructureError) as info:
        parse_text(json.dumps(document))
    assert str(info.value).startswith(path)
    assert "undefined key" in str(info.value)
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document), encoding="utf-8")
    assert run_cli(["validate", "--input", str(src)], tmp_path) == (2, "")


def test_check_equivalence_fails_full_faithful_on_a_non_natural_image(
    monkeypatch, capsys
):
    # Doubling one component of every F(phi) breaks naturality along the
    # morphisms of Lambda that join the T side to the U side.
    import dgcat.comma
    from dgcat.functors import DgNatTransformation

    f_on_morphisms = dgcat.comma.f_on_morphisms

    def doubled(lam, source, target, phi):
        nat = f_on_morphisms(lam, source, target, phi)
        components = dict(nat.components)
        obj = lam.presentation.objects[0]
        components[obj] = components[obj].scale(lam.field.from_int(2))
        return DgNatTransformation(nat.source, nat.target, nat.degree, components)

    monkeypatch.setattr(dgcat.comma, "f_on_morphisms", doubled)
    code = main(["check-equivalence", "--input", str(FIXTURE_DIR / "kkk.json")])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in report["checks"]}
    bad = checks["full_faithful[o_can->o_can]"]
    assert bad["status"] == "FAIL"
    assert bad["witness"] == {"degree": 0, "not_natural": 0}


PARSER_RUNS = [
    ["validate", "--input", "kkk.json"],
    ["oppose", "--input", "exterior.json", "--category", "T"],
    ["validate", "--input", "kkk.json", "--no-such-option"],
    ["tensor", "--input", "exterior.json", "--left", "T", "--right", "U"],
    ["oppose", "--input", "kkk.json", "--category", "T", "--seed", "5"],
    ["check-equivalence", "--input", "kkk.json", "--seed", "3"],
    ["lambda", "--input", "exterior.json", "--t", "T", "--u", "U", "--bimodule", "M"],
    ["no-such-command"],
    ["validate", "--input", "contractible.json", "--seed", "4"],
]


def _without_wall_time(err):
    return "".join(
        line for line in err.splitlines(keepends=True) if not line.startswith("wall time:")
    )


def test_one_parser_serves_every_in_process_call(capsys, monkeypatch):
    """build_parser builds once per process; calls of main in one process,
    after exit-2 argument errors too and across subcommands, write what
    a fresh process writes for each."""
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    runs = [
        [str(FIXTURE_DIR / arg) if arg.endswith(".json") else arg for arg in argv]
        for argv in PARSER_RUNS
    ]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        in_process.append((code, out, _without_wall_time(err)))
    codes = [code for code, _, _ in in_process]
    assert codes == [0, 0, 2, 0, 2, 0, 0, 2, 0]
    for argv, seen in zip(runs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "dgcat.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ),
        )
        fresh = (proc.returncode, proc.stdout, _without_wall_time(proc.stderr))
        assert seen == fresh, argv
