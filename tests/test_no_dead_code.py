"""Every function, class and method of src/dgcat has a caller in src/dgcat.

The scan reads the package with ast.  A module-level function or class,
or a method, counts as called when its name is read somewhere in
src/dgcat outside its own definition: as a name (a call, a reference
passed on) or as an attribute (obj.name).  Methods are matched by name
only, so a method shares its callers with every definition of the same
name.  dgcat.__all__ is the public interface and needs no caller, and
dunder methods are called by Python.  ALLOWED lists the rest that stay,
each with the reason; an entry that gains a caller, or whose definition
is gone, must leave the list.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import dgcat

SRC = Path(__file__).resolve().parent.parent / "src" / "dgcat"

ALLOWED = {
    "bimodule.GModule.decode": (
        "the benchmark tracer patches it by name, and the tests' per-vector "
        "dot oracle (conftest.raw_dot) decodes with it"
    ),
    "category.DgCategoryPresentation.basis_element": (
        "the tests build basis morphisms with it, as elements to act by"
    ),
    "category.DgCategoryPresentation.compose_basis": (
        "the benchmark tracer times it as a span of its own, and the tests' "
        "dense basis composite (conftest.compose_basis_coords) reads it"
    ),
    "fields.PrimeField.div": (
        "field interface: the benchmark's field-op count wraps every op, div included"
    ),
    "fields.Rationals.div": (
        "field interface: the benchmark's field-op count wraps every op, div included"
    ),
    "complexes.HomComplex.decode": (
        "the benchmark tracer patches it by name, and the tests' Hom "
        "differential oracles (test_acceptance._complex_differentials_match, "
        "test_composition_rules._decode_basis) decode with it"
    ),
    "fixtures.exterior_category": "tests build the exterior algebra example from it",
    "fixtures.random_axiom_fixture": "bench/documents.py and the tests draw instances from it",
    "fixtures.random_theorem_fixture": "bench/documents.py and the tests draw instances from it",
    "fixtures.trivial_category": "tests build the one-object category K from it",
    "graded.identity_map": "tests build identity actions and transformations from it",
    "io_json.emit_workspace": (
        "bench/documents.py emits its generated documents with it, and the "
        "tests check that parsing then emitting keeps the bytes"
    ),
    "report.Report.failures": "tests list the failing checks of a report with it",
    "shipped.contractible_workspace": "bench/documents.py reads it by name",
    "shipped.exterior_workspace": "bench/documents.py reads it by name",
    "shipped.kkk_workspace": "bench/documents.py reads it by name",
}


def _reads(node):
    """Counter of the names read under node, as names or attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions():
    """(qualified name, bare name, node) of every module-level function and
    class and every method, qualified as module[.class].name."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub


@functools.cache
def _uncalled():
    """Qualified names of the definitions with no caller in src/dgcat."""
    reads = Counter()
    for path in SRC.glob("*.py"):
        reads += _reads(ast.parse(path.read_text()))
    public = set(dgcat.__all__)
    out = set()
    for qualified, name, node in _definitions():
        if name in public or (name.startswith("__") and name.endswith("__")):
            continue
        if reads[name] - _reads(node)[name] == 0:
            out.add(qualified)
    return frozenset(out)


def test_every_definition_has_a_caller_or_a_reason():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_every_allowed_definition_still_lacks_a_caller():
    assert sorted(set(ALLOWED) - _uncalled()) == []
