"""Input documents for the benchmark, generated from seeds.

Valid documents are assembled from dgcat's own seeded constructions
(``random_theorem_fixture``, ``random_axiom_fixture`` and the shipped
builders) and emitted with ``emit_workspace``/``render_document``.  A
generated document is accepted only if parsing it and emitting it again
gives the same bytes.

Mutated and malformed documents are derived from a valid document by
editing its JSON here, without calling dgcat, so that the answer each
one must produce (the failing checks, or exit code 2) follows from the
edit and never from a run of dgcat.
"""

from __future__ import annotations

import json
from fractions import Fraction

# dgcat is reached through module attributes so that a traced run, which
# rebinds them, also times the generators.
from dgcat import fixtures, io_json, shipped
from dgcat.fields import PrimeField, Rationals

FIELDS = {"Q": Rationals, "F5": lambda: PrimeField(5)}
LAMBDA_BASE = {"lambda": {"t": "T", "u": "U", "bimodule": "M"}}


def render(document):
    """The canonical text of a JSON document, as dgcat emits it."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _accepted(workspace, label):
    text = io_json.render_document(io_json.emit_workspace(workspace))
    again = io_json.render_document(
        io_json.emit_workspace(io_json.parse_text(text))
    )
    if again != text:
        raise ValueError(f"{label}: parse and re-emit changed the document")
    return text


def shipped_document(name):
    return _accepted(getattr(shipped, f"{name}_workspace")(), f"shipped {name}")


def theorem_document(field_name, max_objects, seed):
    """A ``random_theorem_fixture`` instance with a ``fixtures.main`` section.

    Categories are T and U, the bimodule is M; the modules of the comma
    objects are named by their base (t0, t1, u0, ...) and the
    Lambda-modules c0, c1 have the ``{"lambda": ...}`` base reference.
    """
    field = FIELDS[field_name]()
    fx = fixtures.random_theorem_fixture(seed, field, max_objects=max_objects)
    ws = io_json.Workspace(field)
    ws.categories["T"] = fx["t_cat"]
    ws.categories["U"] = fx["u_cat"]
    ws.bimodules["M"] = fx["bimodule"]
    names = {}
    for obj in fx["comma_objects"]:
        for module, base in ((obj.A, "T"), (obj.B, "U")):
            if id(module) not in names:
                count = sum(1 for b in ws.module_bases.values() if b == base)
                name = f"{base.lower()}{count}"
                names[id(module)] = name
                ws.modules[name] = module
                ws.module_bases[name] = base
        ws.comma_objects[obj.name] = obj
        ws.comma_refs[obj.name] = {
            "bimodule": "M",
            "module_t": names[id(obj.A)],
            "module_u": names[id(obj.B)],
        }
    lambda_modules = []
    for i, module in enumerate(fx["lambda_modules"]):
        name = f"c{i}"
        ws.modules[name] = module
        ws.module_bases[name] = LAMBDA_BASE
        lambda_modules.append(name)
    ws.fixtures["main"] = {
        "name": "main",
        "t": "T",
        "u": "U",
        "bimodule": "M",
        "comma_objects": [o.name for o in fx["comma_objects"]],
        "lambda_modules": lambda_modules,
    }
    return _accepted(ws, f"theorem {field_name}/{max_objects}/{seed}")


def axiom_document(field_name, seed):
    """A ``random_axiom_fixture`` instance: T, U, M and the modules A (over
    T) and B (over U)."""
    field = FIELDS[field_name]()
    fx = fixtures.random_axiom_fixture(seed, field)
    ws = io_json.Workspace(field)
    ws.categories["T"] = fx["t_cat"]
    ws.categories["U"] = fx["u_cat"]
    ws.bimodules["M"] = fx["bimodule"]
    for name, base, module in zip("AB", "TU", fx["modules"]):
        ws.modules[name] = module
        ws.module_bases[name] = base
    return _accepted(ws, f"axiom {field_name}/{seed}")


# ---------------------------------------------------------------------------
# mutations with a failing check known by construction


def _twice(field, text):
    if field == "Q":
        return str(Fraction(text) * 2)
    return str(int(text) * 2 % field["Fp"])


def _scale_entries(field, entries):
    for entry in entries:
        entry[5] = _twice(field, entry[5])


def _keep(document, *sections):
    return {k: v for k, v in document.items() if k == "field" or k in sections}


def scaled_identity(text):
    """Every identity entry of T doubled; only T and U kept.

    The units law then gives 2f for f, and no other axiom of a category
    involves the identity except its closedness, which scaling keeps.
    Expected: exit 1, exactly ``category[T].units`` fails.
    """
    doc = _keep(json.loads(text), "categories")
    ids = doc["categories"]["T"]["id"]
    for obj, vec in ids.items():
        ids[obj] = [_twice(doc["field"], v) for v in vec]
    return render(doc), {"category[T].units"}


def scaled_module_action(text):
    """The action of module A (over T) doubled; T, U and A kept.

    A is representable, so it is nonzero and its identity element is a sum
    of basis idempotents e with A(e.e) = A(e) != 0.  Doubling the action
    sends the identity to twice the identity and makes A(g.f) = 2x against
    A(g)A(f) = 4x.  Expected: exit 1, ``module[A].unit`` and
    ``module[A].functoriality`` fail.
    """
    doc = json.loads(text)
    module = doc["modules"]["A"]
    doc = _keep(doc, "categories")
    doc["modules"] = {"A": module}
    for per_y in module["on_hom"].values():
        for entries in per_y.values():
            _scale_entries(doc["field"], entries)
    return render(doc), {"module[A].unit", "module[A].functoriality"}


def scaled_left_action(text):
    """The left action of M doubled; T, U and M kept.

    Each slice M_t (over U, acting by the left action) then sends an
    identity to twice the identity wherever M(-, t) is nonzero.  The
    interchange and Leibniz identities are linear in the left action, so
    they still hold.  Expected: exit 1, ``bimodule[M].t_slice[t]`` fails
    for exactly the t with a nonzero value.  None for a zero bimodule.
    """
    doc = _keep(json.loads(text), "categories", "bimodules")
    bim = doc["bimodules"]["M"]
    if "left_action" not in bim:
        return None
    for per_u2 in bim["left_action"].values():
        for per_t in per_u2.values():
            for entries in per_t.values():
                _scale_entries(doc["field"], entries)
    nonzero = {t for per_t in bim.get("values", {}).values() for t in per_t}
    return render(doc), {f"bimodule[M].t_slice[{t}]" for t in nonzero}


MUTATIONS = {
    "scaled_identity": scaled_identity,
    "scaled_module_action": scaled_module_action,
    "scaled_left_action": scaled_left_action,
}


# ---------------------------------------------------------------------------
# malformed documents: every one must exit 2 with a structural error


def _first_hom_module(category):
    x = sorted(category["hom"])[0]
    y = sorted(category["hom"][x])[0]
    return category["hom"][x][y]


def _identity_entry(value):
    """Edit: the first identity entry of T becomes ``value``."""

    def edit(doc):
        ids = doc["categories"]["T"]["id"]
        ids[sorted(ids)[0]][0] = value

    return edit


def bad_shape(doc):
    """A differential block with 99 rows, more than its target has."""
    module = _first_hom_module(doc["categories"]["T"])
    degree = min(module["dims"], key=int)
    module["d"] = {degree: [["0"] * module["dims"][degree]] * 99}


def unknown_reference(doc):
    """A bimodule over a category the document does not declare."""
    doc["bimodules"]["M"]["left"] = "Nope"


def string_comp_degree(doc):
    """A composition entry whose degree is the string "0"."""
    per_x = doc["categories"]["T"]["comp"]
    x = sorted(per_x)[0]
    y = sorted(per_x[x])[0]
    z = sorted(per_x[x][y])[0]
    per_x[x][y][z][0][0] = "0"


def letter_d_key(doc):
    """A differential keyed by the degree "z"."""
    _first_hom_module(doc["categories"]["T"])["d"] = {"z": [["1"]]}


MALFORMED = {
    "bad_scalar": _identity_entry("one"),
    "bad_shape": bad_shape,
    "unknown_reference": unknown_reference,
}

# Inputs dgcat mishandles today (ROADMAP item 4): each must exit 2, but
# raises or is accepted.  They stay in the workload and count as errors.
KNOWN_DEFECTS = {
    "zero_denominator": _identity_entry("1/0"),
    "unreduced_fraction": _identity_entry("2/4"),
    "string_comp_degree": string_comp_degree,
    "letter_d_key": letter_d_key,
}


def malformed(text, edit):
    doc = json.loads(text)
    edit(doc)
    return render(doc)
