"""The presentation file format: parsing and canonical emission.

A file is a single JSON document with a field declaration and named
sections for categories, bimodules, modules, comma objects and fixtures.
Scalars are strings ("p/q" over Q with q > 0 and gcd 1; integers in
[0, p) over F_p).  Matrices are row-major lists of scalar strings with
entry [row][col] the coefficient of source basis vector col in target
basis vector row.  Composition is a sparse list of product table rows
[gdeg, gidx, fdeg, fidx, out, coeff]: coordinate out of the composite of
basis morphism (gdeg, gidx) after (fdeg, fidx).  Action tables are sparse
entry lists too; an omitted block, pair or entry is zero.

Every nested table (hom, comp, id, values, the actions, on_objects,
on_hom, f and the five sections) is an object keyed by declared names,
possibly several levels deep.  The reader walks each through _table,
which visits keys in sorted order and exits with the level's JSON path
on an undeclared name; _degrees reads degree-keyed objects and _entries
sparse entry lists on top of it.  Each object kind (document, category,
dg module, bimodule, module, base.lambda, comma object, fixture) accepts
only its defined keys, so a misspelt key exits 2 with the object's path
instead of reading as an absent entry.  The writer builds every nested
table with _nested from tuple-keyed entries and stores it with _put,
which drops empty data.

The reader reads each entry list once.  A row's JSON path is formatted
only when the row is refused.  Each parse_document call keeps one scalar
table, {text: value}, so each distinct scalar text of the document is
parsed and checked once; the table is dropped when the call returns, and
nothing is kept between documents.

Emission is canonical: keys sorted, entries sorted, zero data dropped,
two-space indentation.  emit(parse(emit(x))) == emit(x) byte for byte.
render_document (and Report.render) write text byte-identical to the
standard library's json dumps with indent 2 and sorted keys, plus a
final newline, in one recursive pass (_json_text): string keys and
values go through json.encoder.encode_basestring_ascii, a list of
strings is one join, and a sparse entry row (a list of five ints and a
string, the format's only row shape) is one % template per indentation
level.  A float is refused with TypeError: dgcat never writes one.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import product
from json.encoder import encode_basestring_ascii as _quote

from .bimodule import Bimodule, g_on_objects, refuse_invalid_g_inputs
from .category import DgCategoryPresentation
from .comma import CommaObject
from .complexes import DgModule, zero_dg_module
from .errors import StructureError
from .fields import field_from_descriptor
from .functors import DgFunctor
from .graded import GradedMap, GradedModule
from .lambda_cat import build_lambda
from .report import fmt_matrix

_FIXTURE_KEYS = ("t", "u", "bimodule", "comma_objects", "lambda_modules")


# ---------------------------------------------------------------------------
# emission


def _nested(flat):
    """The nested objects {k1: {k2: ... value}} of {(k1, k2, ...): value},
    leaving out empty values."""
    out = {}
    for keys, value in flat.items():
        if value:
            node = out
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
    return out


def _put(out, key, value):
    """out with out[key] = value, unless value is empty."""
    if value:
        out[key] = value
    return out


def _modules(modules):
    """The nested table of the nonzero dg modules of {keys: module}."""
    return _nested(
        {keys: emit_dg_module(m) for keys, m in modules.items() if not m.is_zero()}
    )


def emit_dg_module(module):
    field = module.field
    out = {"dims": {str(d): module.dim(d) for d in module.carrier.degrees()}}
    d = {str(i): fmt_matrix(field, module.d.block(i)) for i in module.d.support()}
    return _put(out, "d", d)


def emit_category(cat):
    field, objects = cat.field, cat.objects
    out = {"objects": list(objects)}
    _put(out, "hom", _modules(cat.hom))
    triples = product(objects, repeat=3)
    _put(out, "comp", _nested({xyz: _comp_entries(cat, *xyz) for xyz in triples}))
    ids = {(x,): [field.format(v) for v in cat.ids[x]] for x in objects}
    return _put(out, "id", _nested(ids))


def _comp_entries(cat, x, y, z):
    """The rows of one product table, in degree and then basis order."""
    field = cat.field
    entries = [
        [gdeg, gidx, fdeg, fidx, row, field.format(value)]
        for (fdeg, fidx), per_g in cat.products(x, y, z).items()
        for (gdeg, gidx), terms in per_g.items()
        for row, value in terms
    ]
    entries.sort(key=lambda e: (e[0] + e[2], e[0], e[1], e[3], e[4]))
    return entries


def _actions(field, images):
    """The nested table of the action entries of {keys: basis images}."""
    return _nested({keys: _action_entries(field, per) for keys, per in images.items()})


def _action_entries(field, images):
    """Sparse [hdeg, hidx, srcdeg, row, col, coeff] rows of one action table."""
    entries = [
        [hdeg, hidx, srcdeg, row, col, field.format(value)]
        for (hdeg, hidx), gmap in images.items()
        for srcdeg, row, col, value in gmap.entries()
    ]
    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3], e[4]))
    return entries


def emit_bimodule(bim):
    out = {"left": bim.left_base.name, "right": bim.right_base.name}
    values = {
        (u, t): bim.value(u, t)
        for u in bim.left_base.objects
        for t in bim.right_base.objects
    }
    _put(out, "values", _modules(values))
    _put(out, "left_action", _actions(bim.field, bim.left_images))
    return _put(out, "right_action", _actions(bim.field, bim.right_images))


def emit_module(fun, base_ref):
    out = {"base": base_ref}
    _put(out, "on_objects", _modules({(x,): m for x, m in fun.on_objects.items()}))
    return _put(out, "on_hom", _actions(fun.base.field, fun.images))


def emit_comma_object(obj, refs):
    f_blocks = {
        (t, str(k)): fmt_matrix(obj.field, obj.f[t].block(k))
        for t in obj.bimodule.right_base.objects
        for k in obj.f[t].support()
    }
    return _put(dict(refs), "f", _nested(f_blocks))


def render_document(document):
    return _json_text(document, "\n") + "\n"


_CONSTANTS = {True: "true", False: "false", None: "null"}


@functools.cache
def _row_template(inner):
    """The % template of a sparse entry row on the line that starts with
    inner (a newline and the row's indentation)."""
    at = inner + "  "
    return "[" + (at + "%d,") * 5 + at + "%s" + inner + "]"


def _json_key(key):
    """A dict key as the standard encoder writes it (a str subclass, or an
    int, bool or None key turned into a string); a float key is refused."""
    if isinstance(key, str):
        return _quote(key)
    if key is True or key is False or key is None:
        return '"' + _CONSTANTS[key] + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, bool or None, not {type(key).__name__}")


def _json_text(value, nl):
    """The canonical JSON text of value (see the module docstring), nl
    being the newline and indentation of the line value starts on."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        if all(type(x) is str for x in value):
            items = map(_quote, value)
        else:
            row, items = _row_template(inner), []
            for x in value:
                if type(x) is list and len(x) == 6:
                    a, b, c, d, e, text = x
                    if type(a) is type(b) is type(c) is type(d) is type(e) is int and (
                        type(text) is str
                    ):
                        items.append(row % (a, b, c, d, e, _quote(text)))
                        continue
                items.append(_json_text(x, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        items = [
            (_quote(key) if type(key) is str else _json_key(key))
            + ": "
            + _json_text(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if value is True or value is False or value is None:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        raise TypeError(f"dgcat writes no float: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# parsing


class Workspace:
    """Everything a file declares, with lazily built Lambda categories."""

    def __init__(self, field):
        self.field = field
        self.categories = {}
        self.bimodules = {}
        self.modules = {}
        self.module_bases = {}
        self.comma_objects = {}
        self.comma_refs = {}
        self.fixtures = {}
        self._lambdas = {}

    def lambda_for(self, t_name, u_name, m_name):
        key = (t_name, u_name, m_name)
        if key not in self._lambdas:
            self._lambdas[key] = build_lambda(
                self.categories[t_name], self.categories[u_name], self.bimodules[m_name]
            )
        return self._lambdas[key]


def _dict(value, path, keys=None):
    """A JSON object; given keys, one that defines no other key."""
    if not isinstance(value, dict):
        raise StructureError(f"{path}: expected an object")
    if keys is not None:
        undefined = sorted(set(value).difference(keys))
        if undefined:
            raise StructureError(f"{path}: undefined key {undefined[0]!r}")
    return value


def _list(value, path, what):
    if not isinstance(value, list):
        raise StructureError(f"{path}: expected {what}")
    return value


def _table(data, path, *levels):
    """Walk an object nested len(levels) deep, keys in sorted order.

    levels[k] holds the names allowed at depth k (None allows any name);
    a key outside its level exits with that level's path.  Yields
    (keys, leaf, leaf path).
    """
    allowed, rest = levels[0], levels[1:]
    data = _dict(data, path)
    for key in sorted(data):
        if allowed is not None and key not in allowed:
            raise StructureError(f"{path}: unknown name {key!r}")
        if rest:
            for keys, leaf, at in _table(data[key], f"{path}.{key}", *rest):
                yield (key,) + keys, leaf, at
        else:
            yield (key,), data[key], f"{path}.{key}"


def _degrees(data, path):
    """(degree, value, path) for each entry of a degree-keyed object."""
    for (key,), value, _ in _table(data, path, None):
        yield _degree(key, path), value, f"{path}[{key}]"


def _degree(key, path):
    """A degree written as a JSON object key, in its canonical form."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise StructureError(f"{path}: bad degree {key!r}")


def _names(value, path):
    """A list of strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise StructureError(f"{path}: expected a list of names")
    return value


def _ref(value, table, path, kind):
    """The entry of table that value names; any other value exits with path."""
    if not isinstance(value, str) or value not in table:
        raise StructureError(f"{path}: unknown {kind} {value!r}")
    return table[value]


def _lambda_refs(data, workspace, path):
    """The checked names (t, u, bimodule) that a Lambda is built from."""
    for key, table, kind in (
        ("t", workspace.categories, "category"),
        ("u", workspace.categories, "category"),
        ("bimodule", workspace.bimodules, "bimodule"),
    ):
        _ref(data.get(key), table, f"{path}.{key}", kind)
    return data["t"], data["u"], data["bimodule"]


class _Scalars(dict):
    """The scalar table of one document: {text: value}, each distinct
    scalar text read once; a fraction must be in lowest terms."""

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, text):
        value = self.field.parse(text)
        num, _, den = text.partition("/")
        if den and math.gcd(int(num), int(den)) != 1:
            raise StructureError(f"fraction not in lowest terms: {text!r}")
        self[text] = value
        return value


def _scalar(scalars, text, path, pos=None):
    """The value of a scalar string; a refusal names path, or row pos of
    the entry list at path."""
    try:
        if isinstance(text, str):
            return scalars[text]
        raise StructureError(f"expected a scalar string, got {text!r}")
    except StructureError as exc:
        at = path if pos is None else f"{path}[{pos}]"
        raise StructureError(f"{at}: {exc}") from None


def _entries(scalars, entries, path, layout):
    """The rows of a sparse entry list, each five ints and then a scalar
    string, as (*ints, scalar, position of the row)."""
    for pos, entry in enumerate(_list(entries, path, "a list of entries")):
        if isinstance(entry, list) and len(entry) == 6:
            a, b, c, d, e, text = entry
            if type(a) is type(b) is type(c) is type(d) is type(e) is int:
                yield a, b, c, d, e, _scalar(scalars, text, path, pos), pos
                continue
        raise StructureError(f"{path}[{pos}]: expected {layout} with integer indices")


def parse_matrix(scalars, rows, path, shape):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise StructureError(f"{path}: expected a matrix (list of rows)")
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise StructureError(
            f"{path}: matrix has wrong shape, expected {shape[0]}x{shape[1]}"
        )
    return tuple(tuple(_scalar(scalars, x, path) for x in row) for row in rows)


def parse_dg_module(scalars, data, path):
    data = _dict(data, path, ("dims", "labels", "d"))
    dims = {}
    for deg, dim, at in _degrees(data.get("dims", {}), f"{path}.dims"):
        if type(dim) is not int or dim < 0:
            raise StructureError(f"{at}: bad dimension {dim!r}")
        dims[deg] = dim
    # Basis labels are checked, then dropped: nothing reads or emits them.
    for deg, names, at in _degrees(data.get("labels", {}), f"{path}.labels"):
        count, dim = len(_names(names, at)), dims.get(deg)
        if dim and count != dim:
            raise StructureError(f"{at}: {count} labels for dimension {dim}")
    carrier = GradedModule(scalars.field, dims)
    blocks = {
        i: parse_matrix(scalars, rows, at, (carrier.dim(i + 1), carrier.dim(i)))
        for i, rows, at in _degrees(data.get("d", {}), f"{path}.d")
    }
    d = GradedMap(carrier, carrier, 1, blocks)
    # d . d = 0 is a mathematical axiom, not a schema rule: files carrying
    # a bad differential parse fine and fail validation with a witness.
    return DgModule(carrier, d, check=False)


def parse_category(scalars, name, data, path):
    data = _dict(data, path, ("objects", "hom", "comp", "id"))
    objects = _names(data.get("objects"), f"{path}.objects")
    seen = set()
    for x in objects:
        if x in seen:
            raise StructureError(f"{path}.objects: duplicate object name {x!r}")
        seen.add(x)
    hom = {
        pair: parse_dg_module(scalars, module, at)
        for pair, module, at in _table(
            data.get("hom", {}), f"{path}.hom", objects, objects
        )
    }
    ids = {
        x: tuple(_scalar(scalars, v, at) for v in _list(vec, at, "a list of scalars"))
        for (x,), vec, at in _table(data.get("id", {}), f"{path}.id", objects)
    }
    comp = _table(data.get("comp", {}), f"{path}.comp", objects, objects, objects)
    products = {
        triple: _parse_products(scalars, hom, *triple, entries, at)
        for triple, entries, at in comp
    }
    return DgCategoryPresentation(scalars.field, objects, hom, products, ids, name=name)


def _parse_products(scalars, hom, x, y, z, entries, path):
    """The product table of one triple, checked against the parsed hom
    modules (a pair missing from hom is zero).  Entries at one position
    are summed and a zero sum is left out."""
    field = scalars.field
    g_dims, f_dims, out_dims = (
        hom[pair].carrier.dims() if pair in hom else {} for pair in ((y, z), (x, y), (x, z))
    )
    sums = {}
    for gdeg, gidx, fdeg, fidx, row, value, pos in _entries(
        scalars, entries, path, "[gdeg, gidx, fdeg, fidx, out, coeff]"
    ):
        if not (0 <= gidx < g_dims.get(gdeg, 0) and 0 <= fidx < f_dims.get(fdeg, 0)):
            raise StructureError(f"{path}[{pos}]: no such basis pair")
        if not 0 <= row < out_dims.get(gdeg + fdeg, 0):
            raise StructureError(f"{path}[{pos}]: output index out of range")
        key = ((fdeg, fidx), (gdeg, gidx), row)
        sums[key] = field.add(sums[key], value) if key in sums else value
    table = {}
    for (f, g, row), value in sorted(sums.items()):
        if not field.is_zero(value):
            per_g = table.setdefault(f, {})
            per_g[g] = per_g.get(g, ()) + ((row, value),)
    return table


def _parse_action_images(scalars, hom, source, target, entries, path):
    """The images source -> target an action table gives, keyed by the
    basis morphism (hdeg, hidx) of the hom carrier they act for."""
    hom_dims, src_dims, tgt_dims = hom.dims(), source.dims(), target.dims()
    per_basis = {}
    for hdeg, hidx, srcdeg, row, col, value, pos in _entries(
        scalars, entries, path, "[hdeg, hidx, srcdeg, row, col, coeff]"
    ):
        if not 0 <= hidx < hom_dims.get(hdeg, 0):
            raise StructureError(f"{path}[{pos}]: morphism index out of range")
        if not (
            0 <= col < src_dims.get(srcdeg, 0)
            and 0 <= row < tgt_dims.get(srcdeg + hdeg, 0)
        ):
            raise StructureError(f"{path}[{pos}]: block entry out of range")
        per_basis.setdefault((hdeg, hidx), []).append((srcdeg, row, col, value))
    return {
        (hdeg, hidx): GradedMap.from_entries(source, target, hdeg, parsed)
        for (hdeg, hidx), parsed in per_basis.items()
    }


def parse_bimodule(scalars, name, data, workspace, path):
    data = _dict(
        data, path, ("left", "right", "values", "left_action", "right_action")
    )
    left_base, right_base = (
        _ref(data.get(key), workspace.categories, f"{path}.{key}", "category")
        for key in ("left", "right")
    )
    U, T = left_base.objects, right_base.objects
    values = {(u, t): zero_dg_module(scalars.field) for u in U for t in T}
    for pair, module, at in _table(data.get("values", {}), f"{path}.values", U, T):
        values[pair] = parse_dg_module(scalars, module, at)
    left = {
        (u, u2, t): _parse_action_images(
            scalars,
            left_base.hom[(u, u2)].carrier,
            values[(u, t)].carrier,
            values[(u2, t)].carrier,
            entries,
            at,
        )
        for (u, u2, t), entries, at in _table(
            data.get("left_action", {}), f"{path}.left_action", U, U, T
        )
    }
    right = {
        (t, t2, u): _parse_action_images(
            scalars,
            right_base.hom[(t, t2)].carrier,
            values[(u, t2)].carrier,
            values[(u, t)].carrier,
            entries,
            at,
        )
        for (t, t2, u), entries, at in _table(
            data.get("right_action", {}), f"{path}.right_action", T, T, U
        )
    }
    return Bimodule(left_base, right_base, values, left, right, name=name)


def parse_module(scalars, name, data, workspace, path):
    data = _dict(data, path, ("base", "on_objects", "on_hom"))
    base_ref = data.get("base")
    if isinstance(base_ref, dict) and set(base_ref) == {"lambda"}:
        at = f"{path}.base.lambda"
        ref = _dict(base_ref["lambda"], at, ("t", "u", "bimodule"))
        base = workspace.lambda_for(*_lambda_refs(ref, workspace, at)).presentation
    else:
        base = _ref(base_ref, workspace.categories, f"{path}.base", "category")
    on_objects = {obj: zero_dg_module(scalars.field) for obj in base.objects}
    for (obj,), module, at in _table(
        data.get("on_objects", {}), f"{path}.on_objects", base.objects
    ):
        on_objects[obj] = parse_dg_module(scalars, module, at)
    images = {
        (x, y): _parse_action_images(
            scalars,
            base.hom[(x, y)].carrier,
            on_objects[x].carrier,
            on_objects[y].carrier,
            entries,
            at,
        )
        for (x, y), entries, at in _table(
            data.get("on_hom", {}), f"{path}.on_hom", base.objects, base.objects
        )
    }
    return DgFunctor(base, on_objects, images, name=name), base_ref


def parse_comma_object(scalars, name, data, workspace, path):
    data = _dict(data, path, ("bimodule", "module_t", "module_u", "f"))
    refs = {}
    for key in ("bimodule", "module_t", "module_u"):
        if key not in data:
            raise StructureError(f"{path}: missing {key!r}")
        refs[key] = data[key]
    bim = _ref(refs["bimodule"], workspace.bimodules, f"{path}.bimodule", "bimodule")
    A, B = (
        _ref(refs[key], workspace.modules, f"{path}.{key}", "module")
        for key in ("module_t", "module_u")
    )
    for key, module, base in (
        ("module_t", A, bim.right_base),
        ("module_u", B, bim.left_base),
    ):
        if module.base.objects != base.objects:
            raise StructureError(f"{path}.{key}: module is over the wrong category")
    gb = g_on_objects(bim, B)
    f = {}
    try:
        for (t,), per_degree, at in _table(
            data.get("f", {}), f"{path}.f", bim.right_base.objects
        ):
            src = A.on_objects[t].carrier
            tgt = gb.on_objects[t].carrier
            blocks = {
                k: parse_matrix(scalars, rows, at_k, (tgt.dim(k), src.dim(k)))
                for k, rows, at_k in _degrees(per_degree, at)
            }
            f[t] = GradedMap(src, tgt, 0, blocks)
    except StructureError:
        # an invalid B or M can build a G(B) of other dimensions than f's
        refuse_invalid_g_inputs(bim, B)
        raise
    return CommaObject(bim, A, B, f, name=name), refs


def parse_fixture(name, data, workspace, path):
    """The fixture's names.  Each comma object must be over the fixture's
    bimodule, and each Lambda-module over the fixture's Lambda: its base
    is {"lambda": the fixture's t, u and bimodule}."""
    data = _dict(data, path, _FIXTURE_KEYS)
    out = {"name": name}
    out["t"], out["u"], out["bimodule"] = _lambda_refs(data, workspace, path)
    for key, table, kind in (
        ("comma_objects", workspace.comma_objects, "object"),
        ("lambda_modules", workspace.modules, "module"),
    ):
        out[key] = _names(data.get(key, []), f"{path}.{key}")
        for ref in out[key]:
            _ref(ref, table, f"{path}.{key}", kind)
    for ref in out["comma_objects"]:
        if workspace.comma_refs[ref]["bimodule"] != out["bimodule"]:
            raise StructureError(
                f"{path}.comma_objects: object {ref!r} is not over the fixture's bimodule"
            )
    lam_base = {"lambda": {key: out[key] for key in ("t", "u", "bimodule")}}
    for ref in out["lambda_modules"]:
        if workspace.module_bases[ref] != lam_base:
            raise StructureError(
                f"{path}.lambda_modules: module {ref!r} is not over the "
                "fixture's lambda category"
            )
    return out


def parse_document(document):
    sections = ("categories", "bimodules", "modules", "comma_objects", "fixtures")
    document = _dict(document, "$", ("field",) + sections)
    if "field" not in document:
        raise StructureError("$.field: missing field declaration")
    try:
        field = field_from_descriptor(document["field"])
    except StructureError as exc:
        raise StructureError(f"$.field: {exc}") from None
    workspace = Workspace(field)
    scalars = _Scalars(field)

    def section(key):
        return _table(document.get(key, {}), f"$.{key}", None)

    for (name,), data, at in section("categories"):
        workspace.categories[name] = parse_category(scalars, name, data, at)
    for (name,), data, at in section("bimodules"):
        workspace.bimodules[name] = parse_bimodule(scalars, name, data, workspace, at)
    for (name,), data, at in section("modules"):
        fun, base_ref = parse_module(scalars, name, data, workspace, at)
        workspace.modules[name] = fun
        workspace.module_bases[name] = base_ref
    for (name,), data, at in section("comma_objects"):
        obj, refs = parse_comma_object(scalars, name, data, workspace, at)
        workspace.comma_objects[name] = obj
        workspace.comma_refs[name] = refs
    for (name,), data, at in section("fixtures"):
        workspace.fixtures[name] = parse_fixture(name, data, workspace, at)
    return workspace


def parse_text(text):
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise StructureError("invalid JSON: the input nests too deeply to parse") from None
    return parse_document(document)


def emit_workspace(workspace):
    """Canonical document for a whole workspace."""
    ws = workspace
    sections = {
        "categories": {n: emit_category(c) for n, c in ws.categories.items()},
        "bimodules": {n: emit_bimodule(b) for n, b in ws.bimodules.items()},
        "modules": {
            n: emit_module(fun, ws.module_bases.get(n, fun.base.name))
            for n, fun in ws.modules.items()
        },
        "comma_objects": {
            n: emit_comma_object(obj, ws.comma_refs[n])
            for n, obj in ws.comma_objects.items()
        },
        "fixtures": {
            n: {key: fx[key] for key in _FIXTURE_KEYS} for n, fx in ws.fixtures.items()
        },
    }
    document = {"field": ws.field.descriptor()}
    for key, section in sections.items():
        _put(document, key, section)
    return document
