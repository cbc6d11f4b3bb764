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

Emission is canonical: keys sorted, entries sorted, zero data dropped,
two-space indentation.  emit(parse(emit(x))) == emit(x) byte for byte.
"""

from __future__ import annotations

import json
import math

from .bimodule import Bimodule, g_on_objects
from .category import DgCategoryPresentation
from .comma import CommaObject
from .complexes import DgModule, zero_dg_module
from .errors import StructureError
from .fields import field_from_descriptor
from .functors import DgFunctor
from .graded import GradedMap, GradedModule
from .lambda_cat import build_lambda
from .report import fmt_matrix


# ---------------------------------------------------------------------------
# emission


def emit_dg_module(module):
    field = module.field
    out = {"dims": {str(d): module.dim(d) for d in module.carrier.degrees()}}
    d_blocks = {
        str(i): fmt_matrix(field, block) for i, block in module.d.blocks.items()
    }
    if d_blocks:
        out["d"] = d_blocks
    return out


def emit_category(cat):
    field = cat.field
    out = {"objects": list(cat.objects)}
    hom = {}
    for x in cat.objects:
        for y in cat.objects:
            module = cat.hom[(x, y)]
            if module.is_zero():
                continue
            hom.setdefault(x, {})[y] = emit_dg_module(module)
    if hom:
        out["hom"] = hom
    comp = {}
    for x in cat.objects:
        for y in cat.objects:
            for z in cat.objects:
                entries = _comp_entries(cat, x, y, z)
                if entries:
                    comp.setdefault(x, {}).setdefault(y, {})[z] = entries
    if comp:
        out["comp"] = comp
    ids = {}
    for x in cat.objects:
        vec = cat.ids[x]
        if vec:
            ids[x] = [field.format(v) for v in vec]
    if ids:
        out["id"] = ids
    return out


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
    field = bim.field
    out = {"left": bim.left_base.name, "right": bim.right_base.name}
    values = {}
    for u in bim.left_base.objects:
        for t in bim.right_base.objects:
            module = bim.value(u, t)
            if module.is_zero():
                continue
            values.setdefault(u, {})[t] = emit_dg_module(module)
    if values:
        out["values"] = values
    left = {}
    for (u, u2, t), images in sorted(bim.left_images.items()):
        entries = _action_entries(field, images)
        if entries:
            left.setdefault(u, {}).setdefault(u2, {})[t] = entries
    if left:
        out["left_action"] = left
    right = {}
    for (t, t2, u), images in sorted(bim.right_images.items()):
        entries = _action_entries(field, images)
        if entries:
            right.setdefault(t, {}).setdefault(t2, {})[u] = entries
    if right:
        out["right_action"] = right
    return out


def emit_module(fun, base_ref):
    field = fun.base.field
    out = {"base": base_ref}
    on_objects = {}
    for obj in fun.base.objects:
        module = fun.on_objects[obj]
        if module.is_zero():
            continue
        on_objects[obj] = emit_dg_module(module)
    if on_objects:
        out["on_objects"] = on_objects
    on_hom = {}
    for x in fun.base.objects:
        for y in fun.base.objects:
            entries = _action_entries(field, fun.images[(x, y)])
            if entries:
                on_hom.setdefault(x, {})[y] = entries
    if on_hom:
        out["on_hom"] = on_hom
    return out


def emit_comma_object(obj, refs):
    field = obj.field
    out = dict(refs)
    f_blocks = {}
    for t in obj.bimodule.right_base.objects:
        blocks = {
            str(k): fmt_matrix(field, block)
            for k, block in sorted(obj.f[t].blocks.items())
        }
        if blocks:
            f_blocks[t] = blocks
    if f_blocks:
        out["f"] = f_blocks
    return out


def render_document(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


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
                self.categories[t_name],
                self.categories[u_name],
                self.bimodules[m_name],
                validate=False,
            )
        return self._lambdas[key]


def _expect_dict(value, path):
    if not isinstance(value, dict):
        raise StructureError(f"{path}: expected an object")
    return value


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


def _int_entry(entry, path, layout):
    """A sparse entry: five ints, then a scalar string."""
    if (
        not isinstance(entry, list)
        or len(entry) != 6
        or any(type(v) is not int for v in entry[:5])
    ):
        raise StructureError(f"{path}: expected {layout} with integer indices")
    return entry


def _scalar(field, text, path):
    """A scalar string; a fraction must be in lowest terms."""
    if not isinstance(text, str):
        raise StructureError(f"{path}: expected a scalar string, got {text!r}")
    try:
        value = field.parse(text)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from None
    num, _, den = text.partition("/")
    if den and math.gcd(int(num), int(den)) != 1:
        raise StructureError(f"{path}: fraction not in lowest terms: {text!r}")
    return value


def parse_matrix(field, rows, path, shape):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise StructureError(f"{path}: expected a matrix (list of rows)")
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise StructureError(
            f"{path}: matrix has wrong shape, expected {shape[0]}x{shape[1]}"
        )
    return tuple(tuple(_scalar(field, x, path) for x in row) for row in rows)


def parse_dg_module(field, data, path):
    data = _expect_dict(data, path)
    dims = {}
    for key, dim in _expect_dict(data.get("dims", {}), f"{path}.dims").items():
        deg = _degree(key, f"{path}.dims")
        if type(dim) is not int or dim < 0:
            raise StructureError(f"{path}.dims[{key}]: bad dimension {dim!r}")
        dims[deg] = dim
    # Basis labels are checked, then dropped: nothing reads or emits them.
    for key, names in _expect_dict(data.get("labels", {}), f"{path}.labels").items():
        dim = dims.get(_degree(key, f"{path}.labels"))
        names = _names(names, f"{path}.labels[{key}]")
        if dim and len(names) != dim:
            raise StructureError(
                f"{path}.labels[{key}]: {len(names)} labels for dimension {dim}"
            )
    carrier = GradedModule(field, dims)
    blocks = {}
    for key, rows in _expect_dict(data.get("d", {}), f"{path}.d").items():
        i = _degree(key, f"{path}.d")
        blocks[i] = parse_matrix(
            field, rows, f"{path}.d[{key}]", (carrier.dim(i + 1), carrier.dim(i))
        )
    d = GradedMap(carrier, carrier, 1, blocks)
    # d . d = 0 is a mathematical axiom, not a schema rule: files carrying
    # a bad differential parse fine and fail validation with a witness.
    return DgModule(carrier, d, check=False)


def parse_category(field, name, data, path):
    data = _expect_dict(data, path)
    objects = _names(data.get("objects"), f"{path}.objects")
    hom = {}
    hom_data = _expect_dict(data.get("hom", {}), f"{path}.hom")
    for x, per_target in hom_data.items():
        if x not in objects:
            raise StructureError(f"{path}.hom: unknown object {x!r}")
        for y, module_data in _expect_dict(per_target, f"{path}.hom.{x}").items():
            if y not in objects:
                raise StructureError(f"{path}.hom.{x}: unknown object {y!r}")
            hom[(x, y)] = parse_dg_module(field, module_data, f"{path}.hom.{x}.{y}")
    ids = {}
    for x, vec in _expect_dict(data.get("id", {}), f"{path}.id").items():
        if x not in objects:
            raise StructureError(f"{path}.id: unknown object {x!r}")
        if not isinstance(vec, list):
            raise StructureError(f"{path}.id.{x}: expected a list of scalars")
        ids[x] = tuple(_scalar(field, v, f"{path}.id.{x}") for v in vec)
    cat = DgCategoryPresentation(field, objects, hom, {}, ids, name=name)
    tables = {}
    comp_data = _expect_dict(data.get("comp", {}), f"{path}.comp")
    for x, per_y in comp_data.items():
        for y, per_z in _expect_dict(per_y, f"{path}.comp.{x}").items():
            for z, entries in _expect_dict(per_z, f"{path}.comp.{x}.{y}").items():
                if x not in objects or y not in objects or z not in objects:
                    raise StructureError(f"{path}.comp: unknown object in ({x},{y},{z})")
                tables[(x, y, z)] = _parse_products(
                    field, cat, x, y, z, entries, f"{path}.comp.{x}.{y}.{z}"
                )
    cat.set_products(tables)
    return cat


def _parse_products(field, cat, x, y, z, entries, path):
    """The product table of one triple.  Entries at one position are
    summed and a zero sum is left out."""
    if not isinstance(entries, list):
        raise StructureError(f"{path}: expected a list of entries")
    sums = {}
    for pos, entry in enumerate(entries):
        gdeg, gidx, fdeg, fidx, row, coeff = _int_entry(
            entry, f"{path}[{pos}]", "[gdeg, gidx, fdeg, fidx, out, coeff]"
        )
        if not (
            0 <= gidx < cat.hom[(y, z)].dim(gdeg)
            and 0 <= fidx < cat.hom[(x, y)].dim(fdeg)
        ):
            raise StructureError(f"{path}[{pos}]: no such basis pair")
        if not 0 <= row < cat.hom[(x, z)].dim(gdeg + fdeg):
            raise StructureError(f"{path}[{pos}]: output index out of range")
        value = _scalar(field, coeff, f"{path}[{pos}]")
        key = ((fdeg, fidx), (gdeg, gidx), row)
        sums[key] = field.add(sums[key], value) if key in sums else value
    table = {}
    for (f, g, row), value in sorted(sums.items()):
        if not field.is_zero(value):
            per_g = table.setdefault(f, {})
            per_g[g] = per_g.get(g, ()) + ((row, value),)
    return table


def _parse_action_images(field, hom, source, target, entries, path):
    """The images source -> target an action table gives, keyed by the
    basis morphism (hdeg, hidx) of the hom carrier they act for."""
    per_basis = {}
    if not isinstance(entries, list):
        raise StructureError(f"{path}: expected a list of entries")
    for pos, entry in enumerate(entries):
        hdeg, hidx, srcdeg, row, col, coeff = _int_entry(
            entry, f"{path}[{pos}]", "[hdeg, hidx, srcdeg, row, col, coeff]"
        )
        if not 0 <= hidx < hom.dim(hdeg):
            raise StructureError(f"{path}[{pos}]: morphism index out of range")
        src_dim = source.dim(srcdeg)
        tgt_dim = target.dim(srcdeg + hdeg)
        if not (0 <= col < src_dim and 0 <= row < tgt_dim):
            raise StructureError(f"{path}[{pos}]: block entry out of range")
        per_basis.setdefault((hdeg, hidx), []).append(
            (srcdeg, row, col, _scalar(field, coeff, f"{path}[{pos}]"))
        )
    return {
        (hdeg, hidx): GradedMap.from_entries(source, target, hdeg, parsed)
        for (hdeg, hidx), parsed in per_basis.items()
    }


def parse_bimodule(field, name, data, workspace, path):
    data = _expect_dict(data, path)
    left_base, right_base = (
        _ref(data.get(key), workspace.categories, f"{path}.{key}", "category")
        for key in ("left", "right")
    )
    U, T = left_base.objects, right_base.objects
    values = {(u, t): zero_dg_module(field) for u in U for t in T}
    for u, per_t in _expect_dict(data.get("values", {}), f"{path}.values").items():
        if u not in U:
            raise StructureError(f"{path}.values: unknown object {u!r}")
        for t, module_data in _expect_dict(per_t, f"{path}.values.{u}").items():
            if t not in T:
                raise StructureError(f"{path}.values.{u}: unknown object {t!r}")
            values[(u, t)] = parse_dg_module(
                field, module_data, f"{path}.values.{u}.{t}"
            )
    left = {}
    for u, per_u2 in _expect_dict(
        data.get("left_action", {}), f"{path}.left_action"
    ).items():
        for u2, per_t in _expect_dict(per_u2, f"{path}.left_action.{u}").items():
            for t, entries in _expect_dict(
                per_t, f"{path}.left_action.{u}.{u2}"
            ).items():
                if u not in U or u2 not in U or t not in T:
                    raise StructureError(
                        f"{path}.left_action: unknown objects ({u},{u2},{t})"
                    )
                left[(u, u2, t)] = _parse_action_images(
                    field,
                    left_base.hom[(u, u2)].carrier,
                    values[(u, t)].carrier,
                    values[(u2, t)].carrier,
                    entries,
                    f"{path}.left_action.{u}.{u2}.{t}",
                )
    right = {}
    for t, per_t2 in _expect_dict(
        data.get("right_action", {}), f"{path}.right_action"
    ).items():
        for t2, per_u in _expect_dict(per_t2, f"{path}.right_action.{t}").items():
            for u, entries in _expect_dict(
                per_u, f"{path}.right_action.{t}.{t2}"
            ).items():
                if t not in T or t2 not in T or u not in U:
                    raise StructureError(
                        f"{path}.right_action: unknown objects ({t},{t2},{u})"
                    )
                right[(t, t2, u)] = _parse_action_images(
                    field,
                    right_base.hom[(t, t2)].carrier,
                    values[(u, t2)].carrier,
                    values[(u, t)].carrier,
                    entries,
                    f"{path}.right_action.{t}.{t2}.{u}",
                )
    return Bimodule(left_base, right_base, values, left, right, name=name)


def parse_module(field, name, data, workspace, path):
    data = _expect_dict(data, path)
    base_ref = data.get("base")
    if isinstance(base_ref, dict) and set(base_ref) == {"lambda"}:
        ref = _expect_dict(base_ref["lambda"], f"{path}.base.lambda")
        names = _lambda_refs(ref, workspace, f"{path}.base.lambda")
        base = workspace.lambda_for(*names).presentation
    else:
        base = _ref(base_ref, workspace.categories, f"{path}.base", "category")
    on_objects = {obj: zero_dg_module(field) for obj in base.objects}
    for obj, module_data in _expect_dict(
        data.get("on_objects", {}), f"{path}.on_objects"
    ).items():
        if obj not in base.objects:
            raise StructureError(f"{path}.on_objects: unknown object {obj!r}")
        on_objects[obj] = parse_dg_module(
            field, module_data, f"{path}.on_objects.{obj}"
        )
    images = {}
    for x, per_y in _expect_dict(data.get("on_hom", {}), f"{path}.on_hom").items():
        for y, entries in _expect_dict(per_y, f"{path}.on_hom.{x}").items():
            if x not in base.objects or y not in base.objects:
                raise StructureError(f"{path}.on_hom: unknown pair ({x},{y})")
            images[(x, y)] = _parse_action_images(
                field,
                base.hom[(x, y)].carrier,
                on_objects[x].carrier,
                on_objects[y].carrier,
                entries,
                f"{path}.on_hom.{x}.{y}",
            )
    return DgFunctor(base, on_objects, images, name=name), base_ref


def parse_comma_object(field, name, data, workspace, path):
    data = _expect_dict(data, path)
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
    for t, per_degree in _expect_dict(data.get("f", {}), f"{path}.f").items():
        if t not in bim.right_base.objects:
            raise StructureError(f"{path}.f: unknown object {t!r}")
        src = A.on_objects[t].carrier
        tgt = gb.functor.on_objects[t].carrier
        blocks = {}
        for key, rows in _expect_dict(per_degree, f"{path}.f.{t}").items():
            k = _degree(key, f"{path}.f.{t}")
            blocks[k] = parse_matrix(
                field, rows, f"{path}.f.{t}[{key}]", (tgt.dim(k), src.dim(k))
            )
        f[t] = GradedMap(src, tgt, 0, blocks)
    return CommaObject(bim, A, B, f, g_of_b=gb, name=name), refs


def parse_fixture(name, data, workspace, path):
    data = _expect_dict(data, path)
    out = {"name": name}
    out["t"], out["u"], out["bimodule"] = _lambda_refs(data, workspace, path)
    for key, table, kind in (
        ("comma_objects", workspace.comma_objects, "object"),
        ("lambda_modules", workspace.modules, "module"),
    ):
        out[key] = _names(data.get(key, []), f"{path}.{key}")
        for ref in out[key]:
            _ref(ref, table, f"{path}.{key}", kind)
    return out


def parse_document(document):
    document = _expect_dict(document, "$")
    if "field" not in document:
        raise StructureError("$.field: missing field declaration")
    try:
        field = field_from_descriptor(document["field"])
    except StructureError as exc:
        raise StructureError(f"$.field: {exc}") from None
    workspace = Workspace(field)
    for name, data in sorted(
        _expect_dict(document.get("categories", {}), "$.categories").items()
    ):
        workspace.categories[name] = parse_category(
            field, name, data, f"$.categories.{name}"
        )
    for name, data in sorted(
        _expect_dict(document.get("bimodules", {}), "$.bimodules").items()
    ):
        workspace.bimodules[name] = parse_bimodule(
            field, name, data, workspace, f"$.bimodules.{name}"
        )
    for name, data in sorted(
        _expect_dict(document.get("modules", {}), "$.modules").items()
    ):
        fun, base_ref = parse_module(
            field, name, data, workspace, f"$.modules.{name}"
        )
        workspace.modules[name] = fun
        workspace.module_bases[name] = base_ref
    for name, data in sorted(
        _expect_dict(document.get("comma_objects", {}), "$.comma_objects").items()
    ):
        obj, refs = parse_comma_object(
            field, name, data, workspace, f"$.comma_objects.{name}"
        )
        workspace.comma_objects[name] = obj
        workspace.comma_refs[name] = refs
    for name, data in sorted(
        _expect_dict(document.get("fixtures", {}), "$.fixtures").items()
    ):
        workspace.fixtures[name] = parse_fixture(
            name, data, workspace, f"$.fixtures.{name}"
        )
    return workspace


def parse_text(text):
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON: {exc}") from None
    return parse_document(document)


def emit_workspace(workspace):
    """Canonical document for a whole workspace."""
    document = {"field": workspace.field.descriptor()}
    if workspace.categories:
        document["categories"] = {
            name: emit_category(cat)
            for name, cat in sorted(workspace.categories.items())
        }
    if workspace.bimodules:
        document["bimodules"] = {
            name: emit_bimodule(bim)
            for name, bim in sorted(workspace.bimodules.items())
        }
    if workspace.modules:
        document["modules"] = {
            name: emit_module(fun, workspace.module_bases.get(name, fun.base.name))
            for name, fun in sorted(workspace.modules.items())
        }
    if workspace.comma_objects:
        document["comma_objects"] = {
            name: emit_comma_object(obj, workspace.comma_refs[name])
            for name, obj in sorted(workspace.comma_objects.items())
        }
    if workspace.fixtures:
        document["fixtures"] = {
            name: {
                "t": fx["t"],
                "u": fx["u"],
                "bimodule": fx["bimodule"],
                "comma_objects": fx["comma_objects"],
                "lambda_modules": fx["lambda_modules"],
            }
            for name, fx in sorted(workspace.fixtures.items())
        }
    return document
