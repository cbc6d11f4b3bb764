"""The three shipped example fixtures.

kkk: both categories are the one-object category K and the bimodule is K
with identity actions; the triangular category is the lower triangular
2x2 matrix algebra.  exterior: the upper-left category is the exterior
algebra on one degree-1 generator acting trivially on a one-dimensional
bimodule.  contractible: both categories are K but the bimodule is the
two-term contractible complex, so every Leibniz identity is exercised
with a nonzero differential.
"""

from __future__ import annotations

from .bimodule import Bimodule, g_on_objects
from .comma import CommaObject
from .complexes import dg_module
from .fields import Rationals
from .fixtures import exterior_category, trivial_category
from .functors import representable_module
from .graded import GradedMap, identity_map
from .io_json import Workspace, emit_workspace, render_document
from .lambda_cat import build_lambda


def _one_object_bimodule(u_cat, t_cat, value_module, name="M"):
    """Bimodule over one-object categories with identity-generator actions.

    Higher-degree generators of the hom algebras act by zero, which is
    forced whenever the value module is concentrated where their degree
    shift has no room.
    """
    u = u_cat.objects[0]
    t = t_cat.objects[0]
    # the identity generator is the degree-0 basis morphism of both homs
    identity = {(0, 0): identity_map(value_module.carrier)}
    return Bimodule(
        u_cat,
        t_cat,
        {(u, t): value_module},
        {(u, u, t): identity},
        {(t, t, u): identity},
        name=name,
    )


def _canonical_structure_map(bim, A, B):
    """f with the degree-0 block [[1]] wherever both sides are 1-dim."""
    field = bim.field
    gb = g_on_objects(bim, B)
    f = {}
    for t in bim.right_base.objects:
        src = A.on_objects[t].carrier
        tgt = gb.functor.on_objects[t].carrier
        blocks = {}
        if src.dim(0) == 1 and tgt.dim(0) == 1:
            blocks[0] = [[field.one()]]
        f[t] = GradedMap(src, tgt, 0, blocks)
    return f


def _assemble(name, t_cat, u_cat, bim):
    field = t_cat.field
    workspace = Workspace(field)
    workspace.categories["T"] = t_cat
    workspace.categories["U"] = u_cat
    workspace.bimodules["M"] = bim
    A = representable_module(t_cat, t_cat.objects[0], name="A")
    B = representable_module(u_cat, u_cat.objects[0], name="B")
    lam = build_lambda(t_cat, u_cat, bim, validate=False)
    pair = lam.object_name(t_cat.objects[0], u_cat.objects[0])
    C = representable_module(lam.presentation, pair, name="C")
    workspace.modules["A"] = A
    workspace.modules["B"] = B
    workspace.modules["C"] = C
    workspace.module_bases["A"] = "T"
    workspace.module_bases["B"] = "U"
    workspace.module_bases["C"] = {
        "lambda": {"t": "T", "u": "U", "bimodule": "M"}
    }
    f = _canonical_structure_map(bim, A, B)
    workspace.comma_objects["o_can"] = CommaObject(bim, A, B, f, name="o_can")
    workspace.comma_objects["o_zero"] = CommaObject(bim, A, B, {}, name="o_zero")
    refs = {"bimodule": "M", "module_t": "A", "module_u": "B"}
    workspace.comma_refs["o_can"] = dict(refs)
    workspace.comma_refs["o_zero"] = dict(refs)
    workspace.fixtures["main"] = {
        "name": "main",
        "t": "T",
        "u": "U",
        "bimodule": "M",
        "comma_objects": ["o_can", "o_zero"],
        "lambda_modules": ["C"],
    }
    return workspace


def kkk_workspace(field=None):
    field = field or Rationals()
    t_cat = trivial_category(field, name="T", obj="t")
    u_cat = trivial_category(field, name="U", obj="u")
    value = dg_module(field, {0: 1}, {})
    bim = _one_object_bimodule(u_cat, t_cat, value)
    return _assemble("kkk", t_cat, u_cat, bim)


def exterior_workspace(field=None):
    field = field or Rationals()
    t_cat = exterior_category(field, name="T", obj="t")
    u_cat = trivial_category(field, name="U", obj="u")
    value = dg_module(field, {0: 1}, {})
    bim = _one_object_bimodule(u_cat, t_cat, value)
    return _assemble("exterior", t_cat, u_cat, bim)


def contractible_workspace(field=None):
    field = field or Rationals()
    t_cat = trivial_category(field, name="T", obj="t")
    u_cat = trivial_category(field, name="U", obj="u")
    value = dg_module(field, {0: 1, 1: 1}, {0: [[field.one()]]})
    bim = _one_object_bimodule(u_cat, t_cat, value)
    return _assemble("contractible", t_cat, u_cat, bim)


SHIPPED_BUILDERS = {
    "kkk": kkk_workspace,
    "exterior": exterior_workspace,
    "contractible": contractible_workspace,
}


def shipped_documents():
    """name -> canonical file text for the three shipped fixtures."""
    return {
        name: render_document(emit_workspace(builder()))
        for name, builder in SHIPPED_BUILDERS.items()
    }
