"""Per-layer metrics of one traced pass, named after dgcat's modules.

``calls`` counts the spans of a function and ``self_s`` sums their self
time (the span minus the spans of the traced functions it called).  A
metric over several functions sums them: ``io_json.parse`` covers every
``io_json.parse_*`` function.
"""

from __future__ import annotations

# metric prefix -> span names (a trailing "*" matches any suffix)
SPANS = {
    "linalg.solve_linear": ("linalg.solve_linear",),
    "linalg.rref": ("linalg.rref",),
    "linalg.solve_in_span": ("linalg.solve_in_span",),
    "linalg.rank": ("linalg.rank",),
    "linalg.mat_mul": ("linalg.mat_mul",),
    "functors.dgnat_space": ("functors.dgnat_space",),
    "functors.naturality_rows": ("functors.naturality_rows",),
    "functors.map_of": ("functors.DgFunctor.map_of",),
    "functors.map_of_basis": ("functors.DgFunctor.map_of_basis",),
    "functors.validate": ("functors.validate_dg_functor",),
    "comma.hom_space": ("comma.comma_hom_space",),
    "comma.f_on_morphisms": ("comma.f_on_morphisms",),
    "comma.phi_iso": ("comma.phi_iso",),
    "comma.validate": ("comma.validate_comma_object",),
    "comma.dot": ("comma.CommaObject.dot",),
    "comma.check_equivalence": ("comma.check_equivalence",),
    "bimodule.validate": ("bimodule.validate_bimodule",),
    "bimodule.g_on_objects": ("bimodule.g_on_objects",),
    "bimodule.gmodule_encode": ("bimodule.GModule.encode",),
    "bimodule.gmodule_decode": ("bimodule.GModule.decode",),
    "category.validate": ("category.validate_dg_category",),
    "category.compose_basis": ("category.DgCategoryPresentation.compose_basis",),
    "category.opposite": ("category.opposite_category",),
    "category.tensor": ("category.tensor_category",),
    "lambda_cat.build": ("lambda_cat.build_lambda",),
    "lambda_cat.leibniz": ("lambda_cat.lambda_leibniz_check",),
    "lambda_cat.restrict": ("lambda_cat.restrict_module",),
    "complexes.encode": ("complexes.HomComplex.encode",),
    "complexes.decode": ("complexes.HomComplex.decode",),
    "graded.map_init": ("graded.GradedMap.__init__",),
    "graded.compose": ("graded.GradedMap.compose",),
    "graded.map_from_action": ("graded.map_from_action",),
    "io_json.parse": ("io_json.parse_*",),
    "io_json.emit": ("io_json.emit_*", "io_json.render_document"),
    "report.render": ("report.Report.render",),
    "cli.main": ("cli.main",),
}

CALLS = (
    "linalg.solve_linear", "linalg.rref", "linalg.solve_in_span", "linalg.rank",
    "linalg.mat_mul", "functors.dgnat_space", "functors.map_of",
    "functors.map_of_basis", "comma.hom_space", "comma.f_on_morphisms",
    "comma.dot", "bimodule.gmodule_encode", "bimodule.gmodule_decode",
    "category.validate", "category.compose_basis", "lambda_cat.build",
    "complexes.encode", "complexes.decode", "graded.map_init", "graded.compose",
    "graded.map_from_action", "cli.main",
)

SELF = (
    "linalg.solve_linear", "linalg.rref", "linalg.solve_in_span", "linalg.mat_mul",
    "functors.dgnat_space", "functors.naturality_rows", "functors.validate",
    "comma.hom_space", "comma.f_on_morphisms", "comma.phi_iso", "comma.validate",
    "comma.check_equivalence", "bimodule.validate", "bimodule.g_on_objects",
    "bimodule.gmodule_encode", "bimodule.gmodule_decode", "category.validate",
    "category.opposite", "category.tensor", "lambda_cat.build",
    "lambda_cat.leibniz", "lambda_cat.restrict", "complexes.encode",
    "complexes.decode", "graded.map_from_action", "io_json.parse",
    "io_json.emit", "report.render",
)


def _sum(totals, patterns, column):
    out = 0
    for name, entry in totals.items():
        if any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in patterns):
            out += entry[column]
    return out


def metrics(pass_totals, setup_totals, solves, io_bytes, field_ops, overhead):
    """name -> (value, unit) for every per-layer metric in BENCHMARK.json."""
    out = {}
    for prefix in CALLS:
        out[f"{prefix}.calls"] = (_sum(pass_totals, SPANS[prefix], 0), "count")
    for prefix in SELF:
        out[f"{prefix}.self_s"] = (_sum(pass_totals, SPANS[prefix], 1), "s")

    def total(key):
        return sum(s[key] for s in solves)

    rows_in = total("rows_in")
    for key in ("unknowns", "rows_in", "rows_kept", "nonzeros", "nullity"):
        out[f"linalg.solve_linear.{key}"] = (total(key), "count")
    out["linalg.solve_linear.dedup_ratio"] = (
        total("rows_kept") / rows_in if rows_in else 1.0, "ratio")
    out["linalg.solve_linear.max_unknowns"] = (
        max((s["unknowns"] for s in solves), default=0), "count")
    out["linalg.solve_linear.max_rows"] = (
        max((s["rows_in"] for s in solves), default=0), "count")
    out["fields.ops"] = (sum(field_ops.values()), "count")
    out["fields.inv.calls"] = (field_ops["inv"], "count")
    out["io_json.parse.bytes"] = (io_bytes["parse"], "bytes")
    out["io_json.emit.bytes"] = (io_bytes["emit"], "bytes")
    out["fixtures.generate.self_s"] = (_sum(setup_totals, ("fixtures.*",), 1), "s")
    out["trace.overhead"] = (overhead, "ratio")
    return dict(sorted(out.items()))
