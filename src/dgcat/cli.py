"""Command line interface: validate, oppose, tensor, lambda, check-equivalence.

Every command reads one presentation file and writes either a canonical
presentation file or a JSON report to --output (default stdout).  Output
bytes are deterministic for identical inputs and seeds; timing goes to
stderr only.  Exit codes: 0 all checks passed, 1 a mathematical check
failed, 2 structural or parse failure, or an input that cannot be read or
an output that cannot be written (one stderr line names which).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .category import opposite_category, tensor_category, validate_dg_category
from .bimodule import validate_bimodule
from .comma import check_equivalence, validate_comma_object
from .errors import StructureError, ValidationFailure
from .functors import validate_dg_functor
from .io_json import (
    emit_category,
    parse_text,
    render_document,
)
from .lambda_cat import refuse_invalid_inputs, validate_lambda
from .report import Report

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_STRUCTURE = 2


def _read_input(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureError(f"cannot read input: {exc}") from None


def _write_output(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise StructureError(f"cannot write output: {exc}") from None


def _char_two_note(field):
    if field.characteristic == 2:
        return (
            "characteristic 2: sign identities collapse and are vacuous "
            "over this field"
        )
    return None


def cmd_validate(args):
    workspace = parse_text(_read_input(args.input))
    report = Report("validate", seed=args.seed)
    note = _char_two_note(workspace.field)
    if note:
        report.add("field_characteristic", True, note=note)
    for name, cat in sorted(workspace.categories.items()):
        report.extend(validate_dg_category(cat), prefix=f"category[{name}].")
    for name, bim in sorted(workspace.bimodules.items()):
        report.extend(validate_bimodule(bim), prefix=f"bimodule[{name}].")
    for name, fun in sorted(workspace.modules.items()):
        report.extend(validate_dg_functor(fun), prefix=f"module[{name}].")
    for name, obj in sorted(workspace.comma_objects.items()):
        report.extend(validate_comma_object(obj), prefix=f"comma[{name}].")
    _write_output(args.output, report.render())
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


def _named(table, name, kind):
    """The entry of table called name; any other name is a structural error."""
    if name not in table:
        raise StructureError(f"unknown {kind} {name!r}")
    return table[name]


def _write_category(args, workspace, name, cat):
    """Write a document holding the one category cat, called name."""
    document = {
        "field": workspace.field.descriptor(),
        "categories": {name: emit_category(cat)},
    }
    _write_output(args.output, render_document(document))
    return EXIT_OK


def cmd_oppose(args):
    workspace = parse_text(_read_input(args.input))
    cat = _named(workspace.categories, args.category, "category")
    name = args.name or f"{args.category}.op"
    return _write_category(args, workspace, name, opposite_category(cat))


def cmd_tensor(args):
    workspace = parse_text(_read_input(args.input))
    left, right = (
        _named(workspace.categories, key, "category") for key in (args.left, args.right)
    )
    name = args.name or f"{args.left}.tensor.{args.right}"
    return _write_category(args, workspace, name, tensor_category(left, right))


def cmd_lambda(args):
    workspace = parse_text(_read_input(args.input))
    t, u = (_named(workspace.categories, key, "category") for key in (args.t, args.u))
    bimodule = _named(workspace.bimodules, args.bimodule, "bimodule")
    refuse_invalid_inputs(t, u, bimodule)
    lam = workspace.lambda_for(args.t, args.u, args.bimodule)
    validate_lambda(lam.presentation)
    name = args.name or f"lambda.{args.t}.{args.bimodule}.{args.u}"
    return _write_category(args, workspace, name, lam.presentation)


def cmd_check_equivalence(args):
    workspace = parse_text(_read_input(args.input))
    if not workspace.fixtures:
        raise StructureError("no fixtures section in the input file")
    if args.fixture is None:
        if len(workspace.fixtures) > 1:
            raise StructureError(
                "several fixtures declared; pick one with --fixture"
            )
        fixture = next(iter(workspace.fixtures.values()))
    else:
        fixture = _named(workspace.fixtures, args.fixture, "fixture")

    report = Report(f"check-equivalence[{fixture['name']}]", seed=args.seed)
    note = _char_two_note(workspace.field)
    if note:
        report.add("field_characteristic", True, note=note)

    upstream_ok = True
    for name in (fixture["t"], fixture["u"]):
        sub = validate_dg_category(workspace.categories[name])
        report.extend(sub, prefix=f"category[{name}].")
        upstream_ok = upstream_ok and sub.passed
    sub = validate_bimodule(workspace.bimodules[fixture["bimodule"]])
    report.extend(sub, prefix=f"bimodule[{fixture['bimodule']}].")
    upstream_ok = upstream_ok and sub.passed
    for ref in fixture["comma_objects"]:
        sub = validate_comma_object(workspace.comma_objects[ref])
        report.extend(sub, prefix=f"comma[{ref}].")
        upstream_ok = upstream_ok and sub.passed
    for ref in fixture["lambda_modules"]:
        sub = validate_dg_functor(workspace.modules[ref])
        report.extend(sub, prefix=f"module[{ref}].")
        upstream_ok = upstream_ok and sub.passed
    if not upstream_ok:
        report.add(
            "equivalence_verified",
            False,
            note="equivalence not attempted: upstream validation failed",
        )
        _write_output(args.output, report.render())
        return EXIT_MATH_FAIL

    # The comma objects' modules are inputs of the theorem too; an invalid
    # one stops the run with its own report, as an inconsistent Lambda does.
    refs = [workspace.comma_refs[ref] for ref in fixture["comma_objects"]]
    for name in sorted({r[key] for r in refs for key in ("module_t", "module_u")}):
        sub = validate_dg_functor(workspace.modules[name])
        if not sub.passed:
            raise ValidationFailure(f"comma object module {name!r} is invalid", sub)

    lam = workspace.lambda_for(fixture["t"], fixture["u"], fixture["bimodule"])
    report.extend(validate_lambda(lam.presentation), prefix="lambda.")

    comma_objects = [workspace.comma_objects[r] for r in fixture["comma_objects"]]
    lambda_modules = [workspace.modules[r] for r in fixture["lambda_modules"]]
    equivalence = check_equivalence(
        lam, comma_objects, lambda_modules, seed=args.seed
    )
    report.extend(equivalence)
    _write_output(args.output, report.render())
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


@functools.cache
def build_parser():
    """The dgcat argument parser, built once per process: parse_args
    leaves it as it was, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="dgcat",
        description=(
            "Exact validation of dg-category presentations, construction of "
            "triangular matrix dg-categories, and machine verification of "
            "the comma-category equivalence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input file, or - for stdin")
        p.add_argument("--output", default="-", help="output file, or - for stdout")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")

    p = sub.add_parser("validate", help="validate every declared entity")
    seeded(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oppose", help="emit the opposite of a category")
    common(p)
    p.add_argument("--category", required=True)
    p.add_argument("--name", default=None, help="name for the emitted category")
    p.set_defaults(func=cmd_oppose)

    p = sub.add_parser("tensor", help="emit the tensor product of two categories")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("lambda", help="emit the triangular matrix category")
    common(p)
    p.add_argument("--t", required=True, help="the upper-left category")
    p.add_argument("--u", required=True, help="the lower-right category")
    p.add_argument("--bimodule", required=True)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser(
        "check-equivalence", help="run the full equivalence suite on a fixture"
    )
    seeded(p)
    p.add_argument("--fixture", default=None)
    p.set_defaults(func=cmd_check_equivalence)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except StructureError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            sys.stdout.write(exc.report.render())
        return EXIT_MATH_FAIL
    elapsed = time.monotonic() - started
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
