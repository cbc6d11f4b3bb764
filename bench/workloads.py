"""The three workloads: their documents, operations and known answers.

Each workload draws its instances from a fixed pool.  The pool is a list
of pairs of instances whose operations took about the same time on the
reference machine (see NOTES.md); the seed picks one instance of each
pair, so every seed gets different documents but about the same amount
of work, and the figures of different seeds can be compared.  Because
the pool is finite, the expected digest of every operation any seed can
draw is committed in ``expected.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import documents
from dgcat import io_json

# ---------------------------------------------------------------------------
# pools: instance ids are "shipped/<name>", "thm/<field>/<objects>/<seed>"
# and "axiom/<field>/<seed>"

SHIPPED = ("shipped/kkk", "shipped/exterior", "shipped/contractible")


def _pairs(template, *pairs):
    return tuple((template.format(a), template.format(b)) for a, b in pairs)


# Seconds per instance below are pair means of the median over passes of
# all its operations, at the reference speed (NOTES.md).

# check-equivalence, 0.037 to 1.9 s; F5/2 instances have two objects in T
# or U.  The median operation and the 75th-percentile one each sit
# between pairs of about the same cost, so those order statistics do not
# jump between seeds.
EQUIVALENCE_PAIRS = _pairs(
    "thm/{}",
    ("F5/1/53", "F5/1/15"), ("F5/1/7", "F5/1/36"), ("Q/1/7", "Q/1/32"),
    ("Q/1/36", "F5/1/52"), ("F5/1/27", "F5/1/47"), ("F5/1/35", "F5/1/29"),
    ("Q/1/35", "Q/1/29"), ("F5/1/4", "F5/1/51"), ("F5/1/12", "F5/2/23"),
    ("Q/1/4", "Q/1/16"), ("F5/1/59", "Q/1/12"), ("F5/2/12", "F5/2/4"),
)

# validate, 0.012 to 0.65 s for the document and all its mutations.  Each
# pair is given one mutation, in turn by cost, so that every seed has the
# same number of each kind and the median operation does not move from
# one kind to another between seeds; the zero bimodule of Q/0 and F5/7
# has no left action to double.
VALIDATE_PAIRS = tuple(
    tuple(f"axiom/{inst}:{kind}" for inst in pair)
    for pair, kind in zip(
        (
            ("F5/53", "F5/15"), ("F5/46", "F5/79"), ("F5/29", "F5/67"),
            ("F5/47", "F5/52"), ("F5/30", "F5/8"), ("F5/62", "F5/23"),
            ("Q/8", "Q/23"), ("F5/59", "F5/50"), ("F5/12", "F5/22"),
            ("F5/60", "F5/4"), ("F5/36", "F5/40"), ("Q/12", "F5/55"),
            ("F5/24", "F5/54"), ("F5/31", "F5/65"), ("F5/2", "F5/58"),
            ("Q/22", "F5/18"), ("F5/69", "F5/75"), ("F5/5", "F5/17"),
            ("Q/4", "F5/27"), ("F5/48", "F5/13"), ("F5/1", "F5/33"),
            ("F5/19", "F5/39"), ("F5/9", "F5/72"), ("F5/68", "F5/20"),
            ("Q/0", "F5/7"), ("Q/2", "F5/16"), ("F5/3", "F5/71"),
            ("F5/66", "Q/18"), ("Q/5", "F5/57"), ("F5/73", "F5/34"),
            ("F5/11", "F5/61"), ("Q/17", "F5/38"), ("Q/1", "Q/20"),
            ("Q/19", "Q/13"), ("Q/16", "Q/9"), ("Q/11", "Q/3"),
            ("Q/10", "F5/45"),
        ),
        ("scaled_identity", "scaled_module_action", "scaled_left_action") * 13,
    )
)

# oppose, tensor and lambda, 0.057 to 1.2 s
TRANSFORM_PAIRS = _pairs(
    "axiom/{}",
    ("F5/79", "F5/74"), ("F5/29", "F5/46"), ("F5/67", "F5/41"), ("F5/62", "F5/23"),
    ("F5/22", "Q/8"), ("Q/23", "F5/52"), ("F5/55", "Q/21"), ("F5/58", "F5/12"),
    ("F5/54", "F5/51"), ("F5/2", "F5/4"), ("Q/2", "Q/18"), ("F5/68", "F5/39"),
)


@dataclass
class Op:
    """One CLI invocation and the answer it must give."""

    id: str
    argv: tuple
    text: str
    exit: int
    failing: frozenset | None = None
    check: Callable[[str], str | None] | None = None
    known_defect: bool = False


def document(instance):
    kind, *rest = instance.split("/")
    if kind == "shipped":
        return documents.shipped_document(rest[0])
    if kind == "thm":
        return documents.theorem_document(rest[0], int(rest[1]), int(rest[2]))
    return documents.axiom_document(rest[0], int(rest[1]))


# ---------------------------------------------------------------------------
# checks of transform outputs, from the input document alone


def _dims(category, x, y):
    module = category.get("hom", {}).get(x, {}).get(y, {})
    return {int(k): v for k, v in module.get("dims", {}).items() if v}


def _add_dims(*parts):
    out = {}
    for part in parts:
        for degree, dim in part.items():
            out[degree] = out.get(degree, 0) + dim
    return out


def _tensor_dims(a, b):
    out = {}
    for i, da in a.items():
        for j, db in b.items():
            out[i + j] = out.get(i + j, 0) + da * db
    return out


def _single_category(text, name):
    """The one category of an emitted document, which must be canonical."""
    again = io_json.render_document(io_json.emit_workspace(io_json.parse_text(text)))
    if again != text:
        raise ValueError("parsing and re-emitting the output changed it")
    categories = json.loads(text)["categories"]
    if list(categories) != [name]:
        raise ValueError(f"expected one category {name!r}, got {sorted(categories)}")
    return categories[name]


def opposite_check(doc, name):
    """Same objects and identities, hom(x, y) of the output is hom(y, x)."""
    cat = doc["categories"][name]

    def check(text):
        out = _single_category(text, f"{name}.op")
        if out["objects"] != cat["objects"] or out.get("id") != cat.get("id"):
            return "objects or identities differ from the input"
        for x in cat["objects"]:
            for y in cat["objects"]:
                if _dims(out, x, y) != _dims(cat, y, x):
                    return f"hom({x},{y}) does not have the dims of hom({y},{x})"
        return None

    return check


def tensor_check(doc, left, right):
    """Objects are the pairs, and hom dims are the degreewise convolution."""
    a, b = doc["categories"][left], doc["categories"][right]
    pairs = [(x, y) for x in a["objects"] for y in b["objects"]]

    def check(text):
        out = _single_category(text, f"{left}.tensor.{right}")
        if out["objects"] != [f"({x},{y})" for x, y in pairs]:
            return "objects are not the pairs of input objects"
        for xa, xb in pairs:
            for ya, yb in pairs:
                want = _tensor_dims(_dims(a, xa, ya), _dims(b, xb, yb))
                if _dims(out, f"({xa},{xb})", f"({ya},{yb})") != want:
                    return f"hom(({xa},{xb}),({ya},{yb})) has the wrong dims"
        return None

    return check


def lambda_check(doc):
    """hom((t,u),(t',u')) = hom_T(t,t') + M(u',t) + hom_U(u,u') degreewise."""
    t_cat, u_cat = doc["categories"]["T"], doc["categories"]["U"]
    values = {"hom": doc["bimodules"]["M"].get("values", {})}  # M(u, t) as hom(u, t)

    def check(text):
        out = _single_category(text, "lambda.T.M.U")
        pairs = [(t, u) for t in t_cat["objects"] for u in u_cat["objects"]]
        missing = {f"{t}|{u}" for t, u in pairs} - set(out["objects"])
        if missing:
            return f"objects {sorted(missing)} missing"
        for t1, u1 in pairs:
            for t2, u2 in pairs:
                want = _add_dims(
                    _dims(t_cat, t1, t2), _dims(values, u2, t1), _dims(u_cat, u1, u2)
                )
                if _dims(out, f"{t1}|{u1}", f"{t2}|{u2}") != want:
                    return f"hom({t1}|{u1},{t2}|{u2}) has the wrong dims"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads: the operations on one instance; ``choose(options)`` returns
# the options to use, one drawn by the seed or, when recording digests, all


def equivalence_ops(inst, choose):
    """check-equivalence; every instance satisfies the theorem."""
    return [Op(f"{inst}:check-equivalence", ("check-equivalence",), document(inst),
               0, frozenset())]


def validate_ops(inst, choose):
    """validate on the document, and on the mutation named after the colon."""
    inst, kind = inst.split(":")
    text = document(inst)
    mutated, failing = documents.MUTATIONS[kind](text)
    return [
        Op(f"{inst}:validate", ("validate",), text, 0, frozenset()),
        Op(f"{inst}:{kind}:validate", ("validate",), mutated, 1, frozenset(failing)),
    ]


def transform_ops(inst, choose):
    """oppose, tensor and lambda, and a malformed variant that must exit 2;
    the shipped kkk document gets every malformed variant and the known
    defects."""
    text = document(inst)
    doc = json.loads(text)
    ops = []
    for argv, check in (
        (("oppose", "--category", "T"), opposite_check(doc, "T")),
        (("oppose", "--category", "U"), opposite_check(doc, "U")),
        (("tensor", "--left", "T", "--right", "U"), tensor_check(doc, "T", "U")),
        (("lambda", "--t", "T", "--u", "U", "--bimodule", "M"), lambda_check(doc)),
    ):
        ops.append(Op(f"{inst}:{'-'.join(argv[::2])}", argv, text, 0, check=check))
    kinds = sorted(documents.MALFORMED)
    edits = [(k, documents.MALFORMED[k], False)
             for k in (kinds if inst == "shipped/kkk" else choose(kinds))]
    if inst == "shipped/kkk":
        edits += [(k, edit, True) for k, edit in sorted(documents.KNOWN_DEFECTS.items())]
    for kind, edit, defect in edits:
        ops.append(Op(f"{inst}:{kind}:oppose", ("oppose", "--category", "T"),
                      documents.malformed(text, edit), 2, known_defect=defect))
    return ops


# name -> (instances in every draw, pairs to draw from, operations per instance)
WORKLOADS = {
    "equivalence": (SHIPPED, EQUIVALENCE_PAIRS, equivalence_ops),
    "validate": ((), VALIDATE_PAIRS, validate_ops),
    "transform": (SHIPPED, TRANSFORM_PAIRS, transform_ops),
}


def build(workload, seed):
    """The operations of one pass, generated from the seed."""
    fixed, pairs, ops_of = WORKLOADS[workload]
    rng = random.Random(seed)
    instances = list(fixed) + [rng.choice(pair) for pair in pairs]
    return [op for inst in instances for op in ops_of(inst, lambda o: [rng.choice(o)])]


def every_op(workload):
    """Every operation that some seed can draw."""
    fixed, pairs, ops_of = WORKLOADS[workload]
    instances = list(fixed) + [inst for pair in pairs for inst in pair]
    return [op for inst in instances for op in ops_of(inst, list)]
