"""The three shipped examples, read from the files in ``fixtures/``.

kkk: both categories are the one-object category K and the bimodule is K
with identity actions; the triangular category is the lower triangular
2x2 matrix algebra.  exterior: the upper-left category is the exterior
algebra on one degree-1 generator acting trivially on a one-dimensional
bimodule.  contractible: both categories are K but the bimodule is the
two-term contractible complex, so every Leibniz identity is exercised
with a nonzero differential.

The files are the only copy of the examples.  ``fixtures/`` lies at the
root of the source checkout and is not package data, so this module reads
them only from a checkout or an editable install.
"""

from __future__ import annotations

import json
from pathlib import Path

from .io_json import parse_document

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"
NAMES = ("kkk", "exterior", "contractible")


def shipped_text(name):
    """The canonical text of ``fixtures/<name>.json``."""
    return (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")


def shipped_workspace(name, field=None):
    """The parsed example; a given field replaces the file's own."""
    document = json.loads(shipped_text(name))
    if field is not None:
        document["field"] = field.descriptor()
    return parse_document(document)


# The benchmark's document generator reads these three by name.
def kkk_workspace():
    return shipped_workspace("kkk")


def exterior_workspace():
    return shipped_workspace("exterior")


def contractible_workspace():
    return shipped_workspace("contractible")
