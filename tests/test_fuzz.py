"""Single-leaf mutants of the shipped fixtures never escape the CLI.

Every leaf of every shipped fixture (a scalar, or an empty list or
object) is replaced by one small wrong value or deleted, the kind taken
in turn by leaf number.  `validate` and `check-equivalence` then run
in-process on each mutant and must end with exit 0, 1 or 2: a mutant
may still be a valid document, or fail a check, but never raise.  The
same holds when any one key of any object is renamed to "no_such_name".
"""

import contextlib
import copy
import io
import json
import sys

import pytest

from dgcat import cli
from dgcat.shipped import NAMES, shipped_text

DELETE = object()
MUTATIONS = (None, True, -1, 1.5, "x", [], {}, "no_such_name", DELETE)


def leaf_paths(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from leaf_paths(value, path + (index,))
    else:
        yield path


def key_paths(node, path=()):
    """The path of every key of every object in node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from key_paths(value, path + (index,))


def rename(doc, path, name):
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[name] = parent.pop(path[-1])
    return out


def mutate(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def run_cli(command, text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return cli.main([command, "--input", "-"])
    finally:
        sys.stdin = saved


@pytest.mark.parametrize("name", NAMES)
def test_single_leaf_mutants_exit_cleanly(name):
    doc = json.loads(shipped_text(name))
    escaped = []
    paths = list(leaf_paths(doc))
    assert len(paths) > 100
    for number, path in enumerate(paths):
        value = MUTATIONS[number % len(MUTATIONS)]
        text = json.dumps(mutate(doc, path, value))
        for command in ("validate", "check-equivalence"):
            try:
                code = run_cli(command, text)
            except Exception as exc:  # the failure this test looks for
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 1, 2):
                kind = "delete" if value is DELETE else json.dumps(value)
                escaped.append((command, list(path), kind, code))
    assert not escaped, escaped[:5]


@pytest.mark.parametrize("name", NAMES)
def test_renamed_key_mutants_exit_cleanly(name):
    doc = json.loads(shipped_text(name))
    escaped = []
    paths = list(key_paths(doc))
    assert len(paths) > 50
    for path in paths:
        text = json.dumps(rename(doc, path, "no_such_name"))
        for command in ("validate", "check-equivalence"):
            try:
                code = run_cli(command, text)
            except Exception as exc:  # the failure this test looks for
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 1, 2):
                escaped.append((command, list(path), code))
    assert not escaped, escaped[:5]
