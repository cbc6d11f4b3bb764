"""Deterministic PASS/FAIL reports shared by validators and the CLI.

A report is an ordered list of named checks.  Witness payloads are
plain JSON-ready values so reports serialize byte-identically for
identical inputs.  Report.render writes with the document writer of
io_json: the text of the standard library's json dumps with indent 2 and
sorted keys, plus a final newline.  A float raises TypeError; no check
writes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    witness: dict | None = None
    note: str | None = None

    def to_json(self):
        out = {"name": self.name, "status": "PASS" if self.passed else "FAIL"}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    dimensions: dict = field(default_factory=dict)
    seed: int | None = None

    def add(self, name, passed, witness=None, note=None):
        self.checks.append(Check(name, bool(passed), witness, note))
        return self.checks[-1]

    def extend(self, other, prefix=""):
        for check in other.checks:
            name = f"{prefix}{check.name}" if prefix else check.name
            self.checks.append(Check(name, check.passed, check.witness, check.note))
        for key, table in other.dimensions.items():
            self.dimensions[f"{prefix}{key}" if prefix else key] = table

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def check(self, name):
        """The one check called name."""
        (found,) = [c for c in self.checks if c.name == name]
        return found

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json(self):
        out = {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.dimensions:
            out["dimensions"] = {
                k: dict(sorted(v.items())) if isinstance(v, dict) else v
                for k, v in sorted(self.dimensions.items())
            }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def render(self):
        # io_json imports this module, so its writer is imported here
        from .io_json import _json_text

        return _json_text(self.to_json(), "\n") + "\n"


def fmt_matrix(field_obj, mat):
    return [[field_obj.format(x) for x in row] for row in mat]


def fmt_vector(field_obj, vec):
    return [field_obj.format(x) for x in vec]


def fmt_graded_map(gmap):
    f = gmap.field
    return {
        "degree": gmap.degree,
        "blocks": {str(i): fmt_matrix(f, gmap.block(i)) for i in gmap.support()},
    }
