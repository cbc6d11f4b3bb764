"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values (an `int` or a `fractions.Fraction` for
Q, whole numbers kept as `int`; ints in [0, p) for F_p); the field object
supplies the arithmetic.  Nothing in this package ever touches floating
point.

A kernel that only asks whether sums of products are zero may add,
subtract and multiply scalars with the native operators `+`, `-` and `*`
and ask `is_zero` once per sum: Q's add, sub and mul are those
operators, F_p's are those operators followed by reduction mod p, which
commutes with them, and F_p's `is_zero` reads the residue.  Such a sum
is never divided (no `/`), and any value that is reported, such as a
witness's sides, is computed with the field's own operations.  The
contractions of category (_associator, _leibniz_defect) and
graded.first_nonzero_sum sum this way.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import StructureError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")

# Miller-Rabin with these bases is exact for every n < 3.3 * 10**24.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality for 2 <= n < 2**64."""
    if any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def _int_first(q):
    """A Fraction with denominator 1 as a plain int, any other unchanged."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """The field Q with exact arithmetic on ints and Fractions.

    Whole numbers are plain ints wherever the field creates them, so the
    common integer entries never pay for Fraction arithmetic.
    """

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return operator.index(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return _int_first(1 / Fraction(a))

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return _int_first(Fraction(a) / b)

    def is_zero(self, a):
        return a == 0

    def sign(self, exponent):
        """(-1)**exponent as a scalar."""
        return -1 if exponent % 2 else 1

    def parse(self, text):
        """Parse "p/q" or an integer string; reject anything else."""
        s = str(text).strip()
        if not _RATIONAL_RE.match(s):
            raise StructureError(f"not a rational scalar: {text!r}")
        try:
            return _int_first(Fraction(s))
        except ZeroDivisionError:
            raise StructureError(f"zero denominator: {text!r}") from None

    def format(self, a):
        # Fraction normalises to q > 0 and gcd(p, q) = 1 already.
        return str(Fraction(a))

    def descriptor(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The prime field F_p; scalars are ints reduced into [0, p)."""

    def __init__(self, p):
        if type(p) is not int or p < 2:
            raise StructureError(f"not a prime: {p!r}")
        if p >= 2**64:
            raise StructureError(f"prime modulus must be below 2**64: {p}")
        if not _is_prime(p):
            raise StructureError(f"not a prime: {p}")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def sign(self, exponent):
        return (self.p - 1) if exponent % 2 else 1 % self.p

    def parse(self, text):
        s = str(text).strip()
        if not _INT_RE.match(s):
            raise StructureError(f"not an F_{self.p} scalar: {text!r}")
        n = int(s)
        if not 0 <= n < self.p:
            raise StructureError(
                f"F_{self.p} scalar out of range [0, {self.p}): {text!r}"
            )
        return n

    def format(self, a):
        return str(a % self.p)

    def descriptor(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_descriptor(desc):
    """Inverse of Field.descriptor(): "Q" or {"Fp": p}."""
    if desc == "Q":
        return Rationals()
    if isinstance(desc, dict) and set(desc) == {"Fp"}:
        return PrimeField(desc["Fp"])
    raise StructureError(f"unknown field descriptor: {desc!r}")
