"""Exact rational scalars, their clearing to integers and their "p/q"
string encoding: the one module that knows how a rational is stored.

Rationals are ``fractions.Fraction`` values, kept reduced with a positive
denominator, which is exactly the canonical form we need.  Other modules
build them with ``rat`` and clear lists of them with ``integral``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

_HAVE_GMPY2 = False  # Fraction is the only backend; bench/run.py stamps this flag


def rat(value=0, den=None):
    """Build an exact rational from ints, "p/q" strings, or other rationals
    (a Fraction is returned unchanged).

    Floats, as value or den, are rejected: converting them defeats exactness.
    """
    if isinstance(value, float) or isinstance(den, float):
        raise TypeError("refusing float -> rational coercion; pass int or 'p/q' string")
    if den is not None:
        return Fraction(value, den)
    return value if isinstance(value, Fraction) else Fraction(value)


def integral(values):
    """(ints, m): the rationals (or ints) ``values`` times m, the lcm of
    their denominators, as ints; m = 1 for an empty list."""
    m = lcm(*[v.denominator for v in values])
    return [v.numerator * (m // v.denominator) for v in values], m


ZERO = rat(0)
ONE = rat(1)


def rat_str(q) -> str:
    """Render a rational as "p" or "p/q" (denominator omitted when 1)."""
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(value):
    """Parse a JSON-level rational: an int or a strict "p/q" / "p" string.

    Decimal notation is rejected on purpose: values that went through a
    float once cannot be trusted to be exact.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational: {value!r}")
        return rat(text)
    raise ValueError(f"not a rational: {value!r}")
