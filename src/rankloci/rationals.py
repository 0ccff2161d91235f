"""Exact rational scalars, their clearing to integers and their "p/q"
string encoding: the one module that knows how a rational is stored, and
so how a result prints.

Rationals are ``fractions.Fraction`` values, kept reduced with a positive
denominator, which is exactly the canonical form we need.  Other modules
build them with ``rat`` and clear lists of them with ``integral``.  Result
types derive from ``Record``, which gives the constructor, equality, hashing
and ``repr`` of a frozen dataclass for the sake of cold start: each CLI
command is a fresh process, and importing ``dataclasses`` (it loads
``inspect`` and ``ast``) and building each class's methods through ``exec``
cost more than a typical command's arithmetic.  ``Report`` records render
their fields with ``rat_str``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import attrgetter

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


def _render(value):
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [_render(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


class Record:
    """An immutable record whose fields are the names annotated in the class
    body, after the bases' fields (a class-level value is a default).  It
    compares and hashes by its field values and refuses any change."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._values = attrgetter(*cls._fields) if cls._fields else None

    def __init__(self, *args, **kwargs):
        names = self._fields
        if args:
            given = len(args) + len(kwargs)
            kwargs.update(zip(names, args))
            if len(kwargs) != given:
                raise TypeError(f"{type(self).__name__}: too many or repeated fields")
        if len(kwargs) < len(names):
            kwargs = {**self._defaults, **kwargs}
        if kwargs.keys() != set(names):
            bad = sorted(kwargs.keys() ^ set(names))
            raise TypeError(f"{type(self).__name__}: missing or unknown fields {bad}")
        self.__dict__.update(kwargs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Report(Record):
    """A record that prints.  ``to_json`` renders the fields in declaration
    order: a rational as ``rat_str``, a tuple or list element by element, a
    value with a ``to_json`` by calling it, and anything else (an int, bool,
    str or None) unchanged."""

    def to_json(self):
        return {n: _render(getattr(self, n)) for n in self._fields}


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
