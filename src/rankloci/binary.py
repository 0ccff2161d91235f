"""Binary (two-variable homogeneous) forms with exact rational coefficients.

The coefficient vector of a degree-d form stores the coefficient of
``s^(d-i) t^i`` at index ``i``, so read as an ascending list it is F(1, t),
and its trailing zeros are the power of s dividing F.  Gcds, squarefree
splits and rational roots work on that reading: F is
a rational unit times s^a times the homogenized primitive integer
polynomial p(t), and the integer layer of ``upoly`` handles p.  The roots
at [0:1] (the s-power) and at [1:0] (the root t = 0 of p) need no
coordinate change.  A pencil's invariant-factor chain is already that
pair (p, a) with p on integers, so ``pencils`` runs its gcds, quotients
and squarefree splits (``_graded_parts``, shared with
``squarefree_decompose``) on the pairs directly, and builds a form here
only where a caller asks for one (``_form``).

Coefficients are rational; the predicates computed here (squarefreeness,
multiplicity structure, gcd degrees) are stable under field extension, so
the answers agree with the ones over the closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import upoly as up
from .errors import InternalInvariantError
from .rationals import ONE, ZERO, integral, parse_rational, rat, rat_str


class BinaryForm:
    """Homogeneous polynomial in (s, t); ``coeffs[i]`` multiplies s^(d-i) t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(rat(c) for c in coeffs)
        if not cs:
            raise ValueError("a binary form needs at least one coefficient")
        self.coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree: int):
        return cls([ZERO] * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, t_power: int, coeff=1):
        cs = [ZERO] * (degree + 1)
        cs[t_power] = rat(coeff)
        return cls(cs)

    @classmethod
    def linear_power(cls, a, b, d: int):
        """(a*s + b*t)^d by the binomial theorem."""
        a, b = rat(a), rat(b)
        return cls([comb(d, i) * a ** (d - i) * b**i for i in range(d + 1)])

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "degree" not in obj or "coeffs" not in obj:
            raise ValueError('binary form JSON needs {"degree": d, "coeffs": [...]}')
        d = obj["degree"]
        if not isinstance(d, int) or isinstance(d, bool) or not isinstance(obj["coeffs"], list):
            raise ValueError("binary form JSON: degree must be an integer and coeffs an array")
        cs = [parse_rational(c) for c in obj["coeffs"]]
        if d < 0 or len(cs) != d + 1:
            raise ValueError("binary form JSON: coeffs length must be degree+1")
        return cls(cs)

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, BinaryForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(rat_str(c) for c in self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return f"BinaryForm(0; degree={self.degree})"
        d = self.degree
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            spart = f"s^{d-i}" if d - i > 1 else ("s" if d - i == 1 else "")
            tpart = f"t^{i}" if i > 1 else ("t" if i == 1 else "")
            mono = "*".join(x for x in (spart, tpart) if x) or "1"
            cs = rat_str(c)
            bits.append(mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}"))
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self):
        return {"degree": self.degree, "coeffs": [rat_str(c) for c in self.coeffs]}

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in binary form addition")
        return BinaryForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in binary form subtraction")
        return BinaryForm([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm([-c for c in self.coeffs])

    def scale(self, c):
        c = rat(c)
        return BinaryForm([c * x for x in self.coeffs])

    def __mul__(self, other):
        out = [ZERO] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return BinaryForm(out)

    def pow(self, k: int):
        out = BinaryForm([ONE])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute(self, a, b, c, d):
        """The form F(a*s + b*t, c*s + d*t)."""
        sd = self.degree
        u = BinaryForm([rat(a), rat(b)])
        v = BinaryForm([rat(c), rat(d)])
        out = BinaryForm.zero(sd)
        # powers u^(sd-i) v^i accumulated incrementally
        upows = [BinaryForm([ONE])]
        for _ in range(sd):
            upows.append(upows[-1] * u)
        vp = BinaryForm([ONE])
        for i in range(sd + 1):
            ci = self.coeffs[i]
            if ci:
                term = (upows[sd - i] * vp).scale(ci)
                out = out + term
            if i < sd:
                vp = vp * v
        return out

    def monic(self):
        """Scale so the leading (lowest-index) nonzero coefficient is 1."""
        for c in self.coeffs:
            if c:
                return self.scale(1 / rat(c)) if c != 1 else self
        raise ValueError("cannot normalize the zero form")


def _split(f: BinaryForm):
    """(p, a) with F = unit * s^a * p(t) homogenized, for a nonzero form: p is
    F(1, t) without its a trailing zeros, as a primitive integer list."""
    cs = f.coeffs
    a = 0
    while not cs[-1 - a]:
        a += 1
    return up.up_primitive(integral(cs[: len(cs) - a])[0]), a


def _form(p, a: int) -> BinaryForm:
    """s^a * p(t) homogenized, scaled so its first nonzero coefficient is 1."""
    lead = next(c for c in p if c)
    return BinaryForm([rat(c, lead) for c in p] + [ZERO] * a)


def gcd_binary(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic homogeneous gcd: the integer gcd of F(1, t) and G(1, t) times
    the smaller power of s."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd undefined for two zero forms")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    (p, a), (q, b) = _split(f), _split(g)
    return _form(up.up_gcd(p, q), min(a, b))


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """unit * prod e_j^j == the input, with squarefree pairwise-coprime e_j."""

    parts: tuple  # of (BinaryForm, multiplicity) with multiplicities ascending
    unit: object

    def reconstruct(self) -> BinaryForm:
        acc = BinaryForm([self.unit])
        for e, j in self.parts:
            acc = acc * e.pow(j)
        return acc


def _graded_parts(p, a):
    """Multiplicity-graded squarefree split of s^a * p(t), p a nonzero
    integer polynomial: the list of (e, b, j), j ascending, with s^b * e(t)
    squarefree and the parts pairwise coprime.  Yun's split of p covers
    every root but [0:1], and it is checked against p; the power of s joins
    the part of the matching multiplicity."""
    p = up.up_primitive(list(p))
    parts = up.up_squarefree_parts(p)
    prod = [1]
    for e, j in parts:
        for _ in range(j):
            prod = up.up_mul(prod, e)
    if prod != p:
        raise InternalInvariantError("squarefree split fails to reconstruct its input",
                                     {"poly": p, "parts": parts})
    graded = {j: (e, 0) for e, j in parts}
    if a:
        graded[a] = (graded[a][0] if a in graded else [1], 1)
    return [(e, b, j) for j, (e, b) in sorted(graded.items())]


def squarefree_decompose(f: BinaryForm) -> SquarefreeDecomposition:
    """Multiplicity-graded squarefree decomposition of a nonzero form."""
    if f.is_zero:
        raise ValueError("zero form has no squarefree decomposition")
    # every part has first nonzero coefficient 1, so the unit is F's
    return SquarefreeDecomposition(
        parts=tuple((_form(e, b), j) for e, b, j in _graded_parts(*_split(f))),
        unit=next(c for c in f.coeffs if c),
    )


def rational_roots(f: BinaryForm):
    """The rational projective roots of a nonzero form without repeated
    roots, as coprime integer pairs (s, t): [0:1] for the factor s, and
    [den:num] for each rational root num/den of F(1, t).  ValueError when F
    has a repeated root."""
    p, a = _split(f)
    if a > 1:
        raise ValueError("rational roots need a squarefree form")
    return [(den, num) for num, den in up.up_rational_roots(p)] + [(0, 1)] * a


def _repeated(f: BinaryForm):
    """(g, b) with gcd(F, dF/ds, dF/dt) = s^b * g(t) homogenized, F nonzero."""
    p, a = _split(f)
    return up.up_gcd(p, up.up_diff(p)), max(a - 1, 0)


def has_multiple_root(f: BinaryForm) -> bool:
    """True iff the form is identically zero or has a repeated projective root."""
    if f.is_zero:
        return True
    g, b = _repeated(f)
    return len(g) > 1 or b > 0
