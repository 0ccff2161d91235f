"""Binary (two-variable homogeneous) forms with exact rational coefficients.

The coefficient vector of a degree-d form stores the coefficient of
``s^(d-i) t^i`` at index ``i``.  Factors of pure ``s`` and ``t`` powers are
tracked explicitly, so the root structure at [1:0] and [0:1] is handled by
the same code paths as every other projective root: a gcd or squarefree
computation never needs a coordinate change.

Everything here is over Q, which suffices for the predicates we need
(squarefreeness, multiplicity structure, gcd degrees): they are stable under
field extension, so the answers agree with the ones over the closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import upoly as up
from .rationals import ONE, ZERO, parse_rational, rat, rat_str


class BinaryForm:
    """Homogeneous polynomial in (s, t); ``coeffs[i]`` multiplies s^(d-i) t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(rat(c) if isinstance(c, (int, str)) else c for c in coeffs)
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

    @property
    def is_constant(self) -> bool:
        return self.degree == 0 or self.is_zero

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

    def evaluate(self, sv, tv):
        sv, tv = rat(sv), rat(tv)
        d = self.degree
        return sum((c * sv ** (d - i) * tv**i for i, c in enumerate(self.coeffs)), ZERO)

    def derivative_s(self):
        d = self.degree
        if d == 0:
            return BinaryForm([ZERO])
        return BinaryForm([(d - i) * self.coeffs[i] for i in range(d)])

    def derivative_t(self):
        d = self.degree
        if d == 0:
            return BinaryForm([ZERO])
        return BinaryForm([i * self.coeffs[i] for i in range(1, d + 1)])

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

    # -- monomial content and normalization ----------------------------

    def st_valuations(self):
        """(a, b): the exact powers of s and t dividing the form."""
        if self.is_zero:
            raise ValueError("zero form has no monomial content")
        nz = [i for i, c in enumerate(self.coeffs) if c]
        d = self.degree
        return d - max(nz), min(nz)

    def strip_st(self):
        """Write F = s^a t^b G with G divisible by neither; returns (a, b, G)."""
        a, b = self.st_valuations()
        d = self.degree
        core = list(self.coeffs[b : d - a + 1])
        return a, b, BinaryForm(core)

    def shift_st(self, a: int, b: int):
        """Multiply by s^a t^b."""
        return BinaryForm([ZERO] * b + list(self.coeffs) + [ZERO] * a)

    def monic(self):
        """Scale so the leading (lowest-index) nonzero coefficient is 1."""
        for c in self.coeffs:
            if c:
                return self.scale(1 / rat(c)) if c != 1 else self
        raise ValueError("cannot normalize the zero form")

    def leading_unit(self):
        for c in self.coeffs:
            if c:
                return c
        raise ValueError("zero form has no leading coefficient")

    # -- conversions to univariate -------------------------------------

    def dehomogenize_t(self):
        """F(s, 1) as an ascending univariate coefficient list in s."""
        d = self.degree
        out = [ZERO] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return up.up_trim(out)

    @classmethod
    def from_upoly_s(cls, poly):
        """Homogenize an s-polynomial to its own degree."""
        if not poly:
            raise ValueError("cannot homogenize the zero polynomial")
        m = len(poly) - 1
        return cls([poly[m - i] for i in range(m + 1)])


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient of homogeneous forms; raises if g does not divide f."""
    if g.is_zero:
        raise ZeroDivisionError("division of binary forms by zero")
    if f.is_zero:
        return BinaryForm.zero(f.degree - g.degree) if f.degree >= g.degree else BinaryForm([ZERO])
    ga, gb, gcore = g.strip_st()
    fa, fb, fcore = f.strip_st()
    if fa < ga or fb < gb:
        raise ValueError("inexact division of binary forms")
    q = up.up_divmod(fcore.dehomogenize_t(), gcore.dehomogenize_t())
    if q[1]:
        raise ValueError("inexact division of binary forms")
    return BinaryForm.from_upoly_s(q[0]).shift_st(fa - ga, fb - gb)


def gcd_binary(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic homogeneous gcd, tracking shared pure s- and t-power factors.

    Dehomogenizes the s,t-free cores at t=1, takes the univariate gcd, and
    re-homogenizes; the min of the s- and t-valuations is multiplied back.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd undefined for two zero forms")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    fa, fb, fcore = f.strip_st()
    ga, gb, gcore = g.strip_st()
    core = up.up_gcd(fcore.dehomogenize_t(), gcore.dehomogenize_t())
    out = BinaryForm.from_upoly_s(core).shift_st(min(fa, ga), min(fb, gb))
    return out.monic()


def gcd_many(forms):
    forms = [f for f in forms if not f.is_zero]
    if not forms:
        raise ValueError("gcd undefined for all-zero input")
    acc = forms[0].monic()
    for f in forms[1:]:
        if acc.is_constant:
            break
        acc = gcd_binary(acc, f)
    return acc


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


def squarefree_decompose(f: BinaryForm) -> SquarefreeDecomposition:
    """Multiplicity-graded squarefree decomposition of a nonzero form.

    Pure s- and t-power factors are merged into the part of the matching
    multiplicity, so roots at [1:0] and [0:1] are not special.
    """
    if f.is_zero:
        raise ValueError("zero form has no squarefree decomposition")
    a, b, core = f.strip_st()
    graded = {}
    if core.degree > 0:
        for part, mult in up.up_squarefree_parts(core.dehomogenize_t()):
            graded[mult] = BinaryForm.from_upoly_s(part)
    if a:
        graded[a] = graded[a] * BinaryForm([ONE, ZERO]) if a in graded else BinaryForm([ONE, ZERO])
    if b:
        graded[b] = graded[b] * BinaryForm([ZERO, ONE]) if b in graded else BinaryForm([ZERO, ONE])
    parts = tuple((graded[j].monic(), j) for j in sorted(graded))
    prod = BinaryForm([ONE])
    for e, j in parts:
        prod = prod * e.pow(j)
    unit = f.leading_unit() / prod.leading_unit()
    scaled = prod.scale(unit)
    if scaled.coeffs != f.coeffs:
        raise AssertionError("squarefree decomposition failed to reconstruct input")
    return SquarefreeDecomposition(parts=parts, unit=unit)


def repeated_part(f: BinaryForm) -> BinaryForm:
    """gcd(F, dF/ds, dF/dt): each root contributes multiplicity-1 less.

    For s^2 t^2 this is s*t.  Nonconstant exactly when some projective root
    (including [1:0] and [0:1]) has multiplicity at least two.
    """
    if f.is_zero:
        raise ValueError("repeated part of the zero form is undefined")
    if f.degree == 0:
        return BinaryForm([ONE])
    return gcd_many([f, f.derivative_s(), f.derivative_t()])


def has_multiple_root(f: BinaryForm) -> bool:
    """True iff the form is identically zero or has a repeated projective root."""
    if f.is_zero:
        return True
    if f.degree == 0:
        return False
    return not repeated_part(f).is_constant


def is_squarefree(f: BinaryForm) -> bool:
    return not has_multiple_root(f)
