"""Binary (two-variable homogeneous) forms with exact rational coefficients.

A binary form is a ``forms.MultiForm`` in the two variables (s, t): it
stores the same ``terms`` and uses the same arithmetic, and adds only its
``{"degree", "coeffs"}`` wire format, its constructors, its printing,
substitution and normalization.  Its coefficient vector ``coeffs`` is built
from ``terms`` when it is read: the coefficient of ``s^(d-i) t^i`` sits at
index ``i``, so read as an ascending list it is F(1, t),
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

from math import comb

from . import upoly as up
from .errors import InternalInvariantError
from .forms import MultiForm
from .rationals import ZERO, Record, integral, parse_rational, rat, rat_str


class BinaryForm(MultiForm):
    """Homogeneous polynomial in (s, t): the two-variable ``MultiForm`` whose
    term ``(d - i, i)`` multiplies s^(d-i) t^i.  ``coeffs[i]`` is that
    coefficient, rebuilt from ``terms`` on each access."""

    __slots__ = ()

    def __init__(self, coeffs):
        cs = [rat(c) for c in coeffs]
        if not cs:
            raise ValueError("a binary form needs at least one coefficient")
        d = len(cs) - 1
        self.n, self.degree = 2, d
        self.terms = {(d - i, i): c for i, c in enumerate(cs) if c}

    @property
    def coeffs(self) -> tuple:
        d, get = self.degree, self.terms.get
        return tuple(get((d - i, i), ZERO) for i in range(d + 1))

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
    def linear(cls, coeffs):
        if len(coeffs) != 2:
            raise ValueError("a binary linear form needs two coefficients")
        return cls(coeffs)

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

    def to_json(self):
        return {"degree": self.degree, "coeffs": [rat_str(c) for c in self.coeffs]}

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

    # -- substitution and normalization ---------------------------------

    def substitute(self, a, b, c, d):
        """The form F(a*s + b*t, c*s + d*t)."""
        u, v, sd = BinaryForm([a, b]), BinaryForm([c, d]), self.degree
        out = BinaryForm.zero(sd)
        for i, ci in enumerate(self.coeffs):
            if ci:
                out = out + (u.pow(sd - i) * v.pow(i)).scale(ci)
        return out

    def monic(self):
        """Scale so the leading (lowest-index) nonzero coefficient is 1."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero form")
        c = self.terms[max(self.terms)]
        return self if c == 1 else self.scale(1 / c)


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


class SquarefreeDecomposition(Record):
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


def _squarefree(p, a: int) -> bool:
    """Whether s^a * p(t) homogenized, p a nonzero integer list, has no
    repeated projective root: s divides it at most once and p is coprime to
    its derivative."""
    return a <= 1 and len(up.up_gcd(p, up.up_diff(p))) == 1


def has_multiple_root(f: BinaryForm) -> bool:
    """True iff the form is identically zero or has a repeated projective root."""
    return f.is_zero or not _squarefree(*_split(f))
