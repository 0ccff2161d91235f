"""Multivariate homogeneous forms: apolarity, conciseness, catalecticant
bounds, generic/maximal Waring rank formulas, and exact power-sum identities
for powers of the standard quadric.

``MultiForm`` arithmetic (``+``, ``-``, ``scale``, ``*``, ``pow``) returns a
form of the caller's type, so ``binary.BinaryForm``, the two-variable
subclass, keeps its type through it.

Powers of linear forms run on integers.  A rational row is a positive scalar
times a primitive integer vector w, and (w . y)^e is expanded by the
multinomial theorem over the support of w (a Reznick summand has one to three
nonzero entries, so a sixth power has at most 28 terms).  A power-sum
expression is expanded into one integer accumulator over the lcm of the
summands' weights c s^e, and summands whose primitive rows have the same
values share one coefficient list.  ``verify_identity`` compares that
accumulator with the target's coefficients cleared to integers and builds no
form; ``expand_power_sum`` divides it into one.  The power Q_n^k of the
standard quadric uses its closed form, in which x^(2a) has coefficient
k! / prod(a_i!).

Conciseness runs on integers too: the order-(d-1) derivatives of F are read
off its cleared coefficients, reduced by one integer elimination, and the
membership of F in S^d of their span is checked by differentiating F along
the vectors that the span kills.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd, prod

from . import linalg
from .errors import InternalInvariantError
from .rationals import ONE, ZERO, Record, Report, integral, parse_rational, rat, rat_str


def exponents(n: int, d: int):
    """All exponent vectors of length n summing to d, lexicographically
    descending: one per multiset of d variable indices."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


class MultiForm:
    """Homogeneous form in n variables: a map exponent-vector -> coefficient.

    Zero coefficients are never stored; the zero form is the empty map with
    its nominal (n, degree) retained.
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms):
        if n < 1 or degree < 0:
            raise ValueError("need n >= 1 and degree >= 0")
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            c = rat(c)
            if len(exps) != n or any(e < 0 for e in exps) or sum(exps) != degree:
                raise ValueError(f"exponent vector {exps} is not degree-{degree} in {n} variables")
            if c:
                clean[exps] = c
        self.n = n
        self.degree = degree
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, degree: int, terms: dict):
        """A form on ``terms`` as given, without ``__init__``'s checks: the
        caller guarantees exponent tuples of length n and sum ``degree``
        and nonzero rational coefficients."""
        form = object.__new__(cls)
        form.n, form.degree, form.terms = n, degree, terms
        return form

    def _like(self, degree: int, terms: dict):
        """A form of the caller's type in the same n, on ``terms`` (exponent
        tuples of length n and sum ``degree``, rational coefficients) with
        the zero coefficients dropped."""
        return self._trusted(self.n, degree, {k: v for k, v in terms.items() if v})

    @classmethod
    def zero(cls, n: int, degree: int):
        return cls(n, degree, {})

    @classmethod
    def monomial(cls, n: int, exps, coeff=1):
        return cls(n, sum(exps), {tuple(exps): rat(coeff)})

    @classmethod
    def linear(cls, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = rat(c)
        return cls(n, 1, terms)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or not {"n", "d", "terms"} <= set(obj):
            raise ValueError('form JSON needs {"n": ..., "d": ..., "terms": {...}}')
        n, d = obj["n"], obj["d"]
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (n, d)):
            raise ValueError("form JSON: n and d must be integers")
        if not isinstance(obj["terms"], dict):
            raise ValueError("form JSON: terms must be an object")
        terms = {}
        for key, val in obj["terms"].items():
            try:
                exps = tuple(int(x) for x in key.strip("[]").split(","))
            except ValueError:
                raise ValueError(f"form JSON: bad monomial key {key!r}") from None
            if exps in terms:
                raise ValueError(f"form JSON: two terms name the monomial {list(exps)}")
            terms[exps] = parse_rational(val)
        return cls(n, d, terms)

    def to_json(self):
        keys = sorted(self.terms)
        return {
            "n": self.n,
            "d": self.degree,
            "terms": {"[" + ",".join(map(str, k)) + "]": rat_str(self.terms[k]) for k in keys},
        }

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, MultiForm)
            and self.n == other.n
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.degree, tuple(sorted((k, rat_str(v)) for k, v in self.terms.items()))))

    def __repr__(self):
        if self.is_zero:
            return f"MultiForm(0; n={self.n}, d={self.degree})"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = rat_str(self.terms[exps])
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}" for i, e in enumerate(exps) if e)
            mono = mono or "1"
            bits.append(mono if c == "1" else f"{c}*{mono}")
        return " + ".join(bits)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("form addition needs matching n and degree")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, ZERO) + v
        return self._like(self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return self._like(self.degree, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("form product needs matching variable count")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, ZERO) + c1 * c2
        return self._like(self.degree + other.degree, terms)

    def pow(self, k: int):
        if k < 0:
            raise ValueError("form powers need k >= 0")
        out = self._like(0, {(0,) * self.n: ONE})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


# -- the integer kernel for powers of linear forms ---------------------------


def _primitive_support(support):
    """(s, w) for a vector given by its (index, nonzero rational) pairs: the
    vector is s * w, s > 0 rational (0 for no pairs) and w the primitive
    integer vector on the same indices, as (index, int) pairs."""
    ints, den = integral([v for _, v in support])
    g = gcd(*ints)
    return rat(g, den), [(i, v // g) for (i, _), v in zip(support, ints)]


@lru_cache(maxsize=32)
def _multinomials(k: int, e: int):
    """(a, e! / prod(a_i!)) for every exponent vector a of length k and sum e."""
    out = []
    for a in exponents(k, e):
        c = factorial(e)
        for ai in a:
            c //= factorial(ai)
        out.append((a, c))
    return tuple(out)


def apolar_apply(theta: MultiForm, F: MultiForm) -> MultiForm:
    """theta . F: the differentiation pairing with exact factorial scalars.

    On monomials, alpha^a . x^m = prod m_i!/(m_i - a_i)! x^(m-a) when m >= a
    componentwise and 0 otherwise; extended bilinearly.
    """
    if theta.n != F.n:
        raise ValueError("operator and form must share the variable count")
    if theta.degree > F.degree:
        raise ValueError("operator degree exceeds form degree")
    out = {}
    for a, u in theta.terms.items():
        for m, v in F.terms.items():
            if all(mi >= ai for mi, ai in zip(m, a)):
                scal = 1
                for mi, ai in zip(m, a):
                    if ai:
                        scal *= factorial(mi) // factorial(mi - ai)
                key = tuple(mi - ai for mi, ai in zip(m, a))
                out[key] = out.get(key, ZERO) + u * v * scal
    return MultiForm(F.n, F.degree - theta.degree, out)


def catalecticant_matrix(F: MultiForm, k: int):
    """Matrix of the degree-k catalecticant S^k(dual) -> S^(d-k)."""
    d = F.degree
    if not 0 <= k <= d:
        raise ValueError(f"catalecticant degree {k} out of range for degree {d}")
    cols = exponents(F.n, k)
    rows = exponents(F.n, d - k)
    mat = []
    for u in rows:
        row = []
        for a in cols:
            c = F.coefficient(tuple(ui + ai for ui, ai in zip(u, a)))
            if c:
                scal = 1
                for ui, ai in zip(u, a):
                    if ai:
                        scal *= factorial(ui + ai) // factorial(ui)
                row.append(c * scal)
            else:
                row.append(ZERO)
        mat.append(row)
    return mat


def catalecticant_rank_bound(F: MultiForm, k: int) -> int:
    """Exact rank of the degree-k catalecticant: a Waring-rank lower bound."""
    return linalg.rank(catalecticant_matrix(F, k))


class ConcisenessReport(Report):
    essential_count: int
    essential_basis: tuple  # linear MultiForms spanning the derivative span
    concise: bool


def essential_variables(F: MultiForm) -> ConcisenessReport:
    """Essential-variable count and basis from the order-(d-1) derivatives.

    The span of the (d-1)th derivatives of F inside the linear forms is the
    smallest subspace V' with F in S^d V'; F is concise exactly when that
    span is everything.  On F's coefficients cleared to integers, the row of
    the operator alpha^a is the linear form alpha^a . F over the positive
    prod(a_j!): F_(a+e_i) (a_i + 1) in column i, the coefficient of x^a in
    dF/dx_i.  Only operators with some a + e_i in F's support give a nonzero
    row; one integer elimination reduces those, which is the row space of
    the transposed degree-(d-1) catalecticant.  For nonconcise F the
    membership F in S^d V' is re-verified exactly: in characteristic 0 it
    holds iff the derivative of F along every vector that V' kills
    vanishes, checked on the kernel vector of each free column.
    """
    if F.is_zero:
        raise ValueError("conciseness undefined for the zero form")
    if F.degree == 0:
        raise ValueError("constants have no essential variables; need degree >= 1")
    n = F.n
    # partial[i]: dF/dx_i on integers, as {exponents of x^a: coefficient}
    partial = [{} for _ in range(n)]
    for m, c in zip(F.terms, integral(list(F.terms.values()))[0]):
        for i, e in enumerate(m):
            if e:
                partial[i][m[:i] + (e - 1,) + m[i + 1:]] = c * e
    rows = {}
    for i, p in enumerate(partial):
        for a, v in p.items():
            rows.setdefault(a, [0] * n)[i] = v
    rows = list(rows.values())
    piv = linalg._eliminate(rows, range(n))
    k = len(piv)
    units = _units(n)
    basis = tuple(MultiForm._trusted(n, 1, {units[i]: rat(x, r[c]) for i, x in enumerate(r) if x})
                  for r, c in zip(rows, piv))
    if k < n:
        _verify_membership(F, partial, rows[:k], piv)
    return ConcisenessReport(essential_count=k, essential_basis=basis, concise=(k == n))


def _verify_membership(F: MultiForm, partial, rows, piv):
    """Check that F lies in S^d of the span of the reduced integer ``rows``:
    its derivative along the kernel vector of each free column c must
    vanish.  With every pivot scaled to L, that vector is L e_c minus column
    c's entries at the pivot columns, so the derivative is L dF/dx_c minus
    the same combination of the partials ``partial`` at the pivots."""
    rows, L = linalg._common_pivot(rows, piv)
    pivots = set(piv)
    for c in range(F.n):
        if c in pivots:
            continue
        dv = {a: L * v for a, v in partial[c].items()}
        for r, p in zip(rows, piv):
            x = r[c]
            if x:
                for a, v in partial[p].items():
                    dv[a] = dv.get(a, 0) - x * v
        if any(dv.values()):
            raise InternalInvariantError(
                "form does not lie in the power of its essential span",
                {"form": F.to_json(), "essential_count": len(rows)},
            )


def generic_waring_rank(n: int, d: int):
    """Generic Waring rank and whether the last proper secant variety is a
    hypersurface.

    Quadrics diagonalize (g = n); binary forms follow Sylvester's floor
    formula; for n, d >= 3 the Alexander-Hirschowitz count applies, with the
    four exceptional pairs (3,4), (4,4), (5,3), (5,4) raised by one.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n == 1 or d == 1:
        return 1, False
    if d == 2:
        return n, True
    if n == 2:
        return (d + 2) // 2, d % 2 == 0
    exceptional = {(3, 4): 6, (4, 4): 10, (5, 3): 8, (5, 4): 15}
    if (n, d) in exceptional:
        return exceptional[(n, d)], True
    dim = comb(d + n - 1, d)
    g = -(-dim // n)  # ceil
    return g, dim % n == 1


class MaxRankBounds(Report):
    codim_plus_one: int
    two_g: int
    refined_2g_minus: int
    two_binomial_ceiling: int
    known_exact: int | None
    best: int


_KNOWN_MAX_RANK = {(3, 3): 5, (3, 4): 7, (3, 5): 10, (4, 3): 7}


def max_rank_bounds(n: int, d: int) -> MaxRankBounds:
    """All applicable upper bounds for the maximal Waring rank, plus the few
    known exact values (quadrics, binary forms, and the four classical
    low-degree cases)."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    dim = comb(d + n - 1, d)
    g, hypersurf = generic_waring_rank(n, d)
    codim_plus_one = dim - n + 1
    two_g = 2 * g
    refined = 2 * g - 2 if hypersurf else 2 * g - 1
    two_binomial_ceiling = -(-2 * dim // n)
    known: int | None = _KNOWN_MAX_RANK.get((n, d))
    if d == 1:
        known = 1
    elif d == 2:
        known = n
    elif n == 2:
        known = d
    candidates = [codim_plus_one, two_g, refined, two_binomial_ceiling]
    if known is not None:
        candidates.append(known)
    return MaxRankBounds(
        codim_plus_one=codim_plus_one,
        two_g=two_g,
        refined_2g_minus=refined,
        two_binomial_ceiling=two_binomial_ceiling,
        known_exact=known,
        best=min(candidates),
    )


def high_rank_implies_concise(n: int, d: int) -> bool:
    """Whether every form of greater-than-generic rank must be concise:
    true for n = 2, 3 (any d >= 2), and for d >= n + 1 otherwise."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if n <= 3:
        return True
    return d >= n + 1


# -- powers of the standard quadric and exact power-sum identities ---------


def power_of_quadric(n: int, k: int) -> MultiForm:
    """(x_1^2 + ... + x_n^2)^k, exactly expanded: x^(2a) has coefficient
    k! / prod(a_i!)."""
    if n < 1 or k < 0:
        raise ValueError("quadric powers need n >= 1 and k >= 0")
    terms = {tuple(2 * ai for ai in a): rat(c) for a, c in _multinomials(n, k)}
    return MultiForm(n, 2 * k, terms)


class PowerSumExpression(Record):
    """Sum of coeff * (linear form)^exponent with one shared exponent."""

    summands: tuple  # of (coeff, MultiForm linear, int exponent)

    def __init__(self, summands):
        super().__init__(summands)
        if not self.summands:
            raise ValueError("empty power-sum expression")
        n0, e0 = self.summands[0][1].n, self.summands[0][2]
        for c, lin, e in self.summands:
            if e != e0:
                raise ValueError("all exponents in a power-sum expression must agree")
            if lin.degree != 1 or lin.is_zero:
                raise ValueError("power-sum bases must be nonzero linear forms")
            if lin.n != n0:
                raise ValueError("power-sum bases must share one variable count")

    @property
    def exponent(self) -> int:
        return self.summands[0][2]

    @property
    def term_count(self) -> int:
        return sum(1 for c, _, _ in self.summands if c)


def _accumulate(expr: PowerSumExpression):
    """(acc, den): the expansion of ``expr`` is acc / den, with acc an
    integer dict keyed by exponent vectors (a monomial that cancels stays,
    at 0).  Each summand c (s w . y)^e, w primitive, has the weight c s^e;
    the weights are cleared to integers once, over their lcm, and summands
    whose rows w have the same values share one coefficient list of
    (w . y)^e."""
    n, e = expr.summands[0][1].n, expr.exponent
    pairs = []
    for c, lin, _ in expr.summands:
        if c:
            s, w = _primitive_support(sorted((exps.index(1), v) for exps, v in lin.terms.items()))
            pairs.append((c * s**e, w))
    weights, den = integral([q for q, _ in pairs])
    powers = {}  # the values of w -> (w . y)^e as (split, coefficient) pairs
    acc = {}
    for f, (_, w) in zip(weights, pairs):
        values = tuple(v for _, v in w)
        terms = powers.get(values)
        if terms is None:
            terms = powers[values] = [(split, c * prod(map(pow, values, split)))
                                      for split, c in _multinomials(len(w), e)]
        for split, c in terms:
            exps = [0] * n
            for (i, _), a in zip(w, split):
                exps[i] = a
            exps = tuple(exps)
            acc[exps] = acc.get(exps, 0) + f * c
    return acc, den


def expand_power_sum(expr: PowerSumExpression) -> MultiForm:
    acc, den = _accumulate(expr)
    return MultiForm._trusted(expr.summands[0][1].n, expr.exponent,
                              {exps: rat(v, den) for exps, v in acc.items() if v})


def verify_identity(expr: PowerSumExpression, target: MultiForm) -> bool:
    """Whether ``expr`` expands to ``target``, exactly: the integer
    accumulator of ``expr`` against the target's coefficients cleared to
    integers, each side times the other's denominator."""
    if (target.n, target.degree) != (expr.summands[0][1].n, expr.exponent):
        return False
    acc, den = _accumulate(expr)
    if sum(1 for v in acc.values() if v) != len(target.terms):
        return False
    ints, tden = integral(list(target.terms.values()))
    return all(acc.get(exps, 0) * tden == t * den for exps, t in zip(target.terms, ints))


def _units(n):
    """The exponent vectors of x_1, ..., x_n."""
    return [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]


def _unit_sums(n):
    """linear((i, sign), ...): the linear form sum(sign * x_i), built without
    ``MultiForm.__init__``'s per-term checks."""
    units, signs = _units(n), {1: ONE, -1: -ONE}

    def linear(*pairs):
        return MultiForm._trusted(n, 1, {units[i]: signs[s] for i, s in pairs})

    return linear


def reznick_quartic_identity(n: int):
    """Q_n^2 = (1/6) sum_{i<j} [(x_i+x_j)^4 + (x_i-x_j)^4] + (4-n)/3 sum x_i^4.

    The +- is summed over both sign choices per pair.  Returns the
    expression, the target Q_n^2, and the implied rank bound n^2.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    linear = _unit_sums(n)
    sixth = rat(1, 6)
    summands = []
    for i, j in combinations(range(n), 2):
        for sign in (1, -1):
            summands.append((sixth, linear((i, 1), (j, sign)), 4))
    cn = rat(4 - n, 3)
    for i in range(n):
        summands.append((cn, linear((i, 1)), 4))
    return PowerSumExpression(tuple(summands)), power_of_quadric(n, 2), n * n


def reznick_sextic_identity(n: int):
    """60 Q_n^3 as a signed sum of sixth powers (triples, pairs, singles).

    Per triple i<j<k the +- runs over the four sign patterns of (x_j, x_k)
    with x_i fixed positive (a global sign is invisible at even exponent).
    Returns the expression for Q_n^3 itself (coefficients divided by 60),
    the target Q_n^3, and the bound 4 C(n,3) + 2 C(n,2) + n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    linear = _unit_sums(n)
    summands = []
    w = rat(1, 60)
    for i, j, k in combinations(range(n), 3):
        for sj in (1, -1):
            for sk in (1, -1):
                summands.append((w, linear((i, 1), (j, sj), (k, sk)), 6))
    wp = rat(2 * (5 - n), 60)
    for i, j in combinations(range(n), 2):
        for sign in (1, -1):
            summands.append((wp, linear((i, 1), (j, sign)), 6))
    ws = rat(2 * (n * n - 9 * n + 38), 60)
    for i in range(n):
        summands.append((ws, linear((i, 1)), 6))
    bound = 4 * comb(n, 3) + 2 * comb(n, 2) + n
    return PowerSumExpression(tuple(summands)), power_of_quadric(n, 3), bound
