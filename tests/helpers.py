"""Shared random generators and reference oracles for the test suite.

All randomness flows through explicit random.Random instances seeded by the
caller, so every test is reproducible from its stated seed.  The oracles are
slow, independent routes to what the package computes: row reduction
over exact rationals, the binary-form gcd, exact division and squarefree
split by Euclid on rational univariate polynomials, the rational roots of
a binary quartic by the rational root test over trial-division divisors,
the 16-term discriminant of a binary quartic,
the cofactor expansion of det(s M1 + t M2), a general Smith elimination
over Q[x] and the gcd-of-minors definition for the invariant factors, the
minimal-index ladder over exact rationals and on integer rows, the
staircase deflation with its dense column step, conciseness by three
flattening ranks, the eigen-partition spectrum by enumeration of multiplicity profiles, the
rational-form paths of m(F), the spectrum's refinement and the determinant
product of an invariant-factor chain, powers
of linear forms by repeated squaring of rational forms, the derivative
rows of a form by one apolar product per operator, the essential variables
by the rational reduced row echelon form of the transposed catalecticant
and a change of coordinates, Sylvester's annihilator by a kernel at every
degree up to r, and the Lie-algebra
stabilizer systems of pencils and forms, ranked by two separate
eliminations of rational rows.  Two apolarity
routines that only tests call live here too: the binary apolar product and
the dimension of the linear annihilator of a form.  So do the small
routines on forms and pencils that only tests and oracles use: exact
division, the repeated part and the squarefree test of a binary form, its
value at a point and whether it is constant, the partial derivative of a
form, a linear substitution in a form on integers, and the Jordan block.
"""

from __future__ import annotations

import random
from math import gcd, isqrt
from itertools import combinations, count
from typing import Optional

from rankloci import linalg, upoly as up
from rankloci.apolarity import catalecticant
from rankloci.binary import (
    BinaryForm,
    SquarefreeDecomposition,
    _form,
    _split,
    gcd_binary,
    has_multiple_root,
    squarefree_decompose,
)
from rankloci.errors import InternalInvariantError
from rankloci.forms import (
    ConcisenessReport,
    MultiForm,
    PowerSumExpression,
    _multinomials,
    _primitive_support,
    apolar_apply,
    catalecticant_matrix,
    exponents,
)
from rankloci.orbits import OrbitReport
from rankloci.pencils import (
    Pencil,
    build_L,
    build_regular,
    direct_sum,
    normal_rank,
    zero_pencil,
)
from rankloci.rationals import ONE, ZERO, integral, rat

EIGENVALUE_POOL = [0, 1, -1, 2, -2, "1/2"]


# -- routines on forms and pencils that only tests use ------------------------


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def is_constant(f: BinaryForm) -> bool:
    return f.degree == 0 or f.is_zero


def evaluate(f: BinaryForm, sv, tv):
    sv, tv = rat(sv), rat(tv)
    d = f.degree
    return sum((c * sv ** (d - i) * tv**i for i, c in enumerate(f.coeffs)), ZERO)


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Exact quotient of homogeneous forms; raises if g does not divide f."""
    if g.is_zero:
        raise ZeroDivisionError("division of binary forms by zero")
    if f.is_zero:
        return BinaryForm.zero(max(f.degree - g.degree, 0))
    (p, a), (q, b) = _split(f), _split(g)
    if a < b:
        raise ValueError("inexact division of binary forms")
    quo = up.up_div_exact(p, q)
    # the last nonzero coefficients of F and G fix the rational unit
    unit = f.coeffs[-1 - a] / (g.coeffs[-1 - b] * quo[-1])
    return BinaryForm([unit * c for c in quo] + [ZERO] * (a - b))


def repeated_part(f: BinaryForm) -> BinaryForm:
    """gcd(F, dF/ds, dF/dt): each root contributes multiplicity-1 less.

    For s^2 t^2 this is s*t.  Nonconstant exactly when some projective root
    (including [1:0] and [0:1]) has multiplicity at least two.
    """
    if f.is_zero:
        raise ValueError("repeated part of the zero form is undefined")
    p, a = _split(f)
    return _form(up.up_gcd(p, up.up_diff(p)), max(a - 1, 0))


def is_squarefree(f: BinaryForm) -> bool:
    return not has_multiple_root(f)


def diff(F: MultiForm, j: int) -> MultiForm:
    """The partial derivative of F in its j-th variable."""
    terms = {}
    for exps, c in F.terms.items():
        if exps[j]:
            key = tuple(e - (1 if i == j else 0) for i, e in enumerate(exps))
            terms[key] = terms.get(key, ZERO) + exps[j] * c
    return MultiForm(F.n, F.degree - 1, terms)


def jordan_block(size: int, eigenvalue) -> list:
    lam = rat(eigenvalue)
    return [[lam if i == j else (ONE if j == i + 1 else ZERO) for j in range(size)] for i in range(size)]


def rand_invertible(rng: random.Random, n: int, lo=-3, hi=3):
    while True:
        A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if n == 0 or linalg.det(A) != 0:
            return A


def rand_gl2(rng: random.Random, lo=-4, hi=4):
    while True:
        a, b, c, d = (rng.randint(lo, hi) for _ in range(4))
        if a * d - b * c != 0:
            return a, b, c, d


def rand_binary_form(rng: random.Random, d: int, lo=-6, hi=6) -> BinaryForm:
    while True:
        f = BinaryForm([rng.randint(lo, hi) for _ in range(d + 1)])
        if not f.is_zero:
            return f


# factors with roots at [1:0] (t), at [0:1] (s), rational, and irrational
# (s^2 - 2 t^2, s^2 + t^2, s^3 - 3 s t^2 + t^3)
ROOT_FACTORS = [[0, 1], [1, 0], [1, -1], [2, 3], [1, 0, -2], [1, 0, 1], [1, 0, -3, 1]]


def rand_factored_form(rng: random.Random, max_mult: int = 4) -> BinaryForm:
    """A rational multiple (possibly zero) of a product of up to three factors
    from ROOT_FACTORS, each to a power 1..max_mult, or a small dense form."""
    if rng.random() < 0.2:
        return BinaryForm([rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
    f = BinaryForm([rat(rng.randint(-5, 5), rng.randint(1, 4))])
    for _ in range(rng.randint(0, 3)):
        f = f * BinaryForm(rng.choice(ROOT_FACTORS)).pow(rng.randint(1, max_mult))
    return f


def rand_multiform(rng: random.Random, n: int, d: int, lo=-4, hi=4) -> MultiForm:
    while True:
        terms = {e: rng.randint(lo, hi) for e in exponents(n, d)}
        F = MultiForm(n, d, terms)
        if not F.is_zero:
            return F


def rand_pencil(rng: random.Random, p: int, q: int, lo=-5, hi=5) -> Pencil:
    M1 = [[rng.randint(lo, hi) for _ in range(q)] for _ in range(p)]
    M2 = [[rng.randint(lo, hi) for _ in range(q)] for _ in range(p)]
    return Pencil(M1, M2)


def rand_kronecker_block(rng: random.Random):
    """(kind, block): a random Kronecker block of a random kind."""
    size = rng.randint(1, 3)
    nilpotent = jordan_block(size, 0)
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    kind, build = rng.choice([
        ("L", lambda: build_L(rng.randint(1, 2))),
        ("L^T", lambda: build_L(rng.randint(1, 2)).transpose()),
        ("zero row", lambda: zero_pencil(1, 0)),
        ("zero column", lambda: zero_pencil(0, 1)),
        ("finite", lambda: build_regular(jordan_block(size, rng.choice([1, -1, 2, "1/2"])))),
        ("[0:1]", lambda: build_regular(nilpotent)),     # s I + t N: det s^size
        ("[1:0]", lambda: Pencil(nilpotent, identity)),  # s N + t I: det t^size
        ("irreducible", lambda: build_regular(rng.choice([
            [[0, -1], [1, 0]],                                           # x^2 + 1
            [[0, 2], [1, 0]],                                            # x^2 - 2
            [[0, 0, 2], [1, 0, 0], [0, 1, 0]],                           # x^3 - 2
            [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 0]],  # (x^2 + 1)^2
        ]))),
    ])
    return kind, build()


def sample_canonical_pencil(rng: random.Random, max_side: int = 10):
    """Random Kronecker data (eps, eta, jordan blocks, zero block) fitting in
    max_side x max_side, plus its assembled pencil."""
    while True:
        eps = sorted(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        eta = sorted(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        jordan = [(rng.choice(EIGENVALUE_POOL), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        p0, q0 = rng.randint(0, 1), rng.randint(0, 1)
        f = sum(s for _, s in jordan)
        rows = sum(eps) + sum(e + 1 for e in eta) + f + p0
        cols = sum(e + 1 for e in eps) + sum(eta) + f + q0
        if 1 <= rows <= max_side and 1 <= cols <= max_side and (eps or eta or jordan):
            break
    data = (eps, eta, jordan, p0, q0)
    return data, assemble_canonical(*data)


def assemble_canonical(eps, eta, jordan, p0, q0) -> Pencil:
    """Direct sum of L blocks, transposed L blocks, the regular part
    s*Id + t*J of the Jordan blocks (eigenvalue, size), and a zero block."""
    blocks = [build_L(e) for e in eps] + [build_L(e).transpose() for e in eta]
    if jordan:
        f = sum(s for _, s in jordan)
        F = [[rat(0)] * f for _ in range(f)]
        at = 0
        for lam, size in jordan:
            J = jordan_block(size, lam)
            for i in range(size):
                for j in range(size):
                    F[at + i][at + j] = J[i][j]
            at += size
        blocks.append(build_regular(F))
    blocks.append(zero_pencil(p0, q0))
    return direct_sum(*blocks)


def canonical_truth(eps, eta, jordan, p0, q0):
    """Ground-truth (eps, eta, factor degrees, m_F, rank, p0, q0) of assembled
    Kronecker data: the k-th invariant factor from the top collects the k-th
    largest Jordan block of every eigenvalue."""
    by_lam = {}
    for lam, size in jordan:
        by_lam.setdefault(str(rat(lam)), []).append(size)
    chains = [sorted(v, reverse=True) for v in by_lam.values()]
    degs = []
    i = 0
    while True:
        tot = sum(c[i] for c in chains if len(c) > i)
        if not tot:
            break
        degs.append(tot)
        i += 1
    m = max((sum(1 for s in v if s >= 2) for v in by_lam.values()), default=0)
    f = sum(s for _, s in jordan)
    rank = sum(eps) + sum(eta) + len(eps) + len(eta) + f + m
    return tuple(eps), tuple(eta), tuple(sorted(degs)), m, rank, p0, q0


def conjugated(rng: random.Random, P: Pencil, rational: bool = False, gl2=None) -> Pencil:
    """GL2 substitution (s, t) -> (a s + b t, c s + d t) of the coordinates,
    by ``gl2`` = (a, b, c, d) or a random one, followed by random row/column
    transforms; with ``rational`` the row transform has non-integer entries."""
    a, b, c, d = gl2 or rand_gl2(rng)
    Q = P.substitute_st(a, b, c, d)
    rows = rand_invertible(rng, Q.rows)
    if rational:
        rows = [[rat(x, rng.randint(1, 4)) for x in row] for row in rows]
        while Q.rows and linalg.det(rows) == 0:
            rows = [[rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in row] for row in rows]
    return Q.conjugate(rows, rand_invertible(rng, Q.cols))


def distinct_rationals(rng: random.Random, count: int, num=12, den=4):
    """Random distinct small rationals."""
    out = set()
    while len(out) < count:
        out.add(rat(rng.randint(-num, num), rng.randint(1, den)))
    return sorted(out)


# -- oracle for the row reduction ---------------------------------------------


def rref_oracle(A):
    """Reduced row echelon form and pivot columns by Gauss-Jordan elimination
    over exact rationals, the loop ``linalg.rref`` ran before its integer
    kernel."""
    M = [[rat(e) if isinstance(e, int) else e for e in row] for row in A]
    if not M or not M[0]:
        return M, []
    n, m = len(M), len(M[0])
    pivots = []
    pr = 0
    for c in range(m):
        piv = next((r for r in range(pr, n) if M[r][c]), -1)
        if piv < 0:
            continue
        M[pr], M[piv] = M[piv], M[pr]
        pv = M[pr][c]
        if pv != 1:
            M[pr] = [e / pv for e in M[pr]]
        for r in range(n):
            if r != pr and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[pr])]
        pivots.append(c)
        pr += 1
        if pr == n:
            break
    return M, pivots


# -- oracles for the binary-form layer ----------------------------------------
# The package ran these over Q before its integer layer: Q[x] polynomials are
# ascending lists of rationals without trailing zeros, and a binary form is
# stripped of its s- and t-powers and dehomogenized at t = 1.


def q_divmod(f, g):
    """Quotient and remainder in Q[x]; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    if len(r) <= dg:
        return [], up.up_trim(r)
    q = [ZERO] * (len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            c = c / lead
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] -= c * g[j]
    return up.up_trim(q), up.up_trim(r)


def q_monic(f):
    return [c / f[-1] for c in f] if f else []


def q_gcd(f, g):
    """Monic gcd by Euclid (1 for coprime inputs, [] only if both are zero)."""
    a, b = list(f), list(g)
    while b:
        a, b = b, q_divmod(a, b)[1]
    return q_monic(a)


def q_div_exact(f, g):
    q, r = q_divmod(f, g)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def q_squarefree_parts(f):
    """(part, multiplicity) pairs by the derivative-gcd chain f, gcd(f, f'),
    gcd of that with its derivative, ...; parts monic, constants dropped."""
    chain = [q_monic(f)]
    while len(chain[-1]) > 1:
        h = chain[-1]
        chain.append(q_gcd(h, up.up_trim([i * c for i, c in enumerate(h)][1:])))
    # w[k] = product of all distinct factors of multiplicity >= k+1
    w = [q_div_exact(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    parts = []
    for k in range(len(w)):
        e = q_div_exact(w[k], w[k + 1]) if k + 1 < len(w) else w[k]
        if len(e) > 1:
            parts.append((e, k + 1))
    return parts


def _st_core(f: BinaryForm):
    """(a, b, g): F = s^a t^b G with G divisible by neither, g = G(s, 1)."""
    nz = [i for i, c in enumerate(f.coeffs) if c]
    return f.degree - nz[-1], nz[0], list(f.coeffs[nz[0] : nz[-1] + 1])[::-1]


def _homogenized(g, a: int, b: int) -> BinaryForm:
    """s^a t^b times the homogenization of the s-polynomial g."""
    return BinaryForm([ZERO] * b + g[::-1] + [ZERO] * a)


def gcd_binary_oracle(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if f.is_zero and g.is_zero:
        raise ValueError("gcd undefined for two zero forms")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    fa, fb, fc = _st_core(f)
    ga, gb, gc = _st_core(g)
    return _homogenized(q_gcd(fc, gc), min(fa, ga), min(fb, gb)).monic()


def divide_exact_oracle(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if g.is_zero:
        raise ZeroDivisionError("division of binary forms by zero")
    if f.is_zero:
        return BinaryForm.zero(f.degree - g.degree) if f.degree >= g.degree else BinaryForm([ZERO])
    fa, fb, fc = _st_core(f)
    ga, gb, gc = _st_core(g)
    if fa < ga or fb < gb:
        raise ValueError("inexact division of binary forms")
    return _homogenized(q_div_exact(fc, gc), fa - ga, fb - gb)


def squarefree_decompose_oracle(f: BinaryForm) -> SquarefreeDecomposition:
    if f.is_zero:
        raise ValueError("zero form has no squarefree decomposition")
    a, b, core = _st_core(f)
    graded = {mult: _homogenized(part, 0, 0) for part, mult in q_squarefree_parts(core)}
    for power, root in ((a, BinaryForm([ONE, ZERO])), (b, BinaryForm([ZERO, ONE]))):
        if power:
            graded[power] = graded[power] * root if power in graded else root
    parts = tuple((graded[j].monic(), j) for j in sorted(graded))
    dec = SquarefreeDecomposition(parts=parts, unit=ONE)
    prod = dec.reconstruct()
    lead = next(c for c in f.coeffs if c) / next(c for c in prod.coeffs if c)
    if prod.scale(lead) != f:
        raise AssertionError("squarefree decomposition failed to reconstruct input")
    return SquarefreeDecomposition(parts=parts, unit=lead)


def repeated_part_oracle(f: BinaryForm) -> BinaryForm:
    """gcd(F, dF/ds, dF/dt) by two gcds over Q."""
    if f.is_zero:
        raise ValueError("repeated part of the zero form is undefined")
    d = f.degree
    acc = f.monic()
    for h in ([(d - i) * c for i, c in enumerate(f.coeffs[:-1])],
              [i * c for i, c in enumerate(f.coeffs)][1:]):
        if any(h) and not is_constant(acc):
            acc = gcd_binary_oracle(acc, BinaryForm(h))
    return acc


def has_multiple_root_oracle(f: BinaryForm) -> bool:
    return f.is_zero or not is_constant(repeated_part_oracle(f))


# -- oracle for the quartic discriminant --------------------------------------


def discriminant_oracle(a0, a1, a2, a3, a4):
    """The classical discriminant of a0 s^4 + a1 s^3 t + ... + a4 t^4, term
    by term in exact rationals: the polynomial the package evaluated before
    it took the discriminant from the invariants I and J."""
    a0, a1, a2, a3, a4 = (rat(a) for a in (a0, a1, a2, a3, a4))
    return (
        256 * a0**3 * a4**3
        - 192 * a0**2 * a1 * a3 * a4**2
        - 128 * a0**2 * a2**2 * a4**2
        + 144 * a0**2 * a2 * a3**2 * a4
        - 27 * a0**2 * a3**4
        + 144 * a0 * a1**2 * a2 * a4**2
        - 6 * a0 * a1**2 * a3**2 * a4
        - 80 * a0 * a1 * a2**2 * a3 * a4
        + 18 * a0 * a1 * a2 * a3**3
        + 16 * a0 * a2**4 * a4
        - 4 * a0 * a2**3 * a3**2
        - 27 * a1**4 * a4**2
        + 18 * a1**3 * a2 * a3 * a4
        - 4 * a1**3 * a3**3
        - 4 * a1**2 * a2**3 * a4
        + a1**2 * a2**2 * a3**2
    )


# -- apolarity routines that only tests call -----------------------------------


def apolar_apply_binary(theta: BinaryForm, F: BinaryForm) -> BinaryForm:
    """theta . F for theta in the dual variables (alpha, beta) of (s, t)."""
    k = theta.degree
    if k > F.degree:
        raise ValueError("operator degree exceeds form degree")
    mat, cs = catalecticant(F, k), theta.coeffs
    return BinaryForm([sum((row[j] * cs[j] for j in range(k + 1)), ZERO) for row in mat])


def linear_apolar_kernel_dim(F: MultiForm) -> int:
    """dim of the linear part of the annihilator (independent conciseness test)."""
    return len(linalg.nullspace(catalecticant_matrix(F, 1)))


# -- oracle and planted inputs for the rational roots -------------------------


def _divisors(n: int, cap: int = 200_000):
    n = abs(n)
    if n == 0 or n > 10**12:
        return None
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
            if len(out) > cap:
                return None
        i += 1
    return sorted(set(out))


def rational_roots_quartic_oracle(f: BinaryForm):
    """The four projective roots of a squarefree binary quartic in a common
    affine coordinate, or None: the finder ``t244`` used before p-adic
    lifting.  A shear (s, t) -> (s, c s + t) with |c| < 40 moves every root
    off [1:0]; the rational root test then runs over trial-division
    divisors, and gives up above 10^12 or past 200,000 divisors."""
    c = None
    for cand in range(40):
        for sgn in (1, -1):
            if evaluate(f, 1, sgn * cand) != 0:
                c = sgn * cand
                break
        if c is not None:
            break
    if c is None:
        return None
    g = f.substitute(1, 0, c, 1)
    coeffs = list(g.coeffs[:5])  # coeff of mu^(4-i)
    den = 1
    for q in coeffs:
        qd = int(q.denominator)
        den = den * qd // gcd(den, qd)
    ints = [int(q * den) for q in coeffs]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    ints = [v // content for v in ints]
    roots = []
    work = ints
    if work[-1] == 0:  # mu = 0 is a (simple) root; deflate once
        roots.append(ZERO)
        work = work[:-1]
    dlead = _divisors(work[0])
    dconst = _divisors(work[-1])
    if dlead is None or dconst is None:
        return None
    for p in dconst:
        for q in dlead:
            if gcd(p, q) != 1:
                continue
            for sgn in (1, -1):
                mu = rat(sgn * p, q)
                acc = ZERO
                for v in ints:
                    acc = acc * mu + v
                if acc == 0:
                    roots.append(mu)
    if len(roots) != 4:
        return None
    return roots


def cross_ratios_oracle(f: BinaryForm):
    """The sorted six-value cross-ratio multiset of a squarefree binary
    quartic from ``rational_roots_quartic_oracle``, or None where it gives up."""
    roots = rational_roots_quartic_oracle(f)
    if roots is None or len(set(roots)) != 4:
        return None
    l1, l2, l3, l4 = roots
    lam = (l1 - l2) / (l1 - l3) * (l4 - l3) / (l4 - l2)
    return tuple(sorted((lam, 1 / lam, 1 - lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam)))


def projective_point(s: int, t: int):
    """[s:t] as the coprime pair with s > 0, or (0, 1)."""
    g = gcd(s, t)
    s, t = s // g, t // g
    return (s, t) if s > 0 or (s == 0 and t > 0) else (-s, -t)


def planted_roots_form(rng: random.Random):
    """(F, roots): a squarefree binary form of degree 1-4 with a random
    rational scale, and its rational projective roots as ``projective_point``
    pairs.  Roots have height up to 10, 10^3 or 10^6 (denominators up to
    10^3) and include [1:0] and [0:1] at times; about a third of the forms
    of degree 2 or more carry an irreducible quadratic factor."""
    d = rng.randint(1, 4)
    F = BinaryForm([rat(rng.choice((1, -1)) * rng.randint(1, 60), rng.randint(1, 60))])
    if d >= 2 and rng.random() < 0.35:
        while True:
            a, b, c = (rng.randint(-20, 20) for _ in range(3))
            disc = b * b - 4 * a * c
            if a and c and (disc < 0 or isqrt(disc) ** 2 != disc):
                break
        F = F * BinaryForm([a, b, c])
        d -= 2
    height = rng.choice((10, 10**3, 10**6))
    roots = set()
    while len(roots) < d:
        u = rng.random()
        if u < 0.1:
            roots.add((1, 0))
        elif u < 0.2:
            roots.add((0, 1))
        else:
            t = rng.randint(-height, height)
            s = rng.randint(1, min(height, 10**3))
            roots.add(projective_point(s, t))
    for s, t in roots:
        F = F * BinaryForm([t, -s])  # t s - s t vanishes at [s:t]
    return F, roots


# -- oracles for the invariant factors ---------------------------------------


def _up_add(f, g):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else ZERO) + (g[i] if i < len(g) else ZERO) for i in range(n)]
    return up.up_trim(out)


def _up_sub(f, g):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else ZERO) - (g[i] if i < len(g) else ZERO) for i in range(n)]
    return up.up_trim(out)


def _up_mul(f, g):
    if not f or not g:
        return []
    out = [ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return up.up_trim(out)


def smith_oracle(mat):
    """Invariant-factor chain of a matrix of polynomials over Q[x], by the
    general elimination that the package used before its pencil kernel.

    Classical elimination over the PID Q[x]: a minimal-degree pivot clears
    its row and column by division with remainder, and a fix-up row addition
    enforces that the pivot divides the remaining submatrix.  Returns the
    monic chain d_1 | d_2 | ... of length equal to the rank; entries beyond
    the rank (which would be zero) are omitted.  Entries are read through
    ``rat``, so integer input gives exact rational output.
    """
    M = [[up.up_trim([rat(c) for c in e]) for e in row] for row in mat]
    p = len(M)
    q = len(M[0]) if p else 0
    out = []
    top = 0
    while top < min(p, q):
        pi = pj = -1
        best = None
        for i in range(top, p):
            for j in range(top, q):
                e = M[i][j]
                if e:
                    d = len(e) - 1
                    if best is None or d < best:
                        best, pi, pj = d, i, j
                        if d == 0:
                            break
            if best == 0:
                break
        if best is None:
            break  # submatrix is zero
        if pi != top:
            M[top], M[pi] = M[pi], M[top]
        if pj != top:
            for row in M:
                row[top], row[pj] = row[pj], row[top]
        while True:
            dirty = False
            for i in range(top + 1, p):
                if M[i][top]:
                    qt, _ = q_divmod(M[i][top], M[top][top])
                    if qt:
                        Mi, Mt = M[i], M[top]
                        for j in range(top, q):
                            if Mt[j]:
                                Mi[j] = _up_sub(Mi[j], _up_mul(qt, Mt[j]))
                    if M[i][top]:  # remainder has smaller degree: promote it
                        M[top], M[i] = M[i], M[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, q):
                if M[top][j]:
                    qt, _ = q_divmod(M[top][j], M[top][top])
                    if qt:
                        for i in range(top, p):
                            if M[i][top]:
                                M[i][j] = _up_sub(M[i][j], _up_mul(qt, M[i][top]))
                    if M[top][j]:
                        for row in M:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if dirty:
                continue
            piv = M[top][top]
            bad = -1
            for i in range(top + 1, p):
                for j in range(top + 1, q):
                    if M[i][j] and q_divmod(M[i][j], piv)[1]:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            Mt, Mb = M[top], M[bad]
            for j in range(top, q):
                Mt[j] = _up_add(Mt[j], Mb[j])
        out.append(q_monic(M[top][top]))
        top += 1
    return out


def pencil_grid(A, B):
    """The entries x*A[i][j] + B[i][j] as Q[x] polynomials."""
    return [[up.up_trim([b, a]) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def oracle_invariant_factors(P: Pencil) -> list:
    """``invariant_factors`` with both dehomogenized chains taken from
    ``smith_oracle``: d_k = t^(a_k) times the homogenized k-th s-chain entry,
    a_k the order at t = 0 of the k-th t-chain entry."""
    if P.is_zero:
        return []
    es = smith_oracle(pencil_grid(P.M1, P.M2))
    fs = smith_oracle(pencil_grid(P.M2, P.M1))
    assert len(es) == len(fs)
    out = []
    for e, f in zip(es, fs):
        d = _homogenized(e, 0, next(i for i, c in enumerate(f) if c))
        if d.degree >= 1:
            out.append(d.monic())
    return out


def _minor_det(grid, rows, cols):
    """Determinant of the rows x cols submatrix of a grid of binary forms, by
    cofactor expansion along its first row."""
    if len(rows) == 1:
        return grid[rows[0]][cols[0]]
    acc = BinaryForm.zero(len(rows))
    r0 = rows[0]
    for k, c in enumerate(cols):
        e = grid[r0][c]
        if e.is_zero:
            continue
        term = e * _minor_det(grid, rows[1:], cols[:k] + cols[k + 1 :])
        acc = acc + (term if k % 2 == 0 else -term)
    return acc


def symbolic_det_oracle(P: Pencil) -> BinaryForm:
    """det(s M1 + t M2) of a square pencil by cofactors, as the package
    computed it before it took the determinant from the invariant factors."""
    n = P.rows
    if n == 0:
        return BinaryForm([ONE])
    grid = [[P.entry(i, j) for j in range(n)] for i in range(n)]
    return _minor_det(grid, tuple(range(n)), tuple(range(n)))


def invariant_factors_minor_gcd(P: Pencil) -> list:
    """Invariant factors straight from the definition: D_k = gcd of all k x k
    minors (homogeneous), d_k = D_k / D_{k-1}.  Exponential in the size;
    meant for small pencils and as an oracle for ``invariant_factors``."""
    grid = [[P.entry(i, j) for j in range(P.cols)] for i in range(P.rows)]
    r = normal_rank(P)
    prev = BinaryForm([ONE])
    out = []
    for k in range(1, r + 1):
        g: Optional[BinaryForm] = None
        for rows in combinations(range(P.rows), k):
            for cols in combinations(range(P.cols), k):
                m = _minor_det(grid, rows, cols)
                if m.is_zero:
                    continue
                g = m.monic() if g is None else gcd_binary(g, m)
                if is_constant(g):
                    break
            if g is not None and is_constant(g):
                break
        if g is None:
            raise InternalInvariantError("normal rank and vanishing minors disagree", {"k": k})
        d = divide_exact(g, prev).monic()
        if d.degree >= 1:
            out.append(d)
        prev = g
    return out


# -- oracle for the minimal indices -------------------------------------------


def _rational_ladder(P: Pencil, count: int):
    """Right minimal indices by the ladder the package ran before its integer
    kernel: ``linalg.nullspace``/``solve`` over the rationals, one solve per
    prefix extension.  Returns (positive_indices, zero_index_count)."""
    if count == 0:
        return [], 0
    if P.rows == 0:
        return [], count
    M1, M2 = P.M1, P.M2
    q = P.cols
    ker1 = linalg.nullspace(M1)
    left_null = linalg.nullspace(transpose(M1))
    cond = [linalg._mat_vec(transpose(M2), y) for y in left_null]  # rows y*M2
    last = [v[:] for v in ker1]
    c_prev = 0
    found = {}
    total = 0
    k = 0
    while total < count:
        assert k <= P.rows + P.cols + 1, "ladder failed to terminate"
        dim = len(last)
        c_k = dim - linalg.rank([linalg._mat_vec(M2, v) for v in last]) if dim else 0
        n_k = c_k - c_prev
        jump = n_k - total
        assert jump >= 0 and n_k >= 0
        if jump:
            found[k] = jump
            total = n_k
        if total >= count:
            break
        c_prev = c_k
        if cond and dim:
            E = [[sum((c[j] * v[j] for j in range(q)), ZERO) for v in last] for c in cond]
            keep = linalg.nullspace(E)
        else:
            keep = [[ONE if i == j else ZERO for i in range(dim)] for j in range(dim)]
        new_last = []
        for u in keep:
            v = [sum((u[i] * last[i][j] for i in range(dim)), ZERO) for j in range(q)]
            x = linalg.solve(M1, [-x for x in linalg._mat_vec(M2, v)])
            assert x is not None, "prefix extension unsolvable"
            new_last.append(x)
        new_last.extend(v[:] for v in ker1)
        last = new_last
        k += 1
    eps = [idx for idx in sorted(found) if idx > 0 for _ in range(found[idx])]
    return eps, found.get(0, 0)


def ladder_oracle(P: Pencil):
    """``minimal_indices`` with the normal rank from ``normal_rank``
    (specializations) and both ladders over the rationals."""
    r = normal_rank(P)
    eps, zero_cols = _rational_ladder(P, P.cols - r)
    eta, zero_rows = _rational_ladder(P.transpose(), P.rows - r)
    return sorted(eps), sorted(eta), zero_rows, zero_cols


def _kernel_basis(rows, piv, n):
    """Primitive integer basis of the right kernel on columns range(n) of
    reduced rows with one common pivot (as ``_common_pivot`` leaves them):
    one vector per free column c, ascending, positive at c and zero at the
    other free columns."""
    pivset = set(piv)
    basis = []
    for c in range(n):
        if c in pivset:
            continue
        v = [0] * n
        v[c] = rows[0][piv[0]] if piv else 1
        for r, pc in zip(rows, piv):
            v[pc] = -r[c]
        basis.append(linalg._primitive(v))
    return basis


def _right_index_ladder(M1, M2, count: int):
    """Multiset of right (column) minimal indices of the integer pencil
    s*M1 + t*M2, via kernel dimensions of the coefficient systems of
    polynomial kernel vectors: the ladder the package ran on the integer
    kernel of ``linalg`` before it read the indices off the staircase.

    A degree-k kernel vector x(s,t) = sum x_i s^(k-i) t^i satisfies
    M1 x_0 = 0, M1 x_i = -M2 x_(i-1), M2 x_k = 0.  The space of valid
    prefixes is carried by the last block of each basis prefix; the number
    of minimal indices <= k is the jump c_k - c_(k-1) of full-solution
    counts.  Every quantity is a span, so each prefix is kept as a primitive
    integer vector.  Returns (positive_indices, zero_index_count) with
    len + zeros == count.
    """
    if count == 0:
        return [], 0
    if not M1:
        return [], count  # no constraints: every column is a zero column
    p, q = len(M1), len(M1[0])
    # one elimination of [M1 | I]: its rows are [R | T] with T*M1 = R (common
    # pivot L on the columns piv) and [0 | Y] with Y*M1 = 0
    rows = [r + [int(i == j) for j in range(p)] for i, r in enumerate(M1)]
    piv = linalg._eliminate(rows, range(q))
    r1 = len(piv)
    R, _ = linalg._common_pivot(rows[:r1], piv)
    ker1 = _kernel_basis(R, piv, q)
    # G*M2 for the invertible G = [T; Y].  For a prefix ending in v, M1 x =
    # -M2 v is solvable exactly when the Y part of G*M2*v (cond*v) vanishes,
    # and then its T part, placed on the pivot columns, is -L*x.
    M2t = transpose(M2)
    GM2 = [linalg._mat_vec(M2t, g[q:]) for g in R + rows[r1:]]

    last = ker1  # last-block values of a basis of the prefix space
    c_prev = 0
    found = {}
    total = 0
    k = 0
    while True:
        if k > p + q + 1:
            raise InternalInvariantError(
                "minimal-index ladder failed to terminate",
                {"m1": M1, "m2": M2, "found": found, "expected": count},
            )
        Z = [linalg._mat_vec(GM2, v) for v in last]
        # combinations of the prefixes with cond*v = 0 come out as Z[b:]
        b = len(linalg._eliminate(Z, range(r1, p)))
        ext = Z[b:]
        if any(z[j] for z in ext for j in range(r1, p)):
            raise InternalInvariantError("prefix extension unexpectedly unsolvable", {"k": k})
        # full solutions at degree k: prefixes whose last block lies in ker M2,
        # counted as len(last) - rank(M2 V) with rank(M2 V) = rank(G M2 V)
        c_k = len(last) - b - len(linalg._eliminate(ext, range(r1)))
        n_k = c_k - c_prev  # number of minimal indices <= k
        jump = n_k - total
        if jump < 0 or n_k < 0:
            raise InternalInvariantError("kernel ladder dimensions are inconsistent",
                                         {"k": k, "c_k": c_k, "c_prev": c_prev})
        if jump:
            found[k] = jump
            total = n_k
        if total >= count:
            break
        c_prev = c_k
        # extend the solvable prefixes (scaled by -L), then add ker M1
        last = []
        for z in ext:
            x = [0] * q
            for c, a in zip(piv, linalg._primitive(z[:r1])):
                x[c] = a
            last.append(x)
        last.extend(ker1)
        k += 1
    eps = []
    zeros = found.get(0, 0)
    for idx in sorted(found):
        if idx > 0:
            eps.extend([idx] * found[idx])
    return eps, zeros


def integer_ladder_oracle(P: Pencil):
    """``minimal_indices`` by the integer ladder on both sides of the
    pencil's integer slices, with the normal rank from ``normal_rank``."""
    N1, N2 = [list(r) for r in P.N1], [list(r) for r in P.N2]
    r = normal_rank(P)
    eps, zero_cols = _right_index_ladder(N1, N2, P.cols - r)
    eta, zero_rows = _right_index_ladder(transpose(N1), transpose(N2), P.rows - r)
    return sorted(eps), sorted(eta), zero_rows, zero_cols


def concise_oracle(P: Pencil) -> bool:
    """Conciseness of the 2 x p x q tensor by its three flattening ranks
    (independent slices, no common left kernel, no common right kernel),
    each a Bareiss rank of the integer slices: the test the package ran
    before it read conciseness off the Kronecker form."""
    N1, N2 = [list(r) for r in P.N1], [list(r) for r in P.N2]
    rank = lambda rows: len(linalg._bareiss(rows)[0])
    if rank([[e for row in N1 for e in row], [e for row in N2 for e in row]]) < 2:
        return False
    if rank([r1 + r2 for r1, r2 in zip(N1, N2)]) < P.rows:
        return False
    return rank(N1 + N2) >= P.cols


def deflate_rows_oracle(rows, q):
    """``upoly._deflate_rows`` with its dense column step: each kept entry
    is D*r[h+j] minus w[q+j]*r[h+c] summed over every cut column c, zero
    terms included.  Eliminates ``rows`` in place, as the kernel does."""
    units, drops = [], []
    for k in count():
        rank = len(linalg._eliminate(rows, range(q)))
        rest, const = rows[:rank], rows[rank:]
        if not const:
            return rows, q, units, drops
        wpiv = linalg._eliminate(const, range(q, 2 * q))
        drops += [k] * (len(const) - len(wpiv))
        W, D = linalg._common_pivot(const[: len(wpiv)], wpiv)
        cut = [c - q for c in wpiv]
        keep = [j for j in range(q) if j not in cut]
        rows = [
            linalg._primitive([D * r[h + j] - sum(w[q + j] * r[h + c] for w, c in zip(W, cut))
                               for h in (0, q) for j in keep])
            for r in rest
        ]
        q = len(keep)
        units.append(len(W))


# -- oracle for the eigen-partition spectrum ----------------------------------


def spectrum_oracle(factors) -> tuple:
    """``eigen_partition_spectrum`` as the package computed it before its
    coprime refinement: enumerate every nondecreasing multiplicity vector,
    largest first, and count the fresh roots of the gcd of the matching
    "multiplicity >= c" parts of each factor."""
    m = len(factors)
    if m == 0:
        return ()
    # parts[i][c] = squarefree form whose roots have multiplicity >= c in factor i
    parts = []
    maxmult = 0
    for d in factors:
        graded = {j: e for e, j in squarefree_decompose(d).parts}
        top = max(graded, default=0)
        maxmult = max(maxmult, top)
        byfloor = {}
        for c in range(1, top + 1):
            acc = BinaryForm([ONE])
            for j, e in graded.items():
                if j >= c:
                    acc = acc * e
            byfloor[c] = acc.monic()
        parts.append(byfloor)

    profiles = []

    def gen(i, prev, acc):
        if i == m:
            if acc[-1] >= 1:
                profiles.append(tuple(acc))
            return
        for c in range(prev, maxmult + 1):
            gen(i + 1, c, acc + [c])

    gen(0, 0, [])
    # componentwise-larger profiles first, so counting can subtract the
    # roots already assigned
    profiles.sort(key=lambda v: (sum(v), v), reverse=True)
    assigned = BinaryForm([ONE])
    spectrum = []
    for v in profiles:
        acc = None
        for i, c in enumerate(v):
            if c == 0:
                continue
            pw = parts[i].get(c)
            acc = None if pw is None else (pw if acc is None else gcd_binary(acc, pw))
            if acc is None or is_constant(acc):
                acc = None
                break
        if acc is None:
            continue
        fresh = divide_exact(acc, gcd_binary(acc, assigned))
        if fresh.degree > 0:
            spectrum.extend([tuple(c for c in v if c)] * fresh.degree)
            assigned = (assigned * fresh).monic()
    return tuple(sorted(spectrum))


# -- rational-form paths of the chain's m(F), spectrum and determinant -----------
# The package ran these on ``BinaryForm`` factors before it kept the
# staircase's integer chain through classification.


def m_F_oracle(factors) -> int:
    return sum(1 for d in factors if has_multiple_root_oracle(d))


def refinement_spectrum_oracle(factors) -> tuple:
    """``eigen_partition_spectrum``'s coprime refinement on rational forms,
    with the Euclid-over-Q gcd, quotient and squarefree split."""
    if not factors:
        return ()
    pieces = [(e, (j,)) for e, j in squarefree_decompose_oracle(factors[-1]).parts]
    for d in reversed(factors[:-1]):
        parts = squarefree_decompose_oracle(d).parts
        refined = []
        for e, profile in pieces:
            for g, k in parts:
                h = gcd_binary_oracle(e, g)
                if h.degree:
                    refined.append((h, (k,) + profile))
                    e = divide_exact_oracle(e, h)
            if e.degree:
                refined.append((e, profile))
        pieces = refined
    return tuple(sorted(p for e, p in pieces for _ in range(e.degree)))


def det_product_oracle(P: Pencil, factors) -> BinaryForm:
    """det(s M1 + t M2) as the product of the monic factors, scaled by one
    rational determinant at a point where the product does not vanish."""
    n = P.rows
    if sum(d.degree for d in factors) < n:
        return BinaryForm.zero(n)
    D = BinaryForm([ONE])
    for d in factors:
        D = D * d
    s, t = next((s, t) for s, t in [(1, 0)] + [(k, 1) for k in range(n)] if evaluate(D, s, t))
    value = linalg.det([[s * a + t * b for a, b in zip(r1, r2)] for r1, r2 in zip(P.M1, P.M2)])
    return D.scale(value / evaluate(D, s, t))


# -- powers of linear forms and linear substitution -----------------------------
# The oracles expand by repeated squaring of rational forms, as the package
# did before its multinomial kernel on integers.


def expand_power_sum_oracle(expr: PowerSumExpression) -> MultiForm:
    n = expr.summands[0][1].n
    acc = MultiForm.zero(n, expr.exponent)
    for c, lin, e in expr.summands:
        if c:
            acc = acc + lin.pow(e).scale(c)
    return acc


def power_of_quadric_oracle(n: int, k: int) -> MultiForm:
    q = MultiForm(n, 2, {tuple(2 if i == j else 0 for i in range(n)): ONE for j in range(n)})
    return q.pow(k)


def substitute(F: MultiForm, A) -> MultiForm:
    """F(A y): A has one row per old variable, one column per new one;
    ValueError unless A has n rows, all of one length.  Each row is a
    positive scalar times a primitive integer vector, whose powers are
    expanded on integers by the multinomial theorem; the terms are summed
    over one common denominator.  This was ``MultiForm.substitute``, until
    nothing in the package substituted; tests use it to move forms."""
    if len(A) != F.n or any(len(row) != len(A[0]) for row in A):
        raise ValueError(f"substitution needs {F.n} rows of one length")
    m = len(A[0])
    rows = [_primitive_support([(j, v) for j, v in enumerate(map(rat, row)) if v]) for row in A]
    powers = {}
    weights, products = [], []
    for exps, c in F.terms.items():
        product = {(0,) * m: 1}
        for i, e in enumerate(exps):
            if e:
                s, w = rows[i]
                c *= s**e
                if (i, e) not in powers:
                    powers[i, e] = _int_linear_power(w, m, e)
                product = _int_mul(product, powers[i, e])
        if c:
            weights.append(c)
            products.append(product)
    fs, den = integral(weights)
    acc = {}
    for f, product in zip(fs, products):
        for k, v in product.items():
            acc[k] = acc.get(k, 0) + f * v
    return MultiForm(m, F.degree, {k: rat(v, den) for k, v in acc.items() if v})


def _int_linear_power(support, n, e):
    """(w . y)^e for the integer vector w in n variables given by its
    (index, nonzero int) pairs, as {exponents: int}."""
    out = {}
    for split, c in _multinomials(len(support), e):
        key = [0] * n
        for (i, w), a in zip(support, split):
            c *= w**a
            key[i] = a
        out[tuple(key)] = c
    return out


def _int_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def substitute_oracle(F: MultiForm, A) -> MultiForm:
    """F(A y) by products of powers of the rows of A as rational forms."""
    m = len(A[0])
    rows = [MultiForm.linear(row) if any(row) else MultiForm.zero(m, 1) for row in A]
    out = MultiForm.zero(m, F.degree)
    cache = {}
    for exps, c in F.terms.items():
        term = MultiForm(m, 0, {(0,) * m: c})
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in cache:
                    cache[i, e] = rows[i].pow(e)
                term = term * cache[i, e]
        out = out + term
    return out


def derivative_rows_oracle(F: MultiForm):
    """The rows ``essential_variables`` reduces, built as the package built
    them before it read them off the catalecticant: row a holds the
    coefficients of the linear form alpha^a . F, one apolar product per
    operator alpha^a of degree d - 1."""
    n = F.n
    rows = []
    for a in exponents(n, F.degree - 1):
        g = apolar_apply(MultiForm.monomial(n, a), F)
        rows.append([g.coefficient(tuple(1 if i == j else 0 for i in range(n))) for j in range(n)])
    return rows


# -- oracles for conciseness and Sylvester's annihilator ----------------------
# The package reduced the whole transposed catalecticant over the rationals
# and re-expanded F in a completed basis to check membership, and it took a
# kernel at every degree up to r, before it read both off integers.


def essential_variables_oracle(F: MultiForm) -> ConcisenessReport:
    R, piv = linalg.rref(transpose(catalecticant_matrix(F, F.degree - 1)))
    k, n = len(piv), F.n
    if k < n:
        # the unit vectors off the pivot columns complete the reduced rows to
        # a basis; in y = P x, F(Pinv y) must only involve y_1..y_k
        P = R[:k] + [[ONE if i == j else ZERO for i in range(n)] for j in range(n) if j not in piv]
        G = substitute(F, linalg.inverse(P))
        if any(exps[j] for exps in G.terms for j in range(k, n)):
            raise InternalInvariantError("form does not lie in the power of its essential span",
                                         {"form": F.to_json(), "essential_count": k})
    return ConcisenessReport(k, tuple(MultiForm.linear(row) for row in R[:k]), k == n)


def apolar_theta_oracle(F: BinaryForm):
    for k in range(F.degree + 1):
        ker = linalg.nullspace(catalecticant(F, k))
        if ker:
            return k, BinaryForm(ker[0]).monic(), len(ker)
    raise InternalInvariantError("no annihilator found up to degree d", {"form": F.to_json()})


# -- oracle for the Lie-algebra stabilizers ------------------------------------
# The package assembled the stabilizer systems on rational rows and ranked
# the augmented and the plain system in two separate eliminations before it
# took both ranks from one Bareiss pass on integer rows.  For pencils it now
# reads the orbit dimensions off the Kronecker invariants in closed form, so
# this is the only place a pencil's system is still solved.


def _pencil_stabilizer_rows(T: Pencil):
    p, q = T.rows, T.cols
    M = (T.M1, T.M2)
    unknowns = 4 + p * p + q * q
    g2_off = 4
    g3_off = 4 + p * p
    rows = []
    for part in (0, 1):  # s-coefficient, then t-coefficient
        for i in range(p):
            for j in range(q):
                row = [ZERO] * (unknowns + 1)
                if part == 0:
                    row[0] = M[0][i][j]   # a
                    row[1] = M[1][i][j]   # b
                else:
                    row[2] = M[0][i][j]   # c
                    row[3] = M[1][i][j]   # d
                slab = M[part]
                for k in range(p):
                    row[g2_off + i * p + k] += slab[k][j]
                for k in range(q):
                    row[g3_off + k * q + j] -= slab[i][k]
                row[unknowns] = -slab[i][j]  # scaling column
                rows.append(row)
    return unknowns, rows, unknowns


def _form_stabilizer_rows(F: MultiForm):
    n, d = F.n, F.degree
    monos = exponents(n, d)
    mono_index = {m: r for r, m in enumerate(monos)}
    unknowns = n * n
    rows = [[ZERO] * (unknowns + 1) for _ in monos]
    partials = [diff(F, j) for j in range(n)]
    for j in range(n):
        for exps, c in partials[j].terms.items():
            for i in range(n):
                key = tuple(e + (1 if t == i else 0) for t, e in enumerate(exps))
                rows[mono_index[key]][i * n + j] += c
    for exps, c in F.terms.items():
        rows[mono_index[exps]][unknowns] = -c
    return n * n, rows, unknowns


def stabilizer_oracle(X) -> OrbitReport:
    """``pencil_stabilizer`` or ``form_stabilizer`` of X, whichever fits its
    type, with ``linalg.rank`` on the rational rows with and without the
    scaling column."""
    if X.is_zero:
        raise ValueError("stabilizer of the zero point is everything")
    build = _pencil_stabilizer_rows if isinstance(X, Pencil) else _form_stabilizer_rows
    group_dim, rows, unknowns = build(X)
    rank_aug = linalg.rank(rows)
    rank_plain = linalg.rank([r[:-1] for r in rows])
    stab = unknowns - rank_plain
    proj_stab = (unknowns + 1) - rank_aug
    affine = group_dim - stab
    projective = group_dim - proj_stab
    if projective != affine - 1:
        raise InternalInvariantError(
            "scalars do not rescale this point; projective dimension shortcut invalid",
            {"affine_orbit_dim": affine, "projective_orbit_dim": projective},
        )
    return OrbitReport(group_dim, stab, proj_stab, affine, projective)
