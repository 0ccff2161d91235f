"""Dense univariate polynomials on the integers, and the invariant factors
of linear matrix pencils s*A + t*B.

A polynomial is a plain list of integer coefficients in ascending degree
order with no trailing zeros; the zero polynomial is the empty list.  Over
Q a nonzero polynomial is determined up to a unit by its primitive part
(content 1, positive leading coefficient), so gcds, quotients and
squarefree parts are taken on primitive integer lists: the gcd by the
primitive pseudo-remainder sequence (Collins 1967), the quotient by a
primitive divisor by exact integer division (Gauss's lemma: it is integral
whenever it exists over Q), and the squarefree split by Yun's algorithm
(1976), one gcd plus exact divisions; the rational roots of a squarefree
polynomial by p-adic lifting (Loos 1983).  The function-per-operation style
keeps the hot paths free of object overhead.

``smith_invariant_factors`` never forms a matrix of polynomials.  One row
pass and one column pass of constant operations on x*A + B (x = s/t) peel
off the singular part and the unit factors (the staircase deflation of Van
Dooren, 1979) and leave a square invertible leading matrix; the finite
factors are the similarity invariants of -A^-1 B, read from a Krylov
(Frobenius) decomposition.  The steps at which the passes drop rows and
columns are the minimal indices, step 0 counting the zero rows and columns,
and the units the row pass removes at each step give the Jordan blocks at
[1:0], so one staircase yields the whole Kronecker structure.  Callers
pass integer matrices A and B (``pencils`` clears a pencil's denominators
once per call), and the elimination is the integer kernel of ``linalg``
(rows kept primitive); no rational is ever formed.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .errors import InternalInvariantError
from .linalg import _common_pivot, _eliminate, _mat_vec, _primitive


def up_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def up_primitive(f):
    """Primitive part of a nonzero polynomial, leading coefficient positive."""
    g = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [c // g for c in f] if g != 1 else f


def up_diff(f):
    return [i * c for i, c in enumerate(f)][1:]


def up_sub(f, g):
    n = max(len(f), len(g))
    return up_trim([a - b for a, b in zip(f + [0] * (n - len(f)), g + [0] * (n - len(g)))])


def up_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def up_div_exact(f, g):
    """The quotient f / g, integral because g is primitive; ValueError when g
    does not divide f."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    q = [0] * max(len(r) - dg, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + dg], lead)
        if rem:
            raise ValueError("inexact polynomial division")
        if c:
            q[i] = c
            for j in range(dg):
                r[i + j] -= c * g[j]
    if any(r[:dg]):
        raise ValueError("inexact polynomial division")
    return q


def up_gcd(f, g):
    """Primitive gcd ([1] for coprime inputs, [] only if both are zero), by
    the primitive pseudo-remainder sequence."""
    if not f or not g:
        return up_primitive(f or g) if f or g else []
    a, b = up_primitive(f), up_primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # pseudo-remainder: a <- (lead b / h) a - (lead a / h) t^k b with h the
        # gcd of the two leads, until deg a < deg b
        db, lb = len(b) - 1, b[-1]
        while len(a) > db:
            h = gcd(lb, a[-1])
            m, n, k = lb // h, a[-1] // h, len(a) - 1 - db
            a = [m * x for x in a]
            for j in range(db):
                a[k + j] -= n * b[j]
            a.pop()
            up_trim(a)
        if not a:
            return b
        a, b = b, up_primitive(a)
    return b


def up_squarefree_parts(f):
    """Yun's squarefree split of a nonzero primitive polynomial: the list of
    (a_k, k), k ascending, with f = prod a_k^k and the a_k primitive,
    squarefree, pairwise coprime and nonconstant."""
    if not f:
        raise ValueError("zero polynomial has no squarefree split")
    df = up_diff(f)
    g = up_gcd(f, df)
    c = up_div_exact(f, g)
    d = up_sub(up_div_exact(df, g), up_diff(c))
    parts = []
    k = 1
    while len(c) > 1:
        a = up_gcd(c, d)
        c = up_div_exact(c, a)
        d = up_sub(up_div_exact(d, a), up_diff(c))
        if len(a) > 1:
            parts.append((a, k))
        k += 1
    return parts


def _horner(f, x, m):
    """f(x) mod m."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def up_rational_roots(f):
    """The rational roots of a nonzero squarefree primitive polynomial,
    ascending, as coprime pairs (num, den) with den > 0; ValueError when f
    has a square factor.

    Loos' p-adic method (SIAM J. Comput. 12, 1983): at the first prime p
    not dividing the leading coefficient a_n at which every root mod p is
    simple (one exists because f is squarefree), each root mod p is
    Newton-lifted to a modulus p^k > 2(|a_n| + max |a_i|).  A rational
    root r lifts from exactly one of them, and a_n r is an integer of
    absolute value at most |a_n| + max |a_i| (Cauchy's bound), so it is the
    symmetric residue of a_n times that lift.  Each candidate c is tested
    exactly: sum a_i c^i a_n^(n-i) = 0.
    """
    df = up_diff(f)
    if len(up_gcd(f, df)) > 1:
        raise ValueError("rational roots need a squarefree polynomial")
    n, lead = len(f) - 1, f[-1]
    p = 1
    while True:
        p += 1
        if lead % p and all(p % q for q in range(2, int(p**0.5) + 1)):
            roots = [r for r in range(p) if not _horner(f, r, p)]
            if all(_horner(df, r, p) for r in roots):
                break
    bound = 2 * (lead + max(map(abs, f)))
    cands = []
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(f, r, m) * pow(_horner(df, r, m), -1, m)) % m
        c = lead * r % m
        cands.append(c - m if 2 * c > m else c)
    out = []
    for c in sorted(cands):
        if not sum(a * c**i * lead ** (n - i) for i, a in enumerate(f)):
            g = gcd(c, lead)
            out.append((c // g, lead // g))
    return out


# -- invariant factors of a linear pencil ------------------------------------


def _deflate_rows(rows, q):
    """Remove the left-kernel rows of the x part of the pencil.

    ``rows`` holds integer rows [x part | constant part] of width 2q.  Rows
    whose x part the elimination clears are constant rows W; the zero ones
    are dropped, and ``drops`` records the step k = 0, 1, ... at which each
    was.  A reduced W row with pivot column c is a unit invariant factor:
    constant column operations turn it into a multiple of e_c, and it is
    deleted with column c.  Every entry stays linear.  Returns (rows, q,
    units, drops) once the x part has full row rank, ``units`` holding the
    number of unit factors removed at each step.

    The number of rows dropped at step 0 is the dimension of the common
    left kernel of the two parts (on the transposed pencil, of the common
    right kernel): ``pencils`` reads conciseness off it.  The column step
    subtracts r[h+c] times W_c from a row's half h only where r[h+c] is
    nonzero; a zero term adds nothing, so the result is the dense sum,
    integer for integer.
    """
    units, drops = [], []
    for k in count():
        rank = len(_eliminate(rows, range(q)))
        rest, const = rows[:rank], rows[rank:]
        if not const:
            return rows, q, units, drops
        wpiv = _eliminate(const, range(q, 2 * q))
        drops += [k] * (len(const) - len(wpiv))
        W, D = _common_pivot(const[: len(wpiv)], wpiv)
        cut = [c - q for c in wpiv]
        keep = [j for j in range(q) if j not in cut]
        # column j becomes D*col_j - sum_c w_c[j]*col_c, so each W row is D*e_c
        steps = list(zip(cut, [[w[q + j] for j in keep] for w in W]))
        rows = []
        for r in rest:
            row = []
            for h in (0, q):
                acc = [D * r[h + j] for j in keep]
                for c, w in steps:
                    x = r[h + c]
                    if x:
                        acc = [a - x * b for a, b in zip(acc, w)]
                row += acc
            rows.append(_primitive(row))
        q = len(keep)
        units.append(len(W))


def _flip(rows, q):
    """The transposed pencil, in the same [x part | constant part] layout."""
    return [[r[j] for r in rows] + [r[q + j] for r in rows] for j in range(q)]


def _krylov(N, v):
    """Krylov space of v under the integer matrix N.

    Rows [N^k v | x^k] are appended and eliminated on their first n columns
    until one vanishes there; its polynomial part f then has f(N) v = 0 at
    the least degree.  Returns (f, reduced basis rows of the Krylov space,
    their pivot columns).
    """
    n = len(N)
    rows, w = [], v
    while True:  # n + 1 vectors in Q^n are dependent
        k = len(rows)
        rows.append(w + [0] * k + [1] + [0] * (n - k))
        piv = _eliminate(rows, range(n))
        if len(piv) < len(rows):  # the new row is dependent and stayed last
            return rows[-1][n : n + k + 1], [r[:n] for r in rows[:-1]], piv
        w = _mat_vec(N, w)


def _annihilates(N, f, j):
    """Whether f(N) e_j = 0 (Horner's rule)."""
    y = [0] * len(N)
    y[j] = f[-1]
    for a in reversed(f[:-1]):
        y = _mat_vec(N, y)
        y[j] += a
    return not any(y)


def _frobenius(N, num, den):
    """Nonconstant similarity invariants of (num/den)*N, largest first, as
    primitive integer polynomials; num/den is a nonzero reduced fraction.

    The Krylov space K of a start vector whose minimal polynomial is that of
    N is a cyclic summand, so the invariants are that polynomial followed
    by the invariants of N acting on the quotient by K.  Start vectors are
    (1, c, c^2, ...) for c = 0, 1, ...: the vectors that fall short lie in
    at most n proper subspaces, and the moment curve meets each of them in
    at most n - 1 points, so c < n*(n-1) + 1 always succeeds.
    """
    out = []
    while N:
        n = len(N)
        for c in range(n * (n - 1) + 1):
            f, K, piv = _krylov(N, [c**i for i in range(n)])
            rest = [j for j in range(n) if j not in piv]
            # f(N) vanishes on K; the standard vectors off the pivots complete it
            if all(_annihilates(N, f, j) for j in rest):
                break
        else:
            raise InternalInvariantError("no start vector reached the minimal polynomial",
                                         {"size": n})
        # f(N) = 0, so num^d f(x den/num), on integers, kills (num/den)*N
        d = len(f) - 1
        out.append(up_primitive([a * num ** (d - k) * den**k for k, a in enumerate(f)]))
        # quotient: N e_j minus its K-component, read on the coordinates off the pivots
        K, L = _common_pivot(K, piv)
        N = [[L * N[i][j] - sum(N[p][j] * k[i] for p, k in zip(piv, K)) for j in rest]
             for i in rest]
        g = gcd(*[x for row in N for x in row]) or 1
        N = [[x // g for x in row] for row in N]
        h = gcd(num * g, den * L)
        num, den = num * g // h, den * L // h
    return out


def smith_invariant_factors(A, B):
    """Homogeneous invariant-factor chain of the pencil s*A + t*B, and the
    singular part that the staircase deflation reads on the way.

    A and B are p x q integer matrices (a caller with rational entries
    scales both by one common denominator first, which changes the chain by
    units only).  Returns (chain, row_drops, col_drops).  The chain holds
    d_1 | d_2 | ..., of length equal to the rank of the pencil, unit factors
    included, each an integer list in ``BinaryForm``'s order (index i holds
    the coefficient of s^(d-i) t^i) with content 1 and a positive first
    nonzero coefficient; entries beyond the rank (which would be zero) are
    omitted.  ``row_drops`` holds, for each row that the row pass drops, the
    step at which it did: 0 for a zero row of the Kronecker form, eta for
    an L_eta^T block.  ``col_drops`` holds the same for the column pass: 0
    for a zero column, eps for an L_eps block.  With p = 0 the q columns
    are not seen.

    One row pass and one column pass leave an invertible x part, up to
    scale x*I - M with M = -A^-1 B: the row pass leaves an x part of full
    row rank, and the column pass keeps that while it makes the column rank
    full (its operations are invertible and constant, the columns it
    deletes have a zero x part, and the rows it deletes leave the other
    rows independent).  Anything else is an ``InternalInvariantError``.
    The finite factors are the similarity invariants of M.  The root [1:0]
    (t = 0) is read off the row pass (Van Dooren, Linear Algebra Appl. 27,
    1979): step k removes one unit for each L_eta^T block with eta > k and
    one for each Jordan block at [1:0] of size > k, so b_k = units_k -
    #{eta > k} counts the blocks at [1:0] of size > k, the j-th largest
    size is #{k : b_k > j}, and the largest goes to the last factor, the
    next to the one before, and so on.
    """
    q = len(A[0]) if A else 0
    rows, q, units, row_drops = _deflate_rows([a + b for a, b in zip(A, B)], q)
    cols, p, col_units, col_drops = _deflate_rows(_flip(rows, q), len(rows))
    rows, q = _flip(cols, p), len(cols)
    piv = _eliminate(rows, range(q))
    if not len(piv) == p == q:
        raise InternalInvariantError("singular x part after the staircase deflation",
                                     {"rows": p, "cols": q, "rank": len(piv)})
    rows, L = _common_pivot(rows, piv)
    factors = _frobenius([r[q:] for r in rows], -1, L)
    chain = [[1]] * (sum(units) + sum(col_units) + q - len(factors)) + factors[::-1]
    b = [u - sum(e > k for e in row_drops) for k, u in enumerate(units)]
    # b_k falls with k to no less than 0; b_0 <= units_0 <= len(chain) always
    if any(x < y for x, y in zip(b, b[1:] + [0])):
        raise InternalInvariantError("the staircase has no Jordan structure at [1:0]",
                                     {"units": units, "row_drops": row_drops})
    sizes = [sum(x > j for x in b) for j in range(b[0] if b else 0)]
    exps = [0] * (len(chain) - len(sizes)) + sizes[::-1]
    return [[0] * m + e[::-1] for m, e in zip(exps, chain)], row_drops, col_drops
