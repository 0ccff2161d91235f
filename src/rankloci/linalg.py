"""Exact linear algebra over the rationals, and the integer elimination
kernel that the pencil code runs on.

Matrices are plain lists of row lists whose entries are ints or rationals
(``rationals.rat`` values).  Rank goes through fraction-free Bareiss
elimination on integer-cleared rows, so no rational arithmetic happens on
the hot path.  Kernel, solve, and inverse use reduced row echelon form with
exact rational pivots.

The underscored functions are the shared integer kernel: Gauss-Jordan
elimination of integer rows kept primitive (no Bareiss division), a common
pivot for the reduced rows, and the integer kernel basis they give.  Rows
and vectors in it only matter up to a nonzero scale, so no division ever
leaves the integers.  ``upoly`` (the invariant factors of a pencil) and the
minimal-index ladder in ``pencils`` both run on it.
"""

from __future__ import annotations

from math import gcd, lcm

from .rationals import ONE, ZERO, rat


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_mul(A, B):
    if not A or not B:
        return []
    p, k, q = len(A), len(B), len(B[0])
    out = []
    for i in range(p):
        row = []
        Ai = A[i]
        for j in range(q):
            s = ZERO
            for t in range(k):
                a = Ai[t]
                if a:
                    s += a * B[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        s = ZERO
        for a, x in zip(row, v):
            if a and x:
                s += a * x
        out.append(s)
    return out


def _int_rows(A):
    """Scale each row by the lcm of its denominators; returns int rows."""
    rows = []
    for row in A:
        m = lcm(*[e.denominator for e in row])
        rows.append([e.numerator * (m // e.denominator) for e in row])
    return rows


# -- the integer elimination kernel -------------------------------------------

# Star-arguments below are lists, never generators: CPython sizes a tuple
# built from a generator by resizing it, and each such tuple then stays in
# the tuple free list, so peak memory would creep with the number of calls.


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _mat_vec(N, v):
    return [sum(a * b for a, b in zip(row, v)) for row in N]


def _eliminate(rows, cols):
    """Gauss-Jordan elimination of integer rows on the columns ``cols``, in
    place, with integer row operations and every touched row kept primitive.

    Returns the pivot columns: row i has its pivot at ``piv[i]``, zeros at
    the other pivots and before its own, and rows past ``len(piv)`` vanish
    on ``cols``.
    """
    piv = []
    for c in cols:
        r = len(piv)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        pv = top[c]
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                g = gcd(pv, a)
                m, n = pv // g, a // g
                rows[i] = _primitive([m * x - n * y for x, y in zip(row, top)])
        piv.append(c)
    return piv


def _common_pivot(rows, piv):
    """Scale reduced rows so that every pivot equals L, their lcm; (rows, L)."""
    L = lcm(*[abs(r[c]) for r, c in zip(rows, piv)])
    return [[(L // r[c]) * x for x in r] for r, c in zip(rows, piv)], L


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
        basis.append(_primitive(v))
    return basis


def rank(A) -> int:
    """Exact rank via fraction-free Bareiss elimination."""
    if not A or not A[0]:
        return 0
    M = _int_rows(A)
    n, m = len(M), len(M[0])
    prev = 1
    pr = 0
    for c in range(m):
        # smallest nonzero pivot keeps intermediate minors small
        piv, best = -1, None
        for r in range(pr, n):
            v = M[r][c]
            if v:
                a = abs(v)
                if best is None or a < best:
                    piv, best = r, a
                    if a == 1:
                        break
        if piv < 0:
            continue
        if piv != pr:
            M[pr], M[piv] = M[piv], M[pr]
        pv = M[pr][c]
        for r in range(pr + 1, n):
            arc = M[r][c]
            row, prow = M[r], M[pr]
            if arc:
                for cc in range(c + 1, m):
                    row[cc] = (pv * row[cc] - arc * prow[cc]) // prev
                row[c] = 0
            elif prev != pv:
                for cc in range(c + 1, m):
                    row[cc] = (pv * row[cc]) // prev
        prev = pv
        pr += 1
        if pr == n:
            break
    return pr


def rref(A):
    """Reduced row echelon form (a copy) and the list of pivot columns."""
    M = [[rat(e) if isinstance(e, int) else e for e in row] for row in A]
    if not M or not M[0]:
        return M, []
    n, m = len(M), len(M[0])
    pivots = []
    pr = 0
    for c in range(m):
        piv = -1
        for r in range(pr, n):
            if M[r][c]:
                piv = r
                break
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


def nullspace(A):
    """Basis of the right kernel, in reduced-echelon parametrization.

    The basis vector attached to free column ``c`` has a 1 in slot ``c``;
    the ordering over free columns is ascending, so the output is canonical.
    """
    if not A or not A[0]:
        return []
    m = len(A[0])
    R, pivots = rref(A)
    pivset = set(pivots)
    basis = []
    for c in range(m):
        if c in pivset:
            continue
        v = [ZERO] * m
        v[c] = ONE
        for r, pc in enumerate(pivots):
            if R[r][c]:
                v[pc] = -R[r][c]
        basis.append(v)
    return basis


def nullity(A) -> int:
    if not A or not A[0]:
        return len(A[0]) if A else 0
    return len(A[0]) - rank(A)


def solve(A, b):
    """One exact solution of A x = b, or None when inconsistent."""
    if not A:
        return []
    m = len(A[0])
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(aug)
    for r in range(len(R)):
        if all(not e for e in R[r][:m]) and R[r][m]:
            return None
    x = [ZERO] * m
    for r, c in enumerate(pivots):
        if c == m:
            return None
        x[c] = R[r][m]
    return x


def inverse(A):
    n = len(A)
    aug = [list(row) + list(idrow) for row, idrow in zip(A, identity(n))]
    R, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R[:n]]


def det(A):
    """Exact determinant via Bareiss (integer-cleared rows)."""
    n = len(A)
    if n == 0:
        return ONE
    M = [list(row) for row in A]
    scale = ONE
    intM = []
    for row in M:
        mult = 1
        for e in row:
            d = e.denominator if hasattr(e, "denominator") else 1
            if d != 1:
                mult = lcm(mult, int(d))
        scale = scale * rat(1, mult)
        intM.append([int(e * mult) if mult != 1 else int(e) for e in row])
    M = intM
    prev = 1
    sign = 1
    for c in range(n - 1):
        piv = -1
        for r in range(c, n):
            if M[r][c]:
                piv = r
                break
        if piv < 0:
            return ZERO
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        pv = M[c][c]
        for r in range(c + 1, n):
            arc = M[r][c]
            for cc in range(c + 1, n):
                M[r][cc] = (pv * M[r][cc] - arc * M[c][cc]) // prev
            M[r][c] = 0
        prev = pv
    return scale * rat(sign * M[n - 1][n - 1])


def row_space_basis(A):
    """Canonical (rref) basis of the row space."""
    R, pivots = rref(A)
    return [R[i] for i in range(len(pivots))]
