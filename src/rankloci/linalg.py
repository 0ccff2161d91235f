"""Exact linear algebra over the rationals on two integer elimination
routines.

Matrices are plain lists of row lists whose entries are ints or rationals
(``rationals.rat`` values).  Each row is first cleared of its denominators
(``rationals.integral``), which changes neither the rank nor the row space,
and the elimination runs on integers:

- ``_bareiss``, fraction-free Bareiss elimination (Bareiss, Math. Comp. 22,
  1968), gives the pivot columns, hence the rank, and the determinant (its
  last pivot, over the product of the row denominators).  ``orbits`` calls
  it directly on the integer rows of a form's stabilizer system: the pivots
  come column by column, so the pivots before the last column are those of
  the system without it, and one pass gives both stabilizer ranks;
  ``pencils`` calls it on the integer slices that a ``Pencil`` stores,
  cleared of their denominators once, when the pencil is built;
- ``_eliminate``, Gauss-Jordan elimination with every row kept primitive
  (no Bareiss division), gives the reduced row echelon form; ``rref``
  divides each reduced row by its pivot only at the end, and ``nullspace``,
  ``solve`` and ``inverse`` read their answers off it.

``_eliminate`` and ``_common_pivot`` are also the integer kernel that
``upoly`` runs the staircase deflation and the Krylov decomposition of a
pencil on: there rows and vectors only matter up to a nonzero scale, so no
division ever leaves the integers.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .rationals import ONE, ZERO, integral, rat


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


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


def _bareiss(M):
    """Fraction-free Bareiss elimination of integer rows, in place.

    Returns (piv, sign, last): the pivot columns in ascending order (so the
    rank is ``len(piv)``, and the pivots before column c are those of the
    columns before c alone), the sign of the row permutation and the last
    pivot, which is sign * det(M) when M is square of full rank.  The
    smallest nonzero pivot of each column keeps the intermediate minors small.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    prev, sign, pivots = 1, 1, []
    for c in range(m):
        pr = len(pivots)
        if pr == n:
            break
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
            sign = -sign
        prow = M[pr]
        pv = prow[c]
        for r in range(pr + 1, n):
            row = M[r]
            arc = row[c]
            if arc:
                for cc in range(c + 1, m):
                    row[cc] = (pv * row[cc] - arc * prow[cc]) // prev
                row[c] = 0
            elif prev != pv:
                for cc in range(c + 1, m):
                    row[cc] = (pv * row[cc]) // prev
        prev = pv
        pivots.append(c)
    return pivots, sign, prev


def rank(A) -> int:
    """Exact rank via fraction-free Bareiss elimination."""
    return len(_bareiss([integral(row)[0] for row in A])[0])


def det(A):
    """Exact determinant via Bareiss on the rows cleared of denominators."""
    cleared = [integral(row) for row in A]
    piv, sign, last = _bareiss([row for row, _ in cleared])
    if len(piv) < len(A):
        return ZERO
    return rat(sign * last, prod(m for _, m in cleared))


def rref(A):
    """Reduced row echelon form (a copy) and the list of pivot columns.

    Integer Gauss-Jordan elimination of the rows cleared of denominators;
    each reduced row is divided by its pivot only at the end.
    """
    m = len(A[0]) if A else 0
    rows = [integral(row)[0] for row in A]
    piv = _eliminate(rows, range(m))
    R = [[rat(x, r[c]) if x else ZERO for x in r] for r, c in zip(rows, piv)]
    R.extend([ZERO] * m for _ in range(len(A) - len(piv)))
    return R, piv


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


def solve(A, b):
    """One exact solution of A x = b, or None when inconsistent."""
    if not A:
        return []
    m = len(A[0])
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(aug)
    if pivots and pivots[-1] == m:
        return None
    x = [ZERO] * m
    for r, c in enumerate(pivots):
        x[c] = R[r][m]
    return x


def inverse(A):
    n = len(A)
    aug = [list(row) + list(idrow) for row, idrow in zip(A, identity(n))]
    R, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R[:n]]
