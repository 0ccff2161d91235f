"""Exact Kronecker invariants of matrix pencils s*M1 + t*M2 and the rank of
the corresponding 2 x p x q tensors.

A pencil is strictly equivalent to a direct sum of singular blocks L_eps
(eps x (eps+1), s on the diagonal, t on the superdiagonal), transposed
blocks L_eta^T, a regular part whose elementary structure is carried by the
invariant-factor chain d_1 | d_2 | ..., and a zero block.  The tensor rank
is

    rank = sum(eps_i) + sum(eta_j) + #eps + #eta + f + m(F),

with f the degree of the regular part and m(F) the number of invariant
factors that are not squarefree (equivalently, the maximum over eigenvalues
of the number of Jordan blocks of size >= 2).

A pencil is cleared to integers once, when it is built: it stores its
slices times one common denominator, the lcm of all their entries'
denominators (a scalar multiple is a strict equivalence), and the
invariant factors, the minimal indices and the determinant run on these
integer slices.  The whole Kronecker structure comes from one call of the
pencil kernel ``upoly.smith_invariant_factors`` (``_chain``): one staircase
deflation (Van Dooren, 1979) drops the zero rows at its first step and an
L_eta^T block at step eta, the column pass drops the zero columns and the
L_eps blocks in the same way, the units the row pass removes give the
Jordan blocks at [1:0], and a Krylov decomposition of the regular part that
is left gives the finite roots.  The kernel's chain is homogeneous and
keeps its unit factors, so its length is the normal rank.
``kronecker_invariants`` checks the budget identities, which cross-check
the staircase against the degrees of the invariant factors, and the
divisibility chain; ``invariant_factors``, ``minimal_indices``,
``symbolic_det`` and the conciseness test read its result, so each passes
the same checks.  Conciseness is a Kronecker invariant (no zero rows or
columns, and a singular block or an invariant factor of degree >= 2), so
``pencil_rank`` gets the rank and the conciseness from one staircase.
``normal_rank`` (rank at min(p,q)+1 specializations) has no caller in the
package: it stays for the tests, which check the chain length and their
oracles against it, and for the benchmark, which traces it by name.

The chain stays on integers after the staircase: ``KroneckerInvariants``
holds each factor as s^a times a content-1 integer polynomial in t, and
builds ``BinaryForm``s only when ``factors`` is read (``to_json``,
``invariant_factors``).  m(F) and the divisibility check use the integer
gcd and exact quotient of ``upoly``.  ``det_from_factors`` is the integer
product of the chain, scaled by one exact numeric determinant of the
integer slices, and only its result is rational; a caller that already
holds the chain passes it in.  The spectrum (``eigen_partition_spectrum``)
reads the Jordan partition of every eigenvalue off the chain by coprime
refinement of squarefree parts (Yun's split and gcds on integers, no root
finding), and ``KroneckerInvariants.spectrum`` computes it once per chain.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg, upoly as up
from .binary import BinaryForm, _form, _graded_parts, _split, _squarefree
from .errors import InternalInvariantError
from .rationals import ONE, ZERO, Record, Report, integral, parse_rational, rat, rat_str


class Pencil:
    """Pair of p x q rational matrices (M1, M2) read as s*M1 + t*M2.

    Stored cleared to integers when built: ``N1`` and ``N2`` are the slices
    times ``den``, the lcm of all their entries' denominators, as tuples of
    row tuples, so an in-place kernel (``linalg._bareiss``) handed them by
    mistake raises ``TypeError``.  ``M1`` and ``M2`` are rebuilt on each
    access.
    """

    __slots__ = ("rows", "cols", "N1", "N2", "den")

    def __init__(self, M1, M2, shape=None):
        p = len(M1)
        q = len(M1[0]) if p else 0
        if shape is not None:
            if p and (shape[0] != p or shape[1] != q):
                raise ValueError("explicit shape disagrees with slice data")
            p, q = shape  # rowless blocks cannot carry their column count
        if len(M2) != p or any(len(r) != q for r in M1) or any(len(r) != q for r in M2):
            raise ValueError("pencil slices must have identical shapes")
        self.rows, self.cols = p, q
        ints, self.den = integral([rat(e) for M in (M1, M2) for r in M for e in r])
        rows = [tuple(ints[i * q:(i + 1) * q]) for i in range(2 * p)]
        self.N1, self.N2 = tuple(rows[:p]), tuple(rows[p:])

    @property
    def M1(self):
        return [[rat(x, self.den) for x in row] for row in self.N1]

    @property
    def M2(self):
        return [[rat(x, self.den) for x in row] for row in self.N2]

    @classmethod
    def from_json(cls, m1, m2):
        def parse(m):
            if not isinstance(m, list) or not all(isinstance(row, list) for row in m):
                raise ValueError("pencil JSON: m1 and m2 must be arrays of rows")
            return [[parse_rational(e) for e in row] for row in m]

        return cls(parse(m1), parse(m2))

    def to_json(self):
        dump = lambda m: [[rat_str(e) for e in row] for row in m]
        return {"rows": self.rows, "cols": self.cols, "m1": dump(self.M1), "m2": dump(self.M2)}

    @property
    def is_zero(self) -> bool:
        return not any(x for row in self.N1 + self.N2 for x in row)

    def transpose(self) -> "Pencil":
        flip = lambda M: [[M[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Pencil(flip(self.M1), flip(self.M2), shape=(self.cols, self.rows))

    def entry(self, i: int, j: int) -> BinaryForm:
        return BinaryForm([rat(self.N1[i][j], self.den), rat(self.N2[i][j], self.den)])

    def substitute_st(self, a, b, c, d) -> "Pencil":
        """Change of pencil coordinates (s, t) -> (a s + b t, c s + d t)."""
        a, b, c, d = rat(a), rat(b), rat(c), rat(d)
        M1, M2 = self.M1, self.M2
        N1 = [[a * x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(M1, M2)]
        N2 = [[b * x + d * y for x, y in zip(r1, r2)] for r1, r2 in zip(M1, M2)]
        return Pencil(N1, N2)

    def conjugate(self, A, B) -> "Pencil":
        """Row transform A (p x p) and column transform B (q x q)."""
        return Pencil(linalg.mat_mul(linalg.mat_mul(A, self.M1), B),
                      linalg.mat_mul(linalg.mat_mul(A, self.M2), B))

    def __repr__(self):
        return f"Pencil({self.rows}x{self.cols})"


# -- canonical constructors -------------------------------------------------


def build_L(eps: int) -> Pencil:
    """The eps x (eps+1) singular block: s on the diagonal, t above it."""
    if eps < 1:
        raise ValueError("minimal-index block size must be positive")
    M1 = [[ONE if j == i else ZERO for j in range(eps + 1)] for i in range(eps)]
    M2 = [[ONE if j == i + 1 else ZERO for j in range(eps + 1)] for i in range(eps)]
    return Pencil(M1, M2)


def build_regular(F) -> Pencil:
    """s*Id + t*F for a square rational matrix F."""
    f = len(F)
    if any(len(r) != f for r in F):
        raise ValueError("regular part needs a square matrix")
    M1 = [[ONE if i == j else ZERO for j in range(f)] for i in range(f)]
    M2 = [[rat(e) for e in row] for row in F]
    return Pencil(M1, M2)


def zero_pencil(p: int, q: int) -> Pencil:
    return Pencil([[ZERO] * q for _ in range(p)], [[ZERO] * q for _ in range(p)], shape=(p, q))


def direct_sum(*pencils: Pencil) -> Pencil:
    """Block-diagonal sum; zero blocks Z_{p x q} with p or q zero are fine."""
    p = sum(P.rows for P in pencils)
    q = sum(P.cols for P in pencils)
    M1 = [[ZERO] * q for _ in range(p)]
    M2 = [[ZERO] * q for _ in range(p)]
    r0 = c0 = 0
    for P in pencils:
        for i, (r1, r2) in enumerate(zip(P.M1, P.M2)):
            M1[r0 + i][c0:c0 + P.cols] = r1
            M2[r0 + i][c0:c0 + P.cols] = r2
        r0 += P.rows
        c0 += P.cols
    return Pencil(M1, M2, shape=(p, q))


# -- normal rank -------------------------------------------------------------


def normal_rank(P: Pencil) -> int:
    """Rank over the function field: max of min(p,q)+1 specializations.

    Any nonzero r x r minor is a binary form of degree <= min(p, q), so it
    cannot vanish at min(p,q)+1 distinct values of s at t = 1.
    """
    best = 0
    for lam in range(min(P.rows, P.cols) + 1):
        A = [[lam * a + b for a, b in zip(r1, r2)] for r1, r2 in zip(P.N1, P.N2)]
        best = max(best, linalg.rank(A))
    return best


# -- invariant factors --------------------------------------------------------


def _chain(P: Pencil):
    """(chain, (eps, eta, zero_rows, zero_cols)) of the pencil: its
    nonconstant homogeneous invariant factors and the singular data that
    the staircase deflation dropped (see ``upoly.smith_invariant_factors``),
    from one call of the kernel on the integer slices.  Each factor is a
    pair (p, a), the form s^a * p(t) homogenized, with p the kernel's
    integer coefficients of F(1, t) (content 1) as a tuple.  A pencil with
    no rows has no rows to deflate, so its columns are zero columns."""
    kernel, row_drops, col_drops = up.smith_invariant_factors(P.N1, P.N2)
    if not P.rows:
        col_drops = [0] * P.cols
    eps, eta = [k for k in col_drops if k], [k for k in row_drops if k]
    chain = []
    for h in kernel:
        if len(h) > 1:
            p = up.up_trim(list(h))  # the trailing zeros are the power of s
            chain.append((tuple(p), len(h) - len(p)))
    return chain, (eps, eta, len(row_drops) - len(eta), len(col_drops) - len(eps))


def invariant_factors(P: Pencil) -> list:
    """Homogeneous invariant-factor chain of the pencil (nonconstant only),
    from ``kronecker_invariants``.

    d_k(s, t) comes off one staircase deflation of the integer slices (see
    ``upoly.smith_invariant_factors``): its finite roots from the regular
    part that the deflation leaves, its power of t (the root [1:0]) from the
    units of the row pass.  Each d_k has first nonzero coefficient 1: monic
    in s, or monic in t for a pure t-power.
    """
    return list(kronecker_invariants(P).factors)


def det_from_factors(P: Pencil, chain) -> BinaryForm:
    """det(s M1 + t M2), a binary form of degree = size, from the pencil's
    integer invariant-factor chain (``KroneckerInvariants.chain``).

    The factors of a singular pencil have total degree below its size, and
    its det vanishes.  A regular pencil's det is a constant times the
    integer product D of its factors, a form of degree n; one exact det at
    the first of the n + 1 points (1,0), (0,1), (1,1), ..., (n-1,1) where D
    does not vanish fixes the constant: the Bareiss det of s*N1 + t*N2 on
    the integer slices, over den^n.  Only the result is rational.
    """
    if P.rows != P.cols:
        raise ValueError("determinant needs a square pencil")
    n = P.rows
    if sum(len(p) - 1 + a for p, a in chain) < n:
        return BinaryForm.zero(n)
    D = [1]
    for p, a in chain:
        D = up.up_mul(D, list(p) + [0] * a)  # coefficient i multiplies s^(n-i) t^i
    for s, t in [(1, 0)] + [(k, 1) for k in range(n)]:
        value = sum(c * s ** (n - i) * t**i for i, c in enumerate(D))
        if value:
            break
    piv, sign, last = linalg._bareiss(
        [[s * a + t * b for a, b in zip(r1, r2)] for r1, r2 in zip(P.N1, P.N2)])
    det = sign * last if len(piv) == n else 0
    return BinaryForm([rat(c * det, value * P.den**n) for c in D])


def symbolic_det(P: Pencil) -> BinaryForm:
    """det(s M1 + t M2) as a binary form of degree = size."""
    return det_from_factors(P, kronecker_invariants(P).chain)


# -- minimal indices ----------------------------------------------------------


def minimal_indices(P: Pencil):
    """(eps, eta, zero_rows, zero_cols): the singular Kronecker data.

    eps and eta are the positive column and row minimal indices, ascending;
    the zero minimal indices are exactly the zero columns and rows of the
    normal form and are reported separately as the Z-block dimensions.
    """
    inv = kronecker_invariants(P)
    return list(inv.eps), list(inv.eta), inv.zero_rows, inv.zero_cols


# -- assembled invariants and rank -------------------------------------------


class KroneckerInvariants(Record):
    eps: tuple
    eta: tuple
    chain: tuple  # nonconstant invariant factors as (p, a) (see _chain), ascending divisibility
    zero_rows: int
    zero_cols: int

    @cached_property
    def factors(self) -> tuple:
        """The chain as ``BinaryForm``s, each scaled so that its first
        nonzero coefficient is 1: monic in s, or monic in t for a pure
        t-power."""
        return tuple(_form(p, a) for p, a in self.chain)

    @property
    def factor_degrees(self) -> tuple:
        return tuple(len(p) - 1 + a for p, a in self.chain)

    @property
    def f(self) -> int:
        return sum(self.factor_degrees)

    @property
    def m_F(self) -> int:
        """The number of factors with a repeated root: a square of s, or a
        nonconstant gcd of p and p'."""
        return sum(1 for p, a in self.chain if not _squarefree(p, a))

    @cached_property
    def spectrum(self) -> tuple:
        """``eigen_partition_spectrum`` of the chain, computed once."""
        return _spectrum(self.chain)

    @property
    def concise(self) -> bool:
        """Conciseness of the 2 x p x q tensor behind the pencil: no zero
        rows, no zero columns, and a singular block or an invariant factor
        of degree >= 2 (see ``is_concise_tensor``)."""
        return not (self.zero_rows or self.zero_cols) and bool(
            self.eps or self.eta or any(d > 1 for d in self.factor_degrees))

    def to_json(self):
        return {
            "eps": list(self.eps),
            "eta": list(self.eta),
            "invariant_factors": [d.to_json() for d in self.factors],
            "zero_rows": self.zero_rows,
            "zero_cols": self.zero_cols,
        }


def kronecker_invariants(P: Pencil) -> KroneckerInvariants:
    """Full invariant set, with the row/column budget identities and the
    divisibility chain enforced."""
    chain, (eps, eta, zero_rows, zero_cols) = _chain(P)
    inv = KroneckerInvariants(
        eps=tuple(eps), eta=tuple(eta), chain=tuple(chain),
        zero_rows=zero_rows, zero_cols=zero_cols,
    )
    f = inv.f
    row_budget = sum(eps) + sum(e + 1 for e in eta) + f + zero_rows
    col_budget = sum(e + 1 for e in eps) + sum(eta) + f + zero_cols
    if row_budget != P.rows or col_budget != P.cols:
        raise InternalInvariantError(
            "Kronecker budget identities violated",
            {"pencil": P.to_json(), "invariants": inv.to_json(),
             "row_budget": row_budget, "col_budget": col_budget},
        )
    if not all(_divides(d, e) for d, e in zip(chain, chain[1:])):
        raise InternalInvariantError(
            "invariant factors do not form a divisibility chain",
            {"factors": [d.to_json() for d in inv.factors]},
        )
    return inv


def _divides(d, e) -> bool:
    """Whether the chain factor d = (p, a) divides e = (q, b): a <= b and
    an exact integer quotient q / p."""
    (p, a), (q, b) = d, e
    try:
        up.up_div_exact(q, p)
    except ValueError:
        return False
    return a <= b


def is_concise_tensor(P: Pencil) -> bool:
    """Conciseness of the 2 x p x q tensor (independent slices, no common
    left kernel, no common right kernel), read off the Kronecker form.

    The common left and right kernels of M1 and M2 are the zero rows and
    columns of the Kronecker form.  Without them, dependent slices make the
    pencil l(s, t) * M with M square and invertible, whose chain is p equal
    linear factors and nothing else; conversely, such a chain is l * I up
    to strict equivalence.
    """
    return kronecker_invariants(P).concise


class PencilRankReport(Report):
    invariants: KroneckerInvariants
    f: int
    m_F: int
    rank: int
    concise: bool


def pencil_rank(P: Pencil) -> PencilRankReport:
    """Tensor rank of the 2 x p x q tensor behind the pencil."""
    inv = kronecker_invariants(P)
    f, m = inv.f, inv.m_F
    rank = sum(inv.eps) + sum(inv.eta) + len(inv.eps) + len(inv.eta) + f + m
    return PencilRankReport(invariants=inv, f=f, m_F=m, rank=rank, concise=inv.concise)


# -- eigenstructure fingerprint ----------------------------------------------


def _spectrum(chain) -> tuple:
    """``eigen_partition_spectrum`` of an integer chain of pairs (p, a)."""
    if not chain:
        return ()
    pieces = [(e, b, (j,)) for e, b, j in _graded_parts(*chain[-1])]
    for p, a in reversed(chain[:-1]):
        parts = _graded_parts(p, a)
        refined = []
        for e, b, profile in pieces:
            for g, c, k in parts:
                h, m = up.up_gcd(e, g), min(b, c)
                if len(h) > 1 or m:
                    refined.append((h, m, (k,) + profile))
                    e, b = up.up_div_exact(e, h), b - m
            if len(e) > 1 or b:
                refined.append((e, b, profile))
        pieces = refined
    return tuple(sorted(profile for e, b, profile in pieces for _ in range(len(e) - 1 + b)))


def eigen_partition_spectrum(factors) -> tuple:
    """Multiset of per-root multiplicity profiles of an invariant-factor
    chain, computed Galois-stably (no root finding).

    Each projective root of the chain owns the tuple of its multiplicities
    in the successive factors (nonzero entries only; nondecreasing since
    the chain divides upward).  The returned value is the sorted tuple of
    those profiles with one entry per root of the algebraic closure.  The
    squarefree parts of the top factor are refined going down the chain:
    a piece e splits by h = gcd(e, g) over the squarefree parts (g, k) of
    the next factor, h's roots prepend k to the profile and the rest of e,
    absent from that factor, keeps it.  Conjugate roots always stay in one
    piece, and each piece counts its profile once per root.

    The refinement runs on integers (``_spectrum``): each piece is s^b
    times a primitive integer polynomial in t, split by Yun's algorithm and
    the primitive PRS gcd of ``upoly``.  ``KroneckerInvariants.spectrum``
    runs it on the staircase's chain; this adapter takes ``BinaryForm``s.
    """
    return _spectrum([_split(d) for d in factors])
