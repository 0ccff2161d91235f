"""Orbit dimensions: of pencils in closed form, of forms by Lie algebra.

A pencil's orbit under GL_2 x GL_p x GL_q is read off its Kronecker
invariants (``pencil_orbit``): ``t244`` passes in those ``pencil_rank``
returned, and ``pencil_stabilizer`` runs one staircase for them.

A form's orbit under GL_n acting by substitution is solved for: for F != 0
the tangent space at the identity to the stabilizer of F is the kernel of
g |-> d(rho)(g).F, so dim(G.F) = dim G - dim ker, and the stabilizer of
the projective class [F] is the kernel of the augmented homogeneous system
d(rho)(g).F = c F in the unknowns (g, c).  Solving both exactly asserts,
instead of assuming, that scalars rescale F, so that the projective orbit
is one dimension smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import InternalInvariantError
from .forms import MultiForm, exponents
from .pencils import KroneckerInvariants, Pencil, kronecker_invariants
from .rationals import Report, integral


@dataclass(frozen=True)
class OrbitReport(Report):
    group_dim: int
    stabilizer_dim: int            # annihilator of the point itself
    projective_stabilizer_dim: int  # kernel of the augmented system
    affine_orbit_dim: int
    projective_orbit_dim: int


def pencil_orbit(inv: KroneckerInvariants, rows: int, cols: int) -> OrbitReport:
    """Orbit dimensions of a nonzero p x q pencil with Kronecker invariants
    ``inv`` under GL_2 x GL_p x GL_q.

    Its GL_p x GL_q orbit has codimension c_Jor + c_Right + c_Left +
    c_Jor,Sing + c_Sing in the 2pq-dimensional space of pencils (Demmel and
    Edelman, Linear Algebra Appl. 1995; Edelman, Elmroth and Kagstrom, SIAM
    J. Matrix Anal. Appl. 1997), with the zero columns counted as eps = 0
    and the zero rows as eta = 0:

    * c_Jor: q_1 + 3 q_2 + 5 q_3 + ... for each eigenvalue with Jordan
      blocks q_1 >= q_2 >= ... (a profile of ``eigen_partition_spectrum``);
    * c_Right: eps_i - eps_j - 1 over all pairs with eps_i > eps_j;
    * c_Left: the same sum over the eta;
    * c_Jor,Sing: f times the number of L and L^T blocks;
    * c_Sing: eps_i + eta_j + 2 over all pairs.

    gl_2 adds the vector fields on P^1 (its scalars act through gl_p), less
    the 3 - min(k, 3) that vanish at all k distinct eigenvalues; scalars
    rescale a nonzero pencil, so the projective orbit is one smaller.
    """
    eps = inv.eps + (0,) * inv.zero_cols
    eta = inv.eta + (0,) * inv.zero_rows
    spectrum = inv.spectrum
    codim = (
        sum((2 * i + 1) * q for profile in spectrum for i, q in enumerate(reversed(profile)))
        + sum(a - b - 1 for a in eps for b in eps if a > b)
        + sum(a - b - 1 for a in eta for b in eta if a > b)
        + inv.f * (len(eps) + len(eta))
        + sum(a + b + 2 for a in eps for b in eta)
    )
    group = 4 + rows * rows + cols * cols
    affine = 2 * rows * cols - codim + min(len(spectrum), 3)
    return OrbitReport(group, group - affine, group - affine + 1, affine, affine - 1)


def pencil_stabilizer(T: Pencil) -> OrbitReport:
    """Stabilizer and orbit dimensions of a pencil under GL_2 x GL_p x GL_q,
    from the Kronecker invariants of one staircase (``pencil_orbit``)."""
    if T.is_zero:
        raise ValueError("stabilizer of the zero pencil is everything")
    return pencil_orbit(kronecker_invariants(T), T.rows, T.cols)


def form_stabilizer(F: MultiForm) -> OrbitReport:
    """Stabilizer of a form under the substitution action of gl_n.

    d(rho)(g).F = sum_{i,j} g_ij x_i dF/dx_j; the projective stabilizer
    solves d(rho)(g).F = c F in the n^2 + 1 unknowns (g, c).  The system is
    linear in F, so F enters scaled by the lcm of its denominators, and the
    term c x^e of F puts e_j c into the equation of x^(e - 1_j + 1_i) at the
    unknown g_ij.  One fraction-free Bareiss pass (``linalg._bareiss``)
    gives both ranks: the scaling column c is the last one and Bareiss
    pivots column by column, so its pivots before that column are exactly
    the pivots of the plain system.
    """
    if F.is_zero:
        raise ValueError("stabilizer of the zero form is everything")
    n, d = F.n, F.degree
    if d == 0:
        raise ValueError("gl_n fixes a constant form, so scalars do not rescale it")
    cs, _ = integral(list(F.terms.values()))
    mono_index = {m: r for r, m in enumerate(exponents(n, d))}
    unknowns = n * n
    rows = [[0] * (unknowns + 1) for _ in mono_index]
    for exps, c in zip(F.terms, cs):
        rows[mono_index[exps]][unknowns] = -c
        for j, ej in enumerate(exps):
            if ej:
                for i in range(n):
                    key = tuple(e - (t == j) + (t == i) for t, e in enumerate(exps))
                    rows[mono_index[key]][i * n + j] += ej * c
    piv = linalg._bareiss(rows)[0]
    stab = unknowns - len([c for c in piv if c < unknowns])
    proj_stab = unknowns + 1 - len(piv)
    affine, projective = unknowns - stab, unknowns - proj_stab
    if projective != affine - 1:
        raise InternalInvariantError(
            "scalars do not rescale this point; projective dimension shortcut invalid",
            {"affine_orbit_dim": affine, "projective_orbit_dim": projective},
        )
    return OrbitReport(unknowns, stab, proj_stab, affine, projective)
