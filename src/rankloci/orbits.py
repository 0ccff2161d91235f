"""Orbit dimensions through Lie-algebra stabilizers.

For a group G acting linearly on a space V and a point X != 0, the tangent
space at the identity to the stabilizer of X is the kernel of the linear
map g |-> d(rho)(g).X, so dim(G.X) = dim G - dim ker.  The stabilizer of
the projective class [X] corresponds to the augmented homogeneous system
d(rho)(g).X = c X in the unknowns (g, c): solving it exactly avoids the
"subtract one for scaling" shortcut entirely, and the shortcut's validity
(scalars acting nontrivially) is then asserted instead of assumed.

Two actions are wired up: GL_2 x GL_p x GL_q on pencils, and GL_n by
substitution on homogeneous forms.

Both systems are assembled on integer rows: the equations are linear in the
point X, so X enters scaled by one common denominator (a pencil's stored
integer slices, a form's cleared coefficients), which scales the whole
system and changes neither rank.  One fraction-free Bareiss pass
(``linalg._bareiss``) then gives both ranks: the scaling column c is the
last one and Bareiss pivots column by column, so its pivots before that
column are exactly the pivots of the system without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import InternalInvariantError
from .forms import MultiForm, exponents
from .pencils import Pencil
from .rationals import integral


@dataclass(frozen=True)
class OrbitReport:
    group_dim: int
    stabilizer_dim: int            # annihilator of the point itself
    projective_stabilizer_dim: int  # kernel of the augmented system
    affine_orbit_dim: int
    projective_orbit_dim: int

    def to_json(self):
        return {
            "group_dim": self.group_dim,
            "stabilizer_dim": self.stabilizer_dim,
            "projective_stabilizer_dim": self.projective_stabilizer_dim,
            "affine_orbit_dim": self.affine_orbit_dim,
            "projective_orbit_dim": self.projective_orbit_dim,
        }


def _report(rows, unknowns: int) -> OrbitReport:
    """Assemble a report from the integer rows of the augmented system, whose
    last column (index ``unknowns``) is the scaling unknown c.  The other
    unknowns are the coordinates of the Lie algebra, so there are as many of
    them as the group has dimensions.

    One Bareiss pass: all its pivots give the rank of the augmented system,
    and the pivots before the last column give the rank of the plain
    system, since the pivots of a column prefix depend on that prefix only.
    """
    piv = linalg._bareiss(rows)[0]
    rank_aug = len(piv)
    rank_plain = len([c for c in piv if c < unknowns])
    stab = unknowns - rank_plain
    proj_stab = (unknowns + 1) - rank_aug
    affine = unknowns - stab
    projective = unknowns - proj_stab
    if projective != affine - 1:
        raise InternalInvariantError(
            "scalars do not rescale this point; projective dimension shortcut invalid",
            {"affine_orbit_dim": affine, "projective_orbit_dim": projective},
        )
    return OrbitReport(
        group_dim=unknowns,
        stabilizer_dim=stab,
        projective_stabilizer_dim=proj_stab,
        affine_orbit_dim=affine,
        projective_orbit_dim=projective,
    )


def pencil_stabilizer(T: Pencil) -> OrbitReport:
    """Stabilizer of a pencil under (g1, g2, g3) in gl_2 x gl_p x gl_q.

    The derivative of the action on s M1 + t M2 is

        ((a s + c t) M1 + (b s + d t) M2) + (s g2 M1 + t g2 M2)
            - (s M1 g3 + t M2 g3),        g1 = [[a, b], [c, d]],

    and equating the s- and t-coefficient matrices to zero (or to c times
    M1, M2 for the projective version) gives 2pq linear equations in
    4 + p^2 + q^2 (+1) unknowns, solved exactly.  M1 and M2 enter as the
    pencil's integer slices, scaled by the lcm of all their denominators.
    """
    if T.is_zero:
        raise ValueError("stabilizer of the zero pencil is everything")
    p, q = T.rows, T.cols
    M = (T.N1, T.N2)
    unknowns = 4 + p * p + q * q
    g2_off = 4
    g3_off = 4 + p * p
    rows = []
    for part in (0, 1):  # s-coefficient, then t-coefficient
        slab = M[part]
        for i in range(p):
            for j in range(q):
                row = [0] * (unknowns + 1)
                row[2 * part] = M[0][i][j]       # a (s) or c (t)
                row[2 * part + 1] = M[1][i][j]   # b (s) or d (t)
                for k in range(p):
                    row[g2_off + i * p + k] = slab[k][j]
                for k in range(q):
                    row[g3_off + k * q + j] = -slab[i][k]
                row[unknowns] = -slab[i][j]  # scaling column
                rows.append(row)
    return _report(rows, unknowns)


def form_stabilizer(F: MultiForm) -> OrbitReport:
    """Stabilizer of a form under the substitution action of gl_n.

    d(rho)(g).F = sum_{i,j} g_ij x_i dF/dx_j; the projective stabilizer
    solves d(rho)(g).F = c F in the n^2 + 1 unknowns (g, c).  F enters
    scaled by the lcm of its denominators, and the term c x^e of F puts
    e_j c into the equation of x^(e - 1_j + 1_i) at the unknown g_ij.
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
    return _report(rows, unknowns)
