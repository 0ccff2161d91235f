import random
from itertools import combinations

import pytest

from rankloci import linalg
from rankloci.apolarity import (
    apolar_theta,
    binary_generic_rank,
    binary_max_rank,
    binary_rank,
    catalecticant,
    power_sum_binary,
)
from rankloci.binary import BinaryForm
from rankloci.rationals import rat

from helpers import (
    apolar_apply_binary,
    apolar_theta_oracle,
    distinct_rationals,
    rand_binary_form,
    rand_factored_form,
)


def xpow(d):
    return BinaryForm.monomial(d, 0)  # x^d ~ s^d


def test_catalecticant_xd_kernel_is_beta():
    for d in range(1, 7):
        ker = linalg.nullspace([list(r) for r in catalecticant(xpow(d), 1).matrix])
        assert len(ker) == 1
        assert ker[0] == [rat(0), rat(1)]  # beta annihilates x^d


def test_catalecticant_xy_kernel_alpha2_beta2():
    F = BinaryForm.monomial(2, 1)  # xy
    ker = linalg.nullspace([list(r) for r in catalecticant(F, 2).matrix])
    assert len(ker) == 2
    assert ker[0] == [rat(1), rat(0), rat(0)]
    assert ker[1] == [rat(0), rat(0), rat(1)]


def test_catalecticant_zero_form_full_kernel():
    Z = BinaryForm.zero(4)
    for k in range(5):
        ker = linalg.nullspace([list(r) for r in catalecticant(Z, k).matrix])
        assert len(ker) == k + 1


def test_catalecticant_range_check():
    with pytest.raises(ValueError):
        catalecticant(xpow(3), 4)


def test_apolar_theta_examples():
    r, theta, kdim = apolar_theta(xpow(5))
    assert (r, kdim) == (1, 1)
    assert theta == BinaryForm([0, 1])

    r, theta, kdim = apolar_theta(BinaryForm.monomial(5, 1))  # x^4 y
    assert r == 2
    assert theta == BinaryForm([0, 0, 1])  # beta^2


def test_apolar_theta_annihilates():
    rng = random.Random(17)
    for _ in range(50):
        F = rand_binary_form(rng, rng.randint(1, 8))
        r, theta, _ = apolar_theta(F)
        assert apolar_apply_binary(theta, F).is_zero


def test_apolar_theta_matches_the_degree_loop():
    # d = 1 and 2 with roots at [1:0] and [0:1], planted repeated roots, and
    # generic even degrees, whose kernel is two-dimensional
    rng = random.Random(4139)
    forms = [BinaryForm(cs) for cs in ([0, 1], [1, 0], [2, -3], [1, 0, 0], [0, 0, 1], [0, 1, 0],
                                       [1, 0, 1], [1, 2, 1], [3, 1, -2])]
    forms += [rand_factored_form(rng) for _ in range(120)]
    forms += [rand_binary_form(rng, 2 * rng.randint(1, 5)) for _ in range(30)]
    kernel_dims = set()
    for F in forms:
        if F.is_zero or F.degree == 0:
            continue
        got = apolar_theta(F)
        assert got == apolar_theta_oracle(F), F
        kernel_dims.add(got[2])
    assert kernel_dims == {1, 2}


def test_generic_degree5_has_r3_unique():
    rng = random.Random(31)
    hits = 0
    for _ in range(20):
        F = rand_binary_form(rng, 5)
        r, theta, kdim = apolar_theta(F)
        if r == 3 and kdim == 1:
            hits += 1
            assert apolar_apply_binary(theta, F).is_zero
    assert hits >= 18  # generic behaviour: 3x4 Hankel with 1-dim kernel


def test_rank_xy_is_two():
    rep = binary_rank(BinaryForm.monomial(2, 1))
    assert rep.rank == 2 and rep.border_rank == 2


def test_rank_tangential_forms():
    for d in range(3, 11):
        rep = binary_rank(BinaryForm.monomial(d, 1))  # x^(d-1) y
        assert rep.rank == d
        assert rep.border_rank == 2
        assert rep.locus_label == f"W_{d} = τ(X)"
    # at d = 2 the maximal rank equals the generic rank, so xy sits in σ_2
    rep = binary_rank(BinaryForm.monomial(2, 1))
    assert rep.rank == 2 and rep.locus_label == "σ_2"


def _grid_decomposition_exists(F, terms, grid):
    """Is F a combination of (x + l y)^d for some l-subset of the grid?"""
    d = F.degree
    for lams in combinations(grid, terms):
        cols = [BinaryForm.linear_power(1, lam, d).coeffs for lam in lams]
        A = [[cols[j][i] for j in range(terms)] for i in range(d + 1)]
        if linalg.solve(A, list(F.coeffs)) is not None:
            return True
    return False


def test_monomial_rank_with_independent_certificates():
    """rank(x^a y^b) = a + 1 for a > b >= 1, certified without binary_rank.

    Lower bound: a k-term decomposition exists iff the degree-k annihilator
    contains a squarefree form; for k = a every kernel vector is divisible
    by beta^(b+1), so none is squarefree.  Upper bound: alpha^(a+1) -
    beta^(a+1) annihilates the monomial and has distinct roots, so a + 1
    powers (at those roots, over the closure) suffice.
    """
    from helpers import is_squarefree

    for d in range(3, 7):
        for b in range(1, (d - 1) // 2 + 1):
            a = d - b
            F = BinaryForm.monomial(d, b)  # x^a y^b, a > b >= 1
            assert binary_rank(F).rank == a + 1
            kernel = linalg.nullspace([list(r) for r in catalecticant(F, a).matrix])
            assert kernel  # border rank <= a: kernel is nonempty
            for vec in kernel:
                theta = BinaryForm(vec)
                assert all(not c for c in vec[: b + 1])  # beta^(b+1) divides
                assert not is_squarefree(theta)
            witness = BinaryForm([1] + [0] * a + [-1])  # alpha^(a+1) - beta^(a+1)
            assert apolar_apply_binary(witness, F).is_zero
            assert is_squarefree(witness)


def test_monomial_rank_rational_grid_decompositions():
    """For b = 1 the (a+1)-term decomposition even exists on a small
    rational grid (reciprocals summing to zero), and no a-term grid subset
    works; b >= 2 admits no rational witness at a + 1 terms, which the
    certificate test above covers instead."""
    grid = [rat(0)] + [s * rat(p, q) for s in (1, -1)
                       for (p, q) in ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (2, 3))]
    for d in range(3, 7):
        F = BinaryForm.monomial(d, 1)  # x^(d-1) y
        a = d - 1
        assert _grid_decomposition_exists(F, a + 1, grid)
        assert not _grid_decomposition_exists(F, a, grid)


def test_power_sum_rank_small():
    rng = random.Random(41)
    for _ in range(30):
        d = rng.randint(3, 10)
        r = rng.randint(1, (d + 1) // 2)
        lams = distinct_rationals(rng, r)
        F = power_sum_binary([(1, 1, lam) for lam in lams], d)
        rep = binary_rank(F)
        assert rep.rank == r and rep.border_rank == r


def test_chain_consistency_and_scaling():
    rng = random.Random(43)
    for _ in range(60):
        d = rng.randint(1, 8)
        F = rand_binary_form(rng, d)
        rep = binary_rank(F)
        assert rep.rank in (rep.border_rank, d + 2 - rep.border_rank)
        assert 1 <= rep.rank <= d
        c = rat(rng.randint(1, 9), rng.randint(1, 9))
        assert binary_rank(F.scale(c)).rank == rep.rank


def test_gl2_invariance_of_rank():
    from helpers import rand_gl2

    rng = random.Random(47)
    for _ in range(50):
        d = rng.randint(2, 8)
        F = rand_binary_form(rng, d)
        a, b, c, e = rand_gl2(rng)
        assert binary_rank(F.substitute(a, b, c, e)).rank == binary_rank(F).rank


def test_generic_and_max_rank_formulas():
    assert (binary_generic_rank(2), binary_max_rank(2)) == (2, 2)
    assert (binary_generic_rank(5), binary_max_rank(5)) == (3, 5)
    assert (binary_generic_rank(6), binary_max_rank(6)) == (4, 6)


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        binary_rank(BinaryForm.zero(3))
    with pytest.raises(ValueError):
        apolar_theta(BinaryForm.zero(3))


def test_locus_labels():
    # rank <= g: secant stratum; g < rank < d: shifted tangential stratum
    rep = binary_rank(power_sum_binary([(1, 1, 0), (1, 1, 1)], 6))
    assert rep.rank == 2 and rep.locus_label == "σ_2"
    F = BinaryForm.monomial(6, 2)  # x^4 y^2: theta = beta^3, rank 6 + 2 - 3 = 5
    rep = binary_rank(F)
    assert rep.rank == 5
    assert rep.locus_label == "W_5 = τ(X) + 1X"


def test_constant_form_rejected():
    with pytest.raises(ValueError):
        binary_rank(BinaryForm([3]))
    with pytest.raises(ValueError):
        apolar_theta(BinaryForm([3]))
