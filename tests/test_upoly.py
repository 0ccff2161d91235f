import random
from math import gcd

import pytest

from rankloci.binary import BinaryForm
from rankloci.pencils import Pencil
from rankloci.upoly import (
    smith_invariant_factors,
    up_div_exact,
    up_gcd,
    up_mul,
    up_rational_roots,
    up_squarefree_parts,
)

from helpers import (
    conjugated,
    oracle_invariant_factors,
    pencil_grid,
    sample_canonical_pencil,
    smith_oracle,
)


def test_yun_on_mixed_multiplicities():
    # (t^2 - 2)^3 (t + 1) t^2: multiplicities 1, 2, 3, one part irrational
    f = up_mul(up_mul(up_mul(up_mul([-2, 0, 1], [-2, 0, 1]), [-2, 0, 1]), [1, 1]), [0, 0, 1])
    assert up_squarefree_parts(f) == [([1, 1], 1), ([0, 1], 2), ([-2, 0, 1], 3)]
    assert up_squarefree_parts([3]) == []
    with pytest.raises(ValueError):
        up_squarefree_parts([])


def test_exact_division():
    assert up_div_exact([-1, 0, 1], [1, 1]) == [-1, 1]
    assert up_div_exact([], [1, 1]) == []
    with pytest.raises(ValueError):
        up_div_exact([1, 0, 1], [1, 1])  # t^2 + 1 by t + 1
    with pytest.raises(ValueError):
        up_div_exact([1, 1], [-1, 0, 1])  # lower degree, nonzero
    with pytest.raises(ZeroDivisionError):
        up_div_exact([1, 1], [])


def test_gcd_zero_and_constant_inputs():
    assert up_gcd([], []) == []
    assert up_gcd([], [-4, 0, -6]) == [2, 0, 3]
    assert up_gcd([6, 4], []) == [3, 2]
    assert up_gcd([5], [-1, 0, 1]) == [1]
    assert up_gcd([-1, 0, 1], [7]) == [1]
    assert up_gcd([6, 8, 2], [-27, 0, 3]) == [3, 1]  # 2(t + 3)(t + 1), 3(t + 3)(t - 3)
    assert up_gcd([1, 0, 1], [-1, 1]) == [1]


def test_rational_roots():
    # 6 t^3 - 5 t^2 - 2 t + 1 = (t - 1)(2 t + 1)(3 t - 1), and t^2 + 1
    assert up_rational_roots([1, -2, -5, 6]) == [(-1, 2), (1, 3), (1, 1)]
    assert up_rational_roots(up_mul([0, 1], [1, 0, 1])) == [(0, 1)]
    assert up_rational_roots([1, 0, 1]) == []
    assert up_rational_roots([7]) == []
    with pytest.raises(ValueError):
        up_rational_roots(up_mul([-1, 0, 1], [1, 1]))  # (t - 1)(t + 1)^2


def test_smith_chain_is_primitive_and_matches_oracle():
    # the kernel's homogeneous chain is primitive over Z (content 1, positive
    # first nonzero coefficient), as long as the oracle's chain, and its
    # nonconstant entries are the oracle's homogeneous invariant factors
    rng = random.Random(8101)
    for k in range(120):
        if k % 2:
            _, P = sample_canonical_pencil(rng, max_side=6)
            Q = conjugated(rng, P, rational=k % 4 == 1)
            A, B = [list(r) for r in Q.N1], [list(r) for r in Q.N2]
        else:
            p, q = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(q)] for _ in range(p)]
            B = [[rng.choice((0, 0, 1, -1, 3, 4)) for _ in range(q)] for _ in range(p)]
            if p > 1 and k % 3 == 0:
                A[-1] = list(A[0])  # [1:0] an eigenvalue or a singular part
        chain = smith_invariant_factors(A, B)[0]
        assert all(gcd(*h) == 1 and next(c for c in h if c) > 0 for h in chain)
        assert len(chain) == len(smith_oracle(pencil_grid(A, B)))
        want = oracle_invariant_factors(Pencil(A, B))
        assert [BinaryForm(h).monic() for h in chain if len(h) > 1] == want
