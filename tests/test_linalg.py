import random
from fractions import Fraction

import pytest

from rankloci import linalg

from helpers import rref_oracle


def cofactor_det(A):
    if not A:
        return 1
    return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in A[1:]])
               for j, a in enumerate(A[0]) if a)


def rand_matrix(rng, p, q):
    """Mixed int and non-integer Fraction entries, about a third zero, with
    some zero rows, zero columns and repeated rows."""
    def entry():
        x = rng.random()
        if x < 0.35:
            return 0
        if x < 0.65:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-9, 9), rng.randint(2, 7))

    A = [[entry() for _ in range(q)] for _ in range(p)]
    if p and rng.random() < 0.2:
        A[rng.randrange(p)] = [0] * q
    if q and rng.random() < 0.2:
        c = rng.randrange(q)
        for row in A:
            row[c] = 0
    if p > 1 and rng.random() < 0.2:
        i, j = rng.sample(range(p), 2)
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        A[i] = [k * x for x in A[j]]
    return A


def test_linalg_matches_oracles():
    rng = random.Random(2024)
    # a matrix with no rows is [] whatever its column count
    cases = [[], [[]], [[], []]]
    cases += [rand_matrix(rng, rng.randint(1, 7), rng.randint(0, 7)) for _ in range(3000)]
    for A in cases:
        m = len(A[0]) if A else 0
        R, piv = rref_oracle(A)
        r = len(piv)
        assert linalg.rank(A) == r
        # its first r rows are the canonical row-space basis, the rest vanish
        got = linalg.rref(A)
        assert got == (R, piv)
        assert not any(any(row) for row in got[0][r:])

        # the canonical kernel basis: 1 at its free column, 0 at the others
        free = [c for c in range(m) if c not in piv]
        N = linalg.nullspace(A)
        assert len(N) == len(free)
        for c, v in zip(free, N):
            assert [v[f] for f in free] == [int(f == c) for f in free]
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)

        if A:
            b = [rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-4, 4), 3)]) for _ in A]
            x = linalg.solve(A, b)
            if m in rref_oracle([row + [bv] for row, bv in zip(A, b)])[1]:
                assert x is None
            else:
                assert all(sum(a * xi for a, xi in zip(row, x)) == bv for row, bv in zip(A, b))
                assert all(x[f] == 0 for f in free)

        if len(A) == m:
            if r < m:
                with pytest.raises(ValueError):
                    linalg.inverse(A)
            else:
                inv = linalg.inverse(A)
                assert linalg.mat_mul(A, inv) == linalg.identity(m)
            if m <= 6:
                assert linalg.det(A) == cofactor_det(A)
