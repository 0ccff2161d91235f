import random
from collections import Counter
from math import lcm

import pytest

from rankloci import linalg, upoly as up
from rankloci.binary import BinaryForm
from rankloci.errors import InternalInvariantError
from rankloci.orbits import pencil_stabilizer
from rankloci.pencils import (
    Pencil,
    build_L,
    build_regular,
    direct_sum,
    eigen_partition_spectrum,
    invariant_factors,
    is_concise_tensor,
    kronecker_invariants,
    minimal_indices,
    normal_rank,
    pencil_rank,
    symbolic_det,
    zero_pencil,
)
from rankloci.rationals import rat
from rankloci.t244 import classify_t244
from rankloci.upoly import smith_invariant_factors

from helpers import (
    assemble_canonical,
    canonical_truth,
    concise_oracle,
    conjugated,
    deflate_rows_oracle,
    det_product_oracle,
    integer_ladder_oracle,
    invariant_factors_minor_gcd,
    jordan_block,
    ladder_oracle,
    m_F_oracle,
    oracle_invariant_factors,
    pencil_grid,
    rand_gl2,
    rand_invertible,
    rand_kronecker_block,
    rand_pencil,
    refinement_spectrum_oracle,
    sample_canonical_pencil,
    smith_oracle,
    spectrum_oracle,
    symbolic_det_oracle,
)


def nilpotent_2x2():
    return build_regular([[0, 1], [0, 0]])  # [[s, t], [0, s]]


def shifted_2x2():
    # [[s+t, t], [0, s+t]]
    return Pencil([[1, 0], [0, 1]], [[1, 1], [0, 1]])


def test_build_L_display():
    L1 = build_L(1)
    assert (L1.rows, L1.cols) == (1, 2)
    assert L1.M1 == [[rat(1), rat(0)]] and L1.M2 == [[rat(0), rat(1)]]


def test_build_regular_jordan_display():
    J = nilpotent_2x2()
    assert J.entry(0, 0) == BinaryForm([1, 0])
    assert J.entry(0, 1) == BinaryForm([0, 1])
    assert J.entry(1, 0).is_zero


def test_direct_sum_zero_columns():
    P = direct_sum(build_L(1), zero_pencil(0, 5))
    assert (P.rows, P.cols) == (1, 7)
    assert all(P.entry(0, j).is_zero for j in range(2, 7))


def test_invariant_factors_jordan_block():
    assert invariant_factors(nilpotent_2x2()) == [BinaryForm([1, 0, 0])]  # s^2


def test_invariant_factors_distinct_diagonal():
    lams = [0, 1, 2, 3]
    P = build_regular([[lams[i] if i == j else 0 for j in range(4)] for i in range(4)])
    facs = invariant_factors(P)
    assert len(facs) == 1
    prod = BinaryForm([1])
    for lam in lams:
        prod = prod * BinaryForm([1, lam])
    assert facs[0] == prod.monic()


def test_invariant_factors_direct_sum_example():
    # two 2x2 Jordan blocks at different eigenvalues merge into s^2 (s+t)^2
    P = direct_sum(nilpotent_2x2(), shifted_2x2())
    facs = invariant_factors(P)
    expected = BinaryForm([1, 0, 0]) * BinaryForm([1, 1]) * BinaryForm([1, 1])
    assert facs == [expected.monic()]
    assert pencil_rank(P).rank == 5  # while each block alone has rank 3
    assert pencil_rank(nilpotent_2x2()).rank == 3
    assert pencil_rank(shifted_2x2()).rank == 3


def test_invariant_factor_t_power_uniform():
    # pencil with elementary divisor at [1:0]: swap the roles of s and t
    P = Pencil([[0, 1], [0, 0]], [[1, 0], [0, 1]])  # [[t, s], [0, t]]
    assert invariant_factors(P) == [BinaryForm([0, 0, 1])]  # t^2, no special path


def test_minimal_indices_examples():
    assert minimal_indices(build_L(2)) == ([2], [], 0, 0)
    assert minimal_indices(build_L(3).transpose()) == ([], [3], 0, 0)
    assert minimal_indices(zero_pencil(2, 3)) == ([], [], 2, 3)


def test_pencil_rank_examples():
    # 4x4 block [[sI, tI], [0, sI]] has rank 6
    T6 = Pencil(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    assert pencil_rank(T6).rank == 6
    assert pencil_rank(direct_sum(build_L(1), build_L(1))).rank == 4


def test_rank_unchanged_by_zero_blocks():
    rng = random.Random(2)
    for _ in range(20):
        _, P = sample_canonical_pencil(rng, max_side=6)
        base = pencil_rank(P).rank
        padded = direct_sum(P, zero_pencil(rng.randint(0, 2), rng.randint(0, 2)))
        assert pencil_rank(padded).rank == base


def test_subadditivity_with_strictness_witness():
    rng = random.Random(13)
    for _ in range(200):
        P = rand_pencil(rng, rng.randint(1, 3), rng.randint(1, 3), -3, 3)
        Q = rand_pencil(rng, rng.randint(1, 3), rng.randint(1, 3), -3, 3)
        rp, rq = pencil_rank(P).rank, pencil_rank(Q).rank
        rsum = pencil_rank(direct_sum(P, Q)).rank
        assert rsum <= rp + rq
    # the strictness witness: rank 5 < 3 + 3 for the two Jordan blocks
    P, Q = nilpotent_2x2(), shifted_2x2()
    assert pencil_rank(direct_sum(P, Q)).rank == 5 != pencil_rank(P).rank + pencil_rank(Q).rank


def test_budget_identities_on_randoms():
    rng = random.Random(29)
    for _ in range(40):
        P = rand_pencil(rng, rng.randint(1, 5), rng.randint(1, 5))
        inv = kronecker_invariants(P)  # raises InternalInvariantError on violation
        assert sum(inv.eps) + sum(e + 1 for e in inv.eta) + inv.f + inv.zero_rows == P.rows
        assert sum(e + 1 for e in inv.eps) + sum(inv.eta) + inv.f + inv.zero_cols == P.cols
        assert sum(inv.eps) + sum(inv.eta) + inv.f == normal_rank(P)


def test_minor_gcd_oracle_agreement():
    rng = random.Random(37)
    for _ in range(60):
        P = rand_pencil(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
        assert invariant_factors(P) == invariant_factors_minor_gcd(P)
    for _ in range(25):
        _, P = sample_canonical_pencil(rng, max_side=5)
        P = conjugated(rng, P)
        assert invariant_factors(P) == invariant_factors_minor_gcd(P)


def test_det_is_product_of_invariant_factors():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 4)
        P = rand_pencil(rng, n, n, -3, 3)
        d = symbolic_det(P)
        if d.is_zero:
            continue
        prod = BinaryForm([1])
        for f in invariant_factors(P):
            prod = prod * f
        assert prod.monic() == d.monic()


def test_roundtrip_small():
    rng = random.Random(4057)
    for _ in range(60):
        data, P = sample_canonical_pencil(rng, max_side=8)
        truth = canonical_truth(*data)
        Q = conjugated(rng, P)
        rep = pencil_rank(Q)
        inv = rep.invariants
        got = (inv.eps, inv.eta, inv.factor_degrees, rep.m_F, rep.rank,
               inv.zero_rows, inv.zero_cols)
        assert got == truth


def test_m_F_counts_non_squarefree_factors():
    # one eigenvalue with two 2-blocks, another with one 2-block
    F = [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]
    P = build_regular(F)
    inv = kronecker_invariants(P)
    assert inv.factor_degrees == (2, 4)
    assert inv.m_F == 2  # both factors contain a square
    assert pencil_rank(P).rank == 6 + 2


def test_conciseness_by_flattenings():
    T6 = Pencil(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    assert is_concise_tensor(T6)
    assert not is_concise_tensor(direct_sum(T6, zero_pencil(0, 1)))
    # dependent slices: s M + t (2M) is spanned by one matrix
    M = [[1, 2], [3, 4]]
    assert not is_concise_tensor(Pencil(M, [[2, 4], [6, 8]]))


def test_conciseness_matches_flattening_oracle():
    # the Kronecker rule against the three flattening ranks: conjugated
    # canonical pencils up to side 10, then slices l*M, L_1, 1 x 1, zero
    # blocks with no rows or no columns, and the 0 x 0 pencil
    rng = random.Random(8111)
    cases = []
    for k in range(120):  # the zero block taken out of every other one
        data, P = sample_canonical_pencil(rng, max_side=10)
        if k % 2:
            P = assemble_canonical(*data[:3], 0, 0)
        cases.append(conjugated(rng, P, rational=k % 3 == 1))
    for k in range(24):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        M = rand_invertible(rng, p) if k % 2 else rand_pencil(rng, p, q).M1
        cases += [Pencil(M, [[lam * x for x in row] for row in M]) for lam in (0, 2)]
        cases.append(Pencil([[0] * len(M[0])] * len(M), M))
    for P in (Pencil([[3]], [[-1]]), build_L(1), build_L(1).transpose(), rand_pencil(rng, 3, 3)):
        cases += [P, direct_sum(P, zero_pencil(0, 1)), direct_sum(P, zero_pencil(1, 0))]
    cases.append(zero_pencil(0, 0))
    concise = 0
    for P in cases:
        expected = concise_oracle(P)
        assert is_concise_tensor(P) == pencil_rank(P).concise == expected
        concise += expected
    assert concise >= 60 and len(cases) - concise >= 60  # 75 of 205 at this seed


def test_partition_spectrum_examples():
    P = direct_sum(nilpotent_2x2(), shifted_2x2())
    assert eigen_partition_spectrum(invariant_factors(P)) == ((2,), (2,))
    J = build_regular(jordan_block(3, 0))
    assert eigen_partition_spectrum(invariant_factors(J)) == ((3,),)
    D = build_regular([[0, 0], [0, 1]])
    assert eigen_partition_spectrum(invariant_factors(D)) == ((1,), (1,))


def test_shape_validation():
    with pytest.raises(ValueError):
        Pencil([[1, 0]], [[1]])
    with pytest.raises(ValueError):
        build_L(0)


def test_degenerate_shapes():
    # rowless and columnless zero blocks keep their dimensions
    z = zero_pencil(0, 3)
    inv = kronecker_invariants(z)
    assert (inv.zero_rows, inv.zero_cols) == (0, 3)
    assert pencil_rank(z).rank == 0
    z = zero_pencil(2, 0)
    inv = kronecker_invariants(z)
    assert (inv.zero_rows, inv.zero_cols) == (2, 0)
    t = zero_pencil(0, 3).transpose()
    assert (t.rows, t.cols) == (3, 0)


def test_pencil_stores_integer_slices_over_one_denominator():
    # integer and rational pencils with negative entries, and pencils with
    # no rows or no columns: the stored integer slices are read-only tuples
    # over den, the lcm of the entry denominators, the rational views build
    # the same pencil again, and no analysis changes what is stored
    rng = random.Random(7103)
    pencils = [zero_pencil(0, 3), zero_pencil(3, 0), zero_pencil(0, 0)]
    for k in range(24):
        p, q = (4, 4) if k % 3 == 0 else (rng.randint(1, 5), rng.randint(1, 5))
        dens = (1,) if k % 2 else (1, 2, 3, 4, 6, 9)
        M1, M2 = ([[rat(rng.randint(-9, 9), rng.choice(dens)) for _ in range(q)]
                   for _ in range(p)] for _ in range(2))
        P = Pencil(M1, M2)
        assert (P.M1, P.M2) == (M1, M2)
        assert P.den == lcm(*[e.denominator for M in (M1, M2) for row in M for e in row])
        pencils.append(P)
    assert sum(P.den > 1 for P in pencils) >= 10
    assert any(x < 0 for P in pencils for row in P.N1 for x in row)
    for P in pencils:
        assert type(P.N1) is type(P.N2) is tuple
        assert all(type(row) is tuple for row in P.N1 + P.N2)
        assert P.N1 == tuple(tuple(e * P.den for e in row) for row in P.M1)
        assert P.N2 == tuple(tuple(e * P.den for e in row) for row in P.M2)
        stored = (P.N1, P.N2, P.den, P.to_json())
        Q = Pencil(P.M1, P.M2, shape=(P.rows, P.cols))
        assert (Q.N1, Q.N2, Q.den, Q.to_json()) == stored
        pencil_rank(P)
        if P.rows == P.cols:
            symbolic_det(P)
        if not P.is_zero:
            pencil_stabilizer(P)
            if (P.rows, P.cols) == (4, 4):
                classify_t244(P)
        assert (P.N1, P.N2, P.den, P.to_json()) == stored
    with pytest.raises(TypeError):
        Pencil([[0.5]], [[1]])


def test_smith_form_known_examples():
    one = [rat(1)]
    x = [rat(0), rat(1)]
    x2 = [rat(0), rat(0), rat(1)]
    # diag(x, x^2) is already in normal form
    assert smith_oracle([[x, []], [[], x2]]) == [x, x2]
    # swapped diagonal still sorts into the divisibility chain
    assert smith_oracle([[x2, []], [[], x]]) == [x, x2]
    # [[x, 0], [0, x - 1]]: coprime diagonal collapses to [1, x^2 - x]
    xm1 = [rat(-1), rat(1)]
    got = smith_oracle([[x, []], [[], xm1]])
    assert got[0] == one
    assert got[1] == [rat(0), rat(-1), rat(1)]  # x^2 - x
    # a unit entry anywhere makes the first factor 1
    got = smith_oracle([[x, one], [x2, x]])
    assert got[0] == one


def test_smith_oracle_is_exact_on_integer_entries():
    # integer entries are read as rationals, so the monic scaling is exact
    assert smith_oracle(pencil_grid([[2]], [[1]])) == [[rat(1, 2), rat(1)]]
    big = 3**60 + 1
    assert smith_oracle(pencil_grid([[3]], [[big]])) == [[rat(big, 3), rat(1)]]


def test_partition_spectrum_matches_assembled_jordan_data():
    rng = random.Random(5150)
    for _ in range(40):
        (eps, eta, jordan, p0, q0), P = sample_canonical_pencil(rng, max_side=9)
        by_lam = {}
        for lam, size in jordan:
            by_lam.setdefault(str(rat(lam)), []).append(size)
        expected = tuple(sorted(tuple(sorted(v)) for v in by_lam.values()))
        Q = conjugated(rng, P)
        got = eigen_partition_spectrum(invariant_factors(Q))
        assert got == expected


# pairwise coprime forms: rational roots, [1:0] and [0:1], and irreducible
# quadratics and a cubic whose roots are Galois conjugates
COPRIME_FORMS = [[1, 0], [0, 1], [1, 1], [1, -2], [1, 0, -2], [1, 0, 1], [1, 1, 1], [2, 0, 0, -1]]


def test_partition_spectrum_matches_oracle():
    rng = random.Random(9091)
    for _ in range(300):
        m = rng.randint(1, 5)
        chosen = rng.sample(COPRIME_FORMS, rng.randint(1, 4))
        mults = []
        for _ in chosen:
            v = sorted(rng.randint(0, 3) for _ in range(m))
            v[-1] = max(v[-1], 1)
            mults.append(v)
        factors = []
        for i in range(m):
            d = BinaryForm([1])
            for coeffs, v in zip(chosen, mults):
                d = d * BinaryForm(coeffs).pow(v[i])
            if d.degree:
                factors.append(d.monic())
        # every root of a chosen form has the profile of its multiplicities
        expected = tuple(sorted(
            tuple(c for c in v if c)
            for coeffs, v in zip(chosen, mults) for _ in range(len(coeffs) - 1)
        ))
        assert eigen_partition_spectrum(factors) == spectrum_oracle(factors) == expected


def test_integer_chain_matches_the_binary_form_path():
    """m(F), the spectrum and the det read off the staircase's integer chain
    against the rational-form path on its factors, the enumeration oracle
    and the cofactor det: direct sums of every Kronecker block kind moved by
    random row and column transforms and, 60% of the time, by a GL_2
    substitution that leaves [1:0] and [0:1] in place, and random dense and
    sparse pencils of any shape."""
    rng = random.Random(1801)
    pencils = []
    while len(pencils) < 420:
        blocks = [rand_kronecker_block(rng) for _ in range(rng.randint(1, 4))]
        P = direct_sum(*(block for _, block in blocks))
        if max(P.rows, P.cols) > 6 or P.is_zero:
            continue
        gl2 = None if rng.random() < 0.4 else (1, 0, 0, 1)
        P = conjugated(rng, P, rational=rng.random() < 0.3, gl2=gl2)
        pencils.append(({kind for kind, _ in blocks}, P))
    for k in range(100):
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        M1 = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(q)] for _ in range(p)]
        M2 = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(q)] for _ in range(p)]
        pencils.append(({"random"}, rand_pencil(rng, p, q, -3, 3) if k % 2 else Pencil(M1, M2)))
    seen = Counter()
    for kinds, P in pencils:
        inv = kronecker_invariants(P)
        factors = inv.factors
        assert inv.m_F == m_F_oracle(factors)
        assert (inv.spectrum == eigen_partition_spectrum(factors)
                == refinement_spectrum_oracle(factors) == spectrum_oracle(factors))
        if P.rows == P.cols:
            det = symbolic_det(P)
            assert det == det_product_oracle(P, factors)
            if P.rows <= 4:
                assert det == symbolic_det_oracle(P)
            seen["singular"] += det.is_zero
        seen["non-square"] += P.rows != P.cols
        seen["[1:0]"] += any(not p[0] for p, a in inv.chain)
        seen["[0:1]"] += any(a for p, a in inv.chain)
        seen["pure s-power factor"] += any(len(p) == 1 for p, a in inv.chain)
        seen["irreducible"] += "irreducible" in kinds
        seen["m_F > 0"] += inv.m_F > 0
    assert len(seen) == 7 and min(seen.values()) >= 40, seen


def _degrees(P):
    return tuple(d.degree for d in invariant_factors(P))


def test_invariant_factors_match_smith_oracle():
    rng = random.Random(6007)
    for k in range(200):
        _, P = sample_canonical_pencil(rng, max_side=8)
        Q = conjugated(rng, P, rational=k % 2 == 1)
        assert invariant_factors(Q) == oracle_invariant_factors(Q)
    for _ in range(150):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        M1 = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(q)] for _ in range(p)]
        M2 = [[rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(q)] for _ in range(p)]
        P = Pencil(M1, M2)
        assert invariant_factors(P) == oracle_invariant_factors(P)


def test_invariant_factors_edge_cases():
    # the kernel's chain is homogeneous and keeps its unit factors:
    # s*I + t*diag(0, -1) -> [1, s^2 - s t] (the kernel takes integer
    # matrices); a regular pencil drops no row or column
    assert smith_invariant_factors([[1, 0], [0, 1]], [[0, 0], [0, -1]]) == ([[1], [1, -1, 0]], [], [])
    # s*N + t*I with N a 2 x 2 Jordan block at 0: the root [1:0] twice -> [1, t^2]
    assert smith_invariant_factors([[0, 1], [0, 0]], [[1, 0], [0, 1]]) == ([[1], [0, 0, 1]], [], [])
    rng = random.Random(6011)
    n = 5
    # s*N + t*I with N nilpotent: unimodular at t = 1, a pure t-power chain
    N = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    I = [[int(i == j) for j in range(n)] for i in range(n)]
    P = Pencil(N, I)
    assert invariant_factors(P) == oracle_invariant_factors(P)
    assert all(d == BinaryForm([0] * d.degree + [1]) for d in invariant_factors(P))
    S = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    assert invariant_factors(Pencil(S, I)) == [BinaryForm([0] * n + [1])]  # t^5
    B = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
    Z = [[0] * 4 for _ in range(3)]
    for P in (Pencil(Z, B), Pencil(B, Z), Pencil(B, B)):  # A = 0, B = 0, dependent slices
        assert invariant_factors(P) == oracle_invariant_factors(P)
    # zero rows and columns around a regular part, mixed into the rows by a transform
    P = direct_sum(zero_pencil(2, 0), nilpotent_2x2(), zero_pencil(1, 2))
    assert invariant_factors(P) == [BinaryForm([1, 0, 0])]
    Q = conjugated(rng, P)
    assert invariant_factors(Q) == oracle_invariant_factors(Q)


def _chain(blocks) -> list:
    """The exact invariant-factor chain of a regular pencil made of Jordan
    blocks (root, size), each root a linear form given by its coefficients:
    the k-th factor from the top is the product over the roots of the root
    to the power of its k-th largest block."""
    by_root = {}
    for root, size in blocks:
        by_root.setdefault(tuple(rat(c) for c in root), []).append(size)
    top = []
    for k in range(max(map(len, by_root.values()), default=0)):
        d = BinaryForm([1])
        for root, sizes in by_root.items():
            if k < len(sizes):
                d = d * BinaryForm(root).pow(sorted(sizes, reverse=True)[k])
        top.append(d.monic())
    return top[::-1]


def test_one_chain_matches_canonical_data():
    # Q(s, t) = P(a s + b t, c s + d t) has the factors d_k(a s + b t, c s + d t);
    # s*Id + t*J has the root s + lam t for a Jordan block of eigenvalue lam
    rng = random.Random(6101)
    at_inf = 0
    for k in range(80):
        data, P = sample_canonical_pencil(rng, max_side=12)
        gl2 = rand_gl2(rng)
        if k % 3 == 0 and data[2]:  # (a, c) a root of P: Q has the eigenvalue [1:0]
            lam = rat(data[2][0][0])
            gl2 = (-lam.numerator, 1, lam.denominator, 0)
        Q = conjugated(rng, P, rational=k % 2 == 1, gl2=gl2)
        expected = [d.substitute(*gl2).monic() for d in _chain(((1, lam), n) for lam, n in data[2])]
        assert invariant_factors(Q) == expected
        inv, report = kronecker_invariants(Q), pencil_rank(Q)
        assert list(inv.factors) == expected
        assert (inv.eps, inv.eta, inv.factor_degrees, report.m_F, report.rank,
                inv.zero_rows, inv.zero_cols) == canonical_truth(*data)
        if max(Q.rows, Q.cols) <= 6:
            assert expected == oracle_invariant_factors(Q)
        at_inf += linalg.rank(Q.M1) < normal_rank(Q)  # [1:0] is an eigenvalue
    assert at_inf >= 20  # 26 at this seed


def test_one_chain_steps_past_three_eigenvalues():
    # s*J + t*I with J a Jordan block of eigenvalue -c has the root t - c s,
    # so [1:0], [1:1] and [1:2] are eigenvalues (the rank drops at [1:c] for
    # c < 3) and the one chain reads all three, [1:0] off the row pass
    rng = random.Random(6113)
    for k in range(16):
        cs = [(c, rng.randint(1, 2)) for c in range(3) for _ in range(rng.randint(1, 2))]
        extra = rng.choice(([], [build_L(1)], [build_L(2).transpose()], [zero_pencil(1, 0)]))
        P = direct_sum(*[Pencil(jordan_block(n, -c), linalg.identity(n)) for c, n in cs], *extra)
        Q = conjugated(rng, P, rational=k % 2 == 1, gl2=(1, 0, 0, 1))  # rows and columns only
        r = normal_rank(Q)
        drops = [linalg.rank([[a + c * b for a, b in zip(r1, r2)] for r1, r2 in zip(Q.M1, Q.M2)]) < r
                 for c in range(4)]
        assert drops == [True, True, True, False]
        assert invariant_factors(Q) == list(kronecker_invariants(Q).factors) == _chain(((-c, 1), n) for c, n in cs)
        if max(Q.rows, Q.cols) <= 6:
            assert invariant_factors(Q) == oracle_invariant_factors(Q)


def test_one_chain_on_s_times_N_plus_t():
    # s*N + t*I: [1:0] is an eigenvalue exactly when N is singular
    rng = random.Random(6121)
    for k in range(40):
        n = rng.randint(1, 6)
        N = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        if k % 3 == 0:  # nilpotent: a pure t-power chain
            N = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(N)]
        P = Pencil(N, linalg.identity(n))
        assert invariant_factors(P) == oracle_invariant_factors(P)
        assert list(kronecker_invariants(P).factors) == invariant_factors(P)


def test_one_chain_on_empty_and_zero_pencils():
    for p, q in ((0, 0), (0, 3), (2, 0), (1, 1), (3, 4)):
        Z = zero_pencil(p, q)
        assert invariant_factors(Z) == []
        inv = kronecker_invariants(Z)
        assert (inv.eps, inv.eta, inv.factors, inv.zero_rows, inv.zero_cols) == ((), (), (), p, q)
        assert minimal_indices(Z) == ([], [], p, q)
    assert symbolic_det(zero_pencil(0, 0)) == BinaryForm([1])
    assert symbolic_det(zero_pencil(3, 3)) == BinaryForm.zero(3)


def test_factor_degrees_at_side_20():
    rng = random.Random(6029)
    for k in range(30):
        data, P = sample_canonical_pencil(rng, max_side=20)
        assert _degrees(conjugated(rng, P, rational=k % 2 == 1)) == canonical_truth(*data)[2]
    # full 20 x 20 regular parts, where the general Q[x] elimination took minutes
    for jordan in ([(0, 4), (0, 3), (1, 4), (-1, 2), (2, 4), ("1/2", 3)],
                   [(1, 2), (1, 2), (1, 2), (0, 4), (0, 4), (-2, 3), (-2, 3)]):
        data = ([], [], jordan, 0, 0)
        Q = conjugated(rng, assemble_canonical(*data), rational=True)
        assert _degrees(Q) == canonical_truth(*data)[2]


def test_minimal_indices_match_ladder_oracle():
    rng = random.Random(7019)
    for _ in range(100):
        P = rand_pencil(rng, rng.randint(1, 6), rng.randint(1, 6), -3, 3)
        assert minimal_indices(P) == ladder_oracle(P)
    for _ in range(100):
        p, q = rng.randint(1, 5), rng.randint(1, 7)
        M1 = [[int(rng.random() < 0.3) for _ in range(q)] for _ in range(p)]
        M2 = [[int(rng.random() < 0.3) for _ in range(q)] for _ in range(p)]
        P = Pencil(M1, M2)
        assert minimal_indices(P) == ladder_oracle(P)
    for k in range(100):
        _, P = sample_canonical_pencil(rng, max_side=9)
        Q = conjugated(rng, P, rational=k % 2 == 1)
        assert minimal_indices(Q) == ladder_oracle(Q)


def test_minimal_indices_edge_cases():
    rng = random.Random(7027)
    B = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)]
    Z = [[0] * 5 for _ in range(3)]
    cases = [zero_pencil(3, 4), zero_pencil(0, 3), zero_pencil(2, 0),
             Pencil(Z, B), Pencil(B, Z), Pencil(B, B)]  # M1 = 0, M2 = 0, dependent slices
    for e in range(1, 7):
        cases += [build_L(e), build_L(e).transpose(), conjugated(rng, build_L(e), rational=True)]
    # M1 singular with M2 invertible: s*N + t*I, N nilpotent, padded by zero blocks
    N = [[rng.randint(-2, 2) if j > i else 0 for j in range(4)] for i in range(4)]
    I = [[int(i == j) for j in range(4)] for i in range(4)]
    cases += [Pencil(N, I), direct_sum(Pencil(N, I), zero_pencil(1, 2), build_L(2))]
    for P in cases:
        assert minimal_indices(P) == ladder_oracle(P)
    assert minimal_indices(zero_pencil(0, 3)) == ([], [], 0, 3)
    assert minimal_indices(zero_pencil(2, 0)) == ([], [], 2, 0)
    assert minimal_indices(build_L(6)) == ([6], [], 0, 0)
    assert minimal_indices(build_L(6).transpose()) == ([], [6], 0, 0)
    assert minimal_indices(Pencil(N, I)) == ([], [], 0, 0)


def test_minimal_indices_at_side_20():
    rng = random.Random(7043)
    for k in range(30):
        data, P = sample_canonical_pencil(rng, max_side=20)
        eps, eta, _, _, _, p0, q0 = canonical_truth(*data)
        Q = conjugated(rng, P, rational=k % 2 == 1)
        assert minimal_indices(Q) == (list(eps), list(eta), p0, q0)


def test_staircase_indices_match_both_ladders():
    # the indices read off the kernel's staircase against the rational and
    # the integer ladder, and against the assembled data where there is some
    rng = random.Random(7057)
    cases = []
    for k in range(36):  # conjugated canonical pencils, a third with [1:0] an eigenvalue
        data, P = sample_canonical_pencil(rng, max_side=12)
        gl2 = rand_gl2(rng)
        if k % 3 == 0 and data[2]:
            lam = rat(data[2][0][0])
            gl2 = (-lam.numerator, 1, lam.denominator, 0)
        cases.append((data, conjugated(rng, P, rational=k % 2 == 1, gl2=gl2)))
    for k in range(24):  # several L and L^T blocks, of equal sizes on odd k
        eps = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        eta = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        if k % 2:
            eps, eta = [eps[0]] * len(eps), [eta[0]] * len(eta)
        jordan = [(rng.choice((0, 1, "1/2")), rng.randint(1, 2))] if k % 3 == 0 else []
        data = (eps, eta, jordan, rng.randint(0, 2), rng.randint(0, 2))
        cases.append((data, conjugated(rng, assemble_canonical(*data), rational=k % 2 == 0)))
    for k in range(60):  # random dense pencils with repeated rows and columns
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        M1 = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(p)]
        M2 = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(q)] for _ in range(p)]
        for _ in range(rng.randint(1, 3)):
            if p > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(p), 2)
                M1[i], M2[i] = list(M1[j]), [rng.choice((1, 2)) * x for x in M2[j]]
            elif q > 1:
                i, j = rng.sample(range(q), 2)
                for r1, r2 in zip(M1, M2):
                    r1[i], r2[i] = r1[j], r2[j]
        cases.append((None, Pencil(M1, M2)))
    cases += [(([], [], [], p, q), zero_pencil(p, q)) for p, q in ((0, 3), (3, 0), (0, 0), (2, 3))]
    at_inf = 0
    for data, P in cases:
        expected = ladder_oracle(P)
        assert minimal_indices(P) == expected == integer_ladder_oracle(P)
        inv = kronecker_invariants(P)
        assert (list(inv.eps), list(inv.eta), inv.zero_rows, inv.zero_cols) == expected
        if data is not None:
            eps, eta, _, _, _, p0, q0 = canonical_truth(*data)
            assert expected == (list(eps), list(eta), p0, q0)
        at_inf += bool(P.rows) and linalg.rank(P.M1) < normal_rank(P)  # [1:0] an eigenvalue
    assert at_inf >= 20  # 28 at this seed


def test_deflate_rows_matches_dense_oracle():
    # the sparse column step against the dense one, in the row pass and in
    # the column pass on what the row pass leaves: Jordan blocks at [1:0]
    # and L_eta^T blocks next to canonical data, under integer and rational
    # row transforms, with and without a substitution of (s, t)
    rng = random.Random(5519)
    cut = 0
    for k in range(80):
        _, P = sample_canonical_pencil(rng, max_side=8)
        at_inf = [Pencil(jordan_block(n, 0), linalg.identity(n)) for n in range(1, rng.randint(1, 3))]
        eta = [build_L(rng.randint(1, 3)).transpose() for _ in range(rng.randint(0, 2))]
        P = direct_sum(P, *at_inf, *eta)
        Q = conjugated(rng, P, rational=k % 2 == 0, gl2=None if k % 3 else (1, 0, 0, 1))
        rows, q = [list(a + b) for a, b in zip(Q.N1, Q.N2)], Q.cols
        for _ in range(2):
            got = up._deflate_rows([list(r) for r in rows], q)
            assert got == deflate_rows_oracle([list(r) for r in rows], q)
            cut += sum(got[2])
            rows, q = up._flip(got[0], got[1]), len(got[0])
    assert cut >= 200


def test_a_column_pass_that_leaves_a_unit_raises(monkeypatch):
    # [[x, 1, 0], [0, 0, x]] is L_1 plus (x): the column pass takes out the
    # unit of L_1 and leaves x*I; a column pass that removes nothing leaves
    # that unit behind in a 2 x 3 x part, which no sound staircase does
    A, B = [[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0]]
    assert smith_invariant_factors(A, B) == ([[1], [1, 0]], [], [1])
    deflate, passes = up._deflate_rows, []

    def lazy(rows, q):
        passes.append(q)
        return deflate(rows, q) if len(passes) % 2 else (rows, q, [], [])

    monkeypatch.setattr(up, "_deflate_rows", lazy)
    with pytest.raises(InternalInvariantError, match="singular x part"):
        smith_invariant_factors(A, B)
    with pytest.raises(InternalInvariantError, match="singular x part"):
        kronecker_invariants(Pencil(A, B))
    assert len(passes) == 4


def test_a_chain_that_does_not_divide_upward_raises(monkeypatch):
    # chains planted in place of the kernel's, with the degrees of a 2 x 2
    # regular pencil so the budget identities hold: s + t does not divide
    # s - t, and s does not divide t although 1 divides t's t-part
    P = Pencil([[1, 0], [0, 1]], [[1, 0], [0, -1]])
    assert kronecker_invariants(P).chain == (((1, 0, -1), 0),)  # 1 | s^2 - t^2
    for chain in ([[1, 1], [1, -1]], [[1, 0], [0, 1]]):
        monkeypatch.setattr(up, "smith_invariant_factors", lambda A, B, chain=chain: (chain, [], []))
        with pytest.raises(InternalInvariantError, match="divisibility chain"):
            kronecker_invariants(P)


def test_a_squarefree_split_that_does_not_reconstruct_raises(monkeypatch):
    inv = kronecker_invariants(build_regular(jordan_block(2, 1)))  # (s + t)^2
    monkeypatch.setattr(up, "up_squarefree_parts", lambda f: [(f, 2)])
    with pytest.raises(InternalInvariantError, match="squarefree split"):
        inv.spectrum


def test_blocks_at_one_zero_that_grow_with_the_step_raise(monkeypatch):
    # s*N + t*I with Jordan blocks of sizes 2 and 1 at 0: the row pass removes
    # two units, then one, so b = [2, 1] and the chain is [1, t, t^2]; units
    # planted in the other order make b grow, and units planted two short
    # make it negative
    A = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    B = [[int(i == j) for j in range(3)] for i in range(3)]
    assert smith_invariant_factors(A, B) == ([[1], [0, 1], [0, 0, 1]], [], [])
    deflate = up._deflate_rows
    for plant in (lambda units: units[::-1], lambda units: [u - 2 for u in units]):
        passes = []

        def planted(rows, q):
            rows, q, units, drops = deflate(rows, q)
            passes.append(q)
            return rows, q, plant(units) if len(passes) == 1 else units, drops

        monkeypatch.setattr(up, "_deflate_rows", planted)
        with pytest.raises(InternalInvariantError, match=r"Jordan structure at \[1:0\]"):
            smith_invariant_factors(A, B)
        assert len(passes) == 2


def test_blocks_at_one_zero_come_off_the_row_pass():
    # Jordan blocks s*N + t*I at [1:0] (root t) next to L_eta^T blocks of
    # equal and of unequal sizes, L_eps blocks, zero rows and columns and
    # finite Jordan blocks, under row and column transforms only: each row
    # step removes one unit per L_eta^T block with eta > k as well, and the
    # largest power of t belongs to the last factor; every third pencil is
    # drawn again until it fits the oracle's side 6
    rng = random.Random(9103)
    small = 0
    for k in range(60):
        while True:
            at_inf = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            eta = [rng.randint(1, 3)] * 2 if k % 2 else sorted(rng.sample(range(1, 4), 2))
            eta = eta[: rng.randint(1, 2)]
            eps = [rng.randint(1, 3) for _ in range(rng.randint(0, 1))]
            jordan = [(rng.choice((0, 1, "1/2")), rng.randint(1, 2))] if rng.random() < 0.3 else []
            p0, q0 = rng.randint(0, 1), rng.randint(0, 1)
            P = direct_sum(assemble_canonical(eps, eta, jordan, p0, q0),
                           *[Pencil(jordan_block(n, 0), linalg.identity(n)) for n in at_inf])
            if k % 3 or max(P.rows, P.cols) <= 6:
                break
        Q = conjugated(rng, P, rational=k % 2 == 0, gl2=(1, 0, 0, 1))
        expected = _chain([((0, 1), n) for n in at_inf] + [((1, lam), n) for lam, n in jordan])
        inv = kronecker_invariants(Q)
        assert invariant_factors(Q) == list(inv.factors) == expected
        assert (inv.eps, inv.eta, inv.zero_rows, inv.zero_cols) == (tuple(eps), tuple(eta), p0, q0)
        if max(Q.rows, Q.cols) <= 6:
            assert expected == oracle_invariant_factors(Q)
            small += 1
    assert small >= 20


def test_symbolic_det_matches_cofactor_oracle():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(0, 5)
        P = rand_pencil(rng, n, n, -3, 3)
        if n > 1 and rng.random() < 0.4:
            # row i a multiple of row j in both slices makes the pencil singular
            M1, M2 = P.M1, P.M2
            i, j = rng.sample(range(n), 2)
            a = rat(rng.randint(-2, 2), rng.randint(1, 3))
            P = Pencil([r if k != i else [a * x for x in M1[j]] for k, r in enumerate(M1)],
                       [r if k != i else [a * x for x in M2[j]] for k, r in enumerate(M2)])
        assert symbolic_det(P) == symbolic_det_oracle(P)
    square = 0
    while square < 80:
        _, P = sample_canonical_pencil(rng, max_side=6)
        if P.rows != P.cols:
            continue
        square += 1
        Q = conjugated(rng, P, rational=square % 2 == 0)
        assert symbolic_det(Q) == symbolic_det_oracle(Q)
