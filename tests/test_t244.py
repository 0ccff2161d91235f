import json
import random

import pytest

from rankloci import t244
from rankloci.binary import BinaryForm, has_multiple_root, rational_roots
from rankloci.pencils import Pencil, _spectrum, build_regular, direct_sum, zero_pencil
from rankloci.rationals import rat
from rankloci.t244 import (
    FIXTURE_ENV,
    classify_t244,
    cross_ratio_class,
    det_pencil,
    discriminant_quartic,
    fixture_version,
    load_registry,
    max_rank_tensor,
    nesting_experiment,
    quartic_coeffs,
    quartic_invariants,
    t4_pencil,
    t5_pencil,
)

from helpers import (
    conjugated,
    cross_ratios_oracle,
    discriminant_oracle,
    jordan_block,
    planted_roots_form,
    rand_gl2,
    rand_invertible,
    rand_pencil,
    stabilizer_oracle,
    symbolic_det_oracle,
)


def test_det_examples():
    d = det_pencil(t4_pencil(0, 1, 2, 3))
    expected = BinaryForm([1, 0]) * BinaryForm([1, 1]) * BinaryForm([1, 2]) * BinaryForm([1, 3])
    assert d == expected
    assert det_pencil(max_rank_tensor(2)) == BinaryForm([1, 0, 0, 0, 0])  # s^4
    P = Pencil([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 1, 1]],
               [[0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 1]])
    assert det_pencil(P).is_zero  # zero column


def test_classifier_det_matches_cofactor_oracle():
    rng = random.Random(29)
    pencils = [rand_pencil(rng, 4, 4, -3, 3) for _ in range(20)]
    pencils += [conjugated(rng, e.pencil, rational=k % 2 == 1)
                for k, e in enumerate(load_registry().entries)]
    # the det of t4_pencil(0, -1, -2, -3) vanishes at (k, 1) for k = 0..3
    pencils += [t4_pencil(0, -1, -2, -3), t5_pencil(0, 1, -1),
                conjugated(rng, t4_pencil(-2, "1/2", 1, 3)), conjugated(rng, t5_pencil(2, 0, -1))]
    for _ in range(6):
        # nonconcise: a zero row and column (singular), or dependent slices
        inner = rand_pencil(rng, 3, 3, -3, 3)
        pencils.append(conjugated(rng, direct_sum(inner, zero_pencil(1, 1))))
        M = rand_invertible(rng, 4)
        pencils.append(Pencil(M, [[rng.randint(-2, 2) * e for e in row] for row in M]))
    for P in pencils:
        if not P.is_zero:
            assert classify_t244(P).det == symbolic_det_oracle(P)


def test_discriminant_examples():
    assert discriminant_quartic(1, 0, 0, 0, 1) == 256
    assert discriminant_quartic(0, 1, 0, 0, 0) == 0  # s^3 t
    # random quartics: vanishing iff repeated root, exactly
    rng = random.Random(3)
    for _ in range(300):
        f = BinaryForm([rng.randint(-5, 5) for _ in range(5)])
        disc = discriminant_quartic(*quartic_coeffs(f))
        assert (disc == 0) == has_multiple_root(f)
    # rational roots r_i of f(1, t) = prod (t - r_i): disc = prod_{i<j} (r_i - r_j)^2
    for _ in range(50):
        roots = [rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        f = BinaryForm([1])
        for r in roots:
            f = f * BinaryForm([-r, 1])
        expected = rat(1)
        for i in range(4):
            for j in range(i + 1, 4):
                expected *= (roots[i] - roots[j]) ** 2
        assert discriminant_quartic(*quartic_coeffs(f)) == expected


def test_discriminant_invariant_relation():
    rng = random.Random(5)
    for _ in range(100):
        coeffs = [rat(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 12))) for _ in range(5)]
        I, J = quartic_invariants(*coeffs)
        assert discriminant_quartic(*coeffs) == discriminant_oracle(*coeffs)
        assert discriminant_oracle(*coeffs) == (4 * I**3 - J**2) / 27


def test_fixture_version_never_loads_the_registry(monkeypatch, tmp_path):
    # before the registry loads, the version is read off the fixture text
    # (the packaged one, or the one under RANKLOCI_FIXTURES) and asking does
    # not load it; once loaded, it is the version of the fixture it checked
    monkeypatch.setattr(t244, "_REGISTRY", None)
    assert fixture_version() == "1"
    assert t244._REGISTRY is None
    raw = json.loads(t244._fixture_text())
    raw["fixture_version"] = "2-test"
    (tmp_path / "table1.json").write_text(json.dumps(raw))
    monkeypatch.setenv(FIXTURE_ENV, str(tmp_path))
    assert fixture_version() == "2-test"
    assert t244._REGISTRY is None
    monkeypatch.delenv(FIXTURE_ENV)
    reg = load_registry()
    assert fixture_version() == reg.version == "1"
    monkeypatch.setenv(FIXTURE_ENV, str(tmp_path))
    assert fixture_version() == "1"


def test_registry_loads_and_is_complete():
    reg = load_registry()
    assert len(reg.entries) == 14
    assert reg.version == "1"
    dims = sorted(e.dim for e in reg.entries)
    assert dims == [22, 23, 24, 25, 25, 26, 26, 26, 27, 27, 28, 28, 29, 29]
    ranks = sorted(e.rank for e in reg.entries)
    assert ranks == [4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6]


def test_fixture_rows_classify_to_themselves():
    for entry in load_registry().entries:
        rep = classify_t244(entry.pencil)
        assert rep.orbit_id == entry.orbit_id
        assert rep.orbit_dim == entry.dim
        assert rep.rank == entry.rank


def test_classify_t4_t5_t6():
    rep = classify_t244(t4_pencil(0, 1, 2, 3))
    assert (rep.orbit_id, rep.rank, rep.locus, rep.orbit_dim) == ("T4", 4, "W4", 30)
    assert rep.cross_ratio is not None

    rep = classify_t244(t5_pencil(0, 1, -1))
    assert (rep.orbit_id, rep.rank, rep.locus, rep.orbit_dim) == ("T5", 5, "W5", 30)
    assert rep.discriminant == 0

    rep = classify_t244(max_rank_tensor(2))
    assert (rep.orbit_id, rep.rank, rep.locus) == ("table1_01", 6, "W6")
    assert rep.orbit_dim == 24

    # T4 and T5 take their orbit dimension from the closed form too
    rng = random.Random(17)
    for _ in range(5):
        a, b = (rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        for P, orbit in ((t4_pencil(a, a + 1, a + 2, a + 3), "T4"), (t5_pencil(b, b + 1, b - 1), "T5")):
            rep = classify_t244(conjugated(rng, P))
            assert (rep.orbit_id, rep.orbit_dim) == (orbit, 30)


def test_spectrum_is_computed_once_per_chain(monkeypatch):
    # the signature and the closed-form orbit dimension of T4 and T5 read one
    # cached spectrum, and so does each fixture row when the registry loads
    calls = []
    monkeypatch.setattr("rankloci.pencils._spectrum",
                        lambda chain: calls.append(chain) or _spectrum(chain))
    monkeypatch.setattr(t244, "_REGISTRY", None)
    load_registry()
    assert len(calls) == 14
    rng = random.Random(23)
    for P, orbit in ((t4_pencil(0, 1, 2, 3), "T4"), (t5_pencil(0, 1, -1), "T5")):
        calls.clear()
        rep = classify_t244(conjugated(rng, P))
        assert rep.orbit_id == orbit and len(calls) == 1
        assert rep.invariants.spectrum is rep.invariants.spectrum and len(calls) == 1


def test_classifier_is_galois_stable():
    # eigenvalues +-sqrt(2), each with one 2x2 Jordan block, against J2(1) + J2(-1)
    irr = build_regular([[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]])
    rat_analog = direct_sum(build_regular(jordan_block(2, 1)), build_regular(jordan_block(2, -1)))
    # eigenvalues +-sqrt(2), each with two 1x1 blocks, against diag(1, -1, 1, -1)
    irr2 = direct_sum(build_regular([[0, 2], [1, 0]]), build_regular([[0, 2], [1, 0]]))
    rat_analog2 = build_regular([[(-1) ** i if i == j else 0 for j in range(4)] for i in range(4)])
    for P, Q, orbit in ((irr, rat_analog, "table1_03"), (irr2, rat_analog2, "table1_13")):
        got, want = classify_t244(P), classify_t244(Q)
        assert (got.orbit_id, got.rank) == (want.orbit_id, want.rank)
        assert got.orbit_id == orbit


def test_classify_dim29_example():
    # [[s,t,0,0],[0,s,t,0],[0,0,s,0],[0,0,0,s+t]]: dim 29, rank 5
    P = Pencil(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
    )
    rep = classify_t244(P)
    assert rep.orbit_dim == 29 and rep.rank == 5 and rep.locus == "W5"


def test_classify_nonconcise():
    P = direct_sum(t5_pencil(0, 1, -1).conjugate(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ), zero_pencil(0, 0))
    # drop a slice direction: dependent slices are nonconcise
    M = [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 0, 1]]
    P = Pencil(M, [[2 * e for e in row] for row in M])
    rep = classify_t244(P)
    assert rep.orbit_id == "nonconcise"
    assert rep.locus == "W4"
    assert rep.discriminant == 0  # nonconcise tensors lie on the divisor
    # l(s, t) * M: one eigenvalue with four 1 x 1 blocks, of codimension
    # 1 + 3 + 5 + 7 in the 32-dimensional space, plus one gl_2 direction and
    # less one for the projective class: 32 - 16 + 1 - 1
    assert rep.orbit_dim == 16 == stabilizer_oracle(P).projective_orbit_dim
    # a zero row and a zero column beside a 2 x 2 Jordan block and a simple eigenvalue
    Q = direct_sum(build_regular([[0, 1, 0], [0, 0, 0], [0, 0, 1]]), zero_pencil(1, 1))
    rep = classify_t244(conjugated(random.Random(5), Q))
    assert rep.orbit_id == "nonconcise"
    assert rep.orbit_dim == stabilizer_oracle(Q).projective_orbit_dim


def test_classifier_group_invariance():
    rng = random.Random(11)
    reps = [e.pencil for e in load_registry().entries]
    reps.append(t4_pencil(0, 1, 2, 3))
    reps.append(t5_pencil(0, 1, -1))
    for base in reps:
        want = classify_t244(base)
        for _ in range(30):
            a, b, c, d = rand_gl2(rng)
            moved = base.substitute_st(a, b, c, d).conjugate(
                rand_invertible(rng, 4), rand_invertible(rng, 4))
            got = classify_t244(moved)
            assert got.orbit_id == want.orbit_id
            assert got.rank == want.rank
            assert got.locus == want.locus
            assert got.orbit_dim == want.orbit_dim


def test_rank_five_or_six_on_discriminant():
    # random pencils are rank 4 almost surely, so seed high-rank points
    # explicitly: every conjugate of a rank >= 5 representative must land
    # on the discriminant divisor
    rng = random.Random(13)
    seen_high = 0
    pool = [e.pencil for e in load_registry().entries if e.rank >= 5]
    pool.append(t5_pencil(0, 1, -1))
    for base in pool:
        for _ in range(3):
            a, b, c, d = rand_gl2(rng)
            P = base.substitute_st(a, b, c, d).conjugate(
                rand_invertible(rng, 4), rand_invertible(rng, 4))
            rep = classify_t244(P)
            assert rep.rank >= 5
            seen_high += 1
            assert rep.discriminant == 0
    for _ in range(100):
        P = rand_pencil(rng, 4, 4, -5, 5)
        if P.is_zero:
            continue
        rep = classify_t244(P)
        if rep.rank >= 5:
            assert rep.discriminant == 0
    assert seen_high >= 30


def test_cross_ratio_moebius_invariance():
    rng = random.Random(17)
    base = t4_pencil(0, 1, 2, 3)
    want = classify_t244(base).cross_ratio
    assert want.ratios is not None
    for _ in range(10):
        a, b, c, d = rand_gl2(rng)
        moved = base.substitute_st(a, b, c, d).conjugate(
            rand_invertible(rng, 4), rand_invertible(rng, 4))
        got = classify_t244(moved).cross_ratio
        assert got == want
        assert got.ratios == want.ratios


def test_cross_ratio_separates_classes():
    a = classify_t244(t4_pencil(0, 1, 2, 3)).cross_ratio
    b = classify_t244(t4_pencil(0, 1, 2, 4)).cross_ratio
    assert a != b
    # harmonic quadruple: cross-ratio -1; same class under permutation
    h1 = classify_t244(t4_pencil(0, 2, 1, 3)).cross_ratio
    h2 = classify_t244(t4_pencil(0, 1, 2, 3)).cross_ratio
    assert h1 == h2


def test_cross_ratio_of_large_integer_eigenvalues():
    # integer roots -1009, ..., -4001 under quartic coefficients past 10^12,
    # where a rational root test over trial-division divisors gives up
    lams = (1009, 2003, 3001, 4001)
    ratios = classify_t244(t4_pencil(*lams)).cross_ratio.ratios
    l1, l2, l3, l4 = (rat(x) for x in lams)
    lam = (l1 - l2) / (l1 - l3) * (l4 - l3) / (l4 - l2)
    assert lam == rat(62125, 248751)
    assert ratios == tuple(
        sorted((lam, 1 / lam, 1 - lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam)))


def test_rational_roots_planted_and_against_the_trial_division_oracle():
    # the oracle's trial division grows with the square root of the
    # coefficients, so it runs on the quartics whose planted roots have
    # height at most 10, where it always answers
    rng = random.Random(2027)
    compared = total = 0
    for _ in range(2000):
        F, roots = planted_roots_form(rng)
        got = rational_roots(F)
        assert len(got) == len(roots) and set(got) == roots
        if F.degree == 4:
            ratios = cross_ratio_class(F).ratios
            assert (ratios is not None) == (len(roots) == 4)
            total += ratios is not None
            if max(max(abs(s), abs(t)) for s, t in roots) <= 10:
                want = cross_ratios_oracle(F)
                assert (want is not None) == (ratios is not None)
                assert ratios == want
                compared += want is not None
    assert total >= 300 and compared >= 100
    assert rational_roots(BinaryForm([0, 1, 0])) == [(1, 0), (0, 1)]  # s t
    for F in (BinaryForm([0, 1, 0, 0]), BinaryForm([0, 0, 1, 0])):  # s^2 t, s t^2
        with pytest.raises(ValueError):
            rational_roots(F)


def test_cross_ratio_irrational_roots_fingerprint():
    # det = (s^2 - 2 t^2)(s^2 - 3 t^2): squarefree, no rational roots
    F = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    P = Pencil(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -3]],
    )
    det = det_pencil(P)
    assert not has_multiple_root(det)
    cls = cross_ratio_class(det)
    assert cls.ratios is None
    assert cls.invariant[1] != 0


def test_classification_is_everywhere_defined():
    rng = random.Random(19)
    labels = set()
    for _ in range(150):
        P = rand_pencil(rng, 4, 4, -3, 3)
        if P.is_zero:
            continue
        rep = classify_t244(P)
        labels.add(rep.orbit_id)
        assert 1 <= rep.rank <= 6
    assert "T4" in labels  # generic samples hit the open stratum family


def test_zero_tensor_rejected():
    with pytest.raises(ValueError):
        classify_t244(zero_pencil(4, 4))


def test_nesting_experiment_small():
    summary = nesting_experiment(seed=123, trials=20)
    t6 = summary["t6_plus_rank1"]
    t5 = summary["t5_plus_rank1"]
    assert t6["trials"] == t5["trials"] == 20
    assert t6["generic"] + len(t6["degenerate"]) == 20
    assert t5["generic"] + len(t5["degenerate"]) == 20
    assert t6["generic"] >= 18
    assert t5["generic"] >= 18
    assert t6["expected_rank"] == 5 and t5["expected_rank"] == 4


def test_cross_ratio_equal_under_eigenvalue_moebius_and_permutation():
    rng = random.Random(23)
    from helpers import distinct_rationals
    for _ in range(10):
        lams = distinct_rationals(rng, 4)
        while True:
            a, b, c, d = (rat(rng.randint(-4, 4)) for _ in range(4))
            if a * d - b * c != 0 and all(c * lam + d != 0 for lam in lams):
                break
        moved = [(a * lam + b) / (c * lam + d) for lam in lams]
        rng.shuffle(moved)
        c1 = classify_t244(t4_pencil(*lams)).cross_ratio
        c2 = classify_t244(t4_pencil(*moved)).cross_ratio
        assert c1 == c2
        assert c1.ratios is not None
        assert c1.ratios == c2.ratios
