import json
import random
from math import comb

import pytest

from rankloci import cli
from rankloci.forms import MultiForm, essential_variables, exponents, power_of_quadric
from rankloci.orbits import form_stabilizer, pencil_stabilizer
from rankloci.pencils import (
    Pencil,
    build_regular,
    direct_sum,
    eigen_partition_spectrum,
    kronecker_invariants,
    zero_pencil,
)
from rankloci.rationals import rat
from rankloci.t244 import load_registry, max_rank_tensor, t4_pencil, t5_pencil

from helpers import (
    assemble_canonical,
    conjugated,
    distinct_rationals,
    jordan_block,
    rand_invertible,
    rand_kronecker_block,
    rand_multiform,
    stabilizer_oracle,
    substitute,
)


def test_max_rank_tensor_stabilizers():
    for n in (2, 3, 4, 5):
        rep = pencil_stabilizer(max_rank_tensor(n))
        assert rep.group_dim == 8 * n * n + 4
        assert rep.stabilizer_dim == 2 * n * n + 3
        assert rep.affine_orbit_dim == 6 * n * n + 1
        assert rep.projective_orbit_dim == 6 * n * n


def test_t4_t5_projective_stabilizers():
    rep = pencil_stabilizer(t4_pencil(0, 1, 2, 3))
    assert rep.projective_stabilizer_dim == 6
    assert rep.projective_orbit_dim == 30
    rep = pencil_stabilizer(t5_pencil(0, 1, -1))
    assert rep.projective_stabilizer_dim == 6
    assert rep.projective_orbit_dim == 30


def test_t4_distinct_diagonal_with_rational_eigenvalues():
    rng = random.Random(61)
    for _ in range(5):
        lams = distinct_rationals(rng, 4)
        rep = pencil_stabilizer(t4_pencil(*lams))
        assert rep.projective_stabilizer_dim == 6
        assert rep.projective_orbit_dim == 30


def test_form_orbit_examples():
    F = MultiForm(3, 3, {(2, 1, 0): 1, (0, 2, 1): 1})  # x^2 y + y^2 z
    assert form_stabilizer(F).projective_orbit_dim == 6

    assert form_stabilizer(power_of_quadric(3, 2)).projective_orbit_dim == comb(4, 2) - 1
    assert form_stabilizer(power_of_quadric(4, 2)).projective_orbit_dim == comb(5, 2) - 1

    for n in (2, 3, 4):
        xd = MultiForm.monomial(n, tuple([5] + [0] * (n - 1)))
        assert form_stabilizer(xd).projective_orbit_dim == n - 1


def test_conjugation_invariance_pencils():
    rng = random.Random(67)
    base = t5_pencil(0, 1, -1)
    want = pencil_stabilizer(base)
    for _ in range(20):
        A = rand_invertible(rng, 4)
        B = rand_invertible(rng, 4)
        got = pencil_stabilizer(base.conjugate(A, B))
        assert got == want


def test_conjugation_invariance_forms():
    rng = random.Random(71)
    F = MultiForm(3, 3, {(2, 1, 0): 1, (0, 2, 1): 1})
    want = form_stabilizer(F)
    for _ in range(20):
        A = rand_invertible(rng, 3)
        got = form_stabilizer(substitute(F, A))
        assert got == want


def test_concise_orbit_lower_bound():
    rng = random.Random(73)
    for n in (3, 4):
        bound = comb(n + 1, 2) - 1
        for _ in range(10):
            d = rng.choice((3, 4))
            F = rand_multiform(rng, n, d)
            if not essential_variables(F).concise:
                continue
            assert form_stabilizer(F).projective_orbit_dim >= bound
    # the equality case: an even-degree power of a concise quadric
    assert form_stabilizer(power_of_quadric(3, 2)).projective_orbit_dim == comb(4, 2) - 1


def test_nonconcise_orbit_additivity():
    rng = random.Random(79)
    for _ in range(10):
        n = rng.choice((3, 4))
        k = rng.randint(1, n - 1)
        while True:
            Fk = rand_multiform(rng, k, 3)
            if essential_variables(Fk).essential_count == k:
                break
        terms = {e + (0,) * (n - k): c for e, c in Fk.terms.items()}
        F = MultiForm(n, 3, terms)
        big = form_stabilizer(F).projective_orbit_dim
        small = form_stabilizer(Fk).projective_orbit_dim
        assert big == small + k * (n - k)


def test_zero_inputs_rejected():
    with pytest.raises(ValueError):
        pencil_stabilizer(zero_pencil(2, 2))
    with pytest.raises(ValueError):
        form_stabilizer(MultiForm.zero(3, 2))


def test_affine_projective_consistency():
    rng = random.Random(83)
    for _ in range(10):
        F = rand_multiform(rng, 3, 3)
        rep = form_stabilizer(F)
        assert rep.projective_orbit_dim == rep.affine_orbit_dim - 1
        assert rep.group_dim == 9


def _outcome(stabilizer, X):
    try:
        return stabilizer(X).to_json()
    except ValueError:
        return "ValueError"


def _rand_rational(rng):
    x = rng.random()
    if x < 0.4:
        return 0
    if x < 0.7:
        return rng.randint(-5, 5)
    return rat(rng.randint(-9, 9), rng.randint(2, 6))


def _nonconcise_2x4x4():
    """The six nonconcise 2x4x4 Kronecker types and their projective orbit
    dimensions (L1+L1 and three distinct eigenvalues checked by hand: 16 + 4 - 1
    and 18 + 3 + 3 - 1)."""
    at_infinity = Pencil([[0]], [[1]])  # s*0 + t*1: its root is [0:1]
    return [
        (assemble_canonical([1, 1], [], [], 2, 0), 19),
        (assemble_canonical([2], [], [(0, 1)], 1, 0), 25),
        (assemble_canonical([1], [], [(0, 2)], 1, 0), 23),
        (assemble_canonical([], [1], [(1, 1), (-1, 1)], 0, 1), 24),
        (assemble_canonical([], [], [(0, 1), (1, 1), (-1, 1)], 1, 1), 23),
        (direct_sum(build_regular(jordan_block(2, 1)), at_infinity, zero_pencil(1, 1)), 22),
    ]


def test_stabilizer_matches_oracle_seeded():
    rng = random.Random(2026)
    pencils = []
    for entry in load_registry().entries:
        pencils += [conjugated(rng, entry.pencil), conjugated(rng, entry.pencil, rational=True)]
    for P, dim in _nonconcise_2x4x4():
        assert P.rows == P.cols == 4
        assert pencil_stabilizer(P).projective_orbit_dim == dim
        pencils.append(P)
    for _ in range(300):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        M1 = [[_rand_rational(rng) for _ in range(q)] for _ in range(p)]
        M2 = [[_rand_rational(rng) for _ in range(q)] for _ in range(p)]
        if rng.random() < 0.2:
            i = rng.randrange(p)
            M1[i], M2[i] = [0] * q, [0] * q
        if rng.random() < 0.2:
            j = rng.randrange(q)
            for M in (M1, M2):
                for row in M:
                    row[j] = 0
        pencils.append(Pencil(M1, M2))
    forms = []
    for _ in range(200):
        n, d = rng.randint(1, 4), rng.randint(0, 5)
        forms.append(MultiForm(n, d, {e: _rand_rational(rng) for e in exponents(n, d)}))
    # forms with a large stabilizer, under rational substitutions: their
    # coefficients have unlike denominators and their ranks are not generic
    special = [MultiForm(3, 3, {(2, 1, 0): 1, (0, 2, 1): 1}), power_of_quadric(3, 2),
               power_of_quadric(2, 3), MultiForm.monomial(4, (4, 0, 0, 0)),
               MultiForm(4, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})]
    for F in special:
        for _ in range(4):
            A = [[rat(x, rng.randint(1, 5)) for x in row] for row in rand_invertible(rng, F.n)]
            forms.append(substitute(F, A))
    for P in pencils:
        assert _outcome(pencil_stabilizer, P) == _outcome(stabilizer_oracle, P)
    for F in forms:
        assert _outcome(form_stabilizer, F) == _outcome(stabilizer_oracle, F)


def test_closed_form_matches_oracle_on_every_block_type():
    """pencil_stabilizer's closed form against the Lie-algebra solve, on
    direct sums of every Kronecker block kind moved by random GL_p x GL_q
    elements, and half the time by a GL_2 one (which moves [1:0] and [0:1]
    away), with 0 to 4 distinct eigenvalues and more."""
    rng = random.Random(1601)
    kinds, ks, done = set(), set(), 0
    while done < 100:
        blocks = [rand_kronecker_block(rng) for _ in range(rng.randint(1, 4))]
        P = direct_sum(*(block for _, block in blocks))
        if max(P.rows, P.cols) > 6 or P.is_zero:
            continue
        gl2 = None if rng.random() < 0.5 else (1, 0, 0, 1)
        P = conjugated(rng, P, rational=rng.random() < 0.3, gl2=gl2)
        assert pencil_stabilizer(P) == stabilizer_oracle(P)
        kinds.update(kind for kind, _ in blocks)
        ks.add(len(eigen_partition_spectrum(kronecker_invariants(P).factors)))
        done += 1
    assert len(kinds) == 8
    assert ks >= {0, 1, 2, 3, 4}


def test_wm_dims_matches_oracle(capsys):
    for n in (1, 2, 3, 4):
        assert cli.main(["reproduce", "wm-dims", "--n", str(n)]) == 0
        row = json.loads(capsys.readouterr().out)["result"]["rows"][0]
        want = stabilizer_oracle(max_rank_tensor(n))
        assert (row["stabilizer_dim"], row["projective_orbit_dim"]) == (
            want.stabilizer_dim, want.projective_orbit_dim)
        assert row["match"] is True
