import random
from math import comb

import pytest

from rankloci import linalg
from rankloci.errors import InternalInvariantError
from rankloci.forms import (
    MultiForm,
    PowerSumExpression,
    apolar_apply,
    catalecticant_matrix,
    catalecticant_rank_bound,
    essential_variables,
    expand_power_sum,
    exponents,
    generic_waring_rank,
    high_rank_implies_concise,
    max_rank_bounds,
    power_of_quadric,
    reznick_quartic_identity,
    reznick_sextic_identity,
    verify_identity,
)
from rankloci.rationals import rat

from helpers import (
    derivative_rows_oracle,
    essential_variables_oracle,
    expand_power_sum_oracle,
    linear_apolar_kernel_dim,
    power_of_quadric_oracle,
    rand_invertible,
    rand_multiform,
    substitute,
    substitute_oracle,
)


def test_apolar_monomial_rule():
    # alpha^2 . x^2 y = 2 y
    theta = MultiForm.monomial(2, (2, 0))
    F = MultiForm.monomial(2, (2, 1))
    assert apolar_apply(theta, F) == MultiForm.monomial(2, (0, 1), 2)

    # beta . x^d = 0
    beta = MultiForm.monomial(2, (0, 1))
    assert apolar_apply(beta, MultiForm.monomial(2, (4, 0))).is_zero

    # (alpha + beta) . xy = y + x
    ab = MultiForm.linear([1, 1])
    xy = MultiForm.monomial(2, (1, 1))
    assert apolar_apply(ab, xy) == MultiForm.linear([1, 1])


def test_apolar_composition():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 3)
        F = rand_multiform(rng, n, 4)
        t1 = rand_multiform(rng, n, 1)
        t2 = rand_multiform(rng, n, 2)
        lhs = apolar_apply(t1, apolar_apply(t2, F))
        rhs = apolar_apply(t1 * t2, F)
        assert lhs == rhs


def test_essential_variables_examples():
    F = MultiForm(3, 3, {(2, 1, 0): 1, (0, 2, 1): 1})  # x^2 y + y^2 z
    rep = essential_variables(F)
    assert rep.concise and rep.essential_count == 3

    G = MultiForm.linear([1, 1]).pow(3)  # (x + y)^3 in two variables
    rep = essential_variables(G)
    assert rep.essential_count == 1 and not rep.concise

    rep = essential_variables(power_of_quadric(3, 2))
    assert rep.concise and rep.essential_count == 3


def test_derivative_rows_match_the_apolar_oracle():
    # concise, nonconcise (a form in fewer variables, mixed into n by a
    # rational map) and linear forms
    rng = random.Random(8111)
    for k in range(90):
        n = rng.randint(1, 4)
        d = 1 if k % 3 == 0 else rng.randint(2, 4)
        F = rand_multiform(rng, n, d)
        if k % 3 == 2 and n > 1:
            A = [[rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n - 1)]
            F = substitute(rand_multiform(rng, n - 1, d), A)
            if F.is_zero:
                continue
        rows = derivative_rows_oracle(F)
        assert linalg.transpose(catalecticant_matrix(F, d - 1)) == rows
        R, piv = linalg.rref(rows)
        rep = essential_variables(F)
        assert rep.essential_basis == tuple(MultiForm.linear(r) for r in R[: len(piv)])
    with pytest.raises(ValueError):
        essential_variables(MultiForm(2, 0, {(0, 0): 1}))


def _nonconcise(rng, n, d):
    """A form in k < n variables, mixed into n by a rational k x n map."""
    k = rng.randint(1, n - 1)
    while True:
        A = [[rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
        F = substitute(rand_multiform(rng, k, d), A)
        if not F.is_zero:
            return F


def test_essential_variables_match_the_oracle():
    # concise forms, nonconcise forms under rational maps (k = 1..n-1) and
    # linear forms, d up to 5, against the rational rref and the change of
    # coordinates
    rng = random.Random(4111)
    counts = set()
    for t in range(120):
        n = rng.randint(1, 4)
        d = 1 if t % 4 == 0 else rng.randint(2, 5)
        F = _nonconcise(rng, n, d) if t % 4 == 1 and n > 1 else rand_multiform(rng, n, d)
        F = F.scale(rat(rng.randint(1, 9), rng.randint(1, 9)))
        rep = essential_variables(F)
        assert rep == essential_variables_oracle(F), F
        counts.add((rep.concise, d == 1))
    assert counts == {(True, True), (True, False), (False, True), (False, False)}


def test_membership_check_fires_when_a_pivot_row_is_lost(monkeypatch):
    eliminate = linalg._eliminate

    def lose_the_first_pivot_row(rows, cols):
        piv = eliminate(rows, cols)
        del rows[0]
        return piv[1:]

    monkeypatch.setattr(linalg, "_eliminate", lose_the_first_pivot_row)
    rng = random.Random(4127)
    for _ in range(40):
        n = rng.randint(2, 4)
        F = _nonconcise(rng, n, rng.randint(1, 4))
        with pytest.raises(InternalInvariantError, match="essential span"):
            essential_variables(F)


def test_conciseness_two_routes_agree():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        F = rand_multiform(rng, n, d)
        k = essential_variables(F).essential_count
        # independent route: linear annihilator dimension
        assert linear_apolar_kernel_dim(F) == n - k


def test_nonconcise_membership_verified():
    # a form built from 2 of 4 variables must pass the substitution check
    rng = random.Random(23)
    for _ in range(10):
        F2 = rand_multiform(rng, 2, 3)
        terms = {e + (0, 0): c for e, c in F2.terms.items()}
        F = MultiForm(4, 3, terms)
        rep = essential_variables(F)
        assert rep.essential_count == essential_variables(F2).essential_count


def test_catalecticant_bounds():
    assert catalecticant_rank_bound(power_of_quadric(3, 2), 2) == 6
    assert catalecticant_rank_bound(power_of_quadric(4, 2), 2) == 10
    assert catalecticant_rank_bound(MultiForm.monomial(3, (4, 0, 0)), 2) == 1
    with pytest.raises(ValueError):
        catalecticant_rank_bound(power_of_quadric(3, 2), 5)


def test_generic_waring_rank_values():
    assert generic_waring_rank(3, 4) == (6, True)
    assert generic_waring_rank(4, 4) == (10, True)
    assert generic_waring_rank(5, 3) == (8, True)
    assert generic_waring_rank(5, 4) == (15, True)
    assert generic_waring_rank(2, 5) == (3, False)
    assert generic_waring_rank(2, 6) == (4, True)
    assert generic_waring_rank(3, 3) == (4, True)  # 10 = 1 mod 3: Aronhold hypersurface
    assert generic_waring_rank(7, 3) == (12, False)  # ceil(84/7) = 12
    assert generic_waring_rank(4, 2) == (4, True)


def test_max_rank_bounds_values():
    b = max_rank_bounds(3, 3)
    assert b.known_exact == 5 and b.best == 5
    b = max_rank_bounds(3, 4)
    assert b.two_g == 12 and b.refined_2g_minus == 10 and b.known_exact == 7
    b = max_rank_bounds(2, 7)
    assert b.known_exact == 7 and b.best == 7
    assert max_rank_bounds(3, 5).known_exact == 10
    assert max_rank_bounds(4, 3).known_exact == 7


def test_generic_rank_below_best_bound():
    for n in range(2, 7):
        for d in range(2, 9):
            g, _ = generic_waring_rank(n, d)
            assert g <= max_rank_bounds(n, d).best


def test_high_rank_implies_concise():
    assert high_rank_implies_concise(3, 3)
    assert high_rank_implies_concise(2, 5)
    assert not high_rank_implies_concise(5, 5)
    assert high_rank_implies_concise(5, 6)
    assert not high_rank_implies_concise(4, 4)


def test_reznick_identities_all_n():
    for n in range(1, 7):
        expr, target, bound = reznick_quartic_identity(n)
        assert verify_identity(expr, target)
        assert bound == n * n
        expr, target, bound = reznick_sextic_identity(n)
        assert verify_identity(expr, target)
        assert bound == 4 * comb(n, 3) + 2 * comb(n, 2) + n


def test_identity_verification_is_exact():
    expr, target, _ = reznick_quartic_identity(3)
    key = next(iter(target.terms))
    bad = target + MultiForm(3, 4, {key: rat(1, 10**6)})
    assert not verify_identity(expr, bad)


def _rand_expression(rng, n, e):
    summands = []
    for _ in range(rng.randint(1, 5)):
        row = [_rand_rational(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rat(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5)))
        c = _rand_rational(rng) if rng.random() < 0.8 else rat(0)
        summands.append((c, MultiForm.linear(row), e))
    if rng.random() < 0.2:  # every term cancels
        summands += [(-c, lin, e) for c, lin, e in summands]
    return PowerSumExpression(tuple(summands))


def test_verify_identity_agrees_with_the_expansion():
    # the true target, a perturbed one, and targets of another n or degree
    rng = random.Random(4133)
    for _ in range(150):
        n, e = rng.randint(1, 5), rng.randint(0, 7)
        expr = _rand_expression(rng, n, e)
        target = expand_power_sum_oracle(expr)
        monos = exponents(n, e)
        bump = MultiForm(n, e, {rng.choice(monos): rat(rng.choice((-1, 1)), rng.randint(1, 10**6))})
        others = [MultiForm(n + 1, e, {m + (0,): c for m, c in target.terms.items()}),
                  MultiForm.zero(n, e + 1), MultiForm.zero(n, e), target.scale(2)]
        for T in [target, target + bump] + others:
            assert verify_identity(expr, T) == (expand_power_sum(expr) == T) == (target == T)
        assert verify_identity(expr, target)


def test_catalecticant_sandwich_for_quadric_powers():
    for n in (2, 3, 4):
        # k = 1: the quadric itself, a sum of exactly n squares
        assert catalecticant_rank_bound(power_of_quadric(n, 1), 1) == n
        for k in (2, 3):
            Q = power_of_quadric(n, k)
            lower = catalecticant_rank_bound(Q, k)
            assert lower == comb(n - 1 + k, n - 1)
            if k == 2:
                _, _, upper = reznick_quartic_identity(n)
            else:
                _, _, upper = reznick_sextic_identity(n)
            assert lower <= upper


def test_power_sum_expression_validation():
    x = MultiForm.linear([1, 0])
    y = MultiForm.linear([0, 1])
    with pytest.raises(ValueError):
        PowerSumExpression(((rat(1), x, 3), (rat(1), y, 4)))
    with pytest.raises(ValueError):
        PowerSumExpression(((rat(1), MultiForm.zero(2, 1), 3),))
    for bases in ((x, MultiForm.linear([0, 0, 1])), (MultiForm.linear([0, 0, 1]), x)):
        with pytest.raises(ValueError, match="one variable count"):
            PowerSumExpression(tuple((rat(1), lin, 3) for lin in bases))
    expr = PowerSumExpression(((rat(1), x, 4),))
    assert expand_power_sum(expr) == MultiForm.monomial(2, (4, 0))
    assert verify_identity(expr, MultiForm.monomial(2, (4, 0)))


def test_multiform_json_roundtrip():
    F = MultiForm(3, 3, {(2, 1, 0): "1/2", (0, 2, 1): -3})
    assert MultiForm.from_json(F.to_json()) == F
    with pytest.raises(ValueError):
        MultiForm.from_json({"n": 2, "terms": {}})


def test_pow_negative_exponent_raises():
    with pytest.raises(ValueError):
        MultiForm.linear([1, 1]).pow(-1)


def test_power_of_quadric_negative_exponent_raises():
    with pytest.raises(ValueError):
        power_of_quadric(2, -1)


def _rand_rational(rng, lo=-5, hi=5):
    return rat(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def test_reznick_expansions_match_oracle():
    for n in range(1, 9):
        for build in (reznick_quartic_identity, reznick_sextic_identity):
            expr, target, _ = build(n)
            assert expand_power_sum(expr) == expand_power_sum_oracle(expr) == target
        for k in range(5):
            assert power_of_quadric(n, k) == power_of_quadric_oracle(n, k)


def test_expand_power_sum_matches_oracle_seeded():
    rng = random.Random(31)
    for n in range(1, 6):
        for e in range(8):
            for _ in range(3):
                summands = []
                for _ in range(rng.randint(1, 5)):
                    row = [_rand_rational(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
                    if not any(row):
                        row[rng.randrange(n)] = rat(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5)))
                    c = _rand_rational(rng) if rng.random() < 0.8 else rat(0)
                    summands.append((c, MultiForm.linear(row), e))
                expr = PowerSumExpression(tuple(summands))
                assert expand_power_sum(expr) == expand_power_sum_oracle(expr)


def test_substitute_matches_oracle():
    rng = random.Random(37)
    for _ in range(150):
        n, m, d = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        F = rand_multiform(rng, n, d).scale(_rand_rational(rng, 1, 9))
        A = [[_rand_rational(rng, -3, 3) for _ in range(m)] for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.25:
                A[i] = [0] * m
        assert substitute(F, A) == substitute_oracle(F, A)


def test_substitute_checks_the_shape():
    # A needs one row per variable of F, all of one length
    F = MultiForm.linear([1, 2, 3])
    for A in ([[1, 0], [0, 1], [1]], [[1, 0], [0, 1]], [[1], [0], [1], [2]], []):
        with pytest.raises(ValueError, match="rows of one length"):
            substitute(F, A)
    assert substitute(F, [[1], [0], [1]]) == MultiForm.linear([4])


def test_essential_count_is_gl_invariant():
    rng = random.Random(41)
    for _ in range(40):
        n, d = rng.randint(2, 4), rng.randint(2, 4)
        k = rng.randint(1, n)
        Fk = rand_multiform(rng, k, d)
        F = MultiForm(n, d, {e + (0,) * (n - k): c for e, c in Fk.terms.items()})
        while True:
            A = [[rat(x, rng.choice((1, 2, 3))) for x in row] for row in rand_invertible(rng, n)]
            if linalg.det(A):
                break
        assert essential_variables(substitute(F, A)).essential_count == essential_variables(F).essential_count


def _exponents_recursive(n, d):
    # the recursion (one level per variable) that exponents replaced
    if n == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d, -1, -1) for rest in _exponents_recursive(n - 1, d - first)]


def test_exponents_order_and_many_variables():
    for n in range(1, 7):
        for d in range(7):
            assert exponents(n, d) == _exponents_recursive(n, d)
    # 1500 variables overflowed the recursion
    monos = exponents(1500, 1)
    assert len(monos) == 1500 and monos[0] == (1,) + (0,) * 1499 and monos[-1][-1] == 1
