import random

import pytest
from hypothesis import given, settings, strategies as st

from rankloci.binary import BinaryForm, gcd_binary, has_multiple_root, squarefree_decompose
from rankloci.forms import MultiForm
from rankloci.rationals import rat

from helpers import (
    divide_exact,
    divide_exact_oracle,
    gcd_binary_oracle,
    has_multiple_root_oracle,
    is_constant,
    is_squarefree,
    rand_binary_form,
    rand_factored_form,
    repeated_part,
    repeated_part_oracle,
    squarefree_decompose_oracle,
)


def form(*coeffs):
    return BinaryForm(list(coeffs))


def test_arithmetic_keeps_the_binary_type():
    f, g = form(1, 2, 3), form(0, -1, 5)
    for h in (f + g, f - g, -f, f.scale(3), f.scale(0), f * g, f.pow(0), f.pow(3)):
        assert type(h) is BinaryForm
    assert f - g == form(1, 3, -2) and -f == form(-1, -2, -3)
    assert f.scale(0) == BinaryForm.zero(2) and f.scale(0).degree == 2
    assert f.pow(0) == form(1) and f.pow(3) == f * f * f


def test_negative_powers_raise():
    with pytest.raises(ValueError):
        form(1, 1).pow(-1)
    with pytest.raises(ValueError):
        MultiForm(2, 1, {(1, 0): 1, (0, 1): 1}).pow(-1)


def test_a_binary_form_is_the_two_variable_multiform():
    f = form(1, 0, -2)  # s^2 - 2 t^2
    m = MultiForm(2, 2, {(2, 0): 1, (0, 2): -2})
    assert isinstance(f, MultiForm) and f.terms == m.terms
    assert f == m and m == f and hash(f) == hash(m)
    assert f.coeffs == (1, 0, -2) and f.to_json() == {"degree": 2, "coeffs": ["1", "0", "-2"]}
    assert f != MultiForm(2, 3, {}) and hash(BinaryForm.zero(3)) == hash(MultiForm.zero(2, 3))


def test_linear_builds_the_binary_linear_form():
    f = BinaryForm.linear([1, 2])  # s + 2t
    assert type(f) is BinaryForm and f == form(1, 2) and f.degree == 1
    for coeffs in ([], [1], [1, 2, 3]):
        with pytest.raises(ValueError):
            BinaryForm.linear(coeffs)
    assert MultiForm.linear([1, 2, 3]) == MultiForm(3, 1, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3})


def test_gcd_monomials():
    # gcd(s^2 t, s t^2) = s t
    assert gcd_binary(BinaryForm.monomial(3, 1), BinaryForm.monomial(3, 2)) == form(0, 1, 0)


def test_gcd_factor_divisibility():
    # gcd(s^2 - t^2, s - t) = s - t
    assert gcd_binary(form(1, 0, -1), form(1, -1)) == form(1, -1)


def test_gcd_with_derivatives_reduces_multiplicity():
    # repeated_part(s^2 t^2) = s t: each double root drops to a simple one
    f = BinaryForm.monomial(4, 2)
    assert repeated_part(f) == form(0, 1, 0)


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        gcd_binary(BinaryForm.zero(2), BinaryForm.zero(3))


def test_gcd_divides_both_exactly():
    rng = random.Random(11)
    for _ in range(60):
        f = rand_binary_form(rng, rng.randint(1, 6))
        g = rand_binary_form(rng, rng.randint(1, 6))
        h = gcd_binary(f, g)
        divide_exact(f, h)
        divide_exact(g, h)


def test_squarefree_examples():
    # s^4 + t^4 is squarefree over Q
    dec = squarefree_decompose(form(1, 0, 0, 0, 1))
    assert [(e.coeffs, j) for e, j in dec.parts] == [(form(1, 0, 0, 0, 1).coeffs, 1)]

    # s^2 t -> [(t, 1), (s, 2)]
    dec = squarefree_decompose(BinaryForm.monomial(3, 1))
    assert [(e, j) for e, j in dec.parts] == [(form(0, 1), 1), (form(1, 0), 2)]

    # (s - t)^2 (s + t) -> [(s + t, 1), (s - t, 2)]
    f = form(1, -1) * form(1, -1) * form(1, 1)
    dec = squarefree_decompose(f)
    assert [(e, j) for e, j in dec.parts] == [(form(1, 1), 1), (form(1, -1), 2)]


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decompose(BinaryForm.zero(3))


def test_squarefree_roundtrip_random():
    rng = random.Random(23)
    for _ in range(80):
        # products of small factors force interesting multiplicities
        f = rand_binary_form(rng, rng.randint(0, 2))
        for _ in range(rng.randint(0, 3)):
            f = f * rand_binary_form(rng, 1)
        if f.is_zero:
            continue
        dec = squarefree_decompose(f)
        assert dec.reconstruct() == f
        for e, _ in dec.parts:
            assert is_squarefree(e)
        for i in range(len(dec.parts)):
            for j in range(i + 1, len(dec.parts)):
                assert is_constant(gcd_binary(dec.parts[i][0], dec.parts[j][0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
def test_multiple_root_matches_squarefree_structure(coeffs):
    f = BinaryForm(coeffs)
    if f.is_zero:
        assert has_multiple_root(f)
        return
    dec = squarefree_decompose(f)
    expected = any(j >= 2 for _, j in dec.parts)
    assert has_multiple_root(f) == expected


def test_multiple_root_examples():
    assert has_multiple_root(BinaryForm.monomial(4, 1))          # s^3 t
    assert not has_multiple_root(form(1, 0, 0, 0, 1))            # s^4 + t^4
    assert has_multiple_root(BinaryForm.zero(4))                 # zero form
    assert not has_multiple_root(form(0, 1))                     # t alone: simple root
    assert has_multiple_root(form(0, 0, 1))                      # t^2


def test_shared_factor_forces_multiple_root():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_binary_form(rng, rng.randint(1, 4))
        g = rand_binary_form(rng, rng.randint(1, 4))
        if is_constant(gcd_binary(f, g)):
            continue
        assert has_multiple_root(f * g)


def test_substitution_composes_with_product():
    rng = random.Random(9)
    for _ in range(20):
        f = rand_binary_form(rng, 3)
        g = rand_binary_form(rng, 2)
        a, b, c, d = 2, 1, 1, 1
        lhs = (f * g).substitute(a, b, c, d)
        rhs = f.substitute(a, b, c, d) * g.substitute(a, b, c, d)
        assert lhs == rhs


def test_rational_arithmetic_is_exact():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(1, 50)
        c, d = rng.randint(-50, 50), rng.randint(1, 50)
        direct = rat(a, b) + rat(c, d)
        common = rat(a * d + c * b, b * d)
        assert direct == common
        assert direct.denominator > 0


def test_json_roundtrip():
    f = form(1, "1/2", -3)
    assert BinaryForm.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        BinaryForm.from_json({"degree": 2, "coeffs": ["1"]})


def _outcome(fn, *args):
    """The result, or the type of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError, AssertionError) as exc:
        return type(exc)


def test_integer_layer_matches_rational_oracle():
    """gcd, exact division, squarefree split, repeated part and multiple-root
    test on integers agree with the Euclid-over-Q path, exceptions included,
    on forms with irrational roots, roots at [1:0] and [0:1], multiplicities
    up to 4, rational coefficients and zero forms."""
    rng = random.Random(8)
    zeros = 0
    for _ in range(400):
        f, g = rand_factored_form(rng), rand_factored_form(rng)
        for args in ((f, g), (f * g, g), (g * f, f)):
            assert _outcome(gcd_binary, *args) == _outcome(gcd_binary_oracle, *args)
            assert _outcome(divide_exact, *args) == _outcome(divide_exact_oracle, *args)
        for h in (f, f * g):
            assert _outcome(squarefree_decompose, h) == _outcome(squarefree_decompose_oracle, h)
            assert _outcome(repeated_part, h) == _outcome(repeated_part_oracle, h)
            assert has_multiple_root(h) == has_multiple_root_oracle(h)
            zeros += h.is_zero
    assert zeros
