import pytest

from rankloci.upoly import up_div_exact, up_gcd, up_mul, up_rational_roots, up_squarefree_parts


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
