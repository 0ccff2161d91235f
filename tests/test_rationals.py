from fractions import Fraction

import pytest

from rankloci.binary import BinaryForm
from rankloci.forms import MultiForm
from rankloci.pencils import Pencil, build_regular
from rankloci.rationals import integral, rat


def test_floats_are_refused_everywhere():
    for build in (lambda: rat(0.5), lambda: rat(1, 0.5), lambda: rat(1, 2.0),
                  lambda: MultiForm(2, 1, {(1, 0): 0.5}),
                  lambda: BinaryForm([0.5, 1]),
                  lambda: Pencil([[0.5]], [[1]]),
                  lambda: Pencil([[1]], [[1.0]]),
                  lambda: build_regular([[0.5]])):
        with pytest.raises(TypeError):
            build()


def test_rat_keeps_a_fraction_and_parses_the_rest():
    q = Fraction(3, 4)
    assert rat(q) is q
    assert rat("-6/8") == rat(-3, 4) == Fraction(-3, 4)
    assert rat(True) == 1 and rat() == 0


def test_integral_clears_by_the_lcm():
    assert integral([]) == ([], 1)
    assert integral([0, rat(0), 0]) == ([0, 0, 0], 1)
    assert integral([rat(-1, 2), 0, rat(2, 3), -4]) == ([-3, 0, 4, -24], 6)
    assert integral([rat(-5, 4)]) == ([-5], 4)
    ints, m = integral([rat(1, 6), rat(-1, 10), rat(7, 15)])
    assert (ints, m) == ([5, -3, 14], 30)
    assert all(type(x) is int for x in ints)
