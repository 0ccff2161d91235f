import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rankloci import pencils
from rankloci.binary import BinaryForm
from rankloci.forms import MultiForm, PowerSumExpression, max_rank_bounds
from rankloci.orbits import OrbitReport
from rankloci.pencils import Pencil, build_regular, kronecker_invariants
from rankloci.rationals import integral, rat
from rankloci.t244 import CrossRatioClass


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


# -- Record: the frozen value type behind every result ------------------------


def test_record_builds_from_positional_keyword_and_default_fields():
    r = OrbitReport(15, 3, projective_stabilizer_dim=4, projective_orbit_dim=11, affine_orbit_dim=12)
    assert r == OrbitReport(15, 3, 4, 12, 11)
    assert (r.group_dim, r.affine_orbit_dim, r.projective_orbit_dim) == (15, 12, 11)
    assert CrossRatioClass((1, 0)).ratios is None
    assert CrossRatioClass(invariant=(1, 0), ratios=(1,)).ratios == (1,)
    for bad in (lambda: OrbitReport(1, 2, 3, 4),                      # missing
                lambda: OrbitReport(1, 2, 3, 4, 5, 6),                # too many
                lambda: OrbitReport(1, 2, 3, 4, 5, rank=6),           # unknown
                lambda: OrbitReport(1, 2, 3, 4, group_dim=5),         # repeated
                lambda: CrossRatioClass(ratios=None),                 # missing, with a default
                lambda: PowerSumExpression()):
        with pytest.raises(TypeError):
            bad()


def test_record_refuses_assignment_and_deletion():
    r = OrbitReport(15, 3, 4, 12, 11)
    for change in (lambda: setattr(r, "group_dim", 1), lambda: setattr(r, "extra", 1),
                   lambda: delattr(r, "group_dim")):
        with pytest.raises(AttributeError):
            change()
    assert r == OrbitReport(15, 3, 4, 12, 11) and not hasattr(r, "extra")


def test_record_equality_hashing_and_repr():
    r = OrbitReport(15, 3, 4, 12, 11)
    assert r == OrbitReport(15, 3, 4, 12, 11) and hash(r) == hash(OrbitReport(15, 3, 4, 12, 11))
    assert r != OrbitReport(15, 3, 4, 12, 10) and r != (15, 3, 4, 12, 11)
    assert len({r, OrbitReport(15, 3, 4, 12, 11), OrbitReport(1, 2, 3, 4, 5)}) == 2
    # invariant-only equality: the attached cross-ratio multiset is ignored
    a, b = CrossRatioClass((1, 0), (rat(-1), rat(1, 2), rat(2))), CrossRatioClass((1, 0))
    assert a == b and hash(a) == hash(b) and a != CrossRatioClass((0, 1))
    assert repr(r) == ("OrbitReport(group_dim=15, stabilizer_dim=3, projective_stabilizer_dim=4, "
                       "affine_orbit_dim=12, projective_orbit_dim=11)")


def test_report_renders_fields_in_declaration_order():
    assert list(max_rank_bounds(3, 4).to_json()) == [
        "codim_plus_one", "two_g", "refined_2g_minus", "two_binomial_ceiling", "known_exact", "best"]


def test_kronecker_spectrum_is_computed_once_per_instance(monkeypatch):
    calls = []
    spectrum = pencils._spectrum
    monkeypatch.setattr(pencils, "_spectrum", lambda chain: calls.append(1) or spectrum(chain))
    P = build_regular([[1, 0], [0, 2]])
    inv = kronecker_invariants(P)
    assert inv.spectrum is inv.spectrum and len(calls) == 1
    assert kronecker_invariants(P).spectrum == inv.spectrum and len(calls) == 2
    assert inv == kronecker_invariants(P)  # the cached value is not a field


def test_import_loads_neither_dataclasses_nor_the_lazy_modules():
    # -S keeps site from preloading modules, so sys.modules shows what rankloci imports
    lazy = ("dataclasses", "inspect", "typing", "importlib.resources", "random")
    code = ("import sys; sys.path.insert(0, 'src'); import rankloci; "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=root, capture_output=True,
                         text=True, check=True, timeout=30)
    assert out.stdout.strip() == "[]"
