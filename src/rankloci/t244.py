"""Complete classification of 2 x 4 x 4 tensors.

The generic rank in this format is 4 and the maximal rank is 6.  A tensor,
written as a 4 x 4 pencil s M1 + t M2, is classified by:

* conciseness (read off the Kronecker form),
* its Kronecker invariants, condensed into a coordinate-free signature
  (minimal indices, zero-block size, and the multiset of per-eigenvalue
  Jordan partitions extracted Galois-stably from the invariant factors),
* the quartic det(s M1 + t M2), its discriminant, and for the
  four-distinct-eigenvalues family the cross-ratio class of the roots
  (its six-value ``ratios`` is null exactly when a root is irrational).

Concise tensors fall into exactly sixteen families: the two codimension-1
orbit families T4 (diagonalizable, distinct eigenvalues; classified up to
the cross-ratio of the four roots) and T5 (one 2 x 2 Jordan block plus two
distinct simple eigenvalues), and fourteen single orbits of codimension at
least 2 whose representatives, orbit dimensions, and ranks ship as a
versioned fixture.  Every orbit dimension comes from the closed form of
``orbits.pencil_orbit`` on the Kronecker invariants ``pencil_rank``
returned, and the fixture's stored dimensions are checked against it when
the registry loads.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from importlib import resources
from math import gcd
from typing import Optional

from .binary import BinaryForm, has_multiple_root, rational_roots
from .errors import InternalInvariantError
from .orbits import pencil_orbit
from .pencils import (
    KroneckerInvariants,
    Pencil,
    build_regular,
    det_from_factors,
    pencil_rank,
    symbolic_det,
)
from .rationals import ONE, ZERO, integral, rat, rat_str

FIXTURE_ENV = "RANKLOCI_FIXTURES"


# -- canonical tensors --------------------------------------------------------


def max_rank_tensor(n: int) -> Pencil:
    """The unique (up to the group) maximal-rank 2 x 2n x 2n tensor:
    block matrix [[s I_n, t I_n], [0, s I_n]], of rank 3n."""
    if n < 1:
        raise ValueError("need n >= 1")
    M1 = [[ONE if i == j else ZERO for j in range(2 * n)] for i in range(2 * n)]
    M2 = [[ONE if j == i + n else ZERO for j in range(2 * n)] for i in range(2 * n)]
    return Pencil(M1, M2)


def t4_pencil(l1, l2, l3, l4) -> Pencil:
    """diag(s + l_i t): rank 4 for distinct eigenvalues."""
    lams = [rat(l) for l in (l1, l2, l3, l4)]
    return build_regular([[lams[i] if i == j else ZERO for j in range(4)] for i in range(4)])


def t5_pencil(l1, l2, l3) -> Pencil:
    """One 2 x 2 Jordan block at l1 plus simple eigenvalues l2, l3: rank 5."""
    a, b, c = rat(l1), rat(l2), rat(l3)
    F = [[a, ONE, ZERO, ZERO], [ZERO, a, ZERO, ZERO], [ZERO, ZERO, b, ZERO], [ZERO, ZERO, ZERO, c]]
    return build_regular(F)


# -- determinant, discriminant, quartic invariants ---------------------------


def det_pencil(T: Pencil) -> BinaryForm:
    """det(s M1 + t M2) of a 4 x 4 pencil as a degree-4 binary form."""
    if T.rows != 4 or T.cols != 4:
        raise ValueError("det_pencil expects a 4 x 4 pencil")
    return symbolic_det(T)


def quartic_coeffs(f: BinaryForm):
    """(a0, ..., a4) with f = a0 s^4 + a1 s^3 t + ... + a4 t^4."""
    if f.degree != 4:
        raise ValueError("expected a degree-4 binary form")
    return tuple(f.coeffs)


def _integer_invariants(*coeffs):
    """(I, J, m): I and J of ``quartic_invariants`` on the coefficients
    times m, the lcm of their denominators."""
    (a0, a1, a2, a3, a4), m = integral([rat(a) for a in coeffs])
    I = 12 * a0 * a4 - 3 * a1 * a3 + a2**2
    J = 72 * a0 * a2 * a4 - 27 * a0 * a3**2 - 27 * a1**2 * a4 + 9 * a1 * a2 * a3 - 2 * a2**3
    return I, J, m


def discriminant_quartic(a0, a1, a2, a3, a4):
    """The classical degree-6 discriminant of a binary quartic, (4 I^3 -
    J^2) / 27, from the integer I and J of the quartic times m (over m^6).

    Vanishes exactly when the quartic has a projective root of multiplicity
    at least two or is identically zero.
    """
    I, J, m = _integer_invariants(a0, a1, a2, a3, a4)
    return rat(4 * I**3 - J**2, 27 * m**6)


def quartic_invariants(a0, a1, a2, a3, a4):
    """The weight-4 and weight-6 invariants (scaled integrally):

        I = 12 a0 a4 - 3 a1 a3 + a2^2
        J = 72 a0 a2 a4 - 27 a0 a3^2 - 27 a1^2 a4 + 9 a1 a2 a3 - 2 a2^3

    satisfying Discr = (4 I^3 - J^2) / 27; computed like the discriminant.
    """
    I, J, m = _integer_invariants(a0, a1, a2, a3, a4)
    return rat(I, m**2), rat(J, m**3)


# -- cross-ratio class --------------------------------------------------------


class CrossRatioClass:
    """PGL_2-and-permutation invariant of four distinct points on the line.

    ``invariant`` is the normalized projective pair [I^3 : J^2] of the
    quartic's classical invariants: a complete, exactly comparable
    fingerprint that works whether or not the roots are rational.  When the
    four roots are rational the six-element cross-ratio multiset
    {l, 1/l, 1-l, 1/(1-l), l/(l-1), (l-1)/l} is attached as well;
    ``ratios`` is None exactly when a root is irrational.  Equality and
    hashing use the invariant only.
    """

    __slots__ = ("invariant", "ratios")

    def __init__(self, invariant, ratios=None):
        self.invariant = invariant
        self.ratios = ratios

    def __eq__(self, other):
        return isinstance(other, CrossRatioClass) and self.invariant == other.invariant

    def __hash__(self):
        return hash(self.invariant)

    def __repr__(self):
        return f"CrossRatioClass([{self.invariant[0]}:{self.invariant[1]}])"

    def to_json(self):
        return {
            "invariant": [str(self.invariant[0]), str(self.invariant[1])],
            "ratios": None if self.ratios is None else [rat_str(r) for r in self.ratios],
        }


def _normalized_pair(x, y):
    """Reduce a rational pair to coprime integers with positive leader."""
    (a, b), _ = integral([x, y])
    if a == 0 and b == 0:
        raise InternalInvariantError("cross-ratio invariant undefined: I = J = 0")
    g = gcd(a, b)
    a, b = a // g, b // g
    lead = a if a else b
    if lead < 0:
        a, b = -a, -b
    return (a, b)


def cross_ratio_class(f: BinaryForm) -> CrossRatioClass:
    """Cross-ratio class of a squarefree binary quartic.

    The root finder refuses a repeated root, and its test is the only
    squarefree test made here: ``classify_t244`` has made one already.
    """
    if f.degree != 4:
        raise ValueError("cross-ratio class needs a degree-4 form")
    try:
        if f.is_zero:
            raise ValueError
        roots = rational_roots(f)
    except ValueError:
        raise ValueError("cross-ratio class needs four distinct roots") from None
    I, J = quartic_invariants(*quartic_coeffs(f))
    inv = _normalized_pair(I**3, J**2)
    ratios = None
    if len(roots) == 4:
        (s1, t1), (s2, t2), (s3, t3), (s4, t4) = roots
        # l = [12][43] / ([13][42]) on the brackets [ij] = s_i t_j - s_j t_i
        lam = rat((s1 * t2 - s2 * t1) * (s4 * t3 - s3 * t4),
                  (s1 * t3 - s3 * t1) * (s4 * t2 - s2 * t4))
        ratios = tuple(
            sorted((lam, 1 / lam, 1 - lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam))
        )
    return CrossRatioClass(inv, ratios)


# -- orbit registry -----------------------------------------------------------


@dataclass(frozen=True)
class OrbitEntry:
    orbit_id: str
    pencil: Pencil
    dim: int
    rank: int
    signature: tuple


def _signature_of(inv: KroneckerInvariants) -> tuple:
    return (
        tuple(inv.eps),
        tuple(inv.eta),
        (inv.zero_rows, inv.zero_cols),
        inv.spectrum,
    )


def _signature_to_json(sig):
    eps, eta, zero, spectrum = sig
    return {
        "eps": list(eps),
        "eta": list(eta),
        "zero": list(zero),
        "spectrum": [list(p) for p in spectrum],
    }


def _signature_from_json(obj):
    return (
        tuple(obj["eps"]),
        tuple(obj["eta"]),
        tuple(obj["zero"]),
        tuple(tuple(p) for p in obj["spectrum"]),
    )


T4_SIGNATURE = ((), (), (0, 0), ((1,), (1,), (1,), (1,)))
T5_SIGNATURE = ((), (), (0, 0), ((1,), (1,), (2,)))


class OrbitRegistry:
    """Fixture-backed table of the fourteen low-dimensional concise orbits.

    Loading re-derives every stored signature, rank and orbit dimension
    from the stored representative, and checks that the sixteen signatures
    (fourteen fixture rows plus the T4 and T5 families) are pairwise
    distinct.  Any mismatch aborts: classification must never run against
    a stale fixture.
    """

    def __init__(self, entries, version: str):
        self.version = version
        self.entries = entries
        self.by_signature = {}
        for e in entries:
            if e.signature in self.by_signature:
                raise InternalInvariantError(
                    "fixture signatures collide",
                    {"orbit": e.orbit_id, "signature": _signature_to_json(e.signature)},
                )
            self.by_signature[e.signature] = e
        for sig, name in ((T4_SIGNATURE, "T4"), (T5_SIGNATURE, "T5")):
            if sig in self.by_signature:
                raise InternalInvariantError(
                    f"fixture signature collides with the {name} family",
                    {"signature": _signature_to_json(sig)},
                )

    def lookup(self, signature):
        return self.by_signature.get(signature)


_REGISTRY: Optional[OrbitRegistry] = None


def _fixture_text() -> str:
    override = os.environ.get(FIXTURE_ENV)
    if override:
        with open(os.path.join(override, "table1.json"), "r", encoding="utf-8") as fh:
            return fh.read()
    return resources.files("rankloci.data").joinpath("table1.json").read_text("utf-8")


def load_registry() -> OrbitRegistry:
    global _REGISTRY
    if _REGISTRY is not None:
        return _REGISTRY
    raw = json.loads(_fixture_text())
    entries = []
    for row in raw["entries"]:
        pen = Pencil.from_json(row["m1"], row["m2"])
        entry = OrbitEntry(
            orbit_id=row["id"],
            pencil=pen,
            dim=row["dim"],
            rank=row["rank"],
            signature=_signature_from_json(row["signature"]),
        )
        report = pencil_rank(pen)
        sig = _signature_of(report.invariants)
        if sig != entry.signature or report.rank != entry.rank:
            raise InternalInvariantError(
                "fixture row fails recomputation",
                {"orbit": entry.orbit_id, "stored": _signature_to_json(entry.signature),
                 "computed": _signature_to_json(sig),
                 "stored_rank": entry.rank, "computed_rank": report.rank},
            )
        orbit = pencil_orbit(report.invariants, pen.rows, pen.cols)
        if orbit.projective_orbit_dim != entry.dim:
            raise InternalInvariantError(
                "fixture orbit dimension disagrees with the closed form",
                {"orbit": entry.orbit_id, "stored": entry.dim,
                 "computed": orbit.projective_orbit_dim},
            )
        entries.append(entry)
    if len(entries) != 14:
        raise InternalInvariantError("fixture must list exactly 14 orbits", {"got": len(entries)})
    reg = OrbitRegistry(entries, version=raw["fixture_version"])
    _REGISTRY = reg
    return reg


def fixture_version() -> str:
    """The fixture's version: the loaded registry's, else read off the
    fixture text.  Never loads the registry, which re-derives every row."""
    if _REGISTRY is not None:
        return _REGISTRY.version
    return json.loads(_fixture_text())["fixture_version"]


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class T244Report:
    concise: bool
    det: BinaryForm
    discriminant: object
    rank: int
    orbit_id: str
    orbit_dim: int
    locus: str
    cross_ratio: Optional[CrossRatioClass]
    invariants: KroneckerInvariants

    def to_json(self):
        return {
            "concise": self.concise,
            "det": self.det.to_json(),
            "discriminant": rat_str(self.discriminant),
            "rank": self.rank,
            "orbit_id": self.orbit_id,
            "orbit_dim": self.orbit_dim,
            "locus": self.locus,
            "cross_ratio": None if self.cross_ratio is None else self.cross_ratio.to_json(),
            "invariants": self.invariants.to_json(),
        }


def classify_t244(T: Pencil) -> T244Report:
    """Full classification of a nonzero 2 x 4 x 4 tensor.

    Pipeline: conciseness -> Kronecker invariants -> signature match against
    the sixteen concise families (or the nonconcise bucket) -> rank by the
    block formula -> orbit dimension (fixture for the fourteen, the closed
    form on the same invariants otherwise) -> rank locus.
    """
    if T.rows != 4 or T.cols != 4:
        raise ValueError("classify_t244 expects a 4 x 4 pencil")
    if T.is_zero:
        raise ValueError("cannot classify the zero tensor")
    registry = load_registry()
    report = pencil_rank(T)
    det = det_from_factors(T, report.invariants.chain)
    disc = discriminant_quartic(*quartic_coeffs(det))
    if (disc == 0) != has_multiple_root(det):
        raise InternalInvariantError(
            "discriminant and repeated-root test disagree",
            {"det": det.to_json(), "discriminant": rat_str(disc)},
        )
    concise = report.concise
    cross: Optional[CrossRatioClass] = None
    orbit_dim = None
    if not concise:
        orbit_id = "nonconcise"
    else:
        sig = _signature_of(report.invariants)
        if sig == T4_SIGNATURE:
            orbit_id = "T4"
            cross = cross_ratio_class(det)
        elif sig == T5_SIGNATURE:
            orbit_id = "T5"
        else:
            entry = registry.lookup(sig)
            if entry is None:
                raise InternalInvariantError(
                    "concise signature matches no known family: classification partition broken",
                    {"signature": _signature_to_json(sig), "rank": report.rank},
                )
            orbit_id = entry.orbit_id
            orbit_dim = entry.dim
            if entry.rank != report.rank:
                raise InternalInvariantError(
                    "fixture rank disagrees with computed rank",
                    {"orbit": orbit_id, "fixture": entry.rank, "computed": report.rank},
                )
    if orbit_dim is None:
        orbit_dim = pencil_orbit(report.invariants, 4, 4).projective_orbit_dim
    rank = report.rank
    if not 1 <= rank <= 6:
        raise InternalInvariantError("2 x 4 x 4 rank out of range", {"rank": rank})
    locus = "W6" if rank == 6 else ("W5" if rank == 5 else "W4")
    if (locus == "W6") != (concise and orbit_id == "table1_01"):
        raise InternalInvariantError(
            "maximal rank locus must coincide with the unique rank-6 orbit",
            {"rank": rank, "orbit_id": orbit_id},
        )
    if rank >= 5 and disc != 0:
        raise InternalInvariantError(
            "tensors of rank 5 or 6 must lie on the discriminant divisor",
            {"rank": rank, "discriminant": rat_str(disc)},
        )
    return T244Report(
        concise=concise,
        det=det,
        discriminant=disc,
        rank=rank,
        orbit_id=orbit_id,
        orbit_dim=orbit_dim,
        locus=locus,
        cross_ratio=cross,
        invariants=report.invariants,
    )


# -- join experiments ---------------------------------------------------------


def _rank_one_perturbation(rng):
    # nonzero small-integer entries: a zero slot aligns the rank-one tensor
    # with a coordinate stratum and needlessly inflates the degenerate tally
    def vec(k):
        return [rng.choice((1, -1)) * rng.randint(1, 20) for _ in range(k)]

    u, v, w = vec(2), vec(4), vec(4)
    D1 = [[u[0] * v[i] * w[j] for j in range(4)] for i in range(4)]
    D2 = [[u[1] * v[i] * w[j] for j in range(4)] for i in range(4)]
    return (u, v, w), D1, D2


def _add(P: Pencil, D1, D2) -> Pencil:
    add = lambda M, D: [[x + y for x, y in zip(r, e)] for r, e in zip(M, D)]
    return Pencil(add(P.M1, D1), add(P.M2, D2))


def _t6_det_structure(det: BinaryForm) -> bool:
    """det divisible by s^2 with a squarefree quotient of degree 2 whose
    roots avoid [0:1] (the root of the factor s)."""
    a0, a1, a2, a3, a4 = quartic_coeffs(det)
    if a3 != 0 or a4 != 0:
        return False
    if a2 == 0:
        return False  # quotient would be divisible by s
    return a1 * a1 - 4 * a0 * a2 != 0


def nesting_experiment(seed: int, trials: int) -> dict:
    """Random rank-one joins onto the maximal-rank tensor and onto T5.

    For each trial a rank-one tensor with small integer entries is added to
    the rank-6 tensor (expected: rank drops to exactly 5, det picks up an
    s^2 factor plus two fresh distinct roots) and to T5(0, 1, -1)
    (expected: rank drops to the generic 4).  Trials violating the expected
    generic behaviour are reported individually, never discarded silently.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    t6 = max_rank_tensor(2)
    t5 = t5_pencil(0, 1, -1)
    out = {}
    for label, base, want_rank, det_check in (
        ("t6_plus_rank1", t6, 5, _t6_det_structure),
        ("t5_plus_rank1", t5, 4, None),
    ):
        generic = 0
        histogram = {}
        degenerate = []
        for trial in range(trials):
            (u, v, w), D1, D2 = _rank_one_perturbation(rng)
            rep = classify_t244(_add(base, D1, D2))
            histogram[rep.rank] = histogram.get(rep.rank, 0) + 1
            ok = rep.rank == want_rank and (det_check is None or det_check(rep.det))
            if ok:
                generic += 1
            else:
                degenerate.append(
                    {"trial": trial, "rank": rep.rank, "orbit_id": rep.orbit_id,
                     "u": u, "v": v, "w": w}
                )
        out[label] = {
            "trials": trials,
            "generic": generic,
            "expected_rank": want_rank,
            "rank_histogram": {str(k): histogram[k] for k in sorted(histogram)},
            "degenerate": degenerate,
        }
    return out
