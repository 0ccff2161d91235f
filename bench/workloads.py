"""Seeded inputs and answer oracles for the rankloci benchmark.

Every workload is built before timing from ``random.Random(seed)`` as a list
of passes.  A pass is a fixed composition of cases in a seeded order, so any
whole number of passes has the workload's stated proportions.  A case holds
the prepared input, the public call that consumes it, and the expected answer.
Expected answers come from how the input was built -- Kronecker block data,
the representative an input was conjugated from, known identities, or golden
stdout kept in this directory -- never from the program under test.

Inputs are assembled with this module's own exact arithmetic and handed to
rankloci only through its JSON parsers, so neither a change in the program
nor an edit of the repository's tests moves the inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Any, Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
INF = "inf"  # eigenvalue at [1:0] in Kronecker block data


@dataclass
class Case:
    """One operation: ``call()`` runs the public API on a prepared input and
    ``answer(result)`` condenses the result for comparison with ``expect``."""

    kind: str
    call: Callable[[], Any]
    answer: Callable[[Any], Any]
    expect: Any
    artifact: Optional[str] = None  # file the call writes (spans or counts of a child process)


# -- exact matrix helpers (independent of rankloci) ---------------------------


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _rref(rows):
    """Reduced row echelon form over Fractions; returns the nonzero rows."""
    M = [[Fraction(x) for x in r] for r in rows]
    out, col, ncols = [], 0, len(M[0]) if M else 0
    while M and col < ncols:
        piv = next((r for r in M if r[col]), None)
        if piv is None:
            col += 1
            continue
        M.remove(piv)
        piv = [x / piv[col] for x in piv]
        M = [[a - r[col] * b for a, b in zip(r, piv)] for r in M]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out] + [piv]
        col += 1
    return out


def _rank(rows):
    return len(_rref(rows)) if rows else 0


def _as_int(M):
    """(integer matrix, d) with M = integer matrix / d."""
    d = 1
    for row in M:
        for x in row:
            d = lcm(d, Fraction(x).denominator)
    return [[int(x * d) for x in row] for row in M], d


_PRIME = (1 << 61) - 1


def _invertible(M):
    """Whether det M is nonzero modulo 2^61 - 1.  Nonzero there implies
    nonzero over Q, and the matrices drawn here (side <= 10, entries <= 3)
    have |det| < 2^61, so the test is exact."""
    A = [[x % _PRIME for x in row] for row in _as_int(M)[0]]
    n = len(A)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return False
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], -1, _PRIME)
        for r in range(c + 1, n):
            f = A[r][c] * inv % _PRIME
            if f:
                A[r] = [(x - f * y) % _PRIME for x, y in zip(A[r], A[c])]
    return True


def _rand_invertible(rng, n, pool):
    while True:
        A = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if _invertible(A):
            return A


INT_POOL = (-3, -2, -1, 0, 1, 2, 3)
RATIONAL_POOL = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(3, 2), 2)


def conjugate(rng, M1, M2, rational=False):
    """Random GL2 substitution of (s, t), then row and column transforms;
    integer arithmetic over a common denominator, Fractions at the end."""
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c:
            break
    (I, den) = _as_int(M1 + M2)
    I1, I2 = I[:len(M1)], I[len(M1):]
    N1 = [[a * x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(I1, I2)]
    N2 = [[b * x + d * y for x, y in zip(r1, r2)] for r1, r2 in zip(I1, I2)]
    A, den_a = _as_int(_rand_invertible(rng, len(M1), RATIONAL_POOL if rational else INT_POOL))
    B = _rand_invertible(rng, len(M1[0]), INT_POOL)
    scale = den * den_a
    return tuple([[Fraction(x, scale) for x in row] for row in _mat_mul(_mat_mul(A, N), B)]
                 for N in (N1, N2))


def json_matrix(M):
    return [[str(x) for x in row] for row in M]


# -- Kronecker block data -------------------------------------------------------


@dataclass(frozen=True)
class Blocks:
    """Kronecker canonical data: L blocks, L^T blocks, Jordan blocks as
    (eigenvalue or INF, size), and a zero block of p0 rows and q0 columns."""

    eps: tuple
    eta: tuple
    jordan: tuple
    p0: int = 0
    q0: int = 0

    @property
    def shape(self):
        f = sum(size for _, size in self.jordan)
        rows = sum(self.eps) + sum(e + 1 for e in self.eta) + f + self.p0
        cols = sum(e + 1 for e in self.eps) + sum(self.eta) + f + self.q0
        return rows, cols

    def matrices(self):
        """(M1, M2) of the block-diagonal pencil s*M1 + t*M2."""
        rows, cols = self.shape
        M1 = [[0] * cols for _ in range(rows)]
        M2 = [[0] * cols for _ in range(rows)]
        r = c = 0
        for e in self.eps:  # e x (e+1): s on the diagonal, t above it
            for i in range(e):
                M1[r + i][c + i] = M2[r + i][c + i + 1] = 1
            r, c = r + e, c + e + 1
        for e in self.eta:  # transpose of the above
            for i in range(e):
                M1[r + i][c + i] = M2[r + i + 1][c + i] = 1
            r, c = r + e + 1, c + e
        for lam, size in self.jordan:
            for i in range(size):
                if lam == INF:  # s*N + t*I, N nilpotent
                    M2[r + i][c + i] = 1
                    if i + 1 < size:
                        M1[r + i][c + i + 1] = 1
                else:  # s*I + t*J(lam)
                    M1[r + i][c + i] = 1
                    M2[r + i][c + i] = lam
                    if i + 1 < size:
                        M2[r + i][c + i + 1] = 1
            r, c = r + size, c + size
        return M1, M2

    def truth(self):
        """(eps, eta, invariant-factor degrees, m_F, rank, zero rows, zero cols):
        the k-th invariant factor from the top collects the k-th largest
        Jordan block of every eigenvalue."""
        by_lam = {}
        for lam, size in self.jordan:
            by_lam.setdefault(lam, []).append(size)
        chains = [sorted(v, reverse=True) for v in by_lam.values()]
        depth = max((len(c) for c in chains), default=0)
        degs = tuple(sorted(sum(c[i] for c in chains if len(c) > i) for i in range(depth)))
        m_f = max((sum(1 for s in v if s >= 2) for v in by_lam.values()), default=0)
        f = sum(size for _, size in self.jordan)
        rank = sum(self.eps) + sum(self.eta) + len(self.eps) + len(self.eta) + f + m_f
        return (tuple(sorted(self.eps)), tuple(sorted(self.eta)), degs, m_f, rank, self.p0, self.q0)


EIGEN_POOL = (0, 1, -1, 2, Fraction(1, 2), -3, INF)


def square_blocks(rng, side):
    """Random Kronecker data of an exactly side x side pencil."""
    while True:
        ne, nh = rng.randint(0, 2), rng.randint(0, 2)
        p0, q0 = max(ne - nh, 0), max(nh - ne, 0)  # rows == cols needs ne + q0 == nh + p0
        eps = tuple(rng.randint(1, 3) for _ in range(ne))
        eta = tuple(rng.randint(1, 3) for _ in range(nh))
        rest = side - sum(eps) - sum(e + 1 for e in eta) - p0
        if rest < 0:
            continue
        jordan = []
        while rest:
            size = rng.randint(1, min(4, rest))
            jordan.append((rng.choice(EIGEN_POOL), size))
            rest -= size
        return Blocks(eps, eta, tuple(jordan), p0, q0)


# -- kronecker_sweep ---------------------------------------------------------------

# Sides 11 and 12 cost 1.3 and 2.8 s per pencil with a spread of 20% from
# input to input, so a run of tens of seconds sees too few of them for a
# steady median or tail; they join the sweep when the Smith form gets cheaper.
SWEEP_SIDES = tuple(range(4, 11))


def _pencil_answer(report):
    inv = report.invariants
    return (inv.eps, inv.eta, inv.factor_degrees, report.m_F, report.rank,
            inv.zero_rows, inv.zero_cols)


def kronecker_sweep(rl, rng, passes):
    """pencil_rank on conjugated canonical pencils, one per side per pass."""
    out = []
    for _ in range(passes):
        cases = []
        for side in SWEEP_SIDES:
            blocks = square_blocks(rng, side)
            M1, M2 = conjugate(rng, *blocks.matrices())
            pen = rl.Pencil.from_json(json_matrix(M1), json_matrix(M2))
            cases.append(Case(f"side{side}", lambda pen=pen: rl.pencil_rank(pen),
                              _pencil_answer, blocks.truth()))
        rng.shuffle(cases)
        out.append(cases)
    return out


# -- t244_mix ---------------------------------------------------------------------

# 2x4x4 nonconcise Kronecker types and the projective orbit dimension of each.
# The dimensions were computed once by the stabilizer solve on the canonical
# pencils and are data here, so the oracle never calls the program.  Two are
# checked by hand: L1+L1 is a generic 2x2x4 tensor (dense orbit of dimension
# 16, plus 4 for the choice of its row span in Q^4, minus 1 for scaling), and
# three distinct eigenvalues fill 2x3x3 (18, plus 3 + 3 for the spans, minus 1).
NONCONCISE = (
    (Blocks((1, 1), (), (), 2, 0), 19),
    (Blocks((2,), (), ((0, 1),), 1, 0), 25),
    (Blocks((1,), (), ((0, 2),), 1, 0), 23),
    (Blocks((), (1,), ((1, 1), (-1, 1)), 0, 1), 24),
    (Blocks((), (), ((0, 1), (1, 1), (-1, 1)), 1, 1), 23),
    (Blocks((), (), ((1, 2), (INF, 1)), 1, 1), 22),
)

# A pass holds one case of each of the sixteen concise families of the 2x4x4
# classification (the fourteen fixed orbits, T4 and T5) and one of each
# nonconcise type above.  Each is met twice, once under an integer and once
# under a non-integer rational row transform, so the two kinds of entries
# weigh the same.  No family is weighted by a guess at how often it occurs.
ENTRY_KINDS = (False, True)  # rational row transform?


def _distinct_rationals(rng, count):
    out = set()
    while len(out) < count:
        out.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
    return sorted(out)


def _quartic_pair(lams):
    """Normalized [I^3 : J^2] of prod(s + l t), as coprime ints."""
    c = [Fraction(1)]
    for lam in lams:  # multiply by (s + lam t); c[i] multiplies s^(k-i) t^i
        c = [a + lam * b for a, b in zip(c + [0], [0] + c)]
    a0, a1, a2, a3, a4 = c
    I = 12 * a0 * a4 - 3 * a1 * a3 + a2**2
    J = 72 * a0 * a2 * a4 - 27 * a0 * a3**2 - 27 * a1**2 * a4 + 9 * a1 * a2 * a3 - 2 * a2**3
    x, y = I**3, J**2
    a, b = x.numerator * y.denominator, y.numerator * x.denominator
    g = gcd(a, b)
    a, b = a // g, b // g
    return (-a, -b) if (a or b) < 0 else (a, b)


def _cross_ratios(lams):
    r1, r2, r3, r4 = (-x for x in lams)  # roots of det at s/t = -lam
    lam = (r1 - r2) / (r1 - r3) * (r4 - r3) / (r4 - r2)
    return tuple(sorted((lam, 1 / lam, 1 - lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam)))


def _t244_answer(report):
    cross = report.cross_ratio
    return (report.orbit_id, report.rank, report.locus, report.orbit_dim, report.concise,
            None if cross is None else cross.invariant,
            None if cross is None or cross.ratios is None else tuple(cross.ratios))


def _locus(rank):
    return "W6" if rank == 6 else ("W5" if rank == 5 else "W4")


def load_representatives():
    with open(os.path.join(HERE, "data", "t244_representatives.json"), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def t244_mix(rl, rng, passes):
    """classify_t244 on conjugates of tensors with known classification."""
    reps = load_representatives()
    if len(reps) != 14:
        raise ValueError(f"expected 14 representatives, found {len(reps)}")
    out = []
    for _ in range(passes):
        cases = []
        for rational in ENTRY_KINDS:
            lams = _distinct_rationals(rng, 4)
            specs = [("T4", Blocks((), (), tuple((x, 1) for x in lams)).matrices(),
                      ("T4", 4, "W4", 30, True, _quartic_pair(lams), _cross_ratios(lams)))]
            a, b, c = _distinct_rationals(rng, 3)
            specs.append(("T5", Blocks((), (), ((a, 2), (b, 1), (c, 1))).matrices(),
                          ("T5", 5, "W5", 30, True, None, None)))
            for row in reps:
                M = ([[Fraction(x) for x in r] for r in row["m1"]],
                     [[Fraction(x) for x in r] for r in row["m2"]])
                specs.append(("fixture", M, (row["id"], row["rank"], _locus(row["rank"]),
                                             row["dim"], True, None, None)))
            for blocks, dim in NONCONCISE:
                rank = blocks.truth()[4]
                specs.append(("nonconcise", blocks.matrices(),
                              ("nonconcise", rank, _locus(rank), dim, False, None, None)))
            for kind, (M1, M2), expect in specs:
                N1, N2 = conjugate(rng, M1, M2, rational=rational)
                pen = rl.Pencil.from_json(json_matrix(N1), json_matrix(N2))
                cases.append(Case(kind, lambda pen=pen: rl.classify_t244(pen),
                                  _t244_answer, expect))
        rng.shuffle(cases)
        out.append(cases)
    return out


# -- forms_identities --------------------------------------------------------------


def _identity_case(rl, which, n):
    if which == "reznick4":
        build, bound = rl.reznick_quartic_identity, n * n
        terms = 2 * comb(n, 2) + (n if n != 4 else 0)  # the x_i^4 weight (4-n)/3 vanishes at n=4
    else:
        build, bound = rl.reznick_sextic_identity, 4 * comb(n, 3) + 2 * comb(n, 2) + n
        terms = 4 * comb(n, 3) + (2 * comb(n, 2) if n != 5 else 0) + n  # pair weight (5-n)/30

    def call():
        expr, target, b = build(n)
        return rl.verify_identity(expr, target), b, expr.term_count

    return Case(which, call, lambda r: r, (True, bound, terms))


def _exponents(n, d):
    if n == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d, -1, -1) for rest in _exponents(n - 1, d - first)]


def _fermat_in(rng, n, d, k):
    """x_1^d + ... + x_k^d composed with a random rank-k map Q^n -> Q^k,
    as form JSON, plus the row space of the map (its essential span)."""
    while True:
        L = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        if _rank(L) == k:
            break
    terms = {}
    for row in L:  # expand (row . x)^d by the multinomial theorem
        for e in _exponents(n, d):
            coef = Fraction(1)
            for x, ei in zip(row, e):
                coef *= x**ei
            if coef:
                mult = 1
                rem = d
                for ei in e:
                    mult *= comb(rem, ei)
                    rem -= ei
                terms[e] = terms.get(e, 0) + mult * coef
    obj = {"n": n, "d": d,
           "terms": {"[" + ",".join(map(str, e)) + "]": str(c) for e, c in terms.items() if c}}
    return obj, _rref(L)


def _form_case(rl, rng, n, d, k):
    """Essential variables and stabilizer of a form in the GL_n orbit of the
    Fermat form in k <= n variables.  For d >= 3 the Fermat stabilizer in
    gl_k is zero, so the gl_n stabilizer is the n(n-k) maps that kill the
    essential span and the projective orbit has dimension n*k - 1."""
    obj, span = _fermat_in(rng, n, d, k)
    form = rl.MultiForm.from_json(obj)
    basis = tuple(tuple(str(x) for x in row) for row in span)

    def call():
        return rl.essential_variables(form), rl.form_stabilizer(form)

    def answer(result):
        ess, orbit = result
        got = tuple(tuple(str(b.coefficient(tuple(int(i == j) for i in range(n))))
                          for j in range(n)) for b in ess.essential_basis)
        return ess.essential_count, ess.concise, got, orbit.stabilizer_dim, orbit.projective_orbit_dim

    return Case("form" if k == n else "form_nonconcise", call, answer,
                (k, k == n, basis, n * (n - k), n * k - 1))


def _power_sum_case(rl, rng, d):
    """Sum of r <= (d+1)/2 d-th powers of distinct linear forms: rank r,
    border rank r (Sylvester)."""
    r = rng.randint(1, (d + 1) // 2)
    points = set()
    while len(points) < r:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        g = gcd(a, b)
        if g:
            a, b = a // g, b // g
            points.add((a, b) if (a, b) > (0, 0) else (-a, -b))  # one per projective point
    coeffs = [Fraction(0)] * (d + 1)
    for a, b in sorted(points):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 5)))
        for i in range(d + 1):
            coeffs[i] += c * comb(d, i) * Fraction(a) ** (d - i) * Fraction(b) ** i
    form = rl.BinaryForm.from_json({"degree": d, "coeffs": [str(x) for x in coeffs]})
    return Case("binary", lambda: rl.binary_rank(form),
                lambda rep: (rep.rank, rep.border_rank, rep.theta_squarefree), (r, r, True))


def _max_rank_case(rl, n):
    """[[s I, t I], [0, s I]]: stabilizer 2n^2 + 3, projective orbit 6n^2."""
    m = 2 * n
    M1 = [[int(i == j) for j in range(m)] for i in range(m)]
    M2 = [[int(j == i + n) for j in range(m)] for i in range(m)]
    pen = rl.Pencil.from_json(json_matrix(M1), json_matrix(M2))
    return Case("max_rank", lambda: rl.pencil_stabilizer(pen),
                lambda rep: (rep.stabilizer_dim, rep.projective_orbit_dim),
                (2 * n * n + 3, 6 * n * n))


def forms_identities(rl, rng, passes):
    out = []
    for _ in range(passes):
        cases = [_identity_case(rl, which, n)
                 for which in ("reznick4", "reznick6") for n in range(3, 7)]
        cases += [_form_case(rl, rng, n, d, k)
                  for n in (3, 4) for d in (3, 4) for k in (n, n - 1)]
        cases += [_power_sum_case(rl, rng, d) for d in range(2, 13)]
        cases += [_max_rank_case(rl, n) for n in (2, 3, 4)]
        rng.shuffle(cases)
        out.append(cases)
    return out


# -- cli_cold ---------------------------------------------------------------------


def load_goldens():
    with open(os.path.join(HERE, "data", "cli_goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("RANKLOCI_FIXTURES", None)
    return env


def run_cli(root, argv, env, mode=None, artifact=None, peak=None):
    """One fresh CLI process; returns (exit code, stdout bytes).

    With ``mode`` ("cli" or "count") the process runs through this
    directory's ``child.py``, which traces or counts the program's calls and
    writes them to ``artifact``.  ``peak["rss_kb"]``, if given, is raised to
    the process's peak RSS.
    """
    if mode is None:
        cmd = [sys.executable, "-m", "rankloci.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, artifact, *argv]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # wait4, unlike wait, gives the child's rusage
    proc.returncode = os.waitstatus_to_exitcode(status)
    if peak is not None:
        peak["rss_kb"] = max(peak.get("rss_kb", 0), usage.ru_maxrss)
    return proc.returncode, out


def cli_cold(rl, rng, passes, root, mode=None, artifact_dir=None, peak=None):
    """Every pass runs each golden command once, in a seeded order."""
    goldens = load_goldens()
    env = cli_env(root)
    out = []
    for p in range(passes):
        cases = []
        for name, spec in goldens.items():
            artifact = None if mode is None else os.path.join(artifact_dir, f"{p}_{name}.txt")
            cases.append(Case(
                name,
                lambda argv=spec["argv"], a=artifact: run_cli(root, argv, env, mode, a, peak),
                lambda r: (r[0], r[1].decode("utf-8")),
                (0, spec["stdout"]),
                artifact,
            ))
        rng.shuffle(cases)
        out.append(cases)
    return out


WORKLOADS = {
    "t244_mix": t244_mix,
    "kronecker_sweep": kronecker_sweep,
    "forms_identities": forms_identities,
    "cli_cold": cli_cold,
}
