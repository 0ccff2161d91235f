"""Property test of the CLI contract over every subcommand.

For any argv, ``cli.main`` exits 0 or 2 (malformed or over-limit input;
argparse's own usage errors raise SystemExit(2)), never 3 (a failed self-check
is always a bug) and never with a traceback; stdout is JSON on exit 0 (unless
a table was asked for) and empty otherwise; and two runs of one argv print the
same bytes.  An argv whose every argument is well formed must exit 0, or exit
2 from a size cap of ``cli.CAPS``.  On such an argv that exits 0, the
answers must not change when the input is moved by seeded unimodular integer
maps (entries in -1..1), unless the moved input is over a cap:
``binary-rank`` and ``concise`` move the form by GL_2 or GL_n;
``pencil-rank`` moves the pencil by GL_p x GL_q, which keeps all its
Kronecker invariants, and then by GL_2 on (s, t) as well, which keeps the
rank, f, m_F, conciseness, the minimal indices, the zero rows and columns
and the invariant-factor degrees; ``orbit-dim`` moves its form by GL_n or
its pencil by GL_p x GL_q x GL_2, which keeps all five dimensions.

Each argv is built from a ``random.Random`` that Hypothesis seeds, so the
mix is explicit: most arguments are well formed, and some are missing, of
the wrong type or shape, cut short or nested up to 5000 deep as JSON; the
generator records whether it spoiled the argv.  Sizes stay small, and every
numeric argument stays at or below its cap, apart from the first value
above each cap.  Hypothesis runs derandomized, so every run of the suite
draws the same examples.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rankloci import cli, linalg
from rankloci.binary import BinaryForm
from rankloci.forms import MultiForm, exponents
from rankloci.pencils import Pencil

from helpers import substitute

EXAMPLES_PER_COMMAND = 30
BAD = 1 / 6  # the chance that one argument is spoiled

NOT_RATIONAL = ["0.5", "x", "", "1/", "1/0", True, None, [1]]


class Draw:
    """A random source that records whether the argv it builds is spoiled:
    given an argument that is missing or malformed for its command."""

    def __init__(self, rng):
        self.rng, self.spoiled = rng, False

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def spoil(self, p=BAD):
        """Spoil the argv with probability p, and say whether it did."""
        hit = self.rng.random() < p
        self.spoiled |= hit
        return hit


def is_zero(values):
    return all(Fraction(str(v)) == 0 for v in values)


def rational(rng):
    a = rng.randint(-5, 5)
    return rng.choice([a, str(a), f"{a}/{rng.randint(1, 4)}"])


def matrix(rng, p, q):
    rows = [[rational(rng) for _ in range(q)] for _ in range(p)]
    if rng.spoil():
        kind = rng.randrange(3)
        if kind == 0 and p and q:
            rows[rng.randrange(p)][rng.randrange(q)] = rng.choice(NOT_RATIONAL)
        elif kind == 1 and p:
            rows[rng.randrange(p)].append(rational(rng))  # ragged
        else:
            return rng.choice([[1], "m", None, []])
    return rows


def binary_form(rng):
    d = rng.randint(0, 6)
    obj = {"degree": d, "coeffs": [rational(rng) for _ in range(d + 1)]}
    rng.spoiled |= d == 0 or is_zero(obj["coeffs"])  # constant forms have no rank
    if rng.spoil():
        obj[rng.choice(["degree", "coeffs"])] = rng.choice([-1, True, "2", [1], 3])
    return obj


def multiform(rng):
    n, d = rng.randint(1, 4), rng.randint(0, 4)
    monos = exponents(n, d)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        key = "[" + ",".join(map(str, rng.choice(monos))) + "]"
        terms[key] = rational(rng)
    obj = {"n": n, "d": d, "terms": terms}
    rng.spoiled |= d == 0 or is_zero(terms.values())  # nor essential variables or orbits
    if rng.spoil():
        kind = rng.randrange(3)
        if kind == 0:
            obj[rng.choice(["n", "d"])] = rng.choice([0, -1, True, "3", n + 1])
        elif kind == 1:
            obj["terms"][rng.choice(["[a]", "", "[1,2", f"[-1,{d + 1}]"])] = rational(rng)
        else:
            obj["terms"]["[" + ",".join(["0"] * (n - 1) + [str(d)]) + "]"] = rng.choice(NOT_RATIONAL)
    return obj


def nested(rng):
    """JSON nested up to 5000 deep, in arrays or in objects."""
    depth = rng.choice([rng.randint(1, 10), rng.randint(10, 5000), 5000])
    leaf = rng.choice(["1", '"1"', "[]", "{}"])
    if rng.random() < 0.5:
        return "[" * depth + leaf + "]" * depth
    return '{"m1":' * depth + leaf + "}" * depth


def json_text(rng, obj):
    text = json.dumps(obj)
    if rng.spoil(0.05):
        return nested(rng) if rng.random() < 0.5 else text[:-1]
    return text


def number(rng, lo, hi, cap=None):
    """An integer string in lo..hi, or the first value above the cap, or
    (spoiled) junk or lo - 1, which every command but the seed refuses."""
    if rng.random() < BAD:
        over = [str(cap + 1)] if cap is not None else []
        value = rng.choice(["x", "1.5", "", str(lo - 1)] + over)
        rng.spoiled |= value not in over
        return value
    return str(rng.randint(lo, hi))


def flag(rng, argv, name, value):
    """Append the flag, except about one time in ten."""
    if not rng.spoil(0.1):
        argv += [name, value]


def pencil_slices(rng, max_side):
    p, q = rng.randint(1, max_side), rng.randint(1, max_side)
    return matrix(rng, p, q), matrix(rng, p, q)


def binary_rank_argv(rng, argv):
    flag(rng, argv, "--form", json_text(rng, binary_form(rng)))


def pencil_rank_argv(rng, argv):
    m1, m2 = pencil_slices(rng, 5)
    flag(rng, argv, "--m1", json_text(rng, m1))
    flag(rng, argv, "--m2", json_text(rng, m2))


def waring_argv(rng, argv):
    flag(rng, argv, "--n", number(rng, 2, 7, cli.CAPS["waring_nd"][0]))
    flag(rng, argv, "--d", number(rng, 1, 7, cli.CAPS["waring_nd"][0]))


def concise_argv(rng, argv):
    flag(rng, argv, "--form", json_text(rng, multiform(rng)))


def verify_identity_argv(rng, argv):
    flag(rng, argv, "--id", rng.choice(["reznick4", "reznick6", "reznick4", "reznick6", "other"]))
    rng.spoiled |= argv[-1] == "other"
    flag(rng, argv, "--n", number(rng, 1, 6, cli.CAPS["identity_n"][0]))


def orbit_dim_argv(rng, argv):
    which = rng.choice(["pencil", "form", "pencil", "form", "both", "neither"])
    rng.spoiled |= which in ("both", "neither")
    if which in ("pencil", "both"):
        m1, m2 = pencil_slices(rng, 4)
        rng.spoiled = rng.spoiled or is_zero(x for row in m1 + m2 for x in row)
        argv += ["--pencil", json_text(rng, {"m1": m1, "m2": m2})]
    if which in ("form", "both"):
        argv += ["--form", json_text(rng, multiform(rng))]


def classify_argv(rng, argv):
    m1, m2 = matrix(rng, 4, 4), matrix(rng, 4, 4)
    rng.spoiled = rng.spoiled or is_zero(x for row in m1 + m2 for x in row)
    if rng.random() < 0.5:
        flag(rng, argv, "--tensor", json_text(rng, [m1] if rng.spoil() else [m1, m2]))
    else:
        flag(rng, argv, "--m1", json_text(rng, m1))
        flag(rng, argv, "--m2", json_text(rng, m2))


def nesting_argv(rng, argv):
    if rng.random() < 0.9:
        argv += ["--seed", number(rng, -3, 10**6)]
    # always given: the default of 100 trials would dominate the test's time
    argv += ["--trials", number(rng, 1, 2, cli.CAPS["nesting_trials"][0])]


def wm_dims_argv(rng, argv):
    if rng.random() < 0.5:
        argv += ["--n", number(rng, 1, 3, cli.CAPS["wm_dims_n"][0])]


COMMANDS = {
    "binary-rank": binary_rank_argv,
    "pencil-rank": pencil_rank_argv,
    "waring": waring_argv,
    "concise": concise_argv,
    "verify-identity": verify_identity_argv,
    "orbit-dim": orbit_dim_argv,
    "t244 classify": classify_argv,
    "t244 nesting": nesting_argv,
    "reproduce table1": lambda rng, argv: None,
    "reproduce wm-dims": wm_dims_argv,
}


def unimodular(rng, n):
    """An n x n integer matrix with entries in -1..1 and determinant +-1."""
    while True:
        A = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if abs(linalg.det(A)) == 1:
            return A


def move_binary(rng, obj):
    (a, b), (c, d) = unimodular(rng, 2)
    return BinaryForm.from_json(obj).substitute(a, b, c, d).to_json()


def move_multiform(rng, obj):
    F = MultiForm.from_json(obj)
    return substitute(F, unimodular(rng, F.n)).to_json()


def move_pencil(rng, m1, m2, st):
    """(m1, m2) moved by GL_p x GL_q, and then by GL_2 on (s, t) if ``st``."""
    P = Pencil.from_json(m1, m2)
    P = P.conjugate(unimodular(rng, P.rows), unimodular(rng, P.cols))
    if st:
        (a, b), (c, d) = unimodular(rng, 2)
        P = P.substitute_st(a, b, c, d)
    obj = P.to_json()
    return obj["m1"], obj["m2"]


def with_args(argv, moved):
    """argv with the value after each flag of ``moved`` replaced by its JSON."""
    argv = list(argv)
    for flag, value in moved.items():
        argv[argv.index(flag) + 1] = json.dumps(value)
    return argv


def arg(argv, flag):
    return json.loads(argv[argv.index(flag) + 1])


def moved_form(rng, argv, move):
    return with_args(argv, {"--form": move(rng, arg(argv, "--form"))})


def keys(*names):
    return lambda result: [result[k] for k in names]


def kronecker_shape(result):
    """What GL_2 on (s, t) keeps of a pencil-rank result."""
    inv = result["invariants"]
    return keys("rank", "f", "m_F", "concise")(result) + [
        inv["eps"], inv["eta"], inv["zero_rows"], inv["zero_cols"],
        sorted(d["degree"] for d in inv["invariant_factors"])]


ORBIT_DIMS = keys("group_dim", "stabilizer_dim", "projective_stabilizer_dim",
                  "affine_orbit_dim", "projective_orbit_dim")


def binary_rank_moves(rng, argv):
    yield moved_form(rng, argv, move_binary), keys("rank", "border_rank")


def concise_moves(rng, argv):
    yield moved_form(rng, argv, move_multiform), keys("essential_count", "concise")


def pencil_rank_moves(rng, argv):
    m1, m2 = arg(argv, "--m1"), arg(argv, "--m2")
    for st, answer in ((False, keys("invariants", "rank", "f", "m_F", "concise")),
                       (True, kronecker_shape)):
        n1, n2 = move_pencil(rng, m1, m2, st)
        yield with_args(argv, {"--m1": n1, "--m2": n2}), answer


def orbit_dim_moves(rng, argv):
    if "--form" in argv:
        yield moved_form(rng, argv, move_multiform), ORBIT_DIMS
    else:
        obj = arg(argv, "--pencil")
        n1, n2 = move_pencil(rng, obj["m1"], obj["m2"], st=True)
        yield with_args(argv, {"--pencil": {"m1": n1, "m2": n2}}), ORBIT_DIMS


# command: the moved argvs, each with the part of the result that must not move
INVARIANT = {
    "binary-rank": binary_rank_moves,
    "concise": concise_moves,
    "pencil-rank": pencil_rank_moves,
    "orbit-dim": orbit_dim_moves,
}


def check_invariance(name, rng, argv, out):
    result = json.loads(out)["result"]
    for moved, answer in INVARIANT[name](rng, argv):
        code, moved_out, err = run(moved)
        if code == 2 and "capped" in err:
            continue
        assert code == 0, (moved, err)
        assert answer(json.loads(moved_out)["result"]) == answer(result), (argv, moved)


def build_argv(name, rng):
    argv = name.split()
    COMMANDS[name](rng, argv)
    if rng.random() < 0.3:
        argv += ["--output", rng.choice(["json", "table", "csv"])]
        rng.spoiled |= argv[-1] == "csv"
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_contract_fuzz(name):
    @settings(max_examples=EXAMPLES_PER_COMMAND, deadline=None, derandomize=True,
              database=None, suppress_health_check=list(HealthCheck))
    @given(st.randoms(use_true_random=True))
    def check(rng):
        rng = Draw(rng)
        argv = build_argv(name, rng)
        code, out, err = run(argv)
        assert code in (0, 2), (argv, err)
        if not rng.spoiled:
            assert code == 0 or "capped" in err, (argv, err)
        if code == 0 and "table" not in argv:
            json.loads(out)
        elif code != 0:
            assert out == "", argv
        assert run(argv) == (code, out, err), argv
        if code == 0 and not rng.spoiled and "table" not in argv and name in INVARIANT:
            check_invariance(name, rng, argv, out)

    check()
