"""Property test of the CLI contract over every subcommand.

For any argv, ``cli.main`` exits 0, 2 (malformed or over-limit input;
argparse's own usage errors raise SystemExit(2)) or 3 (invariant
violation), never with a traceback; stdout is JSON on exit 0 (unless a table
was asked for) and empty otherwise; and two runs of one argv print the same
bytes.

Each argv is built from a ``random.Random`` that Hypothesis seeds, so the
mix is explicit: most arguments are well formed, and some are missing, of
the wrong type or shape, or cut short as JSON.  Sizes stay small, and every
numeric argument stays at or below its cap, apart from the first value
above each cap.  Hypothesis runs derandomized, so every run of the suite
draws the same examples.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rankloci import cli
from rankloci.forms import exponents

EXAMPLES_PER_COMMAND = 30
BAD = 1 / 6  # the chance that one argument is spoiled

NOT_RATIONAL = ["0.5", "x", "", "1/", "1/0", True, None, [1]]


def rational(rng):
    a = rng.randint(-5, 5)
    return rng.choice([a, str(a), f"{a}/{rng.randint(1, 4)}"])


def matrix(rng, p, q):
    rows = [[rational(rng) for _ in range(q)] for _ in range(p)]
    if rng.random() < BAD:
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
    if rng.random() < BAD:
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
    if rng.random() < BAD:
        kind = rng.randrange(3)
        if kind == 0:
            obj[rng.choice(["n", "d"])] = rng.choice([0, -1, True, "3", n + 1])
        elif kind == 1:
            obj["terms"][rng.choice(["[a]", "", "[1,2", f"[-1,{d + 1}]"])] = rational(rng)
        else:
            obj["terms"]["[" + ",".join(["0"] * (n - 1) + [str(d)]) + "]"] = rng.choice(NOT_RATIONAL)
    return obj


def json_text(rng, obj):
    text = json.dumps(obj)
    return text[:-1] if rng.random() < 0.05 else text


def number(rng, lo, hi, cap=None):
    """An integer string in lo..hi, or the first value above the cap, or junk."""
    if rng.random() < BAD:
        return rng.choice(["x", "1.5", ""] + ([str(cap + 1)] if cap is not None else []))
    return str(rng.randint(lo, hi))


def flag(rng, argv, name, value):
    """Append the flag, except about one time in ten."""
    if rng.random() < 0.9:
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
    flag(rng, argv, "--n", number(rng, -1, 7, cli.MAX_WARING_ND))
    flag(rng, argv, "--d", number(rng, -1, 7, cli.MAX_WARING_ND))


def concise_argv(rng, argv):
    flag(rng, argv, "--form", json_text(rng, multiform(rng)))


def verify_identity_argv(rng, argv):
    flag(rng, argv, "--id", rng.choice(["reznick4", "reznick6", "reznick4", "reznick6", "other"]))
    flag(rng, argv, "--n", number(rng, 0, 6, cli.MAX_IDENTITY_N))


def orbit_dim_argv(rng, argv):
    which = rng.choice(["pencil", "form", "pencil", "form", "both", "neither"])
    if which in ("pencil", "both"):
        m1, m2 = pencil_slices(rng, 4)
        argv += ["--pencil", json_text(rng, {"m1": m1, "m2": m2})]
    if which in ("form", "both"):
        argv += ["--form", json_text(rng, multiform(rng))]


def classify_argv(rng, argv):
    m1, m2 = matrix(rng, 4, 4), matrix(rng, 4, 4)
    if rng.random() < 0.5:
        flag(rng, argv, "--tensor", json_text(rng, [m1, m2] if rng.random() > BAD else [m1]))
    else:
        flag(rng, argv, "--m1", json_text(rng, m1))
        flag(rng, argv, "--m2", json_text(rng, m2))


def nesting_argv(rng, argv):
    flag(rng, argv, "--seed", number(rng, -3, 10**6))
    # always given: the default of 100 trials would dominate the test's time
    argv += ["--trials", number(rng, -1, 2, cli.MAX_NESTING_TRIALS)]


def wm_dims_argv(rng, argv):
    if rng.random() < 0.5:
        argv += ["--n", number(rng, -1, 3, cli.MAX_WM_DIMS_N)]


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


def build_argv(name, rng):
    argv = name.split()
    COMMANDS[name](rng, argv)
    if rng.random() < 0.3:
        argv += ["--output", rng.choice(["json", "table", "csv"])]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_contract_fuzz(name):
    @settings(max_examples=EXAMPLES_PER_COMMAND, deadline=None, derandomize=True,
              database=None, suppress_health_check=list(HealthCheck))
    @given(st.randoms(use_true_random=True))
    def check(rng):
        argv = build_argv(name, rng)
        code, out = run(argv)
        assert code in (0, 2, 3), argv
        if code == 0 and "table" not in argv:
            json.loads(out)
        elif code != 0:
            assert out == "", argv
        assert run(argv) == (code, out), argv

    check()
