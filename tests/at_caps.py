"""Run every CLI size cap at its limit and one step past it:

    PYTHONPATH=src python tests/at_caps.py

For each row of ``rankloci.cli.CAPS``, ``INPUTS`` holds the slowest inputs
at the limit and inputs one step past it.  Each input at the limit must
exit 0 within 60 s, with "verified" and "all_match" true where the result
has them; each input past the limit must exit 2 with empty stdout.  Every
run prints its wall time: the costs in ``CAPS`` and in the README come from
these lines.  pytest does not collect this file; ``tests/test_cli.py``
checks that ``INPUTS`` has one entry per ``CAPS`` row and runs the inputs
past each limit in process.
"""

import json
import random
import subprocess
import sys
import time

from rankloci.cli import CAPS

TIMEOUT_S = 60


def cap(name, step=0):
    return CAPS[name][0] + step


TOP = 2 ** cap("entry_bits") - 1  # the largest entry at the bit cap


def binary_rank(d, top=TOP):
    """A random dense binary form of degree d, the slowest shape per degree."""
    r = random.Random(d)
    cs = [r.randint(-top, top) for _ in range(d + 1)]
    cs[0] = top
    return ["binary-rank", "--form", json.dumps({"degree": d, "coeffs": [str(c) for c in cs]})]


def linear_form(command, n, top=TOP, terms=None):
    """A linear form in n variables with coefficients top, top - 1, ... on its
    first ``terms`` variables (all n by default): dense, it is the slowest
    shape per monomial."""
    unit = lambda i: json.dumps([int(i == j) for j in range(n)])
    form = {"n": n, "d": 1, "terms": {unit(i): str(top - i) for i in range(n if terms is None else terms)}}
    return [command, "--form", json.dumps(form)]


def matrix(n, top, seed):
    r = random.Random(seed)
    m = [[str(r.randint(-top, top)) for _ in range(n)] for _ in range(n)]
    m[0][0] = str(top)
    if seed == 1:
        m[-1] = m[0]  # a repeated row puts [1:0] among the eigenvalues
    return m


def pencil(command, n, top=TOP):
    """A dense square pencil, the slowest shape per side."""
    m1, m2 = matrix(n, top, 1), matrix(n, top, 2)
    if command == "pencil-rank":
        return [command, "--m1", json.dumps(m1), "--m2", json.dumps(m2)]
    return [command, "--pencil", json.dumps({"m1": m1, "m2": m2})]


def classify(top):
    diag = [[str(top if i == j == 0 else int(i == j)) for j in range(4)] for i in range(4)]
    eye = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    return ["t244", "classify", "--tensor", json.dumps([diag, eye])]


def _slowest_inputs(top=TOP):
    return [binary_rank(cap("binary_degree"), top),
            *(linear_form(c, cap("form_monomials"), top) for c in ("concise", "orbit-dim")),
            *(pencil(c, cap("pencil_side"), top) for c in ("pencil-rank", "orbit-dim"))]


# name: (inputs at the limit, inputs one step past it)
INPUTS = {
    "waring_nd": ([["waring", "--n", str(cap("waring_nd")), "--d", str(cap("waring_nd"))]],
                  [["waring", "--n", str(cap("waring_nd", 1)), "--d", "3"],
                   ["waring", "--n", "3", "--d", str(cap("waring_nd", 1))]]),
    "identity_n": ([["verify-identity", "--id", "reznick6", "--n", str(cap("identity_n"))]],
                   [["verify-identity", "--id", i, "--n", str(cap("identity_n", 1))]
                    for i in ("reznick4", "reznick6")]),
    "wm_dims_n": ([["reproduce", "wm-dims", "--n", str(cap("wm_dims_n"))]],
                  [["reproduce", "wm-dims", "--n", str(cap("wm_dims_n", 1))]]),
    "nesting_trials": ([["t244", "nesting", "--trials", str(cap("nesting_trials"))]],
                       [["t244", "nesting", "--trials", str(cap("nesting_trials", 1))]]),
    # the linear form in 1500 variables once ended in a RecursionError
    "form_monomials": ([linear_form(c, cap("form_monomials")) for c in ("concise", "orbit-dim")],
                       [linear_form(c, n, terms=t) for c in ("concise", "orbit-dim")
                        for n, t in ((cap("form_monomials", 1), None), (1500, 1))]),
    "binary_degree": ([binary_rank(cap("binary_degree"))], [binary_rank(cap("binary_degree", 1))]),
    "pencil_side": ([pencil(c, cap("pencil_side")) for c in ("pencil-rank", "orbit-dim")],
                    [pencil(c, cap("pencil_side", 1)) for c in ("pencil-rank", "orbit-dim")]),
    "entry_bits": ([*_slowest_inputs(), classify(TOP)], [*_slowest_inputs(TOP + 1), classify(TOP + 1)]),
}


def _label(argv):
    return " ".join(a if len(a) <= 24 else f"<{len(a)} chars>" for a in argv)


def _run(argv):
    t0 = time.perf_counter()
    try:
        out = subprocess.run([sys.executable, "-m", "rankloci.cli", *argv],
                             capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - t0
    return out.returncode, out.stdout, time.perf_counter() - t0


def _at_limit_ok(code, stdout):
    if code != 0:
        return False
    result = json.loads(stdout)["result"]
    return result.get("verified", True) is True and result.get("all_match", True) is True


def main():
    failures = []
    ran = set()
    for name, (at_limit, past) in INPUTS.items():
        for argv, side in [(a, "at") for a in at_limit] + [(a, "past") for a in past]:
            if tuple(argv) in ran:
                continue
            ran.add(tuple(argv))
            code, stdout, wall = _run(argv)
            ok = _at_limit_ok(code, stdout) if side == "at" else (code == 2 and stdout == "")
            print(f"{'ok ' if ok else 'BAD'} {name:<15}{side:<5}exit {code}  {wall:6.2f} s  {_label(argv)}",
                  flush=True)
            if not ok:
                failures.append((name, side, _label(argv)))
    for failure in failures:
        print("failed:", *failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
