"""Command-line front end: every operation with JSON input and output.

All rationals cross the pipe as strings ("p/q" or "p") so downstream
consumers never see floats.  Identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 malformed input, 3 internal invariant
violation (a diagnostic dump goes to stderr).

Work per request is bounded, and each cap exits 2 with empty stdout:
``waring --n`` or ``--d`` above MAX_WARING_ND (1000), ``verify-identity
--n`` above MAX_IDENTITY_N (24), ``reproduce wm-dims --n`` above
MAX_WM_DIMS_N (12), ``t244 nesting --trials`` above MAX_NESTING_TRIALS
(200), a ``--form`` of ``concise`` or ``orbit-dim`` with more than
MAX_FORM_MONOMIALS (100) monomials C(n+d-1, d), a ``binary-rank --form``
of degree above MAX_BINARY_DEGREE (46), a pencil of ``pencil-rank`` or
``orbit-dim --pencil`` with more than MAX_PENCIL_SIDE (20) rows or columns
(a ``t244 classify`` tensor with more than 4), and any pencil or form of
these commands with an entry of more than MAX_ENTRY_BITS (12) bits once its
denominators are cleared by their lcm.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import t244
from .apolarity import binary_rank
from .binary import BinaryForm
from .errors import InternalInvariantError
from .forms import (
    MultiForm,
    essential_variables,
    generic_waring_rank,
    max_rank_bounds,
    reznick_quartic_identity,
    reznick_sextic_identity,
    verify_identity,
)
from .orbits import form_stabilizer, pencil_stabilizer
from .pencils import Pencil, pencil_rank
from .rationals import integral, rat_str


def _json_arg(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON for {what}: {exc}") from exc


# reznick6 at n = 24 takes about 2 s (Python 3.11, one core of a 2-vCPU VM),
# and the cost grows like n^3
MAX_IDENTITY_N = 24

# on the same machine, the orbit dimensions of max_rank_tensor(12), a 24 x 24
# pencil, take about 0.02 s, and 200 nesting trials (400 classifications)
# about 3 s
MAX_WM_DIMS_N = 12
MAX_NESTING_TRIALS = 200

# on the same machine, orbit-dim on a dense linear form in 100 variables (a
# 100 x 10001 stabilizer system) takes about 2.4 s, in 120 variables 6.4 s;
# linear forms are the slowest shape per monomial.  Its coefficients are
# capped at MAX_ENTRY_BITS too: the same form took 14 s with 64-bit ones
MAX_FORM_MONOMIALS = 100

# binary-rank searches the catalecticants up to the border rank and tests
# the kernel vector for a repeated root; on the same machine a random dense
# form with 12-bit coefficients, the slowest shape, takes about 1.1 s at
# degree 46 (worst of 3), 0.45 s at 40 and 1.3 to 1.6 s at 47 and 48.  Its
# coefficients are capped at MAX_ENTRY_BITS: at degree 20 it took 0.017 s
# with 12-bit ones and up to 3.7 s with 1,024-bit ones
MAX_BINARY_DEGREE = 46

# the pencil commands are bounded in shape and in the largest entry bit-length
# of the integer pencil left by clearing the denominators by their lcm.  Both
# pencil-rank and orbit-dim --pencil run one staircase, and orbit-dim reads
# its closed form off the result; on the same machine a dense 20 x 20 input
# takes about 1.3 s with 12-bit entries (1.0 s with [1:0] an eigenvalue),
# 0.7 s with 8-bit and 2.1 s with 16-bit ones; dense square is the slowest
# shape, and (n-1) x n pencils take 0.35 s at 19 x 20 with 16-bit entries
MAX_ENTRY_BITS = 12
MAX_PENCIL_SIDE = 20

# waring's largest output is about C(n+d-1, d), 601 digits at n = d = 1000:
# far below the 4300 digits at which Python refuses to print an integer
MAX_WARING_ND = 1000


def _check_bits(values, what):
    """Refuse rationals with an entry of more than MAX_ENTRY_BITS bits once
    their denominators are cleared by their lcm."""
    bits = max([abs(x).bit_length() for x in integral(list(values))[0]], default=0)
    if bits > MAX_ENTRY_BITS:
        raise ValueError(f"{what} is capped at {MAX_ENTRY_BITS}-bit entries once the "
                         f"denominators are cleared by their lcm, got {bits} bits")


def _form_arg(text) -> MultiForm:
    """Parse a --form, refusing one with more than MAX_FORM_MONOMIALS
    monomials or with a coefficient of more than MAX_ENTRY_BITS bits."""
    form = MultiForm.from_json(_json_arg(text, "--form"))
    lo, hi = sorted((form.degree, form.n - 1))
    count = 1
    for i in range(1, lo + 1):  # C(hi + i, i) grows with i up to C(n + d - 1, d)
        count = count * (hi + i) // i
        if count > MAX_FORM_MONOMIALS:
            raise ValueError(f"--form is capped at {MAX_FORM_MONOMIALS} monomials C(n+d-1, d), "
                             f"got n = {form.n}, d = {form.degree}")
    _check_bits(form.terms.values(), "--form")
    return form


def _pencil_arg(m1, m2, cap: int, what: str) -> Pencil:
    """Parse a pencil, refusing one with more than ``cap`` rows or columns,
    or with an entry of more than MAX_ENTRY_BITS bits once its denominators
    are cleared by their lcm."""
    pen = Pencil.from_json(m1, m2)
    if max(pen.rows, pen.cols) > cap:
        raise ValueError(f"{what} is capped at {cap} rows and {cap} columns, "
                         f"got {pen.rows} x {pen.cols}")
    _check_bits([x for row in pen.N1 + pen.N2 for x in row], what)
    return pen


# -- subcommand handlers: each returns (input_echo, result, seed) -------------


def _cmd_binary_rank(args):
    form = BinaryForm.from_json(_json_arg(args.form, "--form"))
    if form.degree > MAX_BINARY_DEGREE:
        raise ValueError(f"binary-rank --form is capped at degree {MAX_BINARY_DEGREE}, "
                         f"got {form.degree}")
    _check_bits(form.coeffs, "binary-rank --form")
    report = binary_rank(form)
    return {"form": form.to_json()}, report.to_json(), None


def _cmd_pencil_rank(args):
    pen = _pencil_arg(_json_arg(args.m1, "--m1"), _json_arg(args.m2, "--m2"),
                      MAX_PENCIL_SIDE, "pencil-rank")
    report = pencil_rank(pen)
    return {"pencil": pen.to_json()}, report.to_json(), None


def _cmd_waring(args):
    if max(args.n, args.d) > MAX_WARING_ND:
        raise ValueError(f"waring --n and --d are capped at {MAX_WARING_ND}, "
                         f"got n = {args.n}, d = {args.d}")
    g, hypersurface = generic_waring_rank(args.n, args.d)
    bounds = max_rank_bounds(args.n, args.d)
    result = {
        "n": args.n,
        "d": args.d,
        "generic_rank": g,
        "last_secant_is_hypersurface": hypersurface,
        "max_rank_bounds": bounds.to_json(),
    }
    return {"n": args.n, "d": args.d}, result, None


def _cmd_concise(args):
    form = _form_arg(args.form)
    report = essential_variables(form)
    return {"form": form.to_json()}, report.to_json(), None


def _cmd_verify_identity(args):
    if args.n > MAX_IDENTITY_N:
        raise ValueError(f"verify-identity --n is capped at {MAX_IDENTITY_N}, got {args.n}")
    builder = {"reznick4": reznick_quartic_identity, "reznick6": reznick_sextic_identity}[args.id]
    expr, target, bound = builder(args.n)
    ok = verify_identity(expr, target)
    result = {
        "identity": args.id,
        "n": args.n,
        "verified": ok,
        "rank_bound": bound,
        "terms_used": expr.term_count,
        "target_degree": target.degree,
    }
    return {"id": args.id, "n": args.n}, result, None


def _cmd_orbit_dim(args):
    if (args.pencil is None) == (args.form is None):
        raise ValueError("orbit-dim needs exactly one of --pencil or --form")
    if args.pencil is not None:
        obj = _json_arg(args.pencil, "--pencil")
        if not isinstance(obj, dict) or "m1" not in obj or "m2" not in obj:
            raise ValueError('--pencil expects {"m1": [...], "m2": [...]}')
        pen = _pencil_arg(obj["m1"], obj["m2"], MAX_PENCIL_SIDE, "orbit-dim --pencil")
        report = pencil_stabilizer(pen)
        return {"pencil": pen.to_json()}, report.to_json(), None
    form = _form_arg(args.form)
    report = form_stabilizer(form)
    return {"form": form.to_json()}, report.to_json(), None


def _parse_tensor(args):
    if args.tensor is not None:
        arr = _json_arg(args.tensor, "--tensor")
        if not (isinstance(arr, list) and len(arr) == 2):
            raise ValueError("--tensor expects a 2 x 4 x 4 nested array")
        m1, m2 = arr
    elif args.m1 is None or args.m2 is None:
        raise ValueError("t244 classify needs --tensor or both --m1 and --m2")
    else:
        m1, m2 = _json_arg(args.m1, "--m1"), _json_arg(args.m2, "--m2")
    return _pencil_arg(m1, m2, 4, "t244 classify")


def _cmd_t244_classify(args):
    pen = _parse_tensor(args)
    report = t244.classify_t244(pen)
    return {"pencil": pen.to_json()}, report.to_json(), None


def _cmd_t244_nesting(args):
    if args.trials > MAX_NESTING_TRIALS:
        raise ValueError(f"t244 nesting --trials is capped at {MAX_NESTING_TRIALS}, got {args.trials}")
    summary = t244.nesting_experiment(seed=args.seed, trials=args.trials)
    return {"seed": args.seed, "trials": args.trials}, summary, args.seed


def _cmd_reproduce_table1(args):
    # load_registry recomputes every row's rank and orbit dimension and
    # raises InternalInvariantError (exit 3) on any mismatch
    rows = [
        {
            "orbit_id": entry.orbit_id,
            "pencil": entry.pencil.to_json(),
            "computed_rank": entry.rank,
            "computed_dim": entry.dim,
            "fixture_rank": entry.rank,
            "fixture_dim": entry.dim,
            "match": True,
        }
        for entry in t244.load_registry().entries
    ]
    return {}, {"rows": rows, "all_match": True}, None


def _cmd_reproduce_wm_dims(args):
    if args.n is not None and args.n > MAX_WM_DIMS_N:
        raise ValueError(f"reproduce wm-dims --n is capped at {MAX_WM_DIMS_N}, got {args.n}")
    ns = [args.n] if args.n is not None else [2, 3, 4]
    rows = []
    all_match = True
    for n in ns:
        report = pencil_stabilizer(t244.max_rank_tensor(n))
        match = (
            report.stabilizer_dim == 2 * n * n + 3
            and report.projective_orbit_dim == 6 * n * n
        )
        all_match = all_match and match
        rows.append(
            {
                "n": n,
                "stabilizer_dim": report.stabilizer_dim,
                "expected_stabilizer_dim": 2 * n * n + 3,
                "projective_orbit_dim": report.projective_orbit_dim,
                "expected_orbit_dim": 6 * n * n,
                "match": match,
            }
        )
    return {"n": args.n}, {"rows": rows, "all_match": all_match}, None


# -- table rendering -----------------------------------------------------------


def _render_table(command, result):
    lines = []
    if command == "reproduce table1":
        lines.append(f"{'orbit':<12}{'rank':>6}{'dim':>6}  match")
        for row in result["rows"]:
            lines.append(
                f"{row['orbit_id']:<12}{row['computed_rank']:>6}{row['computed_dim']:>6}  "
                f"{'ok' if row['match'] else 'MISMATCH'}"
            )
        lines.append(f"all_match: {result['all_match']}")
    elif command == "reproduce wm-dims":
        lines.append(f"{'n':>3}{'stab':>8}{'orbit':>8}  match")
        for row in result["rows"]:
            lines.append(
                f"{row['n']:>3}{row['stabilizer_dim']:>8}{row['projective_orbit_dim']:>8}  "
                f"{'ok' if row['match'] else 'MISMATCH'}"
            )
    elif command == "waring":
        lines.append(f"generic rank g = {result['generic_rank']}")
        lines.append(f"last secant hypersurface: {result['last_secant_is_hypersurface']}")
        for k, v in result["max_rank_bounds"].items():
            lines.append(f"{k}: {v}")
    else:
        return None
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "table"), default=argparse.SUPPRESS,
                        help="table rendering exists for tabular commands; json otherwise")
    parser = argparse.ArgumentParser(
        prog="rankloci",
        description="Exact ranks and rank-locus classification: binary forms, "
        "matrix pencils, and 2x4x4 tensors.",
        parents=[common],
    )
    parser.set_defaults(output="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binary-rank", parents=[common], help="Waring rank and stratum of a binary form")
    p.add_argument("--form", required=True, help='{"degree": d, "coeffs": ["1", "0/1", ...]}; '
                   f"degree at most {MAX_BINARY_DEGREE} and {MAX_ENTRY_BITS}-bit coefficients "
                   "once the denominators are cleared by their lcm (more exits 2)")
    p.set_defaults(handler=_cmd_binary_rank)

    p = sub.add_parser("pencil-rank", parents=[common], help="Kronecker invariants and tensor rank of a pencil")
    side = (f"; at most {MAX_PENCIL_SIDE} rows and columns and {MAX_ENTRY_BITS}-bit "
            "entries once the denominators are cleared by their lcm (more exits 2)")
    p.add_argument("--m1", required=True, help="row-major matrix of rational strings" + side)
    p.add_argument("--m2", required=True, help="row-major matrix of rational strings" + side)
    p.set_defaults(handler=_cmd_pencil_rank)

    p = sub.add_parser("waring", parents=[common], help="generic rank and maximal-rank bounds")
    p.add_argument("--n", type=int, required=True, help=f"variables, 2..{MAX_WARING_ND} (more exits 2)")
    p.add_argument("--d", type=int, required=True, help=f"degree, 1..{MAX_WARING_ND} (more exits 2)")
    p.set_defaults(handler=_cmd_waring)

    p = sub.add_parser("concise", parents=[common], help="essential variables of a multivariate form")
    p.add_argument("--form", required=True, help='{"n":.., "d":.., "terms": {"[2,1,0]": "1"}}; '
                   f"at most {MAX_FORM_MONOMIALS} monomials C(n+d-1, d) and {MAX_ENTRY_BITS}-bit "
                   "coefficients once the denominators are cleared by their lcm (more exits 2)")
    p.set_defaults(handler=_cmd_concise)

    p = sub.add_parser("verify-identity", parents=[common], help="exact power-sum identities for quadric powers")
    p.add_argument("--id", choices=("reznick4", "reznick6"), required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"number of variables, 1..{MAX_IDENTITY_N} (larger n exits 2)")
    p.set_defaults(handler=_cmd_verify_identity)

    p = sub.add_parser("orbit-dim", parents=[common], help="stabilizer and orbit dimensions")
    p.add_argument("--pencil", help='{"m1": [...], "m2": [...]}, at most '
                   f"{MAX_PENCIL_SIDE} rows and columns and {MAX_ENTRY_BITS}-bit entries "
                   "once the denominators are cleared by their lcm (more exits 2)")
    p.add_argument("--form", help=f"multivariate form JSON, at most {MAX_FORM_MONOMIALS} "
                   f"monomials C(n+d-1, d) and {MAX_ENTRY_BITS}-bit coefficients once the "
                   "denominators are cleared by their lcm (more exits 2)")
    p.set_defaults(handler=_cmd_orbit_dim)

    p244 = sub.add_parser("t244", help="2x4x4 tensor classification and experiments")
    sub244 = p244.add_subparsers(dest="subcommand", required=True)
    p = sub244.add_parser("classify", parents=[common], help="classify one 2x4x4 tensor")
    p.add_argument("--tensor", help="2x4x4 nested array of rational strings, with "
                   f"{MAX_ENTRY_BITS}-bit entries at most once the denominators are cleared "
                   "by their lcm (more exits 2)")
    p.add_argument("--m1", help="4x4 matrix (alternative to --tensor)")
    p.add_argument("--m2", help="4x4 matrix (alternative to --tensor)")
    p.set_defaults(handler=_cmd_t244_classify, command_name="t244 classify")
    p = sub244.add_parser("nesting", parents=[common], help="rank-one join experiments onto T6 and T5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help=f"1..{MAX_NESTING_TRIALS} trials per base tensor (more exits 2)")
    p.set_defaults(handler=_cmd_t244_nesting, command_name="t244 nesting")

    prep = sub.add_parser("reproduce", help="reproduce the classification tables")
    subrep = prep.add_subparsers(dest="subcommand", required=True)
    p = subrep.add_parser("table1", parents=[common], help="all fourteen low-dimensional concise orbits")
    p.set_defaults(handler=_cmd_reproduce_table1, command_name="reproduce table1")
    p = subrep.add_parser("wm-dims", parents=[common], help="maximal-rank locus dimensions 6n^2")
    p.add_argument("--n", type=int, default=None,
                   help=f"single n, 1..{MAX_WM_DIMS_N} (default: 2, 3, 4; larger n exits 2)")
    p.set_defaults(handler=_cmd_reproduce_wm_dims, command_name="reproduce wm-dims")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = getattr(args, "command_name", args.command)
    try:
        input_echo, result, seed = args.handler(args)
        envelope = {
            "command": command,
            "input_echo": input_echo,
            "result": result,
            "fixture_version": t244.fixture_version(),
        }
        if seed is not None:
            envelope["seed"] = seed
    except InternalInvariantError as exc:
        dump = {"error": str(exc), "details": exc.details}
        sys.stderr.write(json.dumps(dump, sort_keys=True, indent=2, default=str) + "\n")
        return 3
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.output == "table":
        rendered = _render_table(command, result)
        if rendered is not None:
            sys.stdout.write(rendered)
            return 0
    sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
