"""Command-line front end: every operation with JSON input and output.

All rationals cross the pipe as strings ("p/q" or "p") so downstream
consumers never see floats.  Identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 malformed input, 3 internal invariant
violation (a diagnostic dump goes to stderr).

Work per request is bounded by the size limits in ``CAPS``; each exits 2
with empty stdout above its limit.
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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"malformed JSON for {what}: {exc}") from exc


# name: (limit, what it bounds, the slowest input at the limit, its CLI wall
# time): tests/at_caps.py runs each row at its limit and one step past it and
# prints the times (median of 5; Python 3.11, Fraction backend, 2-vCPU VM)
CAPS = {
    "waring_nd": (1000, "each of waring --n and --d", "n = d = 1000, whose 600-digit integers stay "
                  "below the 4300 digits at which Python refuses to print one", "0.10 s"),
    "identity_n": (24, "verify-identity --n", "reznick6, whose cost grows like n^3", "0.40 s"),
    "wm_dims_n": (12, "reproduce wm-dims --n", "the 24 x 24 pencil of max_rank_tensor(12)", "0.11 s"),
    "nesting_trials": (200, "t244 nesting --trials", "400 classifications", "0.29 s"),
    "form_monomials": (100, "the monomial count C(n+d-1, d) of a concise or orbit-dim --form",
                       "orbit-dim on a dense linear form in 100 variables with 12-bit coefficients", "2.1 s"),
    "binary_degree": (46, "the degree of a binary-rank --form", "a random dense form with 12-bit coefficients",
                      "0.77 s"),
    "pencil_side": (20, "each side of a pencil", "a dense square pencil with 12-bit entries, for "
                    "pencil-rank and orbit-dim alike", "0.76 s"),
    "entry_bits": (12, "the largest entry bit length of a pencil or form once its denominators are "
                   "cleared by their lcm", "the slowest form_monomials input", "2.1 s"),
}


def _cap(name, value, got=None):
    """Exit 2 (ValueError) when ``value`` is over the limit of CAPS[name]."""
    limit, what = CAPS[name][:2]
    if value > limit:
        raise ValueError(f"{what} is capped at {limit}, got {value if got is None else got}")


def _limit(name):
    """The --help fragment of CAPS[name]."""
    limit, what = CAPS[name][:2]
    return f"{what} is at most {limit} (more exits 2)"


def _cap_bits(values):
    _cap("entry_bits", max([abs(x).bit_length() for x in integral(list(values))[0]], default=0))


def _form_arg(text) -> MultiForm:
    form = MultiForm.from_json(_json_arg(text, "--form"))
    lo, hi = sorted((form.degree, form.n - 1))
    count = 1
    for i in range(1, lo + 1):  # C(hi + i, i) grows with i up to C(n + d - 1, d)
        count = count * (hi + i) // i
        if count > CAPS["form_monomials"][0]:
            break
    _cap("form_monomials", count, f"n = {form.n}, d = {form.degree}")
    _cap_bits(form.terms.values())
    return form


def _pencil_arg(m1, m2) -> Pencil:
    pen = Pencil.from_json(m1, m2)
    _cap("pencil_side", max(pen.rows, pen.cols), f"{pen.rows} x {pen.cols}")
    _cap_bits([x for row in pen.N1 + pen.N2 for x in row])
    return pen


# -- subcommand handlers: each returns (input_echo, result, seed) -------------


def _cmd_binary_rank(args):
    form = BinaryForm.from_json(_json_arg(args.form, "--form"))
    _cap("binary_degree", form.degree)
    _cap_bits(form.coeffs)
    report = binary_rank(form)
    return {"form": form.to_json()}, report.to_json(), None


def _cmd_pencil_rank(args):
    pen = _pencil_arg(_json_arg(args.m1, "--m1"), _json_arg(args.m2, "--m2"))
    report = pencil_rank(pen)
    return {"pencil": pen.to_json()}, report.to_json(), None


def _cmd_waring(args):
    _cap("waring_nd", max(args.n, args.d), f"n = {args.n}, d = {args.d}")
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
    _cap("identity_n", args.n)
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
        pen = _pencil_arg(obj["m1"], obj["m2"])
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
    pen = _pencil_arg(m1, m2)
    if max(pen.rows, pen.cols) > 4:
        raise ValueError(f"t244 classify is capped at 4 rows and 4 columns, got {pen.rows} x {pen.cols}")
    return pen


def _cmd_t244_classify(args):
    pen = _parse_tensor(args)
    report = t244.classify_t244(pen)
    return {"pencil": pen.to_json()}, report.to_json(), None


def _cmd_t244_nesting(args):
    _cap("nesting_trials", args.trials)
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
    ns = [args.n] if args.n is not None else [2, 3, 4]
    _cap("wm_dims_n", max(ns))
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

    bits = _limit("entry_bits")
    form = f"{_limit('form_monomials')}; {bits}"
    pencil = f"{_limit('pencil_side')}; {bits}"

    p = sub.add_parser("binary-rank", parents=[common], help="Waring rank and stratum of a binary form")
    p.add_argument("--form", required=True, help='{"degree": d, "coeffs": ["1", "0/1", ...]}; '
                   f"{_limit('binary_degree')}; {bits}")
    p.set_defaults(handler=_cmd_binary_rank)

    p = sub.add_parser("pencil-rank", parents=[common], help="Kronecker invariants and tensor rank of a pencil")
    p.add_argument("--m1", required=True, help="row-major matrix of rational strings; " + pencil)
    p.add_argument("--m2", required=True, help="row-major matrix of rational strings; " + pencil)
    p.set_defaults(handler=_cmd_pencil_rank)

    p = sub.add_parser("waring", parents=[common], help="generic rank and maximal-rank bounds")
    p.add_argument("--n", type=int, required=True, help="variables, from 2; " + _limit("waring_nd"))
    p.add_argument("--d", type=int, required=True, help="degree, from 1; " + _limit("waring_nd"))
    p.set_defaults(handler=_cmd_waring)

    p = sub.add_parser("concise", parents=[common], help="essential variables of a multivariate form")
    p.add_argument("--form", required=True, help='{"n":.., "d":.., "terms": {"[2,1,0]": "1"}}; ' + form)
    p.set_defaults(handler=_cmd_concise)

    p = sub.add_parser("verify-identity", parents=[common], help="exact power-sum identities for quadric powers")
    p.add_argument("--id", choices=("reznick4", "reznick6"), required=True)
    p.add_argument("--n", type=int, required=True, help="number of variables, from 1; " + _limit("identity_n"))
    p.set_defaults(handler=_cmd_verify_identity)

    p = sub.add_parser("orbit-dim", parents=[common], help="stabilizer and orbit dimensions")
    p.add_argument("--pencil", help='{"m1": [...], "m2": [...]}; ' + pencil)
    p.add_argument("--form", help="multivariate form JSON; " + form)
    p.set_defaults(handler=_cmd_orbit_dim)

    p244 = sub.add_parser("t244", help="2x4x4 tensor classification and experiments")
    sub244 = p244.add_subparsers(dest="subcommand", required=True)
    p = sub244.add_parser("classify", parents=[common], help="classify one 2x4x4 tensor")
    p.add_argument("--tensor", help="2x4x4 nested array of rational strings; " + bits)
    p.add_argument("--m1", help="4x4 matrix (alternative to --tensor); " + bits)
    p.add_argument("--m2", help="4x4 matrix (alternative to --tensor); " + bits)
    p.set_defaults(handler=_cmd_t244_classify, command_name="t244 classify")
    p = sub244.add_parser("nesting", parents=[common], help="rank-one join experiments onto T6 and T5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help="trials per base tensor, from 1; " + _limit("nesting_trials"))
    p.set_defaults(handler=_cmd_t244_nesting, command_name="t244 nesting")

    prep = sub.add_parser("reproduce", help="reproduce the classification tables")
    subrep = prep.add_subparsers(dest="subcommand", required=True)
    p = subrep.add_parser("table1", parents=[common], help="all fourteen low-dimensional concise orbits")
    p.set_defaults(handler=_cmd_reproduce_table1, command_name="reproduce table1")
    p = subrep.add_parser("wm-dims", parents=[common], help="maximal-rank locus dimensions 6n^2")
    p.add_argument("--n", type=int, default=None,
                   help="single n, from 1 (default: 2, 3, 4); " + _limit("wm_dims_n"))
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
