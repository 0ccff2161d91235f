"""Regenerate ``data/cli_goldens.json``: the cli_cold command mix with the
stdout each command prints.  Run from the repository root, only when the
CLI's output is meant to change:

    python3 bench/make_goldens.py
"""

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _inputs():
    """A conjugate of orbit table1_02 (rank 5, dimension 29) for t244 classify,
    and a 6x6 conjugate of L1 + L1^T + J2(1) + J1(inf) for pencil-rank."""
    rng = random.Random(0)
    rep = next(r for r in workloads.load_representatives() if r["id"] == "table1_02")
    frac = lambda m: [[Fraction(x) for x in row] for row in m]
    T1, T2 = workloads.conjugate(rng, frac(rep["m1"]), frac(rep["m2"]))
    blocks = workloads.Blocks((1,), (1,), ((1, 2), (workloads.INF, 1)))
    P1, P2 = workloads.conjugate(rng, *blocks.matrices())
    return ([workloads.json_matrix(T1), workloads.json_matrix(T2)],
            workloads.json_matrix(P1), workloads.json_matrix(P2))


T244, PENCIL_M1, PENCIL_M2 = _inputs()
COMMANDS = {
    "t244_classify": ["t244", "classify", "--tensor", json.dumps(T244)],
    "pencil_rank": ["pencil-rank", "--m1", json.dumps(PENCIL_M1), "--m2", json.dumps(PENCIL_M2)],
    "binary_rank": ["binary-rank", "--form",
                    json.dumps({"degree": 7, "coeffs": ["1", "0", "3", "0", "-2", "1", "0", "5/2"]})],
    "concise": ["concise", "--form",
                json.dumps({"n": 4, "d": 3, "terms": {"[3,0,0,0]": "1", "[1,2,0,0]": "-3",
                                                      "[0,1,0,2]": "2", "[0,0,0,3]": "1/2"}})],
    "waring": ["waring", "--n", "3", "--d", "5"],
    "orbit_dim": ["orbit-dim", "--form",
                  json.dumps({"n": 3, "d": 3, "terms": {"[2,1,0]": "1", "[0,2,1]": "1", "[0,0,3]": "-2"}})],
    "reproduce_table1": ["reproduce", "table1"],
    "reproduce_wm_dims": ["reproduce", "wm-dims", "--n", "2"],
}


def main():
    root = os.path.dirname(HERE)
    env = workloads.cli_env(root)
    out = {}
    for name, argv in COMMANDS.items():
        code, stdout = workloads.run_cli(root, argv, env)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        out[name] = {"argv": argv, "stdout": stdout.decode("utf-8")}
    path = os.path.join(HERE, "data", "cli_goldens.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commands": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} goldens to {path}")


if __name__ == "__main__":
    main()
