import itertools
import json
import os
import subprocess
import sys

import pytest

import at_caps
from rankloci import cli

RUN = [sys.executable, "-m", "rankloci.cli"]
GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "data", "cli_goldens.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=e)


def test_binary_rank_roundtrip():
    out = run_cli("binary-rank", "--form", '{"degree":5,"coeffs":["0","1","0","0","0","0"]}')
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["command"] == "binary-rank"
    assert doc["result"]["rank"] == 5
    assert doc["result"]["border_rank"] == 2
    assert doc["fixture_version"] == "1"


def test_pencil_rank_command():
    out = run_cli("pencil-rank", "--m1", '[["1","0"],["0","1"]]', "--m2", '[["0","1"],["0","0"]]')
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["rank"] == 3
    assert doc["result"]["invariants"]["invariant_factors"] == [
        {"degree": 2, "coeffs": ["1", "0", "0"]}
    ]


def test_waring_command():
    out = run_cli("waring", "--n", "3", "--d", "4")
    doc = json.loads(out.stdout)
    assert doc["result"]["generic_rank"] == 6
    assert doc["result"]["max_rank_bounds"]["known_exact"] == 7


def test_concise_command():
    form = '{"n":3,"d":3,"terms":{"[2,1,0]":"1","[0,2,1]":"1"}}'
    doc = json.loads(run_cli("concise", "--form", form).stdout)
    assert doc["result"]["concise"] is True
    assert doc["result"]["essential_count"] == 3


def test_verify_identity_command():
    doc = json.loads(run_cli("verify-identity", "--id", "reznick4", "--n", "4").stdout)
    assert doc["result"]["verified"] is True
    assert doc["result"]["rank_bound"] == 16


def test_orbit_dim_both_modes():
    pencil = json.dumps({
        "m1": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "m2": [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
    })
    doc = json.loads(run_cli("orbit-dim", "--pencil", pencil).stdout)
    assert doc["result"]["stabilizer_dim"] == 11
    assert doc["result"]["projective_orbit_dim"] == 24

    form = '{"n":3,"d":3,"terms":{"[2,1,0]":"1","[0,2,1]":"1"}}'
    doc = json.loads(run_cli("orbit-dim", "--form", form).stdout)
    assert doc["result"]["projective_orbit_dim"] == 6


def test_t244_classify_tensor_form():
    tensor = json.dumps([
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
    ])
    doc = json.loads(run_cli("t244", "classify", "--tensor", tensor).stdout)
    assert doc["result"]["orbit_id"] == "T5"
    assert doc["result"]["rank"] == 5
    assert doc["result"]["locus"] == "W5"
    assert doc["result"]["discriminant"] == "0"


def test_t244_nesting_seeded():
    doc = json.loads(run_cli("t244", "nesting", "--seed", "7", "--trials", "5").stdout)
    assert doc["seed"] == 7
    assert doc["result"]["t6_plus_rank1"]["trials"] == 5


def test_reproduce_commands():
    doc = json.loads(run_cli("reproduce", "table1").stdout)
    assert doc["result"]["all_match"] is True
    assert len(doc["result"]["rows"]) == 14
    doc = json.loads(run_cli("reproduce", "wm-dims", "--n", "2").stdout)
    assert doc["result"]["rows"][0]["projective_orbit_dim"] == 24


def test_byte_identical_determinism():
    args = ("t244", "nesting", "--seed", "3", "--trials", "4")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_table_output():
    out = run_cli("reproduce", "table1", "--output", "table")
    assert out.returncode == 0
    assert "all_match: True" in out.stdout


def test_exit_code_2_on_malformed_input():
    assert run_cli("binary-rank", "--form", "{not json").returncode == 2
    assert run_cli("binary-rank", "--form", '{"degree":2,"coeffs":["1"]}').returncode == 2
    assert run_cli("waring", "--n", "3").returncode == 2  # missing --d
    assert run_cli("orbit-dim").returncode == 2  # neither --pencil nor --form
    bad_rat = '{"degree":1,"coeffs":["1","0.5"]}'
    assert run_cli("binary-rank", "--form", bad_rat).returncode == 2


def test_exit_code_2_on_non_matrix_pencil():
    for argv in (("pencil-rank", "--m1", "[1]", "--m2", "[1]"),
                 ("t244", "classify", "--m1", "[1]", "--m2", "[1]"),
                 ("t244", "classify", "--tensor", "[[1], [2]]")):
        out = run_cli(*argv)
        assert out.returncode == 2 and out.stdout == ""
        assert "Traceback" not in out.stderr


def test_exit_code_2_on_mistyped_form_fields():
    for argv in (("concise", "--form", '{"n":3,"d":3,"terms":[1]}'),
                 ("concise", "--form", '{"n":true,"d":3,"terms":{"[3,0,0]":"1"}}'),
                 ("concise", "--form", '{"n":3,"d":false,"terms":{}}'),
                 ("binary-rank", "--form", '{"degree":true,"coeffs":[1,0]}'),
                 ("binary-rank", "--form", '{"degree":1,"coeffs":"10"}')):
        out = run_cli(*argv)
        assert out.returncode == 2 and out.stdout == ""
        assert "Traceback" not in out.stderr


def test_concise_constant_form_exits_2_naming_the_degree(capsys):
    assert cli.main(["concise", "--form", '{"n":2,"d":0,"terms":{"[0,0]":"3"}}']) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "constants have no essential variables; need degree >= 1" in err


def test_exit_code_2_on_two_keys_for_one_monomial():
    # "[1,0]" and "[1, 0]" name the same monomial; neither term may be dropped
    form = '{"n":2,"d":1,"terms":{"[1,0]":"1","[1, 0]":"2"}}'
    for cmd in ("concise", "orbit-dim"):
        out = run_cli(cmd, "--form", form)
        assert out.returncode == 2 and out.stdout == ""
        assert "Traceback" not in out.stderr


def test_exit_code_3_on_fixture_violation(tmp_path):
    # corrupt fixture: wrong orbit dimension fails the startup cross-check
    import rankloci.t244 as t244

    raw = json.loads(t244._fixture_text())
    raw["entries"][0]["dim"] = 99
    (tmp_path / "table1.json").write_text(json.dumps(raw))
    tensor = json.dumps([
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
    ])
    out = run_cli("t244", "classify", "--tensor", tensor,
                  env={"RANKLOCI_FIXTURES": str(tmp_path)})
    assert out.returncode == 3
    dump = json.loads(out.stderr)
    assert "details" in dump


def test_exit_code_2_matrix_extra_cases():
    # wrong pencil shape for t244
    bad = run_cli("t244", "classify",
                  "--m1", '[["1","0","0"],["0","1","0"]]',
                  "--m2", '[["0","1","0"],["0","0","1"]]')
    assert bad.returncode == 2
    # both --pencil and --form
    assert run_cli("orbit-dim", "--pencil", '{"m1":[["1"]],"m2":[["1"]]}',
                   "--form", '{"n":1,"d":1,"terms":{"[1]":"1"}}').returncode == 2
    # tensor that is not a 2-slice array
    assert run_cli("t244", "classify", "--tensor", '[[["1"]]]').returncode == 2
    # mismatched m1/m2 shapes
    assert run_cli("pencil-rank", "--m1", '[["1","0"]]', "--m2", '[["1"]]').returncode == 2


def test_classify_determinism():
    tensor = json.dumps([
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
    ])
    a = run_cli("t244", "classify", "--tensor", tensor)
    b = run_cli("t244", "classify", "--tensor", tensor)
    assert a.stdout == b.stdout and a.returncode == 0


def test_stdout_matches_bench_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    assert len(commands) == 8
    env = dict(os.environ)
    env.pop("RANKLOCI_FIXTURES", None)
    for name, golden in sorted(commands.items()):
        out = subprocess.run(RUN + golden["argv"], capture_output=True, env=env)
        assert out.returncode == 0, name
        assert out.stdout == golden["stdout"].encode("utf-8"), name


def _refuse_work(monkeypatch):
    """Replace every computation behind the CLI, so that an input the caps
    should refuse fails the test at once instead of running for seconds."""
    from rankloci import t244

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran on an input past a cap")

    for name in ("binary_rank", "pencil_rank", "essential_variables", "form_stabilizer",
                 "pencil_stabilizer", "verify_identity", "generic_waring_rank"):
        monkeypatch.setattr(cli, name, refuse)
    for name in ("classify_t244", "nesting_experiment", "max_rank_tensor"):
        monkeypatch.setattr(t244, name, refuse)


def _help(command, capsys):
    """The --help text of a subcommand, without whitespace (argparse wraps it)."""
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main([*command, "--help"])
    return "".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("name", sorted(cli.CAPS))
def test_cap_row(name, monkeypatch, capsys):
    # one step past the limit exits 2 with empty stdout and names the cap, and
    # the --help of every command the cap bounds shows it
    at_limit, past = at_caps.INPUTS[name]
    assert at_limit and past
    _refuse_work(monkeypatch)
    for argv in past:
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[:3]
        out, err = capsys.readouterr()
        assert out == "" and f"capped at {cli.CAPS[name][0]}" in err
    limit = "".join(cli._limit(name).split())
    for command in {tuple(itertools.takewhile(lambda a: not a.startswith("--"), argv))
                    for argv in at_limit + past}:
        assert limit in _help(command, capsys), command


def test_every_size_argument_has_a_cap():
    # every option that is neither a choice nor the nesting seed takes a size
    # (an integer or a JSON pencil or form), and its help shows its caps
    import argparse

    def leaves(parser, words=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield words, parser
        for action in subs:
            for word, sub in action.choices.items():
                yield from leaves(sub, words + (word,))

    shown = set()
    for words, parser in leaves(cli.build_parser()):
        for action in parser._actions:
            if not action.option_strings or action.choices or action.dest in ("help", "seed"):
                continue
            caps = {name for name in cli.CAPS if cli._limit(name) in action.help}
            assert caps, (words, action.option_strings)
            if action.type is not int:  # JSON: every pencil and form caps its entries
                assert "entry_bits" in caps, (words, action.option_strings)
            shown |= caps
    assert shown == set(cli.CAPS)
    assert set(at_caps.INPUTS) == set(cli.CAPS)


def test_readme_caps_table_matches_caps():
    with open(README, encoding="utf-8") as fh:
        rows = [line.strip().strip("|").split("|") for line in fh if line.startswith("| `")]
    table = {cells[0].strip().strip("`"): tuple(c.strip() for c in cells[1:]) for cells in rows}
    assert table == {name: (str(limit), *text) for name, (limit, *text) in cli.CAPS.items()}


@pytest.mark.parametrize("nested", ["[" * 5000 + "]" * 5000, '{"a":' * 5000 + "1" + "}" * 5000],
                         ids=["arrays", "objects"])
def test_deeply_nested_json_exits_2(nested, capsys):
    # json.loads raises RecursionError from about depth 1000 on
    m = '[["1","0"],["0","1"]]'
    m4 = json.dumps([[str(int(i == j)) for j in range(4)] for i in range(4)])
    for argv in (["binary-rank", "--form", nested], ["concise", "--form", nested],
                 ["orbit-dim", "--form", nested], ["orbit-dim", "--pencil", nested],
                 ["pencil-rank", "--m1", nested, "--m2", m], ["pencil-rank", "--m1", m, "--m2", nested],
                 ["t244", "classify", "--tensor", nested],
                 ["t244", "classify", "--m1", nested, "--m2", m4],
                 ["t244", "classify", "--m1", m4, "--m2", nested]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[:3]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: malformed JSON"), argv[:3]


def test_verify_identity_n_cap(capsys):
    assert cli.main(["verify-identity", "--id", "reznick4", "--n", str(cli.CAPS["identity_n"][0])]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verified"] is True


def test_wm_dims_and_nesting_caps(monkeypatch, capsys):
    from rankloci import t244

    # wm-dims at its cap takes a fraction of a second; nesting at its cap
    # takes about half a second (CI runs it there), so its work is replaced
    monkeypatch.setattr(t244, "nesting_experiment", lambda seed, trials: {"trials": trials})
    capsys.readouterr()
    assert cli.main(["reproduce", "wm-dims", "--n", str(cli.CAPS["wm_dims_n"][0])]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["all_match"] is True
    trials = cli.CAPS["nesting_trials"][0]
    assert cli.main(["t244", "nesting", "--trials", str(trials)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["trials"] == trials


def test_form_monomial_cap(monkeypatch, capsys):
    # a linear form in 1500 variables once ended in a RecursionError traceback
    big = json.dumps({"n": 1500, "d": 1, "terms": {"[" + ",".join(["1"] + ["0"] * 1499) + "]": "1"}})
    for command in ("concise", "orbit-dim"):
        over = run_cli(command, "--form", big)
        assert over.returncode == 2 and over.stdout == ""
        assert "capped" in over.stderr and "Traceback" not in over.stderr

    # the count is C(n+d-1, d), checked without computing it for huge n and d;
    # the work behind each command is replaced, since at the cap it takes seconds
    monkeypatch.setattr(cli, "essential_variables", lambda F: F)
    monkeypatch.setattr(cli, "form_stabilizer", lambda F: F)
    cap = cli.CAPS["form_monomials"][0]
    shapes = [(cap, 1, 0), (cap + 1, 1, 2), (13, 2, 0), (14, 2, 2), (2, cap - 1, 0), (2, cap, 2),
              (1, 10**6, 0), (10**9, 0, 0), (10**9, 10**9, 2)]
    for n, d, code in shapes:
        form = json.dumps({"n": n, "d": d, "terms": {}})
        for command in ("concise", "orbit-dim"):
            capsys.readouterr()
            assert cli.main([command, "--form", form]) == code
            assert (capsys.readouterr().out == "") == (code == 2)


def test_pencil_side_caps(monkeypatch, capsys):
    def pencil(p, q):
        m = json.dumps([[str((i + j) % 3) for j in range(q)] for i in range(p)])
        return m, m

    # pencil-rank and orbit-dim --pencil share one side cap; at the cap the
    # work takes about a second (CI runs both there), so here it is replaced
    # and only the shape check runs
    cap = cli.CAPS["pencil_side"][0]
    monkeypatch.setattr(cli, "pencil_rank", lambda P: P)
    monkeypatch.setattr(cli, "pencil_stabilizer", lambda P: P)
    for argv in (lambda m1, m2: ["pencil-rank", "--m1", m1, "--m2", m2],
                 lambda m1, m2: ["orbit-dim", "--pencil", f'{{"m1": {m1}, "m2": {m2}}}']):
        for p, q, code in ((cap, cap, 0), (cap, 1, 0), (1, cap, 0), (cap + 1, cap, 2),
                           (cap, cap + 1, 2), (1, 10 * cap, 2), (cap + 1, 2, 2), (2, cap + 1, 2)):
            capsys.readouterr()
            assert cli.main(argv(*pencil(p, q))) == code
            assert (capsys.readouterr().out == "") == (code == 2)


def test_pencil_entry_bit_cap(monkeypatch, capsys):
    # the cap reads the entries after clearing the denominators of both slices
    # by their lcm; the work behind each command is replaced
    top = 2**cli.CAPS["entry_bits"][0] - 1  # the largest entry at the cap
    n = top // 6  # 6 * n <= top < 6 * (n + 1)
    monkeypatch.setattr(cli, "pencil_rank", lambda P: P)
    monkeypatch.setattr(cli, "pencil_stabilizer", lambda P: P)
    cases = [([[top, 0]], [[1, 1]], 0), ([[-top, 1]], [[1, 1]], 0),
             ([[top + 1, 0]], [[1, 1]], 2), ([[-top - 1, 1]], [[1, 1]], 2),
             ([["1/6", n]], [[1, 1]], 0), ([["1/6", n + 1]], [[1, 1]], 2),
             ([["1/2", "1/3"]], [[n + 1, 1]], 2), ([[f"{top}/5", "1/5"]], [["-2/5", 0]], 0)]
    dump = lambda m: json.dumps([[str(x) for x in row] for row in m])
    for argv in (lambda m1, m2: ["pencil-rank", "--m1", m1, "--m2", m2],
                 lambda m1, m2: ["orbit-dim", "--pencil", f'{{"m1": {m1}, "m2": {m2}}}']):
        for m1, m2, code in cases:
            capsys.readouterr()
            assert cli.main(argv(dump(m1), dump(m2))) == code
            assert (capsys.readouterr().out == "") == (code == 2)


def test_t244_classify_entry_bit_cap(capsys):
    top = 2**cli.CAPS["entry_bits"][0] - 1
    eye = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    diag = lambda x: [[str(x if i == j == 0 else int(i == j)) for j in range(4)] for i in range(4)]
    five = [[str(int(i == j)) for j in range(5)] for i in range(5)]
    # the cap reads the entries after clearing the denominators by their lcm,
    # and a 5 x 5 tensor is refused by the 2 x 4 x 4 shape check
    for m1, m2, code in ((diag(top), eye, 0), (diag(-top - 1), eye, 2), (diag(f"{top}/2"), eye, 0),
                         (diag(f"{top + 2}/2"), eye, 2), (five, five, 2)):
        for argv in (["--tensor", json.dumps([m1, m2])],
                     ["--m1", json.dumps(m1), "--m2", json.dumps(m2)]):
            capsys.readouterr()
            assert cli.main(["t244", "classify", *argv]) == code, argv
            out, err = capsys.readouterr()
            assert (out == "") == (code == 2) and ("capped" in err) == (code == 2)
            assert ("capped at 4 rows and 4 columns" in err) == (m1 is five)


def test_waring_n_d_cap(capsys):
    cap = cli.CAPS["waring_nd"][0]
    assert cli.main(["waring", "--n", str(cap), "--d", str(cap)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["n"] == cap
    # 100000 once ended in a traceback: json.dumps refused its 4300-digit integers
    assert cli.main(["waring", "--n", "100000", "--d", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "capped" in err


def test_form_entry_bit_cap(monkeypatch, capsys):
    # the cap reads the coefficients after clearing their denominators by
    # their lcm; the work behind each command is replaced
    top = 2**cli.CAPS["entry_bits"][0] - 1  # the largest coefficient at the cap
    n = top // 6  # 6 * n <= top < 6 * (n + 1)
    monkeypatch.setattr(cli, "essential_variables", lambda F: F)
    monkeypatch.setattr(cli, "form_stabilizer", lambda F: F)
    cases = [({"[1,0]": top, "[0,1]": 1}, 0), ({"[1,0]": -top}, 0), ({"[1,0]": top + 1}, 2),
             ({"[1,0]": -top - 1, "[0,1]": 1}, 2), ({"[1,0]": "1/6", "[0,1]": n}, 0),
             ({"[1,0]": "1/6", "[0,1]": n + 1}, 2), ({"[1,0]": f"{top}/5", "[0,1]": "-2/5"}, 0),
             ({"[1,0]": "1/3", "[0,1]": "1365/2"}, 0), ({"[1,0]": "1/3", "[0,1]": "1367/2"}, 2),
             ({}, 0)]
    for terms, code in cases:
        form = json.dumps({"n": 2, "d": 1, "terms": {k: str(v) for k, v in terms.items()}})
        for command in ("concise", "orbit-dim"):
            capsys.readouterr()
            assert cli.main([command, "--form", form]) == code, (command, terms)
            assert (capsys.readouterr().out == "") == (code == 2)


def test_binary_rank_caps(monkeypatch, capsys):
    # at the degree cap the work takes about a second (CI runs it there), so
    # here it is replaced and only the caps run
    top = 2**cli.CAPS["entry_bits"][0] - 1
    cap = cli.CAPS["binary_degree"][0]
    form = lambda cs: json.dumps({"degree": len(cs) - 1, "coeffs": [str(c) for c in cs]})
    monkeypatch.setattr(cli, "binary_rank", lambda F: F)
    n = top // 6
    cases = [([1] * (cap + 1), 0), ([1] * (cap + 2), 2), ([0] * (cap + 2), 2),
             ([top, -top], 0), ([top + 1, 0], 2), ([1, -top - 1], 2),
             (["1/6", n], 0), (["1/6", n + 1], 2), ([f"{top}/5", "-2/5"], 0), ([0, 0], 0)]
    for cs, code in cases:
        capsys.readouterr()
        assert cli.main(["binary-rank", "--form", form(cs)]) == code, cs
        assert (capsys.readouterr().out == "") == (code == 2)
