#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny input sets (a few minutes):

    python3 bench/selftest.py

It checks that every workload runs clean in both modes and that the result
line has the schema BENCHMARK.json promises; that the same seed gives the
same inputs; that the span check sees a span outside every operation; that a mismatched oracle or a raising call shows up in
``failed`` and ``correct_rate`` instead of being dropped; that tracing
leaves the program as it found it; and that the benchmark refuses to run,
without printing a result, in a directory without the program.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"trace_passes": 1}


class SelfTestError(Exception):
    pass


def check(cond, what):
    if not cond:
        raise SelfTestError(what)
    print(f"ok  {what}")


def tiny_cfg(name):
    return dict(run.WORKLOADS[name], **TINY)


def args_for(name, trace):
    return SimpleNamespace(workload=name, seed=7, seconds=0.01, trace=trace)


def check_schema(name, result, trace, bench):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name} trace={trace}: result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{name} trace={trace}: counts are whole numbers")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{name} trace={trace}: metric names and units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) and set(v) == {"value", "unit"}
              for v in result["metrics"].values()), f"{name} trace={trace}: values are numbers")


def check_workloads(rl, bench):
    for name in run.WORKLOADS:
        for trace in (0, 1):
            mode = run.traced if trace else run.end_to_end
            tally, metrics, detail = mode(rl, args_for(name, trace), tiny_cfg(name))
            result = run.result_of(tally, metrics, trace)
            check_schema(name, result, trace, bench)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: every answer matches its oracle {detail['failures']}")
            if not trace:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name}: end-to-end metrics are never 0")
                check(detail["tail_resolved"] == (detail["tail_samples_beyond"] >= 10),
                      f"{name}: the tail is marked unresolved below 10 samples beyond it")
            else:
                check(detail["counts_repeat_exactly"], f"{name}: profiler counts repeat exactly")
                check(abs(detail["sum_check_s"]) < 0.01 * metrics["bench.traced_wall_s"],
                      f"{name}: span self times match the wall clock read around operations")


def check_span_sum():
    """The span check sees a span that escapes its operation."""
    import spans

    good = [(1, 0, 1, spans.OP, 0, 100, 0), (2, 1, 1, "linalg.rank", 10, 50, 0)]
    orphan = (3, 99, 1, "linalg.rank", 60, 80, 0)  # its parent is not among the spans
    ok = run.span_sum_check(spans.aggregate(good)["layers"], 100)
    bad = run.span_sum_check(spans.aggregate(good + [orphan])["layers"], 100)
    check(ok == 0 and bad == 20, "the span sum check catches a span outside every operation")


def check_determinism(rl):
    for name in ("t244_mix", "kronecker_sweep", "forms_identities"):
        a, b = (run.make_passes(rl, name, 11, 1)[0] for _ in range(2))
        check([c.expect for c in a] == [c.expect for c in b] and [c.kind for c in a] == [c.kind for c in b],
              f"{name}: the same seed gives the same inputs")
    a, b = run.make_passes(rl, "t244_mix", 11, 1)[0], run.make_passes(rl, "t244_mix", 12, 1)[0]
    check([c.expect for c in a] != [c.expect for c in b], "t244_mix: another seed gives other inputs")


def check_injected_failures(rl):
    """A wrong oracle and a raising call must both raise the error rate."""
    real = copy.copy(workloads.WORKLOADS)
    real_cli = workloads.cli_cold

    def corrupt(passes):
        for cases in passes:
            cases[0].expect = ("deliberately wrong",)
        return passes

    try:
        for name in ("t244_mix", "kronecker_sweep", "forms_identities"):
            workloads.WORKLOADS[name] = lambda *a, gen=real[name]: corrupt(gen(*a))
        workloads.cli_cold = lambda *a, **k: corrupt(real_cli(*a, **k))
        for name in run.WORKLOADS:
            tally, metrics, detail = run.end_to_end(rl, args_for(name, 0), tiny_cfg(name))
            result = run.result_of(tally, metrics, 0)
            check(not result["correct"] and result["failed"] >= 1 and detail["error_rate"] > 0
                  and metrics["correct_rate"] < 1, f"{name}: a mismatched oracle raises error_rate")
    finally:
        workloads.WORKLOADS.update(real)
        workloads.cli_cold = real_cli

    def boom():
        raise RuntimeError("injected")

    tally = run.Tally()
    tally.run(workloads.Case("raise", boom, lambda r: r, None))
    check(tally.failed == 1 and tally.attempted == 1, "a raising operation counts as failed")


def check_tracer_restores(rl):
    import spans

    before = rl.pencils.pencil_rank, rl.t244.pencil_rank, rl.linalg.rank
    tracer = spans.Tracer()
    tracer.install()
    wrapped = rl.t244.pencil_rank is not before[1] and rl.pencils.pencil_rank is not before[0]
    tracer.uninstall()
    check(wrapped, "tracing wraps a function at every module binding")
    check((rl.pencils.pencil_rank, rl.t244.pencil_rank, rl.linalg.rank) == before,
          "uninstalling the tracer restores the program")


def check_refuses_without_program():
    bare = os.path.join(run.OUT_DIR, "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "t244_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the program the benchmark exits nonzero and prints no result")


def main():
    rl = run.import_program()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        check_determinism(rl)
        check_span_sum()
        check_tracer_restores(rl)
        check_injected_failures(rl)
        check_workloads(rl, bench)
        check_refuses_without_program()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
