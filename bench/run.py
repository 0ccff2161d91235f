#!/usr/bin/env python3
"""The rankloci benchmark: seeded, single-process, closed loop.

Run from the repository root:

    python3 bench/run.py --workload t244_mix --seed 1 --seconds 25 --trace 0

One caller sends the next input only after the previous one returns; there
are no extra threads.  Inputs are generated from the seed before timing and
every answer is checked against an oracle (see ``workloads.py``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it are a stamp
(Python, rational backend, CPUs, commit, seed) and details for a reader.
See README.md in this directory for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# pass_s: seconds of one pass at the baseline, set low, so that the generated
# passes last the whole run (when the program gets faster, passes repeat);
# trace_passes: the fixed input set of a traced run, the first passes;
# tail: percentile of latency_tail_ms, fixed so that runs stay comparable: the
# highest that leaves at least ten samples beyond it in a 25 s baseline run
# (for cli_cold, whose eight commands form cost bands of an eighth each, the
# middle of the second-costliest band rather than the edge of the costliest);
# size: the input size that ops_per_s is stated at;
# calibrate: whether operation times are calibrated (see timed_loop).  Not
# for cli_cold: its operations are process start-ups, which the kernel's
# interpreter arithmetic does not track.  In three sets of ten seeds that
# recorded both, its raw CPU figures spread 2-8%, calibrated ones 5-18%.
WORKLOADS = {
    "t244_mix": {"pass_s": 0.45, "trace_passes": 2, "tail": 99.0, "calibrate": True,
                 "size": "44 2x4x4 tensors per pass: 1 T4, 1 T5, the 14 fixture orbits and "
                         "6 nonconcise types, each with integer and with rational entries"},
    "kronecker_sweep": {"pass_s": 0.8, "trace_passes": 1, "tail": 91.0, "calibrate": True,
                        "size": "one square pencil per side 4..10 per pass"},
    "forms_identities": {"pass_s": 0.45, "trace_passes": 2, "tail": 99.0, "calibrate": True,
                         "size": "30 checks per pass: identities n=3..6, forms n,d in {3,4}, "
                                 "binary d=2..12, max-rank n=2..4"},
    "cli_cold": {"pass_s": 1.2, "trace_passes": 1, "tail": 80.0, "calibrate": False,
                 "size": "8 fresh CLI processes per pass"},
}
SETUP_REPEATS = 7
MIN_BEYOND = 10  # samples beyond the tail percentile for latency_tail_ms to be resolved

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def import_program():
    """Import rankloci from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rankloci", "__init__.py")):
        fail(f"no rankloci package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import rankloci

    if os.path.dirname(os.path.dirname(os.path.abspath(rankloci.__file__))) != SRC:
        fail(f"imported rankloci from {rankloci.__file__}, not from {SRC}")
    import rankloci.cli  # noqa: F401
    import rankloci.t244  # noqa: F401

    return rankloci


# -- stamp -------------------------------------------------------------------------


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest():
    """sha256 over the program's sources, which names the code measured even
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rankloci")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(rl, args):
    return {
        "python": platform.python_version(),
        "rational_backend": "gmpy2" if rl.rationals._HAVE_GMPY2 else "Fraction",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- running cases ---------------------------------------------------------------


def cpu_clock():
    """CPU seconds used by this process and its waited-for children.

    Every operation is single-threaded and CPU-bound, so its CPU time is its
    latency on an otherwise idle machine.  Unlike wall time it leaves out the
    time a shared host gives to other guests.  For cli_cold it covers the CLI
    process as well as the caller's spawn.  ``timed_loop`` calibrates it where
    the workload asks for it.
    """
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


class Tally:
    """Attempted and failed operations, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def run(self, case, call=None):
        """Run one case (through ``call`` if given) and check its answer;
        returns the CPU seconds it took (see ``cpu_clock``)."""
        result = error = None
        t0 = cpu_clock()
        try:
            result = (call or case.call)()
        except Exception as exc:  # a raising operation is a failed operation
            error = exc
        latency = cpu_clock() - t0
        self.check(case, result, error)
        return latency

    def check(self, case, result, error=None):
        self.attempted += 1
        if error is not None:
            self._fail(case, f"raised {error!r}")
            return
        try:
            got = case.answer(result)
        except Exception as exc:
            self._fail(case, f"answer unreadable: {exc!r}")
            return
        if got != case.expect:
            self._fail(case, f"got {got!r}, expected {case.expect!r}")

    def _fail(self, case, why):
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(f"{case.kind}: {why}"[:400])


def make_passes(rl, name, seed, passes, mode=None, peak=None):
    import workloads

    rng = random.Random(seed)
    if name == "cli_cold":
        artifacts = os.path.join(OUT_DIR, f"cli_{mode}") if mode else None
        if artifacts:
            os.makedirs(artifacts, exist_ok=True)
        return workloads.cli_cold(rl, rng, passes, ROOT, mode, artifacts, peak)
    return workloads.WORKLOADS[name](rl, rng, passes)


def setup_child():
    """CPU seconds of one fresh interpreter importing rankloci and loading
    the orbit registry, raw and calibrated (see child.py); input generation
    is not included."""
    import workloads

    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "setup"],
                          cwd=ROOT, env=workloads.cli_env(ROOT), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        fail(f"setup child failed: {proc.stderr.strip()[-400:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["calibrated_setup_s"] = record["setup_s"] * REFERENCE_S / record["reference_s"]
    return record


def medians(records):
    return {k: statistics.median(r[k] for r in records) for k in records[0]}


def kernel_clock(cfg):
    """``calibrate`` for a calibrated workload; otherwise a clock that always
    reads REFERENCE_S, so that every scale factor is 1."""
    return calibrate if cfg["calibrate"] else (lambda: REFERENCE_S)


def timed_loop(passes, seconds, tally, setups, kernel):
    """Whole passes until ``seconds`` of timed wall time have elapsed.

    Every pass has the workload's fixed composition, so the mix never
    drifts; passes repeat only if the generated ones run out.  ``kernel``
    (see ``kernel_clock``) runs between passes, and each pass's CPU times are
    scaled by REFERENCE_S over the mean of its readings before and after it.
    ``setups`` set-up children are spread evenly over the run at pass
    boundaries; each calibrates itself (see child.py).  Kernel and children
    are left out of the timed phase.  Returns calibrated and raw latencies,
    calibrated and raw CPU seconds, timed wall seconds, passes run, and the
    set-up records.
    """
    latencies, raw, records = [], [], []
    cpu = raw_cpu = wall = 0.0
    ref = kernel()
    i = 0
    while not (wall >= seconds and i):
        if len(records) < setups and wall >= len(records) * seconds / setups:
            records.append(setup_child())
        wall0, cpu0 = time.perf_counter(), cpu_clock()
        done = [tally.run(case) for case in passes[i % len(passes)]]
        pass_cpu, wall = cpu_clock() - cpu0, wall + time.perf_counter() - wall0
        ref_after = kernel()
        scale = REFERENCE_S / ((ref + ref_after) / 2)
        latencies += [x * scale for x in done]
        raw += done
        cpu += pass_cpu * scale
        raw_cpu += pass_cpu
        ref = ref_after
        i += 1
    records += [setup_child() for _ in range(setups - len(records))]
    return latencies, raw, cpu, raw_cpu, wall, i, records


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    n = len(sorted_values)
    idx = min(n - 1, max(0, math.ceil(pct * n / 100) - 1))
    return sorted_values[idx], n - idx - 1


# -- the two modes -----------------------------------------------------------------


def end_to_end(rl, args, cfg):
    peak = {}
    passes = make_passes(rl, args.workload, args.seed,
                         math.ceil(args.seconds / cfg["pass_s"]) + 1, peak=peak)
    tally = Tally()
    if args.workload != "cli_cold":
        rl.t244.load_registry()  # lazy set-up every in-process caller pays once
        tally.run(passes[0][0])  # warm-up, counted like any other operation
    failed_before = tally.failed
    latencies, raw, cpu, raw_cpu, wall, done, records = timed_loop(
        passes, args.seconds, tally, SETUP_REPEATS, kernel_clock(cfg))
    timed_failed = tally.failed - failed_before
    if args.workload == "cli_cold":
        peak_rss_kb = peak["rss_kb"]
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # Linux reports kB
    setup = medians(records)

    lat, raw = sorted(latencies), sorted(raw)
    p50, raw_p50 = statistics.median(lat), statistics.median(raw)
    # The tail is picked among raw times and scaled by the run's calibration
    # factor at the median.  Picked among calibrated times, it would favour
    # the passes whose kernel readings happened to run fast: over ten seeds
    # of t244_mix that spread the tail 19%, against 12% this way.
    raw_tail, beyond = percentile(raw, cfg["tail"])
    tail = raw_tail * p50 / raw_p50
    if beyond < MIN_BEYOND:
        sys.stderr.write(f"bench: latency_tail_ms unresolved: only {beyond} samples beyond "
                         f"p{cfg['tail']:g} (want {MIN_BEYOND})\n")
    correct = len(lat) - timed_failed
    metrics = {
        "ops_per_s": correct / cpu,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "correct_rate": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": setup["calibrated_setup_s"],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    detail = {
        "timed_ops": len(lat),
        "raw_ops_per_cpu_s": correct / raw_cpu,
        "raw_ops_per_wall_s": correct / wall,
        "raw_p50_ms": raw_p50 * 1e3,
        "raw_tail_ms": raw_tail * 1e3,
        "calibrated": cfg["calibrate"],
        "reference_kernel_s_mean": raw_cpu * REFERENCE_S / cpu if cfg["calibrate"] else None,
        "timed_cpu_s": raw_cpu,
        "timed_wall_s": wall,
        "passes": done,
        "input_size": cfg["size"],
        "tail_percentile": cfg["tail"],
        "tail_samples_beyond": beyond,
        "tail_resolved": beyond >= MIN_BEYOND,
        "error_rate": tally.failed / tally.attempted,
        "setup_children": SETUP_REPEATS,
        "setup_breakdown_s": setup,
        "failures": tally.examples,
    }
    return tally, metrics, detail


def _flat(passes):
    return [case for p in passes for case in p]


def _count_pass(rl, args, cfg, tally):
    """Scalar-layer call counts over the trace set, from the profiler."""
    import spans

    if args.workload == "cli_cold":
        counts = dict.fromkeys(spans.COUNT_NAMES, 0)
        for case in _flat(make_passes(rl, args.workload, args.seed, cfg["trace_passes"], "count")):
            tally.run(case)
            for k, v in spans.read_json(case.artifact).items():
                counts[k] += v
        return counts
    trace_set = _flat(make_passes(rl, args.workload, args.seed, cfg["trace_passes"]))
    results = []

    def body():
        for case in trace_set:
            try:
                results.append((case, case.call(), None))
            except Exception as exc:
                results.append((case, None, exc))

    counts = spans.count_calls(body)
    for case, result, error in results:
        tally.check(case, result, error)
    return counts


def _spread(values):
    """Quartile distance over median, or None for fewer than two values."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def span_sum_check(layers, ops_ns):
    """Self times of all spans minus the wall time read around the operations.

    The self times add up to the time of the spans that have no parent among
    them.  Those should be exactly the operation spans, so the difference is
    only the clock reads' own cost.  A span that escapes its operation, or a
    grafted child span that lost its parent, makes it large."""
    return sum(a["self_ns"] for a in layers.values()) - ops_ns


def traced(rl, args, cfg):
    """Per-layer run over a fixed trace set.  After one warm-up pass, untraced
    and traced repetitions alternate for ``seconds``; then come two counting
    passes.  Each repetition's CPU time is calibrated like a pass of
    ``timed_loop``, and the tracing overhead is the ratio of the traced and
    untraced medians.  Spans use wall time, so a CLI process's spans fit
    under the caller's operation span.  A wall clock read outside the spans,
    around each operation, checks that the spans account for that time."""
    import spans

    name = args.workload
    tally = Tally()
    if name != "cli_cold":
        rl.t244.load_registry()
    plain_set = _flat(make_passes(rl, name, args.seed, cfg["trace_passes"]))
    trace_set = (_flat(make_passes(rl, name, args.seed, cfg["trace_passes"], "cli"))
                 if name == "cli_cold" else plain_set)
    for case in plain_set:  # warm-up
        tally.run(case)

    tracer = spans.Tracer()
    kernel = kernel_clock(cfg)
    untraced_cpu, traced_cpu = [], []
    traced_wall = ops_ns = 0
    offset = 0
    ref = kernel()
    start = time.perf_counter()
    while not (untraced_cpu and time.perf_counter() - start >= args.seconds):
        cpu0 = cpu_clock()
        for case in plain_set:
            tally.run(case)
        cpu = cpu_clock() - cpu0
        ref_mid = kernel()
        untraced_cpu.append(cpu * REFERENCE_S / ((ref + ref_mid) / 2))

        tracer.install()
        wall0, cpu0 = time.perf_counter_ns(), cpu_clock()
        try:
            for case in trace_set:
                def op(case=case):
                    nonlocal ops_ns
                    t0 = time.perf_counter_ns()
                    try:
                        return tracer.run_op(case.call)
                    finally:
                        ops_ns += time.perf_counter_ns() - t0

                tally.run(case, op)
                if case.artifact and os.path.exists(case.artifact):
                    offset += 1 << 40  # child span ids live above this process's
                    tracer.spans.extend(spans.reparent(spans.load_spans(case.artifact),
                                                       tracer.last_op, offset))
                    os.remove(case.artifact)
        finally:
            cpu, traced_wall = cpu_clock() - cpu0, traced_wall + time.perf_counter_ns() - wall0
            tracer.uninstall()
        ref = kernel()
        traced_cpu.append(cpu * REFERENCE_S / ((ref_mid + ref) / 2))
    reps = len(traced_cpu)
    tracer.dump(os.path.join(OUT_DIR, f"spans_{name}_{args.seed}.txt"))

    first, second = _count_pass(rl, args, cfg, tally), _count_pass(rl, args, cfg, tally)
    if first != second:
        fail(f"profiler counts differ between two identical passes: {first} != {second}")
    setup = medians([setup_child() for _ in range(3)])

    agg = spans.aggregate(tracer.spans)
    if agg["negative_self"]:
        fail(f"{agg['negative_self']} spans have negative self time: spans do not nest")
    layers = agg["layers"]
    metrics = {}
    for span in spans.SPAN_NAMES:
        a = layers.get(span, spans.EMPTY)
        calls, rem = divmod(a["calls"], reps)
        metrics[f"{span}.calls"] = calls if not rem else a["calls"] / reps
        metrics[f"{span}.self_s"] = a["self_ns"] / reps / 1e9
        if span in spans.ENTRIES:
            metrics[f"{span}.entries"] = a["entries"] / reps
    op_self_ns = layers.get(spans.OP, spans.EMPTY)["self_ns"]
    wrapped_ns = sum(a["self_ns"] for k, a in layers.items() if k != spans.OP)
    between_ns = traced_wall - ops_ns  # both read outside the spans
    sum_check_ns = span_sum_check(layers, ops_ns)
    if abs(sum_check_ns) > 0.01 * traced_wall:
        fail(f"span self times miss the traced wall time by {sum_check_ns / 1e9:.4f} s "
             f"of {traced_wall / 1e9:.4f} s")
    n = len(trace_set)
    untraced_med, traced_med = statistics.median(untraced_cpu), statistics.median(traced_cpu)
    overhead = traced_med / untraced_med
    spread = _spread(untraced_cpu)
    metrics.update({
        "t244.load_registry.total_s": setup["load_registry_s"],
        "cli.import_s": setup["cli_import_s"],
        **first,
        "bench.unwrapped_s": (op_self_ns + between_ns) / reps / 1e9,
        "bench.traced_wall_s": traced_wall / reps / 1e9,
        "trace.untraced_ops_per_s": n / untraced_med,
        "trace.traced_ops_per_s": n / traced_med,
    })
    detail = {
        "trace_set_ops": n,
        "repetitions": reps,
        "per": "one repetition of the trace set",
        "wrapped_self_s": wrapped_ns / reps / 1e9,
        "unwrapped_in_ops_s": op_self_ns / reps / 1e9,
        "between_ops_s": between_ns / reps / 1e9,
        "sum_check_s": sum_check_ns / reps / 1e9,
        "overhead": overhead,
        "untraced_rep_spread": spread,
        "overhead_resolved": spread is not None and overhead - 1 > spread,
        "untraced_rep_cpu_s": untraced_cpu,
        "traced_rep_cpu_s": traced_cpu,
        "spans": len(tracer.spans),
        "counts_repeat_exactly": True,
        "failures": tally.examples,
    }
    return tally, metrics, detail


def per_layer_units():
    """Every per-layer metric a traced run reports, with its unit."""
    import spans

    units = {}
    for span in spans.SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        if span in spans.ENTRIES:
            units[f"{span}.entries"] = "count"
    units["t244.load_registry.total_s"] = "s"
    units["cli.import_s"] = "s"
    units.update(dict.fromkeys(spans.COUNT_NAMES, "count"))
    units.update({"bench.unwrapped_s": "s", "bench.traced_wall_s": "s",
                  "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s"})
    return units


def result_of(tally, metrics, trace):
    """The result line: exactly the metrics of the mode, with units."""
    units = per_layer_units() if trace else END_TO_END
    if set(metrics) != set(units):
        fail(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    rl = import_program()
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    cfg = WORKLOADS[args.workload]
    tally, metrics, detail = (traced if args.trace else end_to_end)(rl, args, cfg)
    result = result_of(tally, metrics, args.trace)
    info = stamp(rl, args)
    print("stamp " + json.dumps(info))
    print("detail " + json.dumps(detail))
    for key, m in result["metrics"].items():
        print(f"  {key:<46} {m['value']:>16.6g} {m['unit']}")
    path = os.path.join(OUT_DIR, f"result_{args.workload}_{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
