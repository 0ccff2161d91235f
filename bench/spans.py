"""Span tracing and call counting for the benchmark's traced runs.

Everything here is benchmark code: the program is measured from outside by
replacing each public function named in ``TARGETS`` with a wrapper, at every
``rankloci`` module attribute that holds it (``t244.pencil_rank`` as well as
``pencils.pencil_rank``).  A wrapper appends one span -- id, parent id,
operation id, name, start and end in ns, entries -- to an in-memory list;
spans are written out when the run ends.  Self time of a span is its
duration minus the durations of its child spans, which never overlap
because the benchmark is single-threaded.

Scalar arithmetic (``rationals``) is far too fine-grained for spans; its
calls are counted by a deterministic profiler pass instead (``count_calls``).
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import itertools
import json
import sys
import time
from collections import defaultdict

TARGETS = {
    "linalg": ("rank", "rref", "nullspace", "solve", "inverse", "det"),
    "upoly": ("smith_invariant_factors",),
    "binary": ("gcd_binary", "squarefree_decompose", "has_multiple_root"),
    "apolarity": ("catalecticant", "apolar_theta", "binary_rank"),
    "forms": ("essential_variables", "power_of_quadric", "expand_power_sum", "verify_identity"),
    "pencils": ("pencil_rank", "kronecker_invariants", "invariant_factors", "minimal_indices",
                "normal_rank", "symbolic_det", "is_concise_tensor", "eigen_partition_spectrum"),
    "orbits": ("pencil_stabilizer", "form_stabilizer"),
    "t244": ("load_registry", "classify_t244", "discriminant_quartic", "cross_ratio_class"),
    "cli": ("main",),
}
# matrix-taking functions whose rows x cols are summed as "entries"
ENTRIES = ("linalg.rank", "linalg.rref")
OP = "bench.op"  # the benchmark's own span around one operation

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _size(A):
    return len(A) * len(A[0]) if A and A[0] else 0


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._op = 0
        self.last_op = 0
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        counted = name in ENTRIES
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            entries = _size(args[0]) if counted else 0
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, tracer._op, name, t0, t1, entries))

        return traced

    def run_op(self, call):
        """Run one operation under a root span; its id is the operation id."""
        self._op = self.last_op = op = next(self._ids)
        self._stack.append(op)
        t0 = time.perf_counter_ns()
        try:
            return call()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((op, 0, op, OP, t0, t1, 0))
            self._op = 0

    def install(self):
        import rankloci  # noqa: F401  (loads every submodule)
        import rankloci.cli  # noqa: F401

        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "rankloci" or key.startswith("rankloci."))]
        for short, names in TARGETS.items():
            module = sys.modules[f"rankloci.{short}"]
            for fname in names:
                orig = getattr(module, fname)
                traced = self.wrap(f"{short}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, traced)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id parent op name start_ns end_ns entries\n")
            for s in self.spans:
                fh.write(" ".join(map(str, s)) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [(int(a), int(b), int(c), d, int(e), int(f), int(g))
                for a, b, c, d, e, f, g in (line.split() for line in fh)]


def reparent(spans, op, id_offset):
    """Graft a child process's spans under operation span ``op``.  Both
    processes read the same monotonic clock, so the times stay comparable."""
    return [(sid + id_offset, op if par == 0 else par + id_offset, op, name, t0, t1, entries)
            for sid, par, _, name, t0, t1, entries in spans]


EMPTY = {"calls": 0, "self_ns": 0, "total_ns": 0, "entries": 0}


def aggregate(spans):
    """Per span name: calls, self and total ns, entries; plus the number of
    spans whose children outlast them (nonzero only if nesting broke)."""
    covered = defaultdict(int)
    for sid, parent, _, _, t0, t1, _ in spans:
        covered[parent] += t1 - t0
    layers = defaultdict(lambda: dict(EMPTY))
    negative = 0
    for sid, _, _, name, t0, t1, entries in spans:
        own = (t1 - t0) - covered[sid]
        negative += own < 0
        a = layers[name]
        a["calls"] += 1
        a["self_ns"] += own
        a["total_ns"] += t1 - t0
        a["entries"] += entries
    return {"layers": dict(layers), "negative_self": negative}


# -- deterministic call counts ---------------------------------------------------


def _count_targets():
    from rankloci import rationals

    return {
        "rationals.fraction_new.calls": fractions.Fraction.__new__.__code__,
        "rationals.rat.calls": rationals.rat.__code__,
        "rationals.parse_rational.calls": rationals.parse_rational.__code__,
        "rationals.rat_str.calls": rationals.rat_str.__code__,
    }


COUNT_NAMES = ("rationals.fraction_new.calls", "rationals.gcd.calls", "rationals.rat.calls",
               "rationals.parse_rational.calls", "rationals.rat_str.calls")


def count_calls(run):
    """Exact call counts of the scalar layer while ``run()`` executes, from
    cProfile, which records every call (Python and built-in) it sees."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    by_code = {code: name for name, code in _count_targets().items()}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            if "math.gcd" in code:
                counts["rationals.gcd.calls"] += entry.callcount
        elif code in by_code:
            counts[by_code[code]] += entry.callcount
    return counts


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
