"""Fresh-interpreter helper of the benchmark; ``run.py`` starts it with
PYTHONPATH pointing at the checkout's ``src``.

    child.py setup                     time import and registry load, print JSON
    child.py cli SPANS ARGV...         run ``rankloci.cli.main(ARGV)`` traced,
                                       write its spans to SPANS
    child.py count COUNTS ARGV...      run ``rankloci.cli.main(ARGV)`` under the
                                       call counter, write the counts to COUNTS

Stdout of the last two modes is the CLI's own, so it is checked against the
same goldens as an untraced run.
"""

import json
import os
import sys
import time


def setup():
    """CPU seconds to import rankloci and load the registry, and the
    reference kernel's time right after, measured in this process so that
    the caller can calibrate them (see calibration.py).  The kernel runs
    last, so that its imports do not shorten the measured ones."""
    t0 = time.process_time()
    import rankloci  # noqa: F401

    t1 = time.process_time()
    import rankloci.cli  # noqa: F401

    t2 = time.process_time()
    rankloci.t244.load_registry()
    t3 = time.process_time()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibration import calibrate

    print(json.dumps({"import_s": t1 - t0, "cli_import_s": t2 - t0,
                      "load_registry_s": t3 - t2, "setup_s": (t1 - t0) + (t3 - t2),
                      "reference_s": calibrate()}))
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return setup()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import rankloci.cli
    import spans

    out, cli_argv = argv[1], argv[2:]
    if mode == "cli":
        tracer = spans.Tracer()
        tracer.install()
        code = rankloci.cli.main(cli_argv)
        sys.stdout.flush()
        tracer.dump(out)
        return code
    if mode == "count":
        box = {}
        counts = spans.count_calls(lambda: box.setdefault("code", rankloci.cli.main(cli_argv)))
        spans.write_json(out, counts)
        return box["code"]
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
