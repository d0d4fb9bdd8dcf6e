"""Run one fermibox CLI job in this fresh interpreter and report its cost.

Usage: python3 child.py REQUEST.json

The request names the checkout's ``src`` directory, the CLI argv, the
mode (``plain``; ``spans``: wrap every layer; ``memory``: kernel-call peak
memory only) and where to write the result and spans.  The result records
the time to import ``fermibox.cli`` and build its parser (set-up), the
wall time of ``fermibox.cli.run(argv)``, its exit code and this process's
peak resident set size.  A job that raises writes no result.
"""

import json
import os
import resource
import sys
import time


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, req["src"])
    import fermibox.cli as cli
    cli.build_parser()
    t1 = time.perf_counter()
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(req["src"], "fermibox"):
        raise SystemExit(f"imported fermibox from {cli.__file__}, not from {req['src']}")
    tracer = None
    if req["mode"] != "plain":
        import spans
        tracer = spans.Tracer()
        tracer.install(memory=req["mode"] == "memory")
    t2 = time.perf_counter()
    code = cli.run(req["argv"])
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.dump(req["spans"], req["job"])
    result = {"exit": code, "setup_s": t1 - t0, "run_s": t3 - t2,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
