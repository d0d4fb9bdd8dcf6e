"""Check that a revision and the working tree write byte-identical outputs.

Usage (from anywhere in the repository):

    python3 scripts/same_outputs.py --base REV [--workload W] [--seed N]

REV is exported with ``git archive`` into a temporary directory.  Every
job of the benchmark workload W (``benchmarks/jobs.build_jobs(W, N)``; all
three workloads when W is not given) then runs once in each tree, as
``fermibox.cli.run(argv)`` in a fresh interpreter with single-thread BLAS
and the same ``--out`` path, since every output file embeds its resolved
configuration.  Each job then runs a second time in both trees with the
``--format`` it does not default to: csv when the base tree's first output
starts with ``{``, json otherwise.  (The figure jobs are CSV only, so they
exit 1 under ``--format json`` in both trees, which counts as the same.)
Each run's exit code, output sha256 and data sha256 are printed for both
trees, both formats on the job's line.  The data sha256 drops the config header first:
the ``# config:`` and ``# config_hash:`` lines of a CSV file, the
``config`` and ``config_hash`` keys of a JSON one.  So a change that only
adds or removes flags shows the same data.  When a job's data differ, the
largest absolute and relative difference over its numeric fields is printed
too (relative to the larger magnitude of the pair), or why the two outputs
cannot be compared field by field.  The exit status is 1 if any job's exit
code or output bytes differ in either format, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from jobs import WORKLOADS, build_jobs  # noqa: E402

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from fermibox.cli import run; sys.exit(run(sys.argv[2:]))")
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def data_bytes(raw: bytes) -> bytes:
    """The output without its config header lines (CSV) or keys (JSON)."""
    text = raw.decode("utf-8")
    if text.startswith("{"):
        doc = json.loads(text)
        doc.pop("config", None)
        doc.pop("config_hash", None)
        return json.dumps(doc, sort_keys=True, indent=2).encode()
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("# config:", "# config_hash:"))).encode()


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def fields(data: bytes) -> list:
    """The data as a flat list: numbers as floats, the text between them as text."""
    pieces = NUMBER.split(data.decode("utf-8"))
    return [float(p) if i % 2 else p for i, p in enumerate(pieces)]


def largest_difference(old: bytes, new: bytes) -> str:
    """The largest absolute and relative numeric difference between two outputs."""
    a, b = fields(old), fields(new)
    if len(a) != len(b):
        return f"{len(a)} vs {len(b)} fields"
    if a[::2] != b[::2]:
        return "the text between the numbers differs"
    worst_abs = worst_rel = 0.0
    for x, y in zip(a[1::2], b[1::2]):
        if x != y:
            diff = abs(x - y)
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    return f"max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}"


def run_job(tree: str, argv: list[str], out: str) -> tuple[int, str, str, bytes]:
    """Exit code, output sha256, data sha256 ("-" if no file) and data of one job."""
    if os.path.exists(out):
        os.remove(out)
    code = subprocess.run([sys.executable, "-c", CHILD, os.path.join(tree, "src"), *argv],
                          env=ENV, cwd=os.path.dirname(out),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if not os.path.exists(out):
        return code, "-", "-", b""
    with open(out, "rb") as fh:
        raw = fh.read()
    data = data_bytes(raw)
    return code, hashlib.sha256(raw).hexdigest(), hashlib.sha256(data).hexdigest(), data


def compare(base: str, argv: list[str]) -> tuple[bool, bool, str, bytes]:
    """Run one command line in both trees: (same bytes, same data, report,
    the base tree's data)."""
    out = argv[argv.index("--out") + 1]
    old, new = run_job(base, argv, out), run_job(ROOT, argv, out)
    same, same_data = old[:3] == new[:3], (old[0], old[2]) == (new[0], new[2])
    label = "same" if same else "same data" if same_data else "DIFF"
    detail = ""
    if not same_data and old[3] and new[3]:
        detail = f", {largest_difference(old[3], new[3])}"
    return (same, same_data,
            f"{label}: base exit {old[0]} {old[1]} data {old[2]}, "
            f"head exit {new[0]} {new[1]} data {new[2]}{detail}", old[3])


def export(rev: str, dest: str) -> None:
    """Write the files of revision `rev` into the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, so a running subprocess.run kills its
    child and TemporaryDirectory removes the export on the way out."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main() -> int:
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one benchmark workload (default: all three)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload is None else (args.workload,)

    mismatches = data_mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        export(args.base, base)
        for workload in workloads:
            for job in build_jobs(workload, args.seed):
                argv = job.command(os.path.join(tmp, "out"))
                first = compare(base, argv)
                other = "csv" if first[3].startswith(b"{") else "json"
                second = compare(base, argv + ["--format", other])
                same = first[0] and second[0]
                same_data = first[1] and second[1]
                mismatches += not same
                data_mismatches += not same_data
                label = "same" if same else "same data" if same_data else "DIFF"
                print(f"{label} {workload}/{job.name}: default {first[2]}; "
                      f"--format {other} {second[2]}", flush=True)
    print(f"{mismatches} job(s) differ, {data_mismatches} in their data")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
