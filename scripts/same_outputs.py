"""Check that a revision and the working tree write byte-identical outputs.

Usage (from anywhere in the repository):

    python3 scripts/same_outputs.py --base REV [--workload W] [--seed N]

REV is checked out with ``git worktree`` into a temporary directory.  Every
job of the benchmark workload W (``benchmarks/jobs.build_jobs(W, N)``; all
three workloads when W is not given) then runs once in each tree, as
``fermibox.cli.run(argv)`` in a fresh interpreter with single-thread BLAS
and the same ``--out`` path, since every output file embeds its resolved
configuration.  Each job's exit code, output sha256 and data sha256 are
printed for both trees.  The data sha256 drops the config header first:
the ``# config:`` and ``# config_hash:`` lines of a CSV file, the
``config`` and ``config_hash`` keys of a JSON one.  So a change that only
adds or removes flags shows the same data.  The exit status is 1 if any
job's exit code or output bytes differ, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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


def run_job(tree: str, argv: list[str], out: str) -> tuple[int, str, str]:
    """Exit code, output sha256 and data sha256 ("-" if no file) of one job."""
    if os.path.exists(out):
        os.remove(out)
    code = subprocess.run([sys.executable, "-c", CHILD, os.path.join(tree, "src"), *argv],
                          env=ENV, cwd=os.path.dirname(out),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if not os.path.exists(out):
        return code, "-", "-"
    with open(out, "rb") as fh:
        raw = fh.read()
    return code, hashlib.sha256(raw).hexdigest(), hashlib.sha256(data_bytes(raw)).hexdigest()


def main() -> int:
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
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
                        base, args.base], check=True)
        try:
            for workload in workloads:
                for job in build_jobs(workload, args.seed):
                    argv = job.command(os.path.join(tmp, "out"))
                    old = run_job(base, argv, argv[-1])
                    new = run_job(ROOT, argv, argv[-1])
                    same = old == new
                    same_data = (old[0], old[2]) == (new[0], new[2])
                    mismatches += not same
                    data_mismatches += not same_data
                    label = "same" if same else "same data" if same_data else "DIFF"
                    print(f"{label} {workload}/{job.name}: "
                          f"base exit {old[0]} {old[1]} data {old[2]}, "
                          f"head exit {new[0]} {new[1]} data {new[2]}", flush=True)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base],
                           check=True)
    print(f"{mismatches} job(s) differ, {data_mismatches} in their data")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
