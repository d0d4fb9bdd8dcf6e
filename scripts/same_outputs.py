"""Check that a revision and the working tree write byte-identical outputs.

Usage (from anywhere in the repository):

    python3 scripts/same_outputs.py --base REV [--workload W] [--seed N]

REV is checked out with ``git worktree`` into a temporary directory.  Every
job of the benchmark workload W (``benchmarks/jobs.build_jobs(W, N)``; all
three workloads when W is not given) then runs once in each tree, as
``fermibox.cli.run(argv)`` in a fresh interpreter with single-thread BLAS
and the same ``--out`` path, since every output file embeds its resolved
configuration.  Each job's exit code and output sha256 are printed for both
trees; the exit status is 1 if any job differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
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


def run_job(tree: str, argv: list[str], out: str) -> tuple[int, str]:
    """Exit code and output sha256 ("-" if no file) of one job in one tree."""
    if os.path.exists(out):
        os.remove(out)
    code = subprocess.run([sys.executable, "-c", CHILD, os.path.join(tree, "src"), *argv],
                          env=ENV, cwd=os.path.dirname(out),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if not os.path.exists(out):
        return code, "-"
    with open(out, "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one benchmark workload (default: all three)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload is None else (args.workload,)

    mismatches = 0
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
                    mismatches += not same
                    print(f"{'same' if same else 'DIFF'} {workload}/{job.name}: "
                          f"base exit {old[0]} {old[1]}, "
                          f"head exit {new[0]} {new[1]}", flush=True)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base],
                           check=True)
    print(f"{mismatches} job(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
