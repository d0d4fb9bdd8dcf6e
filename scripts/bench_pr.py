"""Run the benchmark at a base revision and at the working tree, in pairs.

Usage (from anywhere in the repository):

    python3 scripts/bench_pr.py --base REV --out PATH [--pairs N]

REV is exported with ``git archive`` into a temporary directory.  Pair
i (seed i + 1, the same on both sides) runs ``benchmarks/run.py --trace 0
--seconds 30`` for every workload in both trees, the base first on even
pairs and the working tree first on odd ones, so drift of the machine's
speed falls on both sides alike.  PATH receives a JSON document with every
run's end-to-end metrics and, per workload and metric, the median and
interquartile range on each side, the head-over-base change in the worse
direction, the bound from ``BENCHMARK.json``, and how many pairs the head
won; plus the seeds, the two source digests and the tool versions.  Each
run also records every job's median ``run_s`` from the ``job NAME
mode=plain ... run_s=[...]`` lines ``benchmarks/run.py`` prints, and per
workload and job the report gives both sides' spread of those medians, the
head-over-base change and the head's wins; the change is printed too.  The
exit status is 1 if any run reported an incorrect output, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

from same_outputs import exit_on_sigterm, export

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 30
JOB_LINE = re.compile(r"job (\S+) mode=plain runs=\d+ ok=\d+ run_s=\[([^\]]*)\]")


def bench(tree: str, workload: str, seed: int) -> tuple[dict, dict]:
    """(provenance, result) of one benchmark run in one tree.

    The result gains ``job_run_s``: each job's median ``run_s`` over the
    run's successful repetitions (a job with none is left out).
    """
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    prov = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    result = json.loads(lines[-1])
    result["job_run_s"] = {m[1]: statistics.median(map(float, m[2].split()))
                           for m in map(JOB_LINE.fullmatch, lines) if m and m[2]}
    return prov, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: both sides' spread, the change and the head's wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        head = [r["head"]["metrics"][name]["value"] for r in runs]
        b, h = summary(base), summary(head)
        worse = sign * (h["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "base": b, "head": h,
                     "worse_by": worse, "within_bound": worse <= metric["bound"],
                     "head_wins": sum(sign * (y - x) < 0 for x, y in zip(base, head))}
    return out


def compare_jobs(runs: list[dict]) -> dict:
    """Per job timed on both sides in every pair: the spread of its median
    ``run_s`` on each side, the head-over-base change and the head's wins."""
    names = set.intersection(*(set(r[s]["job_run_s"]) for r in runs for s in ("base", "head")))
    out = {}
    for name in sorted(names):
        base = [r["base"]["job_run_s"][name] for r in runs]
        head = [r["head"]["job_run_s"][name] for r in runs]
        b, h = summary(base), summary(head)
        change = h["median"] / b["median"] - 1.0 if b["median"] else 0.0
        out[name] = {"base": b, "head": h, "change": change,
                     "head_wins": sum(y < x for x, y in zip(base, head))}
    return out


def main() -> int:
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="path of the JSON report")
    parser.add_argument("--pairs", type=int, default=5, help="run pairs per workload (default 5)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("need at least two pairs")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    base_commit = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base], check=True,
                                 capture_output=True, text=True).stdout.strip()

    runs = {w: [] for w in workloads}
    provenance = {}
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        export(base_commit, base)
        for i in range(args.pairs):
            seed = i + 1
            order = (("base", base), ("head", ROOT))[:: 1 if i % 2 == 0 else -1]
            for workload in workloads:
                run = {"seed": seed, "first": order[0][0]}
                for side, tree in order:
                    prov, run[side] = bench(tree, workload, seed)
                    provenance.setdefault(side, {k: prov[k] for k in (
                        "src_sha256", "python", "numpy", "scipy", "mpmath",
                        "openblas", "nproc", "affinity", "machine", "child_threads_env")})
                    gm = run[side]["metrics"]["job_s_gm"]["value"]
                    print(f"pair {i} {workload} {side}: correct={run[side]['correct']} "
                          f"job_s_gm={gm:.4f}", flush=True)
                runs[workload].append(run)

    provenance["base"]["git_commit"] = base_commit
    report = {"base": args.base, "pairs": args.pairs, "seconds": SECONDS, "trace": 0,
              "seeds": list(range(1, args.pairs + 1)), "provenance": provenance,
              "workloads": {w: {"compare": compare(runs[w], spec), "jobs": compare_jobs(runs[w]),
                                "runs": runs[w]}
                            for w in workloads}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w in workloads:
        for name, c in report["workloads"][w]["compare"].items():
            print(f"{w} {name}: base {c['base']['median']:.4g} head {c['head']['median']:.4g} "
                  f"worse_by {c['worse_by']:+.3f} (bound {c['bound']}) "
                  f"head wins {c['head_wins']}/{args.pairs}")
        for name, c in report["workloads"][w]["jobs"].items():
            print(f"{w} job {name}: run_s base {c['base']['median']:.4g} "
                  f"head {c['head']['median']:.4g} change {c['change']:+.1%} "
                  f"head wins {c['head_wins']}/{args.pairs}")
    correct = all(r[s]["correct"] for w in workloads for r in runs[w] for s in ("base", "head"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
