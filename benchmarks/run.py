"""fermibox benchmark: real CLI jobs, one fresh interpreter each.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload {sample,kernel,solve} --seed N \
        --seconds S --trace {0,1}

Each job is ``fermibox.cli.run(argv)`` in a child interpreter started by
``benchmarks/child.py``, with ``--out`` set to a file under
``.bench_runs/``.  Children run one at a time, so no cache lives across
jobs; that is the one-command-per-process pattern a user pays for.  Jobs
are repeated round-robin until each has used its share of ``--seconds``
(every job runs at least once), and each job's time is the median of its
repetitions.  Every output is checked against an oracle (checks.py).

``--trace 0`` prints the end-to-end metrics:

* ``job_s_gm``: geometric mean over jobs of each job's median run time;
* ``pass_s``: sum of the job medians, what running the whole list costs;
* ``setup_s``: median over all children of importing ``fermibox.cli`` and
  calling ``build_parser()``;
* ``peak_rss_mb``: largest child peak RSS (MiB);
* ``ok_frac``: share of job runs that exited 0 and passed their check.

``--trace 1`` alternates untraced and traced repetitions of each job and
prints the per-layer metrics from the traced ones (spans.py), the
untraced per-job medians as ``cli.<job>.s``, and ``trace.overhead_frac``
(traced over untraced ``pass_s``, minus one).  Kernel-call peak memory
comes from one further repetition per job with tracemalloc on inside
kernel calls only, whose times are not used.
Provenance and per-job figures go to earlier stdout lines and to
``.bench_runs/``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import spans
from jobs import ALL_JOB_NAMES, WORKLOADS, build_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_runs")
# every run must end within 180 s; stop starting children before that
HARD_LIMIT_S = 165.0
MIB = 1024.0                     # ru_maxrss is in KiB on Linux
# Children run single-threaded BLAS: on a small shared machine two BLAS
# threads made the same Haar job take 1.0 s or 1.4 s from run to run.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


@dataclass
class Record:
    job: str
    mode: str                    # plain, spans or memory (see child.py)
    ok: bool
    reason: str = ""
    setup_s: float = math.nan
    run_s: float = math.nan
    maxrss_kb: int = 0
    out_bytes: int = 0
    spans_path: str = ""


class Runner:
    """Starts children one at a time and checks what they write."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.verdicts: dict[tuple[str, str], str] = {}

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run(self, job, mode: str) -> Record:
        self.count += 1
        stem = os.path.join(self.workdir, f"{self.count:04d}-{job.name}")
        req = {"src": SRC, "argv": job.command(stem + ".out"), "mode": mode,
               "job": job.name, "result": stem + ".result",
               "spans": stem + ".spans"}
        with open(stem + ".req", "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        with open(stem + ".err", "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), stem + ".req"],
                                    cwd=ROOT, env={**os.environ, **CHILD_THREADS},
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return Record(job.name, mode, False, "killed at the run deadline")
        rec = Record(job.name, mode, False)
        if proc.returncode != 0 or not os.path.exists(req["result"]):
            rec.reason = f"child exited {proc.returncode}: {_tail(stem + '.err')}"
            return rec
        with open(req["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        rec.setup_s, rec.run_s, rec.maxrss_kb = res["setup_s"], res["run_s"], res["maxrss_kb"]
        rec.spans_path = req["spans"] if mode != "plain" else ""
        if res["exit"] != 0:
            rec.reason = f"exit code {res['exit']}: {_tail(stem + '.err')}"
            return rec
        try:
            with open(stem + ".out", "rb") as fh:
                data = fh.read()
        except OSError as err:
            rec.reason = f"no output file: {err}"
            return rec
        rec.out_bytes = len(data)
        os.remove(stem + ".out")
        key = (job.name, hashlib.sha256(data).hexdigest())
        if key not in self.verdicts:          # identical bytes, identical verdict
            try:
                job.check(data.decode("utf-8"))
                self.verdicts[key] = ""
            except (checks.CheckFailed, UnicodeDecodeError, ValueError,
                    KeyError, TypeError, IndexError) as err:
                self.verdicts[key] = f"check failed: {type(err).__name__}: {err}"
        rec.reason = self.verdicts[key]
        rec.ok = not rec.reason
        return rec


def _tail(path: str, limit: int = 400) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-limit:].strip().replace("\n", " | ")


def schedule(runner: Runner, jobs, modes, budget: float) -> list[Record]:
    """Round-robin repetitions until each (job, mode) has used its share.

    Every (job, mode) runs at least once; a job that fails is not repeated.
    """
    share = budget / (len(jobs) * len(modes))
    spent = {(j.name, m): 0.0 for j in jobs for m in modes}
    reps = dict.fromkeys(spent, 0)
    failed: set[str] = set()
    records: list[Record] = []
    start = time.perf_counter()
    while not runner.expired():
        soft_end = time.perf_counter() - start >= budget
        todo = [(j, m) for j in jobs for m in modes
                if j.name not in failed
                and (reps[(j.name, m)] == 0
                     or (spent[(j.name, m)] < share and not soft_end))]
        if not todo:
            break
        for job, mode in todo:
            if runner.expired():
                break
            t = time.perf_counter()
            rec = runner.run(job, mode)
            spent[(job.name, mode)] += time.perf_counter() - t
            reps[(job.name, mode)] += 1
            records.append(rec)
            if not rec.ok:
                failed.add(job.name)
                print(f"FAILED {job.name}: {rec.reason}", file=sys.stderr)
    for job in jobs:
        for mode in modes:
            if reps[(job.name, mode)] == 0 and job.name not in failed:
                records.append(Record(job.name, mode, False, "not run before the deadline"))
    return records


def memory_reps(runner: Runner, jobs, records) -> list[Record]:
    """One memory repetition of each job whose traced run called a kernel."""
    out = []
    for job in jobs:
        rec = next((r for r in records if r.job == job.name and r.mode == "spans" and r.ok), None)
        if rec and spans.load(rec.spans_path).by_name.get("kernels.kernel_call"):
            if runner.expired():
                out.append(Record(job.name, "memory", False, "not run before the deadline"))
                continue
            out.append(runner.run(job, "memory"))
    return out


def job_medians(records, jobs, mode: str) -> dict[str, float]:
    out = {}
    for job in jobs:
        times = [r.run_s for r in records if r.job == job.name and r.mode == mode and r.ok]
        if times:
            out[job.name] = statistics.median(times)
    return out


def end_to_end(records, jobs) -> dict[str, float]:
    med = job_medians(records, jobs, "plain")
    ok = [r for r in records if r.ok]
    return {
        "job_s_gm": math.exp(statistics.fmean(math.log(v) for v in med.values())) if med else 0.0,
        "pass_s": sum(med.values()),
        "setup_s": statistics.median(r.setup_s for r in ok) if ok else 0.0,
        "peak_rss_mb": max((r.maxrss_kb for r in ok), default=0) / MIB,
        "ok_frac": len(ok) / len(records),
    }


def per_layer(records, jobs) -> tuple[dict[str, float], dict[str, list]]:
    plain = job_medians(records, jobs, "plain")
    traced = job_medians(records, jobs, "spans")
    chosen, kept = [], {}
    for job in jobs:
        reps = sorted((r for r in records if r.job == job.name and r.mode == "spans" and r.ok),
                      key=lambda r: r.run_s)
        if reps:                 # the median traced repetition stands for the job
            rep = reps[(len(reps) - 1) // 2]
            js = spans.load(rep.spans_path)
            chosen.append(js)
            kept[job.name] = js.spans
    memory = [spans.load(r.spans_path) for r in records if r.mode == "memory" and r.ok]
    m = spans.layer_metrics(chosen, memory)
    for name in ALL_JOB_NAMES:
        m[f"cli.{name}.s"] = plain.get(name, 0.0)
    first = {}
    for r in records:
        if r.ok and r.mode == "plain":
            first.setdefault(r.job, r.out_bytes)
    m["cli.out_bytes"] = sum(first.values())
    both = [j.name for j in jobs if j.name in plain and j.name in traced]
    base = sum(plain[n] for n in both)
    m["trace.overhead_frac"] = sum(traced[n] for n in both) / base - 1.0 if base else 0.0
    return m, kept


def provenance(args, jobs) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):   # exported checkouts have none
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fermibox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "openblas": blas,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "child_threads_env": CHILD_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "jobs": {j.name: {"seed": j.seed, "argv": list(j.argv)} for j in jobs},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fermibox", "cli.py")):
        print(f"no fermibox sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    jobs = build_jobs(args.workload, args.seed)
    prov = provenance(args, jobs)
    print("provenance " + json.dumps(prov, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workdir, started + HARD_LIMIT_S)
        modes = ["plain", "spans"] if args.trace else ["plain"]
        records = schedule(runner, jobs, modes, args.seconds)
        if args.trace:
            records += memory_reps(runner, jobs, records)
        for job in jobs:
            for mode in modes:
                rs = [r for r in records if r.job == job.name and r.mode == mode]
                times = " ".join(f"{r.run_s:.4f}" for r in rs if r.ok)
                print(f"job {job.name} mode={mode} runs={len(rs)} "
                      f"ok={sum(r.ok for r in rs)} run_s=[{times}]")
        failed = sum(not r.ok for r in records)
        if args.trace:
            values, kept = per_layer(records, jobs)
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        else:
            values, kept = end_to_end(records, jobs), {}
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "metrics": values,
                       "records": [r.__dict__ for r in records]}, fh, indent=1)
        if kept:
            with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump(kept, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
