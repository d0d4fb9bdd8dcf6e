"""The benchmark's workloads: lists of fermibox CLI jobs and their checks.

Each job is one ``fermibox`` command line, run as ``fermibox.cli.run(argv)``
in a fresh interpreter with ``--out`` pointing at a file the job's check
reads.  Every job gets a ``--seed`` derived from the workload seed, so one
workload seed fixes every input.

Why these workloads (see BENCHMARK.json for the measured layer shares):

* ``sample``: exact draws.  The samplers and the mode evaluations they make
  do almost all the work here; no other workload samples.  Fixed-N
  projection and variable-N
  grand-canonical draws, closed-form and solver mode families, bound states,
  so a sampler change that wins on one family and loses on another shows.
* ``kernel``: grid evaluation and scaling studies.  Few, huge mode
  evaluations, limit-kernel quadrature and the CSV writer; carries the
  memory peak.
* ``solve``: scalar solves and chains (root scan, brentq, bisection over
  quad, pivoted QR per MCMC step).  No kernel grids and no sampling: the
  control for changes to those layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

TWO_PI = 2.0 * np.pi
ROBIN = 1.5707963267948966          # robin:pi/2, inward coefficient 1
ROBIN_BOUND = -2.5                  # attractive, two bound states
PI_SQ = 9.869604401089358


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]           # without --seed and --out
    check: Callable[[str], None]    # raises checks.CheckFailed
    seed: int

    def command(self, out: str) -> list[str]:
        return [*self.argv, "--seed", str(self.seed), "--out", out]


def job_seeds(seed: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, 0xFE])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]


def random_unitary_json(seed: int) -> str:
    """A Haar-random 2x2 boundary matrix in the CLI's boundary JSON form."""
    rng = np.random.default_rng([seed, 0xB0])
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    entries = [[float(v.real), float(v.imag)] for v in u.ravel()]
    return json.dumps({"label": "custom", "params": [], "entries": entries})


def _spec(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _grid(lo, hi, n) -> str:
    return f"{lo!r}:{hi!r}:{n},{lo!r}:{hi!r}:{n}"


def _sample_jobs(seeds) -> list[Job]:
    s = iter(seeds)
    return [
        Job("dpp_dirichlet_n100",
            ("sample", "--kind", "dpp", "--bc", "dirichlet", "--n", "100",
             "--samples", "10"),
            checks.check_dpp_dirichlet(100, 10), next(s)),
        Job("dpp_robin_n7",
            ("sample", "--kind", "dpp", "--bc", f"robin:{ROBIN!r}", "--n", "7",
             "--samples", "200"),
            checks.check_dpp_robin(ROBIN, 7, 200), next(s)),
        Job("dpp_robin_bound_n20",
            ("sample", "--kind", "dpp", "--bc", f"robin:{ROBIN_BOUND!r}", "--n", "20",
             "--samples", "20"),
            checks.check_dpp_robin(ROBIN_BOUND, 20, 20), next(s)),
        Job("gc_periodic_target",
            ("sample", "--kind", "gc", "--bc", "periodic", "--t", "1",
             "--target", "7", "--samples", "500"),
            checks.check_gc_periodic(7.0, 500), next(s)),
        Job("haar_u_n100",
            ("sample", "--kind", "haar-u", "--n", "100", "--samples", "200"),
            checks.check_haar_u(100, 200), next(s)),
        Job("fig_two_point",
            ("reproduce-figure", "finite_t_two_point", "--samples", "1000"),
            checks.check_two_point, next(s)),
    ]


def _kernel_jobs(seeds) -> list[Job]:
    s = iter(seeds)
    robin_src = {"preset": "robin", "params": [ROBIN]}
    delta_limit = {"Limit": {"DeltaEdge": {"c": 1.0}}}
    jobs = [
        Job("gs_dirichlet_n200",
            ("kernel", "eval", "--spec", _spec({"GroundState": {"source": "dirichlet", "N": 200}}),
             "--grid", _grid(0.0, TWO_PI, 200)),
            checks.check_gs_dirichlet(200), next(s)),
        Job("gs_robin_n100",
            ("kernel", "eval", "--spec", _spec({"GroundState": {"source": robin_src, "N": 100}}),
             "--grid", _grid(0.0, TWO_PI, 100)),
            checks.check_gs_robin(ROBIN, 100), next(s)),
    ]
    # negative axes must be glued to the flag: argparse reads a separate
    # "-2:..." token as an option and exits with a usage error
    seed = next(s)
    jobs.append(Job("lim_finite_t_sine",
                    ("kernel", "eval", "--spec", _spec({"Limit": {"FiniteTSine": {"c": 1.0, "lam": 3.0}}}),
                     "--grid=" + _grid(-2.0, 2.0, 60)),
                    checks.check_finite_t_sine(1.0, 3.0, seed), seed))
    seed = next(s)
    jobs.append(Job("lim_half_line_robin",
                    ("kernel", "eval", "--spec", _spec({"Limit": {"HalfLineRobin": {"c": 1.0, "e": PI_SQ}}}),
                     "--grid", _grid(0.1, 2.0, 40)),
                    checks.check_half_line_robin(1.0, PI_SQ, seed), seed))
    seed = next(s)
    jobs.append(Job("lim_delta_edge",
                    ("kernel", "eval", "--spec", _spec(delta_limit),
                     "--grid", _grid(0.1, 2.0, 60)),
                    checks.check_delta_edge(1.0, seed), seed))
    jobs += [
        Job("verify_bulk_robin",
            ("verify", "--study", "bulk", "--bc", f"robin:{ROBIN!r}"),
            checks.check_verify, next(s)),
        Job("verify_edge_delta",
            ("verify", "--study", "edge", "--bc", "delta:1.0", "--limit", _spec(delta_limit)),
            checks.check_verify, next(s)),
        Job("verify_finite_t",
            ("verify", "--study", "finite-t", "--c", "1", "--sizes", "25,50,100"),
            checks.check_verify, next(s)),
        Job("fig_density",
            ("reproduce-figure", "dirichlet_robin_density"),
            checks.check_density_figure, next(s)),
    ]
    return jobs


def _solve_jobs(seeds, workload_seed: int) -> list[Job]:
    s = iter(seeds)
    return [
        Job("spec_robin_count2000",
            ("spectrum", "--bc", f"robin:{ROBIN!r}", "--count", "2000"),
            checks.check_spectrum_count(ROBIN, 2000), next(s)),
        Job("spec_delta_emax",
            ("spectrum", "--bc", "delta:1.0", "--emax", "40000"),
            checks.check_spectrum_emax(40000.0, 0), next(s)),
        Job("spec_custom_emax",
            ("spectrum", "--bc", random_unitary_json(workload_seed), "--emax", "40000"),
            checks.check_spectrum_emax(40000.0, 2), next(s)),
        Job("mu_robin",
            ("mu-solve", "--bc", f"robin:{ROBIN!r}", "--t", "50", "--target", "40"),
            checks.check_mu(ROBIN, 50.0, 40.0, 256), next(s)),
        Job("lambda_c0p1", ("lambda-solve", "--c", "0.1"), checks.check_lambda(0.1), next(s)),
        Job("lambda_c10", ("lambda-solve", "--c", "10"), checks.check_lambda(10.0), next(s)),
        Job("km_mcmc_A",
            ("km", "mcmc", "--family", "A", "--t", "1", "--n", "7", "--steps", "5000"),
            checks.check_km_mcmc(7, 5000, 10, 0.0, TWO_PI, open_lo=False), next(s)),
        Job("km_mcmc_C",
            ("km", "mcmc", "--family", "C", "--t", "0.5", "--n", "5", "--steps", "5000"),
            checks.check_km_mcmc(5, 5000, 10, 0.0, np.pi, open_lo=True), next(s)),
        Job("km_density_B",
            ("km", "density", "--family", "B", "--t", "0.3", "--points", "0.5,1.0,2.0"),
            checks.check_km_density_b(0.3, np.array([0.5, 1.0, 2.0])), next(s)),
    ]


WORKLOADS = ("sample", "kernel", "solve")


def build_jobs(workload: str, seed: int) -> list[Job]:
    seeds = job_seeds(seed, 16)
    if workload == "sample":
        return _sample_jobs(seeds)
    if workload == "kernel":
        return _kernel_jobs(seeds)
    if workload == "solve":
        return _solve_jobs(seeds, seed)
    raise ValueError(f"unknown workload {workload!r}")


ALL_JOB_NAMES = tuple(j.name for w in WORKLOADS for j in build_jobs(w, 0))
