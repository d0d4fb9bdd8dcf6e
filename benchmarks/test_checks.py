"""Check the checks: every job's output check passes on the real output and
fails on a corrupted copy of it, and a failed check counts against the run.

Run from the repository root:  python3 -m pytest benchmarks -q
(about 30 s; the two-point figure job alone takes ~18 s).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
from jobs import WORKLOADS, Job, build_jobs  # noqa: E402

SEED = 2024
JOBS = {j.name: j for w in WORKLOADS for j in build_jobs(w, SEED)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fermibox.cli import run

    out = {}
    tmp = tmp_path_factory.mktemp("outputs")
    for name, job in JOBS.items():
        path = str(tmp / f"{name}.out")
        assert run(job.command(path)) == 0, name
        with open(path, encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# corruptions: text -> text


def _split(text):
    lines = text[:-1].split("\n")
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    return lines, body


def _join(lines):
    return "\n".join(lines) + "\n"


def _edit_sample_row(text, fn, row=0):
    lines, body = _split(text)
    i = [k for k in body if lines[k]][row]
    vals = [float(v) for v in lines[i].split(",")]
    lines[i] = ",".join(repr(v) for v in fn(vals))
    return _join(lines)


def point_outside_domain(text):
    return _edit_sample_row(text, lambda v: v[:-1] + [6.3])


def unsorted_row(text):
    return _edit_sample_row(text, lambda v: [v[1], v[0]] + v[2:])


def short_row(text):
    return _edit_sample_row(text, lambda v: v[:-1])


def squeezed_density(text):
    lines, body = _split(text)
    for i in body:
        if lines[i]:
            lines[i] = ",".join(repr(float(v) / 2) for v in lines[i].split(","))
    return _join(lines)


def one_point_fewer_per_row(text):
    lines, body = _split(text)
    for i in body:
        if lines[i]:
            lines[i] = ",".join(lines[i].split(",")[:-1])
    return _join(lines)


def _edit_table(text, fn):
    """Apply fn(columns, rows) to the numeric table of a CSV with a header."""
    lines, body = _split(text)
    head = lines[body[0]].split(",")
    rows = [lines[i].split(",") for i in body[1:]]
    fn(head, rows)
    for i, r in zip(body[1:], rows):
        lines[i] = ",".join(r)
    return _join(lines)


def _bump(cell: str, delta: float) -> str:
    return repr(float(cell) + delta)


def kernel_value_off_1e6(text):
    # an off-diagonal entry of the real part
    return _edit_table(text, lambda h, rows: rows[1].__setitem__(2, _bump(rows[1][2], 1e-6)))


def kernel_diagonal_off_1e6(text):
    return _edit_table(text, lambda h, rows: rows[0].__setitem__(2, _bump(rows[0][2], 1e-6)))


def every_kernel_value_off_1e6(text):
    def fn(h, rows):
        for r in rows:
            r[2] = _bump(r[2], 1e-6)
    return _edit_table(text, fn)


def two_point_bin_off(text):
    def fn(h, rows):
        emp = [r for r in rows if r[0] == "empirical"]
        emp[10][2] = _bump(emp[10][2], 6 * float(emp[10][3]))
    return _edit_table(text, fn)


def sine_overlay_off_1e6(text):
    def fn(h, rows):
        sine = [r for r in rows if r[0] == "sine"]
        sine[50][2] = _bump(sine[50][2], 1e-6)
    return _edit_table(text, fn)


def density_scaled(text):
    def fn(h, rows):
        for r in rows:
            r[1] = repr(float(r[1]) * (1 + 1e-6))
    return _edit_table(text, fn)


def density_at_wall(text):
    return _edit_table(text, lambda h, rows: rows[0].__setitem__(1, "1e-06"))


def mcmc_unordered(text):
    def fn(h, rows):
        rows[5][2], rows[5][3] = rows[5][3], rows[5][2]
    return _edit_table(text, fn)


def mcmc_low_acceptance(text):
    def fn(h, rows):
        for r in rows:
            r[1] = "0.005"
    return _edit_table(text, fn)


def _edit_json(text, fn):
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def not_passed(text):
    return _edit_json(text, lambda d: d.update(passed=False))


def four_modes_missing(text):
    def fn(d):
        modes = d["modes"]
        del modes[len(modes) // 2: len(modes) // 2 + 4]
        for k, m in enumerate(modes):
            m["k"] = k
    return _edit_json(text, fn)


def energy_off_1e6(text):
    def fn(d):
        m = d["modes"][len(d["modes"]) // 3]
        m["E"] *= 1 + 1e-6
    return _edit_json(text, fn)


def residual_large(text):
    return _edit_json(text, lambda d: d.update(residual=1e-6))


def mu_off(text):
    return _edit_json(text, lambda d: d.update(mu=d["mu"] + 1e-4))


def lambda_off_1e6(text):
    return _edit_json(text, lambda d: d.update({"lambda": d["lambda"] * (1 + 1e-6)}))


def log_weight_off_1e6(text):
    return _edit_json(text, lambda d: d.update(log_weight=d["log_weight"] + 1e-6))


SAMPLES = [point_outside_domain, unsorted_row, short_row, squeezed_density]
CORRUPTIONS = {
    "dpp_dirichlet_n100": SAMPLES,
    "dpp_robin_n7": SAMPLES,
    "dpp_robin_bound_n20": SAMPLES,
    "gc_periodic_target": [point_outside_domain, unsorted_row, squeezed_density,
                           one_point_fewer_per_row],
    "haar_u_n100": SAMPLES,
    "fig_two_point": [two_point_bin_off, sine_overlay_off_1e6],
    "gs_dirichlet_n200": [kernel_value_off_1e6, kernel_diagonal_off_1e6],
    "gs_robin_n100": [kernel_value_off_1e6, kernel_diagonal_off_1e6],
    "lim_finite_t_sine": [kernel_value_off_1e6, every_kernel_value_off_1e6],
    "lim_half_line_robin": [kernel_value_off_1e6, every_kernel_value_off_1e6],
    "lim_delta_edge": [kernel_value_off_1e6, every_kernel_value_off_1e6],
    "verify_bulk_robin": [not_passed],
    "verify_edge_delta": [not_passed],
    "verify_finite_t": [not_passed],
    "fig_density": [density_scaled, density_at_wall],
    "spec_robin_count2000": [four_modes_missing, energy_off_1e6],
    "spec_delta_emax": [four_modes_missing],
    "spec_custom_emax": [four_modes_missing],
    "mu_robin": [residual_large, mu_off],
    "lambda_c0p1": [lambda_off_1e6],
    "lambda_c10": [lambda_off_1e6],
    "km_mcmc_A": [mcmc_unordered, mcmc_low_acceptance],
    "km_mcmc_C": [mcmc_unordered, mcmc_low_acceptance],
    "km_density_B": [log_weight_off_1e6],
}


def test_every_job_has_corruptions():
    assert set(CORRUPTIONS) == set(JOBS)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_check_passes_on_real_output(outputs, name):
    JOBS[name].check(outputs[name])


@pytest.mark.parametrize("name,corrupt",
                         [(n, c) for n, cs in CORRUPTIONS.items() for c in cs],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_check_fails_on_corrupted_output(outputs, name, corrupt):
    bad = corrupt(outputs[name])
    assert bad != outputs[name]
    with pytest.raises(checks.CheckFailed):
        JOBS[name].check(bad)


def test_failed_check_counts_in_ok_frac(tmp_path):
    """A corrupted output fails its run, and the run counts it."""
    good = JOBS["km_density_B"]
    bad = Job(
        "km_density_B", good.argv,
        lambda text: good.check(log_weight_off_1e6(text)), good.seed)
    runner = bench.Runner(str(tmp_path), time.perf_counter() + 120)
    records = [runner.run(good, "plain"), runner.run(bad, "plain")]
    assert [r.ok for r in records] == [True, False]
    assert "check failed" in records[1].reason
    assert bench.end_to_end(records, [good])["ok_frac"] == 0.5


def test_spans_cover_every_job(tmp_path):
    """A traced job yields one root span and the per-layer metrics listed
    in BENCHMARK.json."""
    import spans

    job = JOBS["mu_robin"]
    runner = bench.Runner(str(tmp_path), time.perf_counter() + 120)
    rec = runner.run(job, "spans")
    assert rec.ok, rec.reason
    js = spans.load(rec.spans_path)
    roots = [s for s in js.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.run"]
    assert abs(sum(js.self_s) - js.root_s()) < 1e-9
    metrics, _ = bench.per_layer([rec], [job])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert listed == set(metrics)
    assert metrics["thermo.solve_mu.calls"] == 1
    assert metrics["spectral.solve_spectrum.calls"] == 1
    assert np.isclose(sum(v for k, v in metrics.items() if k.startswith("share.")), 1.0)
