"""End-to-end tests of the command line frontend.

Everything runs in-process through `run`, capturing stdout, so the exit
code contract and the output formats are tested exactly as a shell user
sees them.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermibox.cli import run
from fermibox.kernels import kernel_spec, parse_kernel_spec
from fermibox.thermo import solve_lambda


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _is_float(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def csv_body(text):
    """(comment lines, column row or None, data rows as string lists).

    The column row is the first one whose first field is not a number, so a
    data row starting with, say, 8.5e-06 stays a data row, and an empty
    configuration (a blank line) is never the column row.
    """
    comments, columns, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None and line and not _is_float(line.split(",")[0]):
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, columns, rows


# ---------------------------------------------------------------------------
# documented examples


def test_spectrum_dirichlet_first_three_energies():
    code, out, _ = run_cli(["spectrum", "--bc", "dirichlet", "--count", "3"])
    assert code == 0
    doc = json.loads(out)
    energies = [m["E"] for m in doc["modes"]]
    assert_allclose(energies, [0.25, 1.0, 2.25], rtol=1e-10)
    kinds = {m["kind"] for m in doc["modes"]}
    assert kinds == {"trig"}


def test_kernel_eval_sine_at_origin_is_one():
    code, out, _ = run_cli(["kernel", "eval", "--spec",
                            '{"Limit":{"Sine":{}}}', "--grid", "0:0:1,0:0:1"])
    assert code == 0
    _, columns, rows = csv_body(out)
    assert columns == ["x", "y", "re", "im"]
    assert len(rows) == 1
    assert float(rows[0][2]) == 1.0
    assert float(rows[0][3]) == 0.0


def test_verify_finite_t_passes_against_committed_baseline():
    code, out, _ = run_cli(["verify", "--study", "finite-t", "--c", "1",
                            "--sizes", "25,50,100"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["key"] == "c=1.0"
    assert all(d < 1e-12 for d in doc["distances"])


# ---------------------------------------------------------------------------
# exit code contract


# each malformed spec with the field or fault its usage error must name
MALFORMED_SPECS = {
    '{"Group":{"G":"U"}}': "missing field 'N'",
    '{"FiniteT":{"source":"periodic","T":1}}': "missing field 'mu'",
    '{"GroundState":{"source":5,"N":3}}': "field 'source'",
    '{"GroundState":{"source":{"x":1},"N":3}}': "'preset'",
    '{"Limit":{"RobinEdge":{}}}': "missing field 'c'",
    '{"Group":{"G":"U","N":2.5}}': "field 'N' must be an integer",
    '{"Limit":{"DeltaEdge":{"c":"x"}}}': "field 'c' must be a number",
    '{"Group":5}': "'Group' must hold an object",
    '{"Limit":{}}': "limit spec must carry exactly one variant",
}


def test_exit_codes_usage_numerical_baseline():
    cases = [
        (["spectrum", "--bc", "dirichlet", "--count", "2", "--bogus"], 1),
        ([], 1),
        (["kernel", "eval", "--spec", '{"Limit":{"Wat":{}}}',
          "--grid", "0:1:2,0:1:2"], 1),
        (["kernel", "eval", "--spec", '{"Limit":{"Sine":{}}}',
          "--grid", "0:1,0:1:2"], 1),
        (["spectrum", "--bc", "dirichlet", "--count", "2", "--seed", "-1"], 1),
        (["km", "density", "--family", "C", "--t", "1.0",
          "--points", "1.0,1.0,2.0"], 2),
        (["km", "mcmc", "--family", "A", "--t", "0", "--n", "3",
          "--steps", "10"], 1),
        (["km", "mcmc", "--family", "A", "--t", "-1", "--n", "3",
          "--steps", "10"], 1),
        # non-finite flag values are usage errors, never hangs or tracebacks
        (["sample", "--kind", "gc", "--bc", "periodic", "--t", "nan",
          "--mu", "1"], 1),
        (["sample", "--kind", "gc", "--bc", "periodic", "--t", "inf",
          "--mu", "1"], 1),
        (["sample", "--kind", "gc", "--bc", "periodic", "--t", "1",
          "--mu", "nan"], 1),
        (["kernel", "eval", "--spec",
          '{"FiniteT":{"source":"periodic","T":NaN,"mu":1}}',
          "--grid", "0:1:2,0:1:2"], 1),
        (["spectrum", "--bc", "dirichlet", "--emax", "nan"], 1),
        (["spectrum", "--bc", "dirichlet", "--emax", "inf"], 1),
        (["km", "mcmc", "--family", "A", "--t", "1", "--n", "3",
          "--steps", "10", "--step", "nan"], 1),
        (["km", "mcmc", "--family", "A", "--t", "nan", "--n", "3",
          "--steps", "10"], 1),
        (["km", "mcmc", "--family", "A", "--t", "inf", "--n", "3",
          "--steps", "10"], 1),
        (["mu-solve", "--bc", "dirichlet", "--t", "nan", "--target", "3"], 1),
        (["lambda-solve", "--c", "nan"], 1),
        (["verify", "--study", "finite-t", "--c", "nan"], 1),
        (["verify", "--study", "bulk", "--bc", "neumann",
          "--sizes", "25,50"], 3),
        # finite but huge: the certified thermal cut would pass its ceiling
        (["sample", "--kind", "gc", "--bc", "periodic", "--t", "1e300",
          "--mu", "1"], 1),
        (["sample", "--kind", "gc", "--bc", "periodic", "--t", "1",
          "--mu", "1e300"], 1),
        # past the solver's mode ceiling: refused before any scan
        (["spectrum", "--bc", "dirichlet", "--emax", "1e12"], 1),
        (["spectrum", "--bc", "dirichlet", "--count", "100000"], 1),
        (["sample", "--kind", "gc", "--bc", "robin:1", "--t", "1e12",
          "--mu", "1"], 1),
        # repulsive couplings cannot bind: no bound-state scan to the guard
        (["spectrum", "--bc", "robin:3.14159", "--count", "3"], 0),
        (["spectrum", "--bc", "dirichlet_robin:3.14159", "--count", "3"], 0),
        (["spectrum", "--bc", "delta:50000", "--count", "3"], 0),
        # removed flags
        (["spectrum", "--bc", "dirichlet", "--count", "2", "--threads", "2"], 1),
        (["sample", "--kind", "haar-u", "--n", "3", "--group", "U"], 1),
        # malformed kernel and limit specs are usage errors, never tracebacks
        *((["kernel", "eval", "--spec", spec, "--grid", "0:1:2,0:1:2"], 1)
          for spec in MALFORMED_SPECS),
        (["verify", "--study", "edge", "--bc", "dirichlet",
          "--limit", '{"Limit":{}}'], 1),
        (["verify", "--study", "edge", "--bc", "robin:1", "--sizes", "25,50",
          "--limit", '{"Limit":{"RobinEdge":{}}}'], 1),
        # an output that cannot be written
        (["lambda-solve", "--c", "1", "--out", "/nonexistent/x.json"], 1),
    ]
    for argv, want in cases:
        code, _, err = run_cli(argv)
        assert code == want, (argv, err)


def test_malformed_specs_name_their_fault():
    for spec, message in MALFORMED_SPECS.items():
        code, out, err = run_cli(["kernel", "eval", "--spec", spec, "--grid", "0:1:2,0:1:2"])
        assert (code, out) == (1, ""), spec
        assert err.startswith("usage error: ") and message in err, (spec, err)
    code, _, err = run_cli(["verify", "--study", "edge", "--bc", "dirichlet",
                            "--limit", '{"Limit":{}}'])
    assert code == 1
    assert err == "usage error: limit spec must carry exactly one variant\n"


def test_help_exits_zero():
    for argv in (["--help"], ["spectrum", "--help"], ["km", "--help"]):
        code, out, _ = run_cli(argv)
        assert code == 0


def test_edge_verify_rejects_mismatched_pairing():
    code, _, err = run_cli(["verify", "--study", "edge", "--bc", "dirichlet",
                            "--x0", "0", "--limit",
                            '{"Limit":{"BesselPlus":{}}}', "--sizes", "25,50"])
    assert code == 1
    assert "does not pair" in err


# ---------------------------------------------------------------------------
# config header and round trips


def test_json_output_embeds_resolved_config_and_hash():
    code, out, _ = run_cli(["lambda-solve", "--c", "2.5"])
    assert code == 0
    doc = json.loads(out)
    cfg = doc["config"]
    assert cfg["command"] == "lambda-solve"
    assert cfg["c"] == 2.5
    assert cfg["seed"] == 0 and cfg["out"] is None
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    assert doc["config_hash"] == digest


def test_csv_header_carries_config_and_hash():
    code, out, _ = run_cli(["sample", "--kind", "haar-u", "--n", "3",
                            "--samples", "2", "--seed", "11"])
    assert code == 0
    comments, _, rows = csv_body(out)
    cfg_line = next(c for c in comments if c.startswith("# config: "))
    cfg = json.loads(cfg_line[len("# config: "):])
    assert cfg["command"] == "sample" and cfg["seed"] == 11
    hash_line = next(c for c in comments if c.startswith("# config_hash: "))
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    assert hash_line.split()[-1] == digest
    assert len(rows) == 2


def test_kernel_eval_json_spec_round_trips():
    spec = '{"Limit":{"RobinEdge":{"c":0.75}}}'
    code, out, _ = run_cli(["kernel", "eval", "--spec", spec,
                            "--grid", "0.1:1:3,0.1:1:3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    again = kernel_spec(parse_kernel_spec(doc["spec"]))
    assert again == doc["spec"]
    assert len(doc["rows"]) == 9


def test_negative_grid_axes_in_both_spellings(tmp_path):
    target = tmp_path / "grid.csv"
    for argv in (["kernel", "eval", "--spec", '{"Limit":{"Sine":{}}}',
                  "--grid", "-1:1:3,-1:1:3"],
                 ["verify", "--study", "bulk", "--bc", "dirichlet",
                  "--sizes", "25,50", "--grid", "-2:2:33"]):
        outputs = []
        for glued in (False, True):
            spelled = argv[:-2] + ["--grid=" + argv[-1]] if glued else argv
            code, _, err = run_cli(spelled + ["--out", str(target)])
            assert code == 0, (spelled, err)
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]


def test_out_flag_writes_the_same_payload(tmp_path):
    target = tmp_path / "modes.json"
    code, out, _ = run_cli(["spectrum", "--bc", "neumann", "--count", "4",
                            "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["modes"]) == 4
    assert doc["modes"][0]["E"] == pytest.approx(0.0, abs=1e-10)


def _text(v):
    """A JSON value as the CSV writer prints it; for floats this is bitwise."""
    if isinstance(v, bool):
        return str(v).lower()
    return repr(v) if isinstance(v, float) else str(v)


def _csv_and_json(argv):
    """(notes, rows as text, config_hash) of the CSV run and the JSON document."""
    code, csv_out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0, argv
    code, json_out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0, argv
    comments, _, rows = csv_body(csv_out)
    notes = dict(c[2:].split(": ", 1) for c in comments if ": " in c)
    rows = [[] if r == [""] else r for r in rows]
    return notes, rows, notes.pop("config_hash"), json.loads(json_out)


def test_csv_and_json_carry_the_same_numbers():
    def same(rows, values):
        assert rows == [[_text(v) for v in row] for row in values]

    notes, rows, digest, doc = _csv_and_json(["spectrum", "--bc", "robin:-2.5", "--count", "4"])
    same(rows, [(m["k"], m["E"], m["kind"], *m["a"], *m["b"]) for m in doc["modes"]])
    assert [m["kind"] for m in doc["modes"]].count("hyperbolic") == 2
    assert json.loads(notes["bc"]) == doc["bc"] and digest == doc["config_hash"]

    notes, rows, digest, doc = _csv_and_json(
        ["kernel", "eval", "--spec",
         '{"GroundState":{"source":{"preset":"robin","params":[1.0]},"N":3}}',
         "--grid", "-1:6:4,0:6:3"])
    same(rows, doc["rows"])
    assert json.loads(notes["spec"]) == doc["spec"] and digest == doc["config_hash"]

    for argv, keys in ((["mu-solve", "--bc", "periodic", "--t", "4", "--target", "5"],
                        ("mu", "residual")),
                       (["lambda-solve", "--c", "0.3"], ("lambda", "residual")),
                       (["km", "density", "--family", "A", "--t", "1",
                         "--points", "1.0,2.5,4.0"], ("log_weight", "sign"))):
        _, rows, digest, doc = _csv_and_json(argv)
        same(rows, [[doc[k] for k in keys]])
        assert digest == doc["config_hash"]

    for argv in (["sample", "--kind", "dpp", "--bc", "dirichlet", "--n", "4",
                  "--samples", "3", "--seed", "21"],
                 # at mu = -3 most draws are empty: blank CSV lines
                 ["sample", "--kind", "gc", "--bc", "periodic", "--t", "2",
                  "--mu", "-3", "--samples", "12", "--seed", "0"],
                 ["sample", "--kind", "gc", "--bc", "periodic", "--t", "2",
                  "--target", "2", "--samples", "12", "--seed", "5"]):
        _, rows, digest, doc = _csv_and_json(argv)
        same(rows, doc["configurations"])
        assert len(rows) == int(argv[-3]) and digest == doc["config_hash"]
    assert min(map(len, rows)) != max(map(len, rows))

    _, rows, digest, doc = _csv_and_json(
        ["km", "mcmc", "--family", "C", "--t", "0.5", "--n", "3", "--steps", "60",
         "--thin", "20", "--burn", "5", "--seed", "3"])
    same(rows, [(5 + 20 * i, doc["acceptance"], *r) for i, r in enumerate(doc["chain"])])
    assert len(rows) == 3 and digest == doc["config_hash"]

    notes, rows, digest, doc = _csv_and_json(
        ["verify", "--study", "finite-t", "--c", "1", "--sizes", "25,50"])
    checks = doc["baseline"]["checks"]
    same(rows, [(c["size"], c["distance"], c["bound"], c["ok"]) for c in checks])
    assert [c["distance"] for c in checks] == doc["distances"]
    assert notes["key"] == doc["key"] and notes["passed"] == str(doc["passed"])
    assert digest == doc["config_hash"]


# ---------------------------------------------------------------------------
# solver subcommands


def test_mu_solve_residual_is_tiny():
    code, out, _ = run_cli(["mu-solve", "--bc", "periodic", "--t", "4.0",
                            "--target", "5.0"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["residual"]) < 1e-9
    assert np.isfinite(doc["mu"])


def test_lambda_solve_matches_library():
    code, out, _ = run_cli(["lambda-solve", "--c", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == solve_lambda(1.0)
    assert abs(doc["residual"]) < 1e-10


def test_spectrum_csv_format():
    code, out, _ = run_cli(["spectrum", "--bc", "periodic", "--count", "5",
                            "--format", "csv"])
    assert code == 0
    _, columns, rows = csv_body(out)
    assert columns[:3] == ["k", "E", "kind"]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)


# the two bound states of robin:-2.5, one double 1e-8 from splitting, as
# printed since roots are bisected on the level count: (E, a, b), with a and b
# the (cosh, sinh) coefficients of a basis of the double taken at its midpoint
ROBIN_BOUND = (
    (-9.057509621834772, (1.7348109440429973, 7.3324821303078665e-25),
     (-1.7348109227659798, 7.3324821303078665e-25)),
    (-9.057509621834772, (1.7348113258088314, -7.332480426777077e-25),
     (-1.7348113470858537, -7.332480426777077e-25)),
)


def test_spectrum_prints_bound_states_bitwise():
    argv = ["spectrum", "--bc", "robin:-2.5", "--count", "4"]
    code, out, _ = run_cli(argv)
    assert code == 0
    modes = json.loads(out)["modes"]
    assert [m["kind"] for m in modes] == ["hyperbolic", "hyperbolic", "trig", "trig"]
    for m, (e, a, b) in zip(modes, ROBIN_BOUND):
        assert (m["E"], m["a"], m["b"]) == (e, list(a), list(b))
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 0
    _, columns, rows = csv_body(out)
    assert columns == ["k", "E", "kind", "a_re", "a_im", "b_re", "b_im"]
    for k, (row, (e, a, b)) in enumerate(zip(rows, ROBIN_BOUND)):
        assert row == [str(k), repr(e), "hyperbolic", *map(repr, a + b)]


# ---------------------------------------------------------------------------
# samplers through the CLI


def test_sample_dpp_deterministic_per_seed():
    argv = ["sample", "--kind", "dpp", "--bc", "dirichlet", "--n", "4",
            "--samples", "3", "--seed", "21"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    _, _, rows = csv_body(out1)
    arr = np.array([[float(v) for v in r] for r in rows])
    assert arr.shape == (3, 4)
    assert np.all(np.diff(arr, axis=1) > 0)
    _, out3, _ = run_cli(argv[:-1] + ["22"])
    assert out3 != out1


def test_sample_gc_rows_vary_in_length():
    code, out, _ = run_cli(["sample", "--kind", "gc", "--bc", "periodic",
                            "--t", "2.0", "--target", "4.0",
                            "--samples", "40", "--seed", "5"])
    assert code == 0
    _, _, rows = csv_body(out)
    counts = [len(r) if r != [""] else 0 for r in rows]
    assert len(counts) == 40
    assert min(counts) != max(counts)
    assert abs(np.mean(counts) - 4.0) < 1.5
    pts = [float(v) for r in rows if r != [""] for v in r]
    assert all(0.0 <= p < 2 * np.pi for p in pts)


def test_km_density_rejects_nan_points():
    for family in ("A", "B"):
        code, out, err = run_cli(["km", "density", "--family", family, "--t", "1.0",
                                  "--points", "nan,1.0,2.0"])
        assert code == 1 and out == "", family
        assert "finite" in err


def test_km_mcmc_csv_chain_layout():
    code, out, _ = run_cli(["km", "mcmc", "--family", "C", "--t", "0.5",
                            "--n", "3", "--steps", "200", "--thin", "50",
                            "--burn", "20", "--seed", "3"])
    assert code == 0
    _, columns, rows = csv_body(out)
    assert columns == ["step", "acceptance", "x1", "x2", "x3"]
    steps = [int(r[0]) for r in rows]
    assert steps == [20 + 50 * i for i in range(len(rows))]
    rates = {r[1] for r in rows}
    assert len(rates) == 1
    arr = np.array([[float(v) for v in r[2:]] for r in rows])
    assert np.all(np.diff(arr, axis=1) > 0)
    assert np.all((arr > 0) & (arr < np.pi))


# ---------------------------------------------------------------------------
# figure reproduction


def test_density_figure_vanishes_at_absorbing_wall():
    code, out, _ = run_cli(["reproduce-figure", "dirichlet_robin_density"])
    assert code == 0
    _, columns, rows = csv_body(out)
    assert columns == ["x", "density", "dirichlet_edge", "robin_edge"]
    arr = np.array([[float(v) for v in r] for r in rows])
    assert arr[0, 1] < 1e-12
    assert arr[-1, 1] > 1.0
    # the overlays track the density near their own edges at N=7 accuracy
    assert np.max(np.abs(arr[:20, 1] - arr[:20, 2])) < 0.05
    assert np.max(np.abs(arr[-20:, 1] - arr[-20:, 3])) < 0.15


def test_density_figure_bit_identical():
    _, out1, _ = run_cli(["reproduce-figure", "dirichlet_robin_density"])
    _, out2, _ = run_cli(["reproduce-figure", "dirichlet_robin_density"])
    assert out1 == out2


def test_two_point_figure_three_sigma_and_determinism():
    argv = ["reproduce-figure", "finite_t_two_point"]
    code, out, _ = run_cli(argv)
    assert code == 0
    _, _, rows = csv_body(out)
    emp = [r for r in rows if r[0] == "empirical"]
    assert len(emp) == 24
    vals = np.array([float(r[2]) for r in emp])
    errs = np.array([float(r[3]) for r in emp])
    refs = np.array([float(r[4]) for r in emp])
    z = (vals - refs) / errs
    assert np.max(np.abs(z)) <= 3.0
    # overlays: the thermal curve differs visibly from the zero-T one
    fts = {float(r[1]): float(r[2]) for r in rows if r[0] == "finite_t_sine"}
    sine = {float(r[1]): float(r[2]) for r in rows if r[0] == "sine"}
    assert set(fts) == set(sine)
    gap = max(abs(fts[s] - sine[s]) for s in fts)
    assert gap > 0.05
    assert fts[0.0] < 0.05
    # same seed, identical bytes; new seed, new dots
    code, again, _ = run_cli(argv)
    assert code == 0
    assert again == out
    code, other, _ = run_cli(argv + ["--seed", "1", "--samples", "1000"])
    assert code == 0
    assert other != out


def test_two_point_figure_rejects_thin_sampling():
    code, _, err = run_cli(["reproduce-figure", "finite_t_two_point",
                            "--samples", "120"])
    assert code == 1
    assert "at least 1000" in err


def test_figure_rejects_json_format():
    code, _, err = run_cli(["reproduce-figure", "dirichlet_robin_density",
                            "--format", "json"])
    assert code == 1
    assert "CSV only" in err


def test_config_hash_ignores_out_and_format(tmp_path):
    # where and how a result is written does not change which result it is
    hashes = set()
    for i, fmt in enumerate((None, "json", "csv")):
        for name in ("a", "b"):
            out = tmp_path / f"{name}{i}"
            argv = ["spectrum", "--bc", "dirichlet", "--count", "3", "--out", str(out)]
            code, _, _ = run_cli(argv + (["--format", fmt] if fmt else []))
            assert code == 0
            text = out.read_text()
            if text.startswith("{"):
                hashes.add(json.loads(text)["config_hash"])
            else:
                hashes.add(next(line.split()[-1] for line in text.splitlines()
                                if line.startswith("# config_hash: ")))
    assert len(hashes) == 1
    code, out, _ = run_cli(["spectrum", "--bc", "dirichlet", "--count", "4"])
    assert json.loads(out)["config_hash"] not in hashes
