"""Command line frontend for the library.

Every subcommand handler returns one `Result`, which `run` writes once as
machine-readable output (CSV with '#'-prefixed header lines, or JSON with
sorted keys) in the subcommand's default format or the one --format asks
for.  The output embeds the fully resolved configuration plus a short hash
of it, so any output file identifies the run that produced it.  Randomized
subcommands are deterministic for a fixed --seed.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 a
verification run that finished but missed its committed baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (_limit_form, bin_average, bulk_scaling_study, edge_scaling_study,
                       estimate_pair_correlation, finite_t_bulk_study)
from .baselines import compare_to_baseline, edge_key, study_key
from .boundary import BoundaryMatrix, make_preset
from .boundary import from_json as boundary_from_json
from .boundary import to_json as boundary_to_json
from .heatflow import FAMILIES, NonPositiveDeterminant, km_log_density, km_mcmc
from .kernels import (finite_t_modes, ground_state_kernel,
                      ground_state_modes, kernel_bessel, kernel_finite_t_sine,
                      kernel_robin_edge, kernel_sine, kernel_spec,
                      parse_kernel_spec)
from .sampling import (RngSpec, SamplerError, haar_eigenangles, make_rng,
                       sample_grand_canonical_many, sample_projection_many)
from .spectral import (DECAY, LINEAR, TRIG, NormalizationFailure,
                       RootSearchFailure, solve_spectrum)
from .thermo import BracketFailure, fermi_factor, polylog_half, solve_lambda, solve_mu

__all__ = ["RunConfig", "run", "main"]

TWO_PI = 2.0 * np.pi

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BASELINE = 3

_NUMERICAL_ERRORS = (RootSearchFailure, NormalizationFailure, BracketFailure,
                     SamplerError, NonPositiveDeterminant,
                     np.linalg.LinAlgError, FloatingPointError)


class UsageError(ValueError):
    """Bad flags or malformed inline specs."""


# ---------------------------------------------------------------------------
# resolved configuration


@dataclass(frozen=True)
class RunConfig:
    """One invocation after defaults: the subcommand and every flag value."""

    command: str
    options: tuple[tuple[str, object], ...]

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        skip = {"command", "handler"}
        opts = tuple(sorted((k, v) for k, v in vars(args).items()
                            if k not in skip and not k.startswith("_")))
        return cls(command=args.command, options=opts)

    def as_dict(self) -> dict:
        return {"command": self.command, **dict(self.options)}

    @property
    def hash(self) -> str:
        """Digest of the config with `out` and `format`, which do not decide
        the result, set to null: the printed config's when neither is given."""
        text = json.dumps({**self.as_dict(), "out": None, "format": None}, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


@dataclass(frozen=True)
class Result:
    """A handler's output in both formats: the JSON body (None if CSV only;
    numpy arrays become lists) and the CSV columns, rows and '#' notes."""

    default: str
    payload: dict | None
    columns: tuple = ()
    rows: object = ()
    notes: tuple = ()
    code: int = EXIT_OK


def _write(result: Result, args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    if (args.format or result.default) == "json":
        doc = {"config": cfg.as_dict(), "config_hash": cfg.hash, **result.payload}
        text = json.dumps(doc, sort_keys=True, indent=2, default=lambda a: a.tolist()) + "\n"
    else:
        lines = [f"# fermibox {cfg.command}",
                 f"# config: {json.dumps(cfg.as_dict(), sort_keys=True)}",
                 f"# config_hash: {cfg.hash}"]
        lines.extend(f"# {note}" for note in result.notes)
        if result.columns:
            lines.append(",".join(result.columns))
        rows = result.rows
        if isinstance(rows, np.ndarray) and rows.dtype == float:
            # repr is what _fmt writes for a float, without its per-value dispatch
            lines.extend(",".join(map(repr, row)) for row in rows.tolist())
        else:
            lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return result.code


# ---------------------------------------------------------------------------
# flag parsing helpers


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_bc(text: str) -> BoundaryMatrix:
    """A preset name, 'name:p1,p2', or a boundary JSON object."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return boundary_from_json(text)
        except (KeyError, TypeError, json.JSONDecodeError) as err:
            raise UsageError(f"bad boundary JSON: {err}") from None
    name, _, rest = text.partition(":")
    try:
        params = tuple(float(p) for p in rest.split(",")) if rest else ()
    except ValueError:
        raise UsageError(f"bad boundary parameters in {text!r}") from None
    return make_preset(name, *params)


def _parse_axis(text: str) -> np.ndarray:
    """'start:stop:count' -> uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid axis must be start:stop:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad grid axis {text!r}") from None
    if n < 1 or not np.isfinite(lo) or not np.isfinite(hi):
        raise UsageError(f"bad grid axis {text!r}")
    return np.linspace(lo, hi, n)


def _parse_grid2(text: str) -> tuple[np.ndarray, np.ndarray]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("grid must be two comma-separated axes, "
                         "x0:x1:n,y0:y1:m")
    return _parse_axis(parts[0]), _parse_axis(parts[1])


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"sizes must be comma-separated integers, "
                         f"got {text!r}") from None
    if not sizes:
        raise UsageError("empty size list")
    return sizes


def _parse_x0(text: str) -> float:
    aliases = {"pi": np.pi, "2pi": TWO_PI, "2*pi": TWO_PI}
    if text.strip().lower() in aliases:
        return aliases[text.strip().lower()]
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"bad coordinate {text!r}") from None


def _parse_points(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"points must be comma-separated floats, "
                         f"got {text!r}") from None


def _parse_spec(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"bad spec JSON: {err}") from None
    if not isinstance(obj, dict):
        raise UsageError("kernel spec must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# subcommand handlers


_KIND_NAMES = {TRIG: "trig", LINEAR: "linear", DECAY: "hyperbolic"}


def _cmd_spectrum(args: argparse.Namespace) -> Result:
    if (args.count is None) == (args.emax is None):
        raise UsageError("give exactly one of --count, --emax")
    bc = _parse_bc(args.bc)
    spectrum = (solve_spectrum(bc, count=args.count) if args.count is not None
                else solve_spectrum(bc, e_max=args.emax))
    fam = spectrum.modes
    # bound states print in the (cosh, sinh) basis: a = c1 + c2 q, b = c2 q - c1,
    # q = exp(-2 pi kappa), from the decaying pair (c1, c2) the family holds
    hyp = fam.kind == DECAY
    c1, c2 = fam.a[hyp], fam.b[hyp] * np.exp(-2.0 * np.pi * fam.w[hyp])
    a, b = fam.a.copy(), fam.b.copy()
    a[hyp], b[hyp] = c1 + c2, c2 - c1
    rows = [(k, e, _KIND_NAMES[c], ak.real, ak.imag, bk.real, bk.imag)
            for k, (e, c, ak, bk) in enumerate(zip(fam.energies.tolist(), fam.kind.tolist(),
                                                   a.tolist(), b.tolist()))]
    modes = [{"k": k, "E": e, "kind": kind, "a": [ar, ai], "b": [br, bi]}
             for k, e, kind, ar, ai, br, bi in rows]
    bc_json = boundary_to_json(bc)
    return Result("json", {"bc": json.loads(bc_json), "modes": modes},
                  ("k", "E", "kind", "a_re", "a_im", "b_re", "b_im"), rows,
                  (f"bc: {bc_json}", "E in units of the box quarter-wavenumber squared"))


def _cmd_kernel_eval(args: argparse.Namespace) -> Result:
    kern = parse_kernel_spec(_parse_spec(args.spec))
    xs, ys = _parse_grid2(args.grid)
    vals = np.asarray(kern(xs[:, None], ys[None, :]), dtype=complex)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    rows = np.column_stack([gx.ravel(), gy.ravel(), vals.real.ravel(), vals.imag.ravel()])
    spec = kernel_spec(kern)
    columns = ("x", "y", "re", "im")
    return Result("csv", {"spec": spec, "columns": list(columns), "rows": rows},
                  columns, rows, (f"spec: {json.dumps(spec, sort_keys=True)}",))


def _cmd_mu_solve(args: argparse.Namespace) -> Result:
    if args.t <= 0:
        raise UsageError("temperature must be positive")
    bc = _parse_bc(args.bc)
    energies = solve_spectrum(bc, count=args.modes).energies
    mu = solve_mu(energies, args.t, args.target)
    residual = float(np.sum(fermi_factor(energies, args.t, mu)) - args.target)
    return Result("json", {"mu": mu, "residual": residual}, ("mu", "residual"), [(mu, residual)])


def _cmd_lambda_solve(args: argparse.Namespace) -> Result:
    lam = solve_lambda(args.c)
    residual = float(polylog_half(lam) + 2.0 / np.sqrt(np.pi * args.c))
    return Result("json", {"lambda": lam, "residual": residual},
                  ("lambda", "residual"), [(lam, residual)])


def _cmd_sample(args: argparse.Namespace) -> Result:
    if args.samples < 1:
        raise UsageError("need at least one sample")
    rng = make_rng(RngSpec(args.seed))
    if args.kind in ("haar-u", "haar-so"):
        group = "U" if args.kind == "haar-u" else "SO"
        if args.n is None:
            raise UsageError("--n (matrix size) is required for Haar kinds")
        draws = haar_eigenangles(group, args.n, args.samples, rng)
    elif args.kind == "dpp":
        if args.bc is None or args.n is None:
            raise UsageError("--kind dpp needs --bc and --n")
        family = ground_state_modes(_parse_bc(args.bc), args.n)
        draws = sample_projection_many(family, args.samples, rng)
    else:  # gc
        if args.bc is None or args.t is None:
            raise UsageError("--kind gc needs --bc and --t")
        if (args.mu is None) == (args.target is None):
            raise UsageError("--kind gc needs exactly one of --mu, --target")
        bc = _parse_bc(args.bc)
        mu = args.mu
        if mu is None:
            energies = solve_spectrum(bc, count=args.modes).energies
            mu = solve_mu(energies, args.t, args.target)
        family = finite_t_modes(bc, args.t, mu)
        draws = sample_grand_canonical_many(family, args.t, mu, args.samples, rng)
    return Result("csv", {"configurations": draws}, (), draws,
                  ("one configuration per row, sorted, variable length",))


def _cmd_km_density(args: argparse.Namespace) -> Result:
    points = _parse_points(args.points)
    log_weight, sign = km_log_density(args.family, args.t, points)
    return Result("json", {"log_weight": log_weight, "sign": sign},
                  ("log_weight", "sign"), [(log_weight, sign)])


def _cmd_km_mcmc(args: argparse.Namespace) -> Result:
    rng = make_rng(RngSpec(args.seed))
    chain, rate = km_mcmc(args.family, args.t, args.n, args.steps, rng,
                          step=args.step, thin=args.thin, burn=args.burn)
    rows = [(args.burn + i * args.thin, rate, *row) for i, row in enumerate(chain)]
    columns = ("step", "acceptance", *(f"x{i + 1}" for i in range(args.n)))
    return Result("csv", {"acceptance": rate, "chain": chain}, columns, rows,
                  ("acceptance is the whole-chain rate",))


def _cmd_verify(args: argparse.Namespace) -> Result:
    grid = _parse_axis(args.grid) if args.grid else None
    sizes = _parse_sizes(args.sizes)
    if args.study == "finite-t":
        if args.c is None:
            raise UsageError("--study finite-t needs --c")
        report = finite_t_bulk_study(args.c, sizes, grid=grid)
        kind, key = "finite_t", f"c={repr(float(args.c))}"
    elif args.study == "bulk":
        if args.bc is None:
            raise UsageError("--study bulk needs --bc")
        bc = _parse_bc(args.bc)
        x0 = _parse_x0(args.x0 or "pi")
        report = bulk_scaling_study(bc, x0, sizes, grid=grid)
        kind, key = "bulk", study_key(bc.label, bc.params)
    else:  # edge
        if args.bc is None or args.limit is None:
            raise UsageError("--study edge needs --bc and --limit")
        bc = _parse_bc(args.bc)
        x0 = _parse_x0(args.x0 or "0")
        limit = _parse_spec(args.limit)
        tag, _ = _limit_form(limit)
        report = edge_scaling_study(bc, x0, limit, sizes, grid=grid)
        kind, key = "edge", edge_key(bc.label, bc.params, x0, tag)
    verdict = compare_to_baseline(kind, key, report)
    payload = {"study": args.study, "key": key, "sizes": report.sizes,
               "distances": report.distances, "fitted_rate": report.fitted_rate,
               "baseline": verdict, "passed": verdict["passed"]}
    rows = [(c["size"], c["distance"], c["bound"], c["ok"]) for c in verdict["checks"]]
    return Result("json", payload, ("size", "distance", "bound", "ok"), rows,
                  (f"key: {key}", f"passed: {verdict['passed']}"),
                  EXIT_OK if verdict["passed"] else EXIT_BASELINE)


# ---------------------------------------------------------------------------
# figure reproduction


def _figure_density(args: argparse.Namespace) -> Result:
    n = 7
    bc = make_preset("dirichlet_robin", np.pi / 2.0)
    kern = ground_state_kernel(bc, n)
    xs = np.linspace(0.0, TWO_PI, 281)
    density = np.asarray(kern(xs, xs)).real
    scale = n / TWO_PI
    hard = kernel_bessel(-1)
    elastic = kernel_robin_edge(1.0)
    u0 = scale * xs
    u1 = scale * (TWO_PI - xs)
    curve0 = scale * np.asarray(hard(u0, u0))
    curve1 = scale * np.asarray(elastic(u1, u1))
    rows = list(zip(xs, density, curve0, curve1))
    return Result("csv", None, ("x", "density", "dirichlet_edge", "robin_edge"), rows,
                  ("density of the 7-fermion ground state with an "
                   "absorbing left wall and an elastic right wall",
                   "edge columns are the two limit-curve overlays in "
                   "unrescaled units"))


def _figure_two_point(args: argparse.Namespace) -> Result:
    n, lam = 10, 10.0
    c = 4.0 / (np.pi * polylog_half(lam) ** 2)
    t = c * n * n
    mu = t * float(np.log(lam))
    family = finite_t_modes("periodic", t, mu)
    rng = make_rng(RngSpec(args.seed))
    draws = sample_grand_canonical_many(family, t, mu, args.samples, rng)

    s_max, bins = 3.0, 24
    edges = np.linspace(0.0, s_max * np.pi / n, bins + 1)
    est = estimate_pair_correlation(draws, edges, reduced=True)
    blow = np.pi / n
    s_dots = np.asarray(est.grid) / blow
    emp = est.values * blow ** 2
    err = est.stderr * blow ** 2

    fts = kernel_finite_t_sine(c, lam)
    sine = kernel_sine()

    def pair_density(kernel, s):
        return 1.0 - np.asarray(kernel(s, np.zeros_like(s))) ** 2

    reference = bin_average(lambda s: pair_density(fts, s), 0.0, s_max, bins)

    rows = [("empirical", s, v, e, r)
            for s, v, e, r in zip(s_dots, emp, err, reference)]
    s_fine = np.linspace(0.0, s_max, 301)
    rows.extend(("finite_t_sine", s, v, None, None)
                for s, v in zip(s_fine, pair_density(fts, s_fine)))
    rows.extend(("sine", s, v, None, None)
                for s, v in zip(s_fine, pair_density(sine, s_fine)))
    return Result("csv", None, ("kind", "s", "value", "stderr", "reference"), rows,
                  ("two-point function of the thermal circle gas, "
                   "separation in mean-spacing units",
                   f"scaled temperature c={repr(c)}, fugacity "
                   f"lambda={repr(lam)}, {args.samples} draws",
                   "empirical rows carry the bin-averaged reference "
                   "curve value"))


def _cmd_reproduce_figure(args: argparse.Namespace) -> Result:
    if args.format == "json":
        raise UsageError("figure data is CSV only")
    if args.which == "dirichlet_robin_density":
        return _figure_density(args)
    return _figure_two_point(args)


# ---------------------------------------------------------------------------
# parser assembly and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed, unsigned 64-bit (default 0)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (default depends on the subcommand)")
    p.add_argument("--out", default=None,
                   help="output path (default stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common()
    parser = _Parser(prog="fermibox",
                     description="Fermions in a box: spectra, kernels, "
                                 "samplers, and verification studies.")
    sub = parser.add_subparsers(dest="_top", metavar="subcommand",
                                required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", parents=[common],
                       help="eigenvalues and eigenfunction coefficients")
    p.add_argument("--bc", required=True,
                   help="boundary preset, preset:params, or JSON")
    p.add_argument("--count", type=int, default=None,
                   help="number of modes from the bottom")
    p.add_argument("--emax", type=_finite_float, default=None,
                   help="energy ceiling instead of a count")
    p.set_defaults(handler=_cmd_spectrum, command="spectrum")

    kernel = sub.add_parser("kernel", help="kernel operations")
    ksub = kernel.add_subparsers(dest="_kernel", metavar="action",
                                 required=True, parser_class=_Parser)
    p = ksub.add_parser("eval", parents=[common],
                        help="evaluate a kernel spec on a grid")
    p.add_argument("--spec", required=True, help="kernel spec JSON")
    p.add_argument("--grid", required=True, help="x0:x1:n,y0:y1:m")
    p.set_defaults(handler=_cmd_kernel_eval, command="kernel eval")

    p = sub.add_parser("mu-solve", parents=[common],
                       help="chemical potential for a mean particle count")
    p.add_argument("--bc", required=True)
    p.add_argument("--t", type=_finite_float, required=True, help="temperature")
    p.add_argument("--target", type=_finite_float, required=True,
                   help="mean particle count")
    p.add_argument("--modes", type=int, default=256,
                   help="mode pool size; raise it if the solve is "
                        "uncertified (default 256)")
    p.set_defaults(handler=_cmd_mu_solve, command="mu-solve")

    p = sub.add_parser("lambda-solve", parents=[common],
                       help="fugacity for a scaled temperature")
    p.add_argument("--c", type=_finite_float, required=True,
                   help="scaled temperature, positive")
    p.set_defaults(handler=_cmd_lambda_solve, command="lambda-solve")

    p = sub.add_parser("sample", parents=[common],
                       help="draw point configurations")
    p.add_argument("--kind", required=True,
                   choices=("dpp", "gc", "haar-u", "haar-so"))
    p.add_argument("--bc", default=None,
                   help="boundary condition (dpp and gc kinds)")
    p.add_argument("--n", type=int, default=None,
                   help="mode count (dpp) or matrix size (Haar)")
    p.add_argument("--t", type=_finite_float, default=None, help="temperature (gc)")
    p.add_argument("--mu", type=_finite_float, default=None,
                   help="chemical potential (gc)")
    p.add_argument("--target", type=_finite_float, default=None,
                   help="solve for mu from this mean count (gc)")
    p.add_argument("--modes", type=int, default=256,
                   help="mode pool for the --target solve (default 256)")
    p.add_argument("--samples", type=int, default=1,
                   help="number of configurations (default 1)")
    p.set_defaults(handler=_cmd_sample, command="sample")

    km = sub.add_parser("km", help="non-intersecting loop ensembles")
    kmsub = km.add_subparsers(dest="_km", metavar="action", required=True,
                              parser_class=_Parser)
    p = kmsub.add_parser("density", parents=[common],
                         help="log weight of one loop configuration")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--t", type=_finite_float, required=True, help="loop time")
    p.add_argument("--points", required=True,
                   help="comma-separated configuration")
    p.set_defaults(handler=_cmd_km_density, command="km density")
    p = kmsub.add_parser("mcmc", parents=[common],
                         help="Metropolis chain over loop configurations")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--t", type=_finite_float, required=True, help="loop time")
    p.add_argument("--n", type=int, required=True, help="number of loops")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--step", type=_finite_float, default=0.25,
                   help="proposal scale (default 0.25)")
    p.add_argument("--thin", type=int, default=10,
                   help="keep every thin-th state (default 10)")
    p.add_argument("--burn", type=int, default=0,
                   help="discarded prefix (default 0)")
    p.set_defaults(handler=_cmd_km_mcmc, command="km mcmc")

    p = sub.add_parser("verify", parents=[common],
                       help="run a scaling study against its baseline")
    p.add_argument("--study", required=True,
                   choices=("bulk", "edge", "finite-t"))
    p.add_argument("--bc", default=None)
    p.add_argument("--limit", default=None,
                   help="limit kernel spec JSON (edge study)")
    p.add_argument("--sizes", default="25,50,100,200",
                   help="comma-separated mode counts")
    p.add_argument("--x0", default=None,
                   help="bulk point or edge (accepts pi, 2pi)")
    p.add_argument("--c", type=_finite_float, default=None,
                   help="scaled temperature (finite-t study)")
    p.add_argument("--grid", default=None,
                   help="override the comparison grid, start:stop:count")
    p.set_defaults(handler=_cmd_verify, command="verify")

    p = sub.add_parser("reproduce-figure", parents=[common],
                       help="emit the data behind one showcase figure")
    p.add_argument("which", choices=("dirichlet_robin_density",
                                     "finite_t_two_point"))
    p.add_argument("--samples", type=int, default=1200,
                   help="draws for the two-point figure (default 1200, "
                        "minimum 1000)")
    p.set_defaults(handler=_cmd_reproduce_figure, command="reproduce-figure")

    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value starting with '-' as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--grid" and argv[i].startswith("-"):
            argv[i - 1:i + 1] = ["--grid=" + argv[i]]
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (None, 0) else EXIT_USAGE
    if args.seed < 0 or args.seed >= 1 << 64:
        print("usage error: seed must fit in 64 unsigned bits",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        result = args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        # the library's precondition checks surface as usage errors here
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _write(result, args)
    except OSError as err:
        print(f"usage error: cannot write {args.out or 'standard output'}: "
              f"{err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
