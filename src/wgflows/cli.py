"""Command-line entry point: simulate | estimate | sweep | stability | w2.

Every command reads a JSON config, writes its artifacts into --out, and
finishes with a manifest recording the effective config, package version,
seed, and SHA-256 checksums of the outputs.  Every flag is a config key of
its own name: ``load_config`` merges the flags given over the file's keys,
so the commands read their inputs from the merged config alone and the
manifest echoes the run that was made.
Timings go to a separate timings.json so that reruns of the same seeded
config produce byte-identical data artifacts and manifests.

Failures print a single-line JSON error object; exit code 2 flags config
validation problems, a non-finite number among them, and 1 anything else,
a non-finite output value included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DROP_LAST_TIME_ROWS,
    AnalysisError,
    SweepPlan,
    bump_density,
    check_bump,
    run_sweep,
    stability_experiment,
    wasserstein2_1d,
    wrap_periodic,
)
from .estimator import EstimationProblem, EstimatorError, solve, stationarity_residual
from .flows import (
    NONE,
    SCHEMES,
    EnergySpec,
    PeriodicityError,
    SmoothFunction,
    gradient_flow_simulate,
    hamiltonian_flow_simulate,
    internal_energy_from_label,
)
from .kernels import KernelError, SmoothKernel
from .mesh import (
    MeshError,
    SpaceTimeMesh,
    TrajectoryFormatError,
    meta_path_for,
    read_trajectory,
    write_trajectory,
)
from .rkhs import RkhsFunction

FLOAT_FMT = "{:.17g}"


class ConfigError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def fmt(x: float) -> str:
    return FLOAT_FMT.format(float(x))


def write_json(path: Path, payload) -> None:
    """Strict JSON: a non-finite value raises before the file is opened."""
    text = json.dumps(payload, sort_keys=True, indent=1, default=_json_default,
                      allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_csv(path: Path, rows, header: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) or isinstance(v, np.floating)
                              else str(v) for v in row))
            fh.write("\n")


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Function specs: JSON descriptions of scalar fields
# ---------------------------------------------------------------------------

def function_from_spec(spec: dict | None, what: str):
    """Build an evaluable scalar field from its JSON description.

    Supported types: zero, linear, cosine_sum, kernel_sum (with optional
    periodization via wrap_period; absent, no wrap).  Every number and list
    of numbers the spec holds passes ``config_value`` or ``config_list``,
    and a period must be positive.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("config_invalid", f"{what} must be a function spec, got {spec!r}")
    kind = spec.get("type")
    prefix = f"{what}."
    if kind == "zero":
        return None
    if kind == "linear":
        return SmoothFunction.linear(config_value(spec, "slope", float, prefix=prefix))
    if kind == "cosine_sum":
        period = config_positive(spec, "period", prefix=prefix)
        amplitudes = config_list(spec, "amplitudes", float, prefix=prefix)
        modes = config_list(spec, "modes", float, prefix=prefix)
        phases = config_list(spec, "phases", float, None, prefix=prefix)
        require_lengths(modes, "modes", {"amplitudes": amplitudes, "phases": phases}, prefix)
        return SmoothFunction.cosine_sum(period, amplitudes, modes, phases)
    if kind == "kernel_sum":
        kernel = kernel_from_config(config_value(spec, "kernel", dict, prefix=prefix),
                                    prefix + "kernel")
        centers = config_list(spec, "centers", float, prefix=prefix)
        weights = config_list(spec, "weights", float, prefix=prefix)
        require_lengths(centers, "centers", {"weights": weights}, prefix)
        fn = RkhsFunction.from_points(kernel, centers, weights)
        if "wrap_period" in spec:
            period = config_positive(spec, "wrap_period", prefix=prefix)
            copies = config_value(spec, "wrap_copies", int, None, prefix=prefix)
            if copies is not None and copies < 0:
                raise ConfigError("config_invalid",
                                  f"{prefix}wrap_copies must be at least 0, got {copies}")
            fn = wrap_periodic(fn, period, copies)
        return fn
    raise ConfigError("bad_function", f"unknown {what} spec type {kind!r}")


def energy_from_label(label, what: str):
    try:
        return internal_energy_from_label(str(label))
    except ValueError as exc:
        raise ConfigError("config_invalid", f"{what}: {exc}") from None


def mesh_from_spec(spec: dict) -> SpaceTimeMesh:
    values = [config_value(spec, key, int if key in "NL" else float, prefix="mesh.")
              for key in "abTNL"]
    try:
        return SpaceTimeMesh(*values)
    except MeshError as exc:
        raise ConfigError("config_invalid", f"invalid mesh config: {exc}") from None


def density_from_spec(spec: dict, mesh: SpaceTimeMesh) -> np.ndarray:
    """The initial density of a bump or uniform spec; a bump's ``center``
    and ``sigma`` are numbers or lists of numbers, one per bump, range-checked
    by ``analysis.check_bump``."""
    prefix = "initial_density."
    kind = spec.get("type", "bump")
    if kind == "bump":
        center = config_value_or_list(spec, "center", float, 0.5 * (mesh.a + mesh.b), prefix)
        sigma = config_value_or_list(spec, "sigma", float, 0.15 * mesh.domain_length, prefix)
        uniform_weight = config_value(spec, "uniform_weight", float, 0.2, prefix=prefix)
        bump_weights = config_list(spec, "bump_weights", float, None, prefix=prefix)
        require_lengths(center, "center", {"sigma": sigma, "bump_weights": bump_weights},
                        prefix)
        try:
            check_bump(sigma, uniform_weight, bump_weights, prefix)
        except AnalysisError as exc:
            raise ConfigError("config_invalid", str(exc)) from None
        return bump_density(mesh.x, mesh.domain_length, center, sigma, uniform_weight,
                            bump_weights)
    if kind == "uniform":
        return np.full(mesh.N, 1.0 / mesh.domain_length)
    raise ConfigError("bad_density", f"unknown density spec type {kind!r}")


# ---------------------------------------------------------------------------
# Output directory management
# ---------------------------------------------------------------------------

class RunDirectory:
    """Locked output directory collecting artifacts and their checksums; a
    context manager whose exit releases the lock, whether the run succeeded
    or not; one refused for a ``ConfigError`` also removes the directory it
    made, if that is empty.

    Wall-clock seconds go only to ``timings`` (written to timings.json):
    ``mark`` records the time since the run started, and commands add the
    duration of each item they time, so data artifacts stay deterministic.
    """

    def __init__(self, out: Path):
        self.out = out
        self.created = not out.exists()
        self.out.mkdir(parents=True, exist_ok=True)
        self.lock = self.out / ".lock"
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            raise ConfigError(
                "out_locked",
                f"output directory {self.out} is locked by another run",
            ) from None
        self.artifacts: list[Path] = []
        self.t0 = time.perf_counter()
        self.timings: dict[str, float] = {}

    def path(self, name: str) -> Path:
        p = self.out / name
        self.artifacts.append(p)
        return p

    def mark(self, stage: str) -> None:
        self.timings[stage] = time.perf_counter() - self.t0

    def finish(self, command: str, config: dict, seed: int) -> None:
        # sidecars written through write_trajectory are artifacts too
        sidecars = [meta_path_for(p) for p in self.artifacts]
        self.artifacts += [meta for meta in sidecars if meta.exists()]
        manifest = {
            "command": command,
            "config": config,
            "seed": seed,
            "version": __version__,
            "outputs": {p.name: sha256_of(p) for p in sorted(set(self.artifacts))},
            "timings_file": "timings.json",
        }
        write_json(self.out / "manifest.json", manifest)
        self.mark("total")
        write_json(self.out / "timings.json", {"seconds": self.timings})

    def __enter__(self) -> "RunDirectory":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.lock.unlink(missing_ok=True)
        if (self.created and exc_type is not None and issubclass(exc_type, ConfigError)
                and not any(self.out.iterdir())):
            self.out.rmdir()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def load_config(args) -> dict:
    """The config file's keys, each flag given overriding the key of its
    name.  A ``--kernelN`` value, a JSON file path or inline JSON, is parsed
    here, so the merged config holds the kernel spec itself."""
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("config_missing", f"config file {path} not found")
        with open(path, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("config_invalid", f"config is not JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config_invalid", f"config must be a JSON object, got {cfg!r}")
    flags = {key: value for key, value in vars(args).items()
             if key not in ("config", "command", "func") and value is not None}
    for key in ("kernel1", "kernel2", "kernel3"):
        if key in flags:
            text = flags[key].strip()
            try:
                flags[key] = json.loads(text if text.startswith("{")
                                        else Path(text).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ConfigError("bad_kernel", f"{key}: {exc}") from None
    return {**cfg, **flags}


def require(cfg: dict, key: str, prefix: str = ""):
    if key not in cfg:
        raise ConfigError("config_invalid", f"config key {prefix + key!r} is required")
    return cfg[key]


_REQUIRED = object()


def config_value(cfg: dict, key: str, kind: type, default=_REQUIRED, prefix: str = ""):
    """``cfg[key]`` as ``kind``, the one check of every config section, path,
    bool, int and float: only a JSON object is a dict (a section), only a
    JSON string a str (a path), only JSON true/false a bool, an int or
    integral float an int, any non-bool number a float; a number of either
    kind must be finite as a float (Python's ``json`` reads ``NaN``,
    ``Infinity`` and integers beyond the float range, which are no usable
    numbers).  An absent key gives ``default`` unchecked."""
    if key not in cfg and default is not _REQUIRED:
        return default
    value = require(cfg, key, prefix)
    if not (isinstance(value, kind) if kind in (bool, dict, str) else not isinstance(value, bool)
            and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            and (kind is float or value % 1 == 0)):
        raise ConfigError("config_invalid", f"{prefix + key} must be of type "
                          f"{'finite float' if kind is float else kind.__name__}, got {value!r}")
    return kind(value)


def config_list(cfg: dict, key: str, kind: type, default=_REQUIRED, prefix: str = "") -> tuple:
    """``cfg[key]`` as a tuple of ``kind``: a JSON list whose every entry
    passes ``config_value``.  An absent key gives ``default`` unchecked."""
    if key not in cfg and default is not _REQUIRED:
        return default
    values = require(cfg, key, prefix)
    if not isinstance(values, list):
        raise ConfigError("config_invalid", f"{prefix + key} must be a list, got {values!r}")
    entries = {f"{key}[{i}]": value for i, value in enumerate(values)}
    return tuple(config_value(entries, name, kind, prefix=prefix) for name in entries)


def config_value_or_list(cfg: dict, key: str, kind: type, default=_REQUIRED,
                         prefix: str = ""):
    """``cfg[key]`` through ``config_list`` when it is a JSON list, else
    through ``config_value``."""
    if isinstance(cfg.get(key), list):
        return config_list(cfg, key, kind, prefix=prefix)
    return config_value(cfg, key, kind, default, prefix)


def require_lengths(lead, lead_key: str, parallel: dict, prefix: str = "") -> None:
    """Exit 2 naming the first key of ``parallel`` whose list (a tuple from
    ``config_list``) is not as long as ``lead``, a list or a single number,
    which counts as one entry.  Numbers and absent (None) values pass."""
    count = len(lead) if isinstance(lead, tuple) else 1
    for key, values in parallel.items():
        if isinstance(values, tuple) and len(values) != count:
            raise ConfigError(
                "config_invalid", f"{prefix + key} must have one entry per "
                f"{prefix + lead_key} entry ({count}), got {len(values)}")


def scheme_of(cfg: dict) -> str:
    if (scheme := cfg.get("scheme", SCHEMES[0])) not in SCHEMES:
        raise ConfigError("config_invalid", f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return scheme


def config_positive(cfg: dict, key: str, default=_REQUIRED, prefix: str = ""):
    """``cfg[key]`` through ``config_value`` as a float that must be
    positive.  An absent key gives ``default`` unchecked."""
    value = config_value(cfg, key, float, default, prefix)
    if key in cfg and not value > 0:
        raise ConfigError("config_invalid", f"{prefix + key} must be positive, got {value!r}")
    return value


def kernel_sum_from_spec(spec, what: str) -> RkhsFunction:
    """A function spec that must be a ``kernel_sum``: the truths and
    estimates whose RKHS errors ``sweep`` and ``stability`` report."""
    fn = function_from_spec(spec, what)
    if not isinstance(fn, RkhsFunction):
        raise ConfigError("config_invalid", f"{what} must be a kernel_sum spec")
    return fn


def refuse_quantile_count(cfg: dict) -> None:
    """The W2 distance is exact and samples no quantile levels: a config
    that sets their count exits 2 instead of having the key ignored."""
    if "n_quantiles" in cfg:
        raise ConfigError("config_invalid",
                          "n_quantiles is not a key: the W2 distance is exact")


def cmd_simulate(cfg: dict, seed: int) -> int:
    mesh = mesh_from_spec(config_value(cfg, "mesh", dict))
    kind = cfg.get("kind", "gradient")
    energy = config_value(cfg, "energy", dict, {})
    spec = EnergySpec(
        V=function_from_spec(energy.get("V"), "V"),
        W=function_from_spec(energy.get("W"), "W"),
        U=energy_from_label(energy.get("U", "none"), "energy.U"),
    )
    rho0 = density_from_spec(config_value(cfg, "initial_density", dict, {"type": "bump"}), mesh)
    if kind not in ("gradient", "hamiltonian"):
        raise ConfigError("config_invalid", f"unknown flow kind {kind!r}")
    if kind == "hamiltonian" and spec.U.kind != NONE:
        raise ConfigError("config_invalid",
                          "energy.U: Hamiltonian flows run on characteristics, which "
                          f"need U = none, not {spec.U.label()!r}")
    # dt_solver absent: the simulator picks the step
    scheme, dt_solver = scheme_of(cfg), config_positive(cfg, "dt_solver", None)
    phi0 = (function_from_spec(cfg.get("initial_phase"), "initial_phase")
            if kind == "hamiltonian" else None)
    with RunDirectory(Path(config_value(cfg, "out", str))) as run:
        if kind == "gradient":
            traj, diag = gradient_flow_simulate(
                rho0, spec, mesh, dt_solver=dt_solver, scheme=scheme,
            )
        else:
            try:
                (traj,), (diag,) = hamiltonian_flow_simulate(
                    rho0, phi0, [spec], mesh, dt_solver=dt_solver,
                )
            except PeriodicityError as exc:
                raise ConfigError(f"{exc.function.lower()}_not_periodic",
                                  f"energy.{exc.function}: {exc}") from None
        run.mark("simulate")
        write_trajectory(traj, run.path("trajectory.csv"))
        write_json(run.path("run_info.json"), {
            "kind": kind,
            "internal_energy": spec.U.label(),
            "diagnostics": diag,
            "seed": seed,
        })
        run.finish("simulate", cfg, seed)
        return 0


def kernel_from_config(spec: dict, what: str) -> SmoothKernel:
    """The kernel of a JSON kernel spec: ``family``, ``lengthscale`` and an
    imq kernel's ``beta`` pass ``config_value``, and parameters
    ``SmoothKernel`` rejects exit 2 as ``bad_kernel``, both naming ``what``."""
    prefix = f"{what}."
    family = config_value(spec, "family", str, prefix=prefix)
    lengthscale = config_value(spec, "lengthscale", float, prefix=prefix)
    beta = config_value(spec, "beta", float, None, prefix=prefix)
    try:
        return SmoothKernel(family, lengthscale, beta)
    except KernelError as exc:
        raise ConfigError("bad_kernel", f"{what}: {exc}") from None


def cmd_estimate(cfg: dict, seed: int) -> int:
    data = config_value(cfg, "data", str, None)
    if not data:
        raise ConfigError("config_invalid", "estimate needs --data <csv>")
    traj = read_trajectory(data)
    k1, k2, k3 = (kernel_from_config(config_value(cfg, key, dict), key) if key in cfg else None
                  for key in ("kernel1", "kernel2", "kernel3"))
    if k1 is None or k2 is None:
        raise ConfigError("config_invalid", "estimate needs --kernel1 and --kernel2")
    lam1, lam2, lam3 = (config_value(cfg, f"lambda{i}", float, None) for i in (1, 2, 3))
    if lam1 is None or lam2 is None:
        raise ConfigError("config_invalid", "estimate needs --lambda1 and --lambda2")
    try:
        problem = EstimationProblem(
            traj, k1, k2,
            lambda1=lam1, lambda2=lam2,
            flow_kind=cfg.get("flow", "gradient"),
            known_u=energy_from_label(cfg.get("u", "none"), "u"),
            kernel3=k3,
            lambda3=lam3,
            drop_last_time_rows=config_value(cfg, "drop_last_time_rows", int,
                                             DROP_LAST_TIME_ROWS),
        )
    except EstimatorError as exc:
        raise ConfigError("config_invalid", str(exc)) from None
    grid_cfg = config_value(cfg, "eval_grid", dict, {})
    count = config_value(grid_cfg, "count", int, 201, prefix="eval_grid.")
    if count < 1:
        raise ConfigError("config_invalid", f"eval_grid.count must be at least 1, got {count}")
    xs = np.linspace(config_value(grid_cfg, "min", float, traj.mesh.a, prefix="eval_grid."),
                     config_value(grid_cfg, "max", float, traj.mesh.b, prefix="eval_grid."),
                     count)
    center = config_value(cfg, "center_interaction", bool, False)
    with RunDirectory(Path(config_value(cfg, "out", str))) as run:
        result = solve(problem)
        run.mark("solve")
        coeffs = {"C1": result.C1, "C2": result.C2, "C3": result.C3}
        coeff_files = {key: f"coeff_{key.lower()}.bin"
                       for key, c in coeffs.items() if c is not None}
        for key, name in coeff_files.items():
            run.path(name).write_bytes(coeffs[key].astype("<f8").tobytes())
        write_json(run.path("coeff_header.json"), {
            "length": int(result.C1.size),
            "dtype": "<f8",
            "layout": "time-major flattened (l, n)",
            "files": coeff_files,
            "lambda": [problem.lambda1, problem.lambda2, problem.lambda3],
        })
        columns = {"x": xs, "vhat": result.Vhat.value(xs),
                   "what_centered" if center else "what":
                   result.What.value(xs) - (result.What.value(0.0) if center else 0.0)}
        if result.Uhat is not None:
            columns["uhat"] = result.Uhat.value(xs)
        write_csv(run.path("reconstruction.csv"), zip(*columns.values()), list(columns))
        diagnostics = {
            "loss": result.loss_value,
            "rkhs_norms": result.rkhs_norms,
            "gram_condition": result.gram_condition,
            "dropped_share": result.dropped_share,
            "residual_max": float(np.max(np.abs(result.residual_vector))),
            "residual_row_max": np.abs(result.residual_vector).reshape(
                problem.fit_rows, -1).max(axis=1).tolist(),
            "stationarity_residual": stationarity_residual(result, problem),
            "method": result.method,
            "kept_rank": result.kept_rank,
            "jitter": result.jitter,
            "core_route": result.core_route,
            "cg_iterations": result.cg_iterations,
            "cg_residual": result.cg_residual,
            "seed": seed,
        }
        write_json(run.path("diagnostics.json"), diagnostics)
        run.finish("estimate", cfg, seed)
        return 0


def cmd_sweep(cfg: dict, seed: int) -> int:
    truth_v = kernel_sum_from_spec(require(cfg, "truth_v"), "truth_v")
    truth_w = kernel_sum_from_spec(require(cfg, "truth_w"), "truth_w")
    fields = dict(
        N_list=config_list(cfg, "N_list", int),
        alpha=config_value(cfg, "alpha", float),
        beta=config_value(cfg, "beta", float),
        truth_v=truth_v,
        truth_w=truth_w,
        T=config_value(cfg, "T", float),
        window=config_list(cfg, "window", float, SweepPlan.window),
        c_lambda=config_value(cfg, "c_lambda", float, SweepPlan.c_lambda),
        c_L=config_value(cfg, "c_L", float, SweepPlan.c_L),
        fine_factor=config_value(cfg, "fine_factor", int, SweepPlan.fine_factor),
        internal=energy_from_label(cfg.get("u", "none"), "u"),
        scheme=scheme_of(cfg),
        initial_center=config_value_or_list(cfg, "initial_center", float,
                                            SweepPlan.initial_center),
        initial_sigma=config_value_or_list(cfg, "initial_sigma", float,
                                           SweepPlan.initial_sigma),
        initial_uniform_weight=config_value(cfg, "initial_uniform_weight", float,
                                            SweepPlan.initial_uniform_weight),
        drop_last_time_rows=config_value(cfg, "drop_last_time_rows", int,
                                         SweepPlan.drop_last_time_rows),
    )
    require_lengths(fields["initial_center"], "initial_center",
                    {"initial_sigma": fields["initial_sigma"]})
    try:
        plan = SweepPlan(**fields)
    except AnalysisError as exc:
        raise ConfigError("config_invalid", str(exc)) from None
    with RunDirectory(Path(config_value(cfg, "out", str))) as run:
        report = run_sweep(plan)
        run.mark("sweep")
        rows = zip(report.N_list, report.lambdas, report.L_list, report.errors,
                   report.relative_errors, report.sup_errors)
        for i, (N, seconds) in enumerate(zip(report.N_list, report.wall_s)):
            run.timings[f"sweep[{i}] N={N}"] = seconds
        write_csv(run.path("sweep.csv"), rows,
                  ["N", "lambda", "L", "rkhs_error", "relative_error",
                   "sup_error"])
        write_json(run.path("summary.json"), {
            "slope": report.slope,
            "predicted_exponent_bands": report.predicted_bands,
            "truth_norm": report.truth_norm,
            "seed": seed,
        })
        run.finish("sweep", cfg, seed)
        return 0


def cmd_stability(cfg: dict, seed: int) -> int:
    mesh = mesh_from_spec(config_value(cfg, "mesh", dict))
    truth_v = kernel_sum_from_spec(require(cfg, "truth_v"), "truth_v")
    truth_w = kernel_sum_from_spec(require(cfg, "truth_w"), "truth_w")
    estimates = require(cfg, "estimates")
    if not isinstance(estimates, list) or not all(isinstance(e, dict) for e in estimates):
        raise ConfigError("config_invalid",
                          f"estimates must be a list of objects, got {estimates!r}")
    mu0 = density_from_spec(config_value(cfg, "initial_density", dict, {"type": "bump"}), mesh)
    phi0 = function_from_spec(cfg.get("initial_phase"), "initial_phase")
    refuse_quantile_count(cfg)
    dt_solver = config_positive(cfg, "dt_solver", None)
    pairs = [(kernel_sum_from_spec(require(est_cfg, "V"), f"estimate {i} V"),
              kernel_sum_from_spec(require(est_cfg, "W"), f"estimate {i} W"))
             for i, est_cfg in enumerate(estimates)]
    with RunDirectory(Path(config_value(cfg, "out", str))) as run:
        t0 = time.perf_counter()
        try:
            records = stability_experiment(
                (truth_v, truth_w), pairs, mu0, phi0, mesh, dt_solver=dt_solver)
        except PeriodicityError as exc:
            raise ConfigError(f"{exc.function.lower()}_not_periodic", str(exc)) from None
        seconds = time.perf_counter() - t0
        run.timings["flows"] = seconds - sum(r["wall_s"] for r in records)
        rows = []
        for i, out in enumerate(records):
            run.timings[f"estimate {i}"] = out["wall_s"]
            rows.append([i, out["rkhs_error"], out["sup_w2"],
                         out["weighted_rkhs_discrepancy"]])
        write_csv(run.path("stability.csv"), rows,
                  ["estimate", "rkhs_error", "sup_w2",
                   "weighted_rkhs_discrepancy"])
        write_json(run.path("summary.json"), {
            "non_increasing_w2": all(rows[i][2] >= rows[i+1][2] - 1e-12
                                     for i in range(len(rows)-1)),
            "seed": seed,
        })
        run.finish("stability", cfg, seed)
        return 0


def cmd_w2(cfg: dict, seed: int) -> int:
    rho_path = config_value(cfg, "rho", str, None)
    sigma_path = config_value(cfg, "sigma", str, None)
    out = config_value(cfg, "out", str, None)
    if not rho_path or not sigma_path:
        raise ConfigError("config_invalid", "w2 needs --rho and --sigma trajectories")
    refuse_quantile_count(cfg)
    t_rho, t_sigma = read_trajectory(rho_path), read_trajectory(sigma_path)
    if t_rho.mesh != t_sigma.mesh:
        raise ConfigError("config_invalid", "--rho and --sigma lie on different meshes")
    row, L = config_value(cfg, "row", int, -1), t_rho.mesh.L
    if not -L <= row < L:
        raise ConfigError("config_invalid", f"row {row} outside [-{L}, {L})")
    periodic = config_value(cfg, "periodic", bool, False)
    value = wasserstein2_1d(t_rho.values[row], t_sigma.values[row], t_rho.mesh,
                            periodic=periodic)
    payload = {"w2": value, "row": row, "periodic": periodic, "seed": seed}
    if out is not None:
        with RunDirectory(Path(out)) as run:
            write_json(run.path("w2.json"), payload)
            run.finish("w2", cfg, seed)
    else:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgflows",
        description="Simulate density flows and recover their potential and "
                    "interaction functions by kernel regression.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="seed recorded in artifacts")

    p = sub.add_parser("simulate", help="integrate a gradient or Hamiltonian flow")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="recover potential and interaction kernel")
    common(p)
    p.add_argument("--data", help="trajectory CSV (with .meta.json sidecar)")
    p.add_argument("--kernel1", help="kernel JSON file or inline JSON")
    p.add_argument("--kernel2", help="kernel JSON file or inline JSON")
    p.add_argument("--kernel3", help="optional third kernel for internal energy")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--lambda3", type=float)
    p.add_argument("--flow", choices=("gradient", "hamiltonian"))
    p.add_argument("--u", help="internal energy: none | entropy | power:<m>")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="convergence-rate experiment")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stability", help="flow stability comparison")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("w2", help="Wasserstein-2 distance of two densities")
    common(p)
    p.add_argument("--rho", help="first trajectory CSV")
    p.add_argument("--sigma", help="second trajectory CSV")
    p.set_defaults(func=cmd_w2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg, config_value(cfg, "seed", int, 0))
    except (ConfigError, TrajectoryFormatError) as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # single-line machine-parsable failure report
        print(json.dumps({"error": "runtime_error",
                          "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
