"""Command-line entry point: simulate | estimate | sweep | stability | w2.

Every command reads a JSON config (flags override file keys), writes its
artifacts into --out, and finishes with a manifest recording the effective
config, package version, seed, and SHA-256 checksums of the outputs.
Timings go to a separate timings.json so that reruns of the same seeded
config produce byte-identical data artifacts and manifests.

Failures print a single-line JSON error object; exit code 2 flags config
validation problems, 1 anything else.
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
    SweepPlan,
    bump_density,
    rkhs_error,
    run_sweep,
    stability_experiment,
    wasserstein2_1d,
    wrap_periodic,
)
from .estimator import EstimationProblem, EstimatorError, solve, stationarity_residual
from .flows import (
    EnergySpec,
    PeriodicityError,
    SmoothFunction,
    gradient_flow_simulate,
    hamiltonian_flow_simulate,
    internal_energy_from_label,
)
from .kernels import KernelError, SmoothKernel
from .mesh import (
    SpaceTimeMesh,
    TrajectoryFormatError,
    read_trajectory,
    write_trajectory,
)
from .rkhs import CONVOLVED, PLAIN, RkhsFunction, SectionMap, diff_section

FLOAT_FMT = "{:.17g}"


class ConfigError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def fmt(x: float) -> str:
    return FLOAT_FMT.format(float(x))


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_csv(path: Path, rows, header: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
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
    periodization via wrap_period).
    """
    if spec is None or spec.get("type") == "zero":
        return None
    kind = spec.get("type")
    if kind == "linear":
        return SmoothFunction.linear(float(spec["slope"]))
    if kind == "cosine_sum":
        return SmoothFunction.cosine_sum(
            float(spec["period"]), spec["amplitudes"], spec["modes"],
            spec.get("phases"),
        )
    if kind == "kernel_sum":
        try:
            kernel = SmoothKernel.from_config(spec["kernel"])
        except KernelError as exc:
            raise ConfigError("bad_kernel", f"{what} kernel: {exc}") from None
        try:
            fn = RkhsFunction.from_points(kernel, spec["centers"], spec["weights"])
        except KeyError as exc:
            raise ConfigError("config_invalid",
                              f"{what} kernel_sum spec needs key {exc}") from None
        if spec.get("wrap_period"):
            fn = wrap_periodic(fn, float(spec["wrap_period"]),
                               spec.get("wrap_copies"))
        return fn
    raise ConfigError("bad_function", f"unknown {what} spec type {kind!r}")


def energy_from_label(label, what: str):
    try:
        return internal_energy_from_label(str(label))
    except ValueError as exc:
        raise ConfigError("config_invalid", f"{what}: {exc}") from None


def mesh_from_spec(spec: dict) -> SpaceTimeMesh:
    try:
        return SpaceTimeMesh(float(spec["a"]), float(spec["b"]), float(spec["T"]),
                             int(spec["N"]), int(spec["L"]))
    except KeyError as exc:
        raise ConfigError("config_invalid", f"mesh config needs key {exc}") from None
    except (TypeError, ValueError) as exc:  # MeshError is a ValueError
        raise ConfigError("config_invalid", f"invalid mesh config: {exc}") from None


def density_from_spec(spec: dict, mesh: SpaceTimeMesh) -> np.ndarray:
    kind = spec.get("type", "bump")
    if kind == "bump":
        return bump_density(
            mesh.x, mesh.domain_length,
            spec.get("center", 0.5 * (mesh.a + mesh.b)),
            spec.get("sigma", 0.15 * mesh.domain_length),
            float(spec.get("uniform_weight", 0.2)),
            spec.get("bump_weights"),
        )
    if kind == "uniform":
        return np.full(mesh.N, 1.0 / mesh.domain_length)
    raise ConfigError("bad_density", f"unknown density spec type {kind!r}")


# ---------------------------------------------------------------------------
# Output directory management
# ---------------------------------------------------------------------------

class RunDirectory:
    """Locked output directory collecting artifacts and their checksums.

    Wall-clock seconds go only to ``timings`` (written to timings.json):
    ``mark`` records the time since the run started, and commands add the
    duration of each item they time, so data artifacts stay deterministic.
    """

    def __init__(self, out: Path):
        self.out = out
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
        extra = []
        for p in self.artifacts:
            meta = p.with_name(p.stem + ".meta.json")
            if meta.exists() and meta not in self.artifacts and meta not in extra:
                extra.append(meta)
        self.artifacts.extend(extra)
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

    def release(self) -> None:
        try:
            self.lock.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def load_config(args) -> dict:
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
    for key in ("seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError("config_invalid", f"config key {key!r} is required")
    return cfg[key]


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    seed = int(cfg.get("seed", 0))
    mesh = mesh_from_spec(require(cfg, "mesh"))
    kind = cfg.get("kind", "gradient")
    energy = cfg.get("energy", {})
    spec = EnergySpec(
        V=function_from_spec(energy.get("V"), "V"),
        W=function_from_spec(energy.get("W"), "W"),
        U=energy_from_label(energy.get("U", "none"), "energy.U"),
    )
    rho0 = density_from_spec(cfg.get("initial_density", {"type": "bump"}), mesh)
    run = RunDirectory(Path(require(cfg, "out")))
    try:
        if kind == "gradient":
            traj, diag = gradient_flow_simulate(
                rho0, spec, mesh, dt_solver=cfg.get("dt_solver"),
                scheme=cfg.get("scheme", "divergence"),
            )
        elif kind == "hamiltonian":
            phi0 = function_from_spec(cfg.get("initial_phase"), "initial_phase")
            try:
                traj, diag = hamiltonian_flow_simulate(
                    rho0, phi0, spec, mesh, dt_solver=cfg.get("dt_solver"),
                )
            except PeriodicityError as exc:
                raise ConfigError("w_not_periodic", f"energy.W: {exc}") from None
        else:
            raise ConfigError("config_invalid", f"unknown flow kind {kind!r}")
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
    finally:
        run.release()


def kernel_from_arg(arg: str | None, cfg: dict, key: str) -> SmoothKernel | None:
    """Kernel from a CLI argument (JSON file path or inline JSON) or config."""
    try:
        if arg:
            text = arg.strip()
            if text.startswith("{"):
                return SmoothKernel.from_config(json.loads(text))
            return SmoothKernel.from_json(text)
        if key in cfg:
            return SmoothKernel.from_config(cfg[key])
    except (OSError, json.JSONDecodeError, KernelError) as exc:
        raise ConfigError("bad_kernel", f"{key}: {exc}") from None
    return None


def cmd_estimate(args) -> int:
    cfg = load_config(args)
    seed = int(cfg.get("seed", 0))
    data = args.data or cfg.get("data")
    if not data:
        raise ConfigError("config_invalid", "estimate needs --data <csv>")
    try:
        traj = read_trajectory(data)
    except TrajectoryFormatError as exc:
        raise ConfigError(exc.code, str(exc))
    k1 = kernel_from_arg(args.kernel1, cfg, "kernel1")
    k2 = kernel_from_arg(args.kernel2, cfg, "kernel2")
    if k1 is None or k2 is None:
        raise ConfigError("config_invalid", "estimate needs --kernel1 and --kernel2")
    k3 = kernel_from_arg(args.kernel3, cfg, "kernel3")
    lam1 = args.lambda1 if args.lambda1 is not None else cfg.get("lambda1")
    lam2 = args.lambda2 if args.lambda2 is not None else cfg.get("lambda2")
    lam3 = args.lambda3 if args.lambda3 is not None else cfg.get("lambda3")
    if lam1 is None or lam2 is None:
        raise ConfigError("config_invalid", "estimate needs --lambda1 and --lambda2")
    try:
        problem = EstimationProblem(
            traj, k1, k2,
            lambda1=float(lam1), lambda2=float(lam2),
            flow_kind=args.flow or cfg.get("flow", "gradient"),
            known_u=energy_from_label(args.u or cfg.get("u", "none"), "u"),
            kernel3=k3,
            lambda3=float(lam3) if lam3 is not None else None,
            drop_last_time_rows=int(cfg.get("drop_last_time_rows", DROP_LAST_TIME_ROWS)),
        )
    except EstimatorError as exc:
        raise ConfigError("config_invalid", str(exc)) from None
    run = RunDirectory(Path(args.out or require(cfg, "out")))
    try:
        result = solve(problem)
        run.mark("solve")
        coeff_files = {"C1": "coeff_c1.bin", "C2": "coeff_c2.bin"}
        run.path("coeff_c1.bin").write_bytes(result.C1.astype("<f8").tobytes())
        run.path("coeff_c2.bin").write_bytes(result.C2.astype("<f8").tobytes())
        if result.C3 is not None:
            coeff_files["C3"] = "coeff_c3.bin"
            run.path("coeff_c3.bin").write_bytes(result.C3.astype("<f8").tobytes())
        write_json(run.path("coeff_header.json"), {
            "length": int(result.C1.size),
            "dtype": "<f8",
            "layout": "time-major flattened (l, n)",
            "files": coeff_files,
            "lambda": [problem.lambda1, problem.lambda2, problem.lambda3],
        })
        grid_cfg = cfg.get("eval_grid", {})
        lo = float(grid_cfg.get("min", traj.mesh.a))
        hi = float(grid_cfg.get("max", traj.mesh.b))
        count = int(grid_cfg.get("count", 201))
        xs = np.linspace(lo, hi, count)
        center = bool(cfg.get("center_interaction", False))
        what_vals = result.What.value(xs)
        if center:
            what_vals = what_vals - result.What.value(0.0)
        rows = [[x, v, w] for x, v, w in zip(xs, result.Vhat.value(xs), what_vals)]
        if result.Uhat is not None:
            rows = [r + [u] for r, u in zip(rows, result.Uhat.value(xs))]
        header = ["x", "vhat", "what_centered" if center else "what"]
        if result.Uhat is not None:
            header.append("uhat")
        write_csv(run.path("reconstruction.csv"), rows, header)
        rng = np.random.default_rng(seed)
        sections = SectionMap.of(traj)
        directions = []
        for _ in range(int(cfg.get("stationarity_directions", 8))):
            l = int(rng.integers(0, traj.mesh.L))
            n = int(rng.integers(0, traj.mesh.N))
            directions.append((
                diff_section(problem.kernel1, sections, l, n, PLAIN),
                diff_section(problem.kernel2, sections, l, n, CONVOLVED),
            ))
        diagnostics = {
            "loss": result.loss_value,
            "rkhs_norms": result.rkhs_norms,
            "gram_condition": result.gram_condition,
            "residual_max": float(np.max(np.abs(result.residual_vector))),
            "residual_row_max": np.abs(result.residual_vector).reshape(
                problem.fit_rows, -1).max(axis=1).tolist(),
            "stationarity_residual": stationarity_residual(result, problem,
                                                           directions),
            "method": result.method,
            "kept_rank": result.kept_rank,
            "jitter": result.jitter,
            "seed": seed,
        }
        write_json(run.path("diagnostics.json"), diagnostics)
        run.finish("estimate", cfg, seed)
        return 0
    finally:
        run.release()


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    seed = int(cfg.get("seed", 0))
    truth_v = function_from_spec(require(cfg, "truth_v"), "truth_v")
    truth_w = function_from_spec(require(cfg, "truth_w"), "truth_w")
    if not isinstance(truth_v, RkhsFunction) or not isinstance(truth_w, RkhsFunction):
        raise ConfigError("config_invalid", "sweep truths must be kernel_sum specs")
    plan = SweepPlan(
        N_list=tuple(require(cfg, "N_list")),
        alpha=float(require(cfg, "alpha")),
        beta=float(require(cfg, "beta")),
        truth_v=truth_v,
        truth_w=truth_w,
        T=float(require(cfg, "T")),
        window=tuple(cfg.get("window", (0.0, 1.0))),
        c_lambda=float(cfg.get("c_lambda", 1.0)),
        c_L=float(cfg.get("c_L", 1.0)),
        fine_factor=int(cfg.get("fine_factor", 4)),
        internal=energy_from_label(cfg.get("u", "none"), "u"),
        scheme=cfg.get("scheme", "divergence"),
        initial_center=cfg.get("initial_center", 0.5),
        initial_sigma=cfg.get("initial_sigma", 0.14),
        initial_uniform_weight=float(cfg.get("initial_uniform_weight", 0.35)),
        drop_last_time_rows=int(cfg.get("drop_last_time_rows", DROP_LAST_TIME_ROWS)),
        seed=seed,
    )
    run = RunDirectory(Path(require(cfg, "out")))
    try:
        report = run_sweep(plan)
        run.mark("sweep")
        rows = [
            [N, lam, L, err, rel, sup]
            for N, lam, L, err, rel, sup in zip(
                report.N_list, report.lambdas, report.L_list, report.errors,
                report.relative_errors, report.sup_errors)
        ]
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
    finally:
        run.release()


def cmd_stability(args) -> int:
    cfg = load_config(args)
    seed = int(cfg.get("seed", 0))
    mesh = mesh_from_spec(require(cfg, "mesh"))
    truth_v = function_from_spec(require(cfg, "truth_v"), "truth_v")
    truth_w = function_from_spec(require(cfg, "truth_w"), "truth_w")
    estimates = require(cfg, "estimates")
    mu0 = density_from_spec(cfg.get("initial_density", {"type": "bump"}), mesh)
    phi0 = function_from_spec(cfg.get("initial_phase"), "initial_phase")
    run = RunDirectory(Path(require(cfg, "out")))
    try:
        pairs = [(function_from_spec(require(est_cfg, "V"), "estimate V"),
                  function_from_spec(require(est_cfg, "W"), "estimate W"))
                 for est_cfg in estimates]
        t0 = time.perf_counter()
        try:
            records = stability_experiment(
                (truth_v, truth_w), pairs, mu0, phi0, mesh,
                n_quantiles=int(cfg.get("n_quantiles", 512)),
                dt_solver=cfg.get("dt_solver"))
        except PeriodicityError as exc:
            raise ConfigError("w_not_periodic", str(exc)) from None
        seconds = time.perf_counter() - t0
        run.timings["true flow"] = seconds - sum(r["wall_s"] for r in records)
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
    finally:
        run.release()


def cmd_w2(args) -> int:
    cfg = load_config(args)
    seed = int(cfg.get("seed", 0))
    rho_path = args.rho or cfg.get("rho")
    sigma_path = args.sigma or cfg.get("sigma")
    if not rho_path or not sigma_path:
        raise ConfigError("config_invalid", "w2 needs --rho and --sigma trajectories")
    try:
        t_rho = read_trajectory(rho_path)
        t_sigma = read_trajectory(sigma_path)
    except TrajectoryFormatError as exc:
        raise ConfigError(exc.code, str(exc))
    row = int(cfg.get("row", -1))
    periodic = bool(cfg.get("periodic", False))
    value = wasserstein2_1d(
        t_rho.values[row], t_sigma.values[row], t_rho.mesh,
        n_quantiles=int(cfg.get("n_quantiles", 512)), periodic=periodic,
    )
    payload = {"w2": value, "row": row, "periodic": periodic, "seed": seed}
    if args.out or "out" in cfg:
        run = RunDirectory(Path(args.out or cfg["out"]))
        try:
            write_json(run.path("w2.json"), payload)
            run.finish("w2", cfg, seed)
        finally:
            run.release()
    else:
        print(json.dumps(payload, sort_keys=True))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # single-line machine-parsable failure report
        print(json.dumps({"error": "runtime_error",
                          "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
