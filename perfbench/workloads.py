"""The benchmark's two workloads.

Each workload builds its inputs from the seed (`make_inputs`), runs one
iteration of program work (`run`, the only timed part) and checks the
outputs of that iteration (`check`). `run` calls the library through module
attributes (`estimator.solve`, `cli.main`, ...) so that the tracer's
wrappers, when installed, see every call. Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wgflows import cli, estimator
from wgflows.kernels import gaussian_kernel, imq_kernel
from wgflows.mesh import DensityTrajectory, SpaceTimeMesh

EPS = float(np.finfo(float).eps)
HERE = Path(__file__).resolve().parent
TIMED_COLUMN = "wall_ms"

# random densities 0.5 + U[0, 1] are not unit-mass per slice; that is intended
warnings.filterwarnings("ignore", message="per-slice mass deviates")


@dataclass
class Outcome:
    """What `check` found in one iteration's outputs."""

    attempted: int
    failed: int = 0
    rel_err: float = math.nan
    problems: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# estimate-large
# ---------------------------------------------------------------------------

class EstimateLarge:
    """`estimator.solve` (method "auto") on a fixed-M ladder plus a short-
    lengthscale case, on seeded random densities rho = 0.5 + U[0, 1]."""

    # case -> (N, L, Gaussian lengthscale, IMQ lengthscale); M = N (L - 1)
    CASES = {
        "n128": (128, 128, 0.2, 0.25),
        "n256": (256, 64, 0.2, 0.25),
        "n512": (512, 32, 0.2, 0.25),
        "short": (256, 64, 0.03, 0.03),
    }
    LAMBDA = 0.05
    IMQ_BETA = 1.5
    REFERENCE = HERE / "reference_losses.json"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.reference = json.loads(self.REFERENCE.read_text()).get(str(seed))

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.densities = {case: 0.5 + rng.random((L, N))
                          for case, (N, L, _, _) in self.CASES.items()}

    def problem(self, case: str) -> estimator.EstimationProblem:
        N, L, l1, l2 = self.CASES[case]
        traj = DensityTrajectory(SpaceTimeMesh(0.0, 1.0, 1.0, N, L), self.densities[case])
        return estimator.EstimationProblem(
            traj, gaussian_kernel(l1), imq_kernel(l2, self.IMQ_BETA),
            lambda1=self.LAMBDA, lambda2=self.LAMBDA, drop_last_time_rows=1)

    def prepare(self) -> None:
        pass

    def run(self, span) -> dict:
        out = {}
        for case in self.CASES:
            with span("bench.case", case=case):
                problem = self.problem(case)
                try:
                    out[case] = (problem, estimator.solve(problem))
                except Exception as exc:
                    out[case] = (problem, exc)
        return out

    def check(self, out: dict) -> Outcome:
        outcome = Outcome(attempted=len(out))
        residuals = []
        for case, (problem, result) in out.items():
            if isinstance(result, Exception):
                outcome.fail(1, f"{case}: {_error_text(result)}")
                continue
            ref = self.reference[case] if self.reference else None
            cond = max(result.gram_condition, ref["cond"] if ref else 0.0)
            tol = 10.0 * cond * EPS
            loss = result.loss_value
            independent = estimator.loss_at(problem, result.Vhat, result.What)
            if not abs(loss - independent) <= tol * abs(independent):
                outcome.fail(1, f"{case}: loss {loss!r} != loss_at {independent!r}")
            elif ref and not abs(loss - ref["loss"]) <= tol * abs(ref["loss"]):
                outcome.fail(1, f"{case}: loss {loss!r} != recorded {ref['loss']!r}")
            rho = problem.traj.values[:problem.fit_rows].ravel()
            residuals.append(math.sqrt((result.residual_vector**2 @ rho)
                                       / (result.data_vector**2 @ rho)))
        if residuals:
            outcome.rel_err = float(np.mean(residuals))
        return outcome


# ---------------------------------------------------------------------------
# cli-hamiltonian
# ---------------------------------------------------------------------------

class CliHamiltonian:
    """In-process `wgflows.cli.main`: simulate a Hamiltonian flow, estimate
    V and W from it, then compare true and perturbed flows with `stability`.

    The seed scales the amplitudes of V and W by factors in [1, 1.01]; the
    recovery error moves by about 5% over [1, 1.04] and by 20% when the
    initial bump moves by 0.02, so the range is kept narrow. The simulator's
    step is set by the initial phase, which is fixed, so every seed does the
    same work.
    """

    COMMANDS = ("simulate", "estimate", "stability")
    KERNEL_V = {"family": "gaussian", "lengthscale": 0.2}
    KERNEL_W = {"family": "gaussian", "lengthscale": 0.25}
    STATIONARITY_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digests = None      # artifact digests of the first clean iteration

    def make_inputs(self) -> None:
        av, aw = 1.0 + 0.01 * np.random.default_rng(self.seed).random(2)
        V = {"type": "kernel_sum", "kernel": self.KERNEL_V, "centers": [0.3, 0.7],
             "weights": [0.04 * av, -0.04 * av], "wrap_period": 1.0}
        W = {"type": "kernel_sum", "kernel": self.KERNEL_W, "centers": [-0.2, 0.2],
             "weights": [0.02 * aw, -0.02 * aw], "wrap_period": 1.0}
        mesh = {"a": 0.0, "b": 1.0, "T": 0.5, "N": 96, "L": 24}
        density = {"type": "bump", "center": 0.5, "sigma": 0.12, "uniform_weight": 0.2}
        phase = {"type": "cosine_sum", "period": 1.0, "amplitudes": [0.03], "modes": [1]}

        def perturbed(eps):
            return dict(V, centers=V["centers"] + [0.5], weights=V["weights"] + [eps])

        self.out = {c: self.workdir / c for c in self.COMMANDS}
        configs = {
            "simulate": {
                "kind": "hamiltonian", "mesh": mesh,
                "energy": {"V": V, "W": W, "U": "none"},
                "initial_density": density, "initial_phase": phase,
                "seed": self.seed, "out": str(self.out["simulate"]),
            },
            "estimate": {
                "data": str(self.out["simulate"] / "trajectory.csv"),
                "kernel1": self.KERNEL_V, "kernel2": self.KERNEL_W,
                "lambda1": 0.05, "lambda2": 0.05, "flow": "hamiltonian",
                # M = 22 * 96 = 2112: dense route, just past the SVD switch at 2048
                "drop_last_time_rows": 2,
                "seed": self.seed, "out": str(self.out["estimate"]),
            },
            "stability": {
                "mesh": mesh, "truth_v": V, "truth_w": W,
                "initial_density": density, "initial_phase": phase,
                "estimates": [{"V": perturbed(2e-3), "W": W},
                              {"V": perturbed(5e-4), "W": W},
                              {"V": V, "W": W}],
                "seed": self.seed, "out": str(self.out["stability"]),
            },
        }
        self.argv = {}
        for command, cfg in configs.items():
            path = self.workdir / f"{command}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.argv[command] = [command, "--config", str(path)]
        self.truth = (cli.function_from_spec(V, "V"), cli.function_from_spec(W, "W"))

    def prepare(self) -> None:
        for path in self.out.values():
            shutil.rmtree(path, ignore_errors=True)

    def run(self, span) -> dict:
        codes = {}
        for command in self.COMMANDS:
            with span("bench.case", case=command):
                try:
                    codes[command] = cli.main(self.argv[command])
                except SystemExit as exc:      # argparse rejects its arguments
                    codes[command] = exc.code
        return codes

    def check(self, codes: dict) -> Outcome:
        outcome = Outcome(attempted=len(self.COMMANDS))
        digests = {}
        for command, code in codes.items():
            out = self.out[command]
            if code != 0:
                outcome.fail(1, f"{command}: exit code {code}")
                continue
            try:
                problem = self._check_artifacts(command, out)
                digests[command] = _deterministic_digests(out)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problem = _error_text(exc)
            if problem:
                outcome.fail(1, f"{command}: {problem}")
                continue
            if self.digests and digests[command] != self.digests[command]:
                outcome.fail(1, f"{command}: artifacts differ from the first run's")
        if self.digests is None and not outcome.failed:
            self.digests = digests
        outcome.counters["artifact_bytes"] = sum(
            p.stat().st_size for out in self.out.values() if out.exists()
            for p in out.iterdir())
        if codes.get("estimate") == 0:
            outcome.rel_err = self._reconstruction_error()
        return outcome

    def _check_artifacts(self, command: str, out: Path) -> str | None:
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            if _sha256(out / name) != digest:
                return f"checksum of {name} does not match manifest.json"
        if command == "estimate":
            diag = json.loads((out / "diagnostics.json").read_text())
            limit = self.STATIONARITY_TOL * max(1.0, abs(diag["loss"]))
            if not diag["stationarity_residual"] <= limit:
                return f"stationarity residual {diag['stationarity_residual']!r} > {limit!r}"
        if command == "stability":
            summary = json.loads((out / "summary.json").read_text())
            if summary["non_increasing_w2"] is not True:
                return "W2 gaps are not non-increasing in the estimate error"
        return None

    def _reconstruction_error(self) -> float:
        """Relative grid L2 error of (Vhat, What) against the truth; constants
        are invisible to the estimator, so grid means are removed first."""
        rec = np.genfromtxt(self.out["estimate"] / "reconstruction.csv",
                            delimiter=",", names=True)
        num = den = 0.0
        for column, truth in zip(("vhat", "what"), self.truth):
            est = rec[column] - rec[column].mean()
            true = truth.value(rec["x"])
            true = true - true.mean()
            num += float(np.sum((est - true) ** 2))
            den += float(np.sum(true**2))
        return math.sqrt(num / den)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _deterministic_digests(out: Path) -> dict:
    """Digests of a run directory's artifacts, leaving out wall-clock data.

    The README promises byte-identical reruns "apart from timings": those
    are timings.json and the `wall_ms` column that `stability` and `sweep`
    write into their CSVs. Such a CSV is digested without that column, and
    manifest.json without that CSV's checksum.
    """
    digests, timed = {}, set()
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            rows = [line.split(",") for line in path.read_text().splitlines()]
            if TIMED_COLUMN in rows[0]:
                timed.add(path.name)
                col = rows[0].index(TIMED_COLUMN)
                text = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)
                digests[path.name] = hashlib.sha256(text.encode()).hexdigest()
                continue
        if path.name not in ("timings.json", "manifest.json"):
            digests[path.name] = _sha256(path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"] = {k: v for k, v in manifest["outputs"].items() if k not in timed}
    digests["manifest.json"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return digests


WORKLOADS = {
    "estimate-large": EstimateLarge,
    "cli-hamiltonian": CliHamiltonian,
}
