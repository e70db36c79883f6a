"""Experiment harness: convergence sweeps, 1-D Wasserstein-2 distance, and
the flow-stability comparison between true and estimated dynamics.

The sweep generates gradient-flow data from an in-RKHS ground truth on a
fine periodic mesh, restricts it to coarser (N, L) grids with the coupled
scalings

    lambda = c_lambda * N^(-alpha),      L = ceil(c_L * N^beta),

runs the estimator at every N, and fits the log-log slope of the RKHS
reconstruction error.  Ground truths are periodized kernel expansions, so
every error is an exact Gram computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .estimator import EstimationProblem, EstimatorResult, solve
from .flows import (
    EnergySpec,
    InteractionSeries,
    InternalEnergy,
    NO_INTERNAL_ENERGY,
    PeriodicityError,
    gradient_flow_simulate,
    hamiltonian_flow_simulate,
)
from .kernels import SmoothKernel
from .mesh import PERIODIC, DensityTrajectory, SpaceTimeMesh
from .rkhs import RkhsFunction, rkhs_inner, rkhs_norm


class AnalysisError(ValueError):
    """Invalid experiment configuration or incompatible inputs."""


# ---------------------------------------------------------------------------
# RKHS reconstruction error
# ---------------------------------------------------------------------------

def _distance_sq(f: RkhsFunction, g: RkhsFunction) -> float:
    """|f - g|^2 as <f, f> - 2 <f, g> + <g, g>, clamped at 0.

    Equal arguments give exactly 0, since <f, g> then rounds to the same
    number as <f, f>; otherwise the sum cancels to within about
    eps (|f|^2 + |g|^2) and may round below 0.
    """
    return max(rkhs_inner(f, f) - 2.0 * rkhs_inner(f, g) + rkhs_inner(g, g), 0.0)


def rkhs_error(estimate: tuple[RkhsFunction, RkhsFunction],
               truth: tuple[RkhsFunction, RkhsFunction]) -> float:
    """Product-space error sqrt(|Vhat - V|^2 + |What - W|^2)."""
    return float(np.sqrt(_distance_sq(estimate[0], truth[0])
                         + _distance_sq(estimate[1], truth[1])))


def pair_norm(pair: tuple[RkhsFunction, RkhsFunction]) -> float:
    return float(np.sqrt(max(
        rkhs_inner(pair[0], pair[0]) + rkhs_inner(pair[1], pair[1]), 0.0)))


def wrap_periodic(f: RkhsFunction, period: float, copies: int | None = None) -> RkhsFunction:
    """Periodize a kernel expansion by replicating generators over shifts.

    The number of copies defaults to however many the kernel tail needs to
    be below 1e-15 of its peak across one period.
    """
    if copies is None:
        copies = 1
        while copies < 64:
            tail = abs(f.kernel.profile(0, copies * period - period))
            if tail < 1e-15 * abs(f.kernel.profile(0, 0.0)):
                break
            copies += 1
    shifts = period * np.arange(-copies, copies + 1)
    centers = (f.centers[:, None] + shifts[None, :]).ravel()
    orders = np.repeat(f.orders, shifts.size)
    coeffs = np.repeat(f.coeffs, shifts.size)
    return RkhsFunction(f.kernel, orders, centers, coeffs)


# ---------------------------------------------------------------------------
# 1-D Wasserstein-2 distance
# ---------------------------------------------------------------------------

def _cdf_points(rho: np.ndarray, mesh: SpaceTimeMesh) -> tuple[np.ndarray, np.ndarray]:
    mass = mesh.dx * rho.sum()
    F = np.concatenate([[0.0], np.cumsum(rho) * mesh.dx / mass])
    xs = np.concatenate([[mesh.a], mesh.x])
    return xs, F


def _quantiles(rho: np.ndarray, mesh: SpaceTimeMesh, levels: np.ndarray,
               cdf_kind: str) -> np.ndarray:
    xs, F = _cdf_points(rho, mesh)
    if cdf_kind == "linear":
        return np.interp(levels, F, xs)
    if cdf_kind == "step":
        idx = np.searchsorted(F[1:], levels, side="left")
        return mesh.x[np.minimum(idx, mesh.N - 1)]
    raise AnalysisError(f"unknown cdf interpolation {cdf_kind!r}")


def wasserstein2_1d(rho: np.ndarray, sigma: np.ndarray, mesh: SpaceTimeMesh,
                    n_quantiles: int = 512, periodic: bool = False,
                    cdf_kind: str = "linear") -> float:
    """W2 distance of two grid densities via the quantile formula.

    On the line this is the L2 distance of the quantile functions.  On the
    torus the transport may wind, so the distance minimizes over a grid of
    level offsets of one quantile function, evaluated through its periodic
    lift Q(t + 1) = Q(t) + |domain|.  The optimal offset lies in [-1, 1]:
    past either end every displacement has the same sign, so the cost
    decreases towards the interval.  The grid is k/N for -N <= k < N; an
    offset below 0 reuses the quantiles of the offset one higher, lifted by
    one more period.

    ``cdf_kind`` selects the monotone CDF inversion: "linear" treats the
    samples as a piecewise-linear CDF (continuous densities), "step" as
    atoms of mass rho_n dx at x_n (matches discrete optimal transport).
    """
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if rho.shape != (mesh.N,) or sigma.shape != (mesh.N,):
        raise AnalysisError("densities must be length-N vectors on the mesh")
    if np.any(rho <= 0) or np.any(sigma <= 0):
        raise AnalysisError("W2 inputs must be strictly positive")
    m1, m2 = mesh.dx * rho.sum(), mesh.dx * sigma.sum()
    if abs(m1 - m2) > 0.02 * max(m1, m2):
        raise AnalysisError(f"masses differ by more than 2%: {m1:.4g} vs {m2:.4g}")
    levels = (np.arange(n_quantiles) + 0.5) / n_quantiles
    q_rho = _quantiles(rho, mesh, levels, cdf_kind)
    if not periodic:
        q_sigma = _quantiles(sigma, mesh, levels, cdf_kind)
        return float(np.sqrt(np.mean((q_rho - q_sigma) ** 2)))
    length = mesh.domain_length
    offsets = np.arange(mesh.N) / mesh.N
    shifted = levels[None, :] - offsets[:, None]
    winding = np.floor(shifted)
    frac = shifted - winding
    q_sigma = _quantiles(sigma, mesh, frac.ravel(), cdf_kind).reshape(frac.shape)
    lifted = q_sigma + winding * length
    gaps = q_rho[None, :] - lifted
    costs = np.mean(gaps**2, axis=1)
    costs_below = np.mean((gaps - length) ** 2, axis=1)
    return float(np.sqrt(min(costs.min(), costs_below.min())))


# ---------------------------------------------------------------------------
# Convergence sweep
# ---------------------------------------------------------------------------

# trailing time rows a sweep or ``cli estimate`` leaves out of the fit unless
# told otherwise: the last row's forward time difference has no successor
# sample and carries O(1/dt) truncation error
DROP_LAST_TIME_ROWS = 1


@dataclass
class SweepPlan:
    """Configuration of one convergence-rate experiment.

    Ground truths must be expansions in the estimation kernels so that the
    RKHS error is exactly computable.  Data is generated on the estimation
    window with periodic boundary conditions and a ground truth periodized
    over the window, which keeps the grid-truncated convolution of the
    estimator consistent with the generating dynamics.
    """

    N_list: tuple
    alpha: float
    beta: float
    truth_v: RkhsFunction
    truth_w: RkhsFunction
    T: float
    window: tuple[float, float] = (0.0, 1.0)
    c_lambda: float = 1.0
    c_L: float = 1.0
    fine_factor: int = 4
    internal: InternalEnergy = NO_INTERNAL_ENERGY
    scheme: str = "divergence"
    initial_center: float = 0.5
    initial_sigma: float = 0.14
    initial_uniform_weight: float = 0.35
    drop_last_time_rows: int = DROP_LAST_TIME_ROWS
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < 1.0 / 3.0:
            raise AnalysisError(f"alpha must lie in (0, 1/3), got {self.alpha}")
        if not self.beta > 3 * self.alpha:
            raise AnalysisError(
                f"beta must exceed 3*alpha, got beta={self.beta}, alpha={self.alpha}"
            )
        if self.fine_factor < 4:
            raise AnalysisError("fine_factor must be at least 4")
        if list(self.N_list) != sorted(set(int(n) for n in self.N_list)):
            raise AnalysisError("N_list must be strictly increasing integers")

    def lambda_at(self, N: int) -> float:
        return self.c_lambda * float(N) ** (-self.alpha)

    def L_at(self, N: int) -> int:
        return int(np.ceil(self.c_L * float(N) ** self.beta))


@dataclass
class SweepReport:
    N_list: list
    lambdas: list
    L_list: list
    errors: list                      # absolute RKHS errors
    relative_errors: list
    sup_errors: list                  # sampled sup-norm of (Vhat-V, What-W)
    slope: float | None
    predicted_bands: dict
    truth_norm: float
    wall_s: list                      # seconds per N, for timings.json
    seed: int
    sup_w2: list = field(default_factory=list)


def bump_density(x: np.ndarray, length: float, center, sigma,
                 uniform_weight: float, bump_weights=None) -> np.ndarray:
    """Strictly positive unit-mass blend of uniform and periodized Gaussians.

    ``center`` and ``sigma`` may be sequences for multi-bump profiles;
    ``bump_weights`` sets the relative masses (defaults to equal).
    """
    centers = np.atleast_1d(np.asarray(center, dtype=float))
    sigmas = np.broadcast_to(np.atleast_1d(np.asarray(sigma, dtype=float)),
                             centers.shape)
    if bump_weights is None:
        bump_weights = np.ones_like(centers)
    bump_weights = np.asarray(bump_weights, dtype=float)
    bump_weights = bump_weights / bump_weights.sum()
    bump = np.zeros_like(x)
    for c, s, w in zip(centers, sigmas, bump_weights):
        copies = max(2, int(np.ceil(6 * s / length)) + 1)
        part = np.zeros_like(x)
        for k in range(-copies, copies + 1):
            part += np.exp(-((x - c + k * length) ** 2) / (2 * s**2))
        bump += w * part / (part.sum() * (x[1] - x[0]))
    uniform = 1.0 / length
    return uniform_weight * uniform + (1.0 - uniform_weight) * bump


def generate_gradient_data(plan: SweepPlan, N: int, L: int) -> DensityTrajectory:
    """Simulate on the fine periodic mesh and restrict to the (N, L) grid."""
    a, b = plan.window
    mesh = SpaceTimeMesh(a, b, plan.T, N, L)
    fine = SpaceTimeMesh(a, b, plan.T, plan.fine_factor * N, L)
    period = b - a
    spec = EnergySpec(
        V=wrap_periodic(plan.truth_v, period),
        W=wrap_periodic(plan.truth_w, period),
        U=plan.internal,
    )
    rho0 = bump_density(fine.x, period, plan.initial_center, plan.initial_sigma,
                        plan.initial_uniform_weight)
    fine_traj, _ = gradient_flow_simulate(rho0, spec, fine, scheme=plan.scheme)
    take = plan.fine_factor * np.arange(1, N + 1) - 1
    values = fine_traj.values[:, take]
    return DensityTrajectory(mesh, values, boundary_mode=PERIODIC)


def predicted_exponents(alpha: float, beta: float,
                        gammas=(0.25, 0.5, 0.75, 1.0)) -> dict:
    """Theoretical rate exponents min(alpha*gamma, (beta-3alpha)/2 | (1-3alpha)/2)
    over a grid of source-condition exponents gamma (not observable from data)."""
    cap = 0.5 * ((beta - 3 * alpha) if beta <= 1 else (1 - 3 * alpha))
    return {f"gamma={g:g}": min(alpha * g, cap) for g in gammas}


def fit_loglog_slope(Ns, errors) -> float | None:
    errors = np.asarray(errors, dtype=float)
    if errors.size < 2 or np.any(errors <= 0):
        return None
    coeffs = np.polyfit(np.log(np.asarray(Ns, dtype=float)), np.log(errors), 1)
    return float(coeffs[0])


def run_sweep(plan: SweepPlan) -> SweepReport:
    truth = (plan.truth_v, plan.truth_w)
    truth_norm = pair_norm(truth)
    report = SweepReport(
        N_list=[], lambdas=[], L_list=[], errors=[], relative_errors=[],
        sup_errors=[], slope=None,
        predicted_bands=predicted_exponents(plan.alpha, plan.beta),
        truth_norm=truth_norm, wall_s=[], seed=plan.seed,
    )
    a, b = plan.window
    sample_x = np.linspace(a, b, 201)
    for N in plan.N_list:
        t0 = time.perf_counter()
        L = plan.L_at(N)
        lam = plan.lambda_at(N)
        traj = generate_gradient_data(plan, N, L)
        problem = EstimationProblem(
            traj, plan.truth_v.kernel, plan.truth_w.kernel,
            lambda1=lam, lambda2=lam,
            known_u=plan.internal,
            drop_last_time_rows=plan.drop_last_time_rows,
        )
        result = solve(problem)
        err = rkhs_error((result.Vhat, result.What), truth)
        sup_err = max(
            float(np.max(np.abs(result.Vhat.value(sample_x) - plan.truth_v.value(sample_x)))),
            float(np.max(np.abs(result.What.value(sample_x) - plan.truth_w.value(sample_x)))),
        )
        report.N_list.append(int(N))
        report.lambdas.append(lam)
        report.L_list.append(L)
        report.errors.append(err)
        report.relative_errors.append(err / truth_norm if truth_norm > 0 else err)
        report.sup_errors.append(sup_err)
        report.wall_s.append(time.perf_counter() - t0)
    if truth_norm > 0 and all(e > 1e-10 for e in report.errors):
        report.slope = fit_loglog_slope(report.N_list, report.errors)
    return report


# ---------------------------------------------------------------------------
# Flow stability
# ---------------------------------------------------------------------------

def stability_experiment(truth: tuple[RkhsFunction, RkhsFunction],
                         estimates: list[tuple[RkhsFunction, RkhsFunction]],
                         mu0: np.ndarray, phi0, mesh: SpaceTimeMesh,
                         n_quantiles: int = 512,
                         dt_solver: float | None = None) -> list[dict]:
    """Torus W2 gaps between the Hamiltonian flow of the true energies and
    the flow of each estimated pair, one record per estimate.

    All flows start from the same (mu0, phi0), so the initial-distance term
    of the stability bound vanishes; reported alongside is the kernel-norm
    discrepancy weighted by the C^2-embedding constants of the two kernels.
    The true flow is simulated once and shared by every comparison; each
    record's ``wall_s`` is the time of that estimate's flow and comparison.
    The pair-sum series of every W is built before any flow starts, so a W
    that is not periodic on the torus raises ``PeriodicityError`` naming
    it ("truth W" or "estimate i W") without simulating anything.
    """
    specs = [EnergySpec(V=v, W=w) for v, w in [truth, *estimates]]
    names = ["truth"] + [f"estimate {i}" for i in range(len(estimates))]
    series = []
    for name, spec in zip(names, specs):
        try:
            series.append(None if spec.W is None
                          else InteractionSeries(spec.W, mesh.domain_length))
        except PeriodicityError as exc:
            raise PeriodicityError(f"{name} W: {exc}") from None
    traj_true, _ = hamiltonian_flow_simulate(
        mu0, phi0, specs[0], mesh, dt_solver, series=series[0])
    kappa1 = np.sqrt(2.0 * truth[0].kernel.sup_norm_c4(mesh.a, mesh.b))
    kappa2 = np.sqrt(2.0 * truth[1].kernel.sup_norm_c4(mesh.a, mesh.b))
    records = []
    for estimate, spec, est_series in zip(estimates, specs[1:], series[1:]):
        t0 = time.perf_counter()
        traj_est, _ = hamiltonian_flow_simulate(
            mu0, phi0, spec, mesh, dt_solver, series=est_series)
        w2 = [
            wasserstein2_1d(traj_true.values[l], traj_est.values[l], mesh,
                            n_quantiles=n_quantiles, periodic=True)
            for l in range(mesh.L)
        ]
        discrepancy = float(np.sqrt(
            kappa1**2 * _distance_sq(truth[0], estimate[0])
            + kappa2**2 * _distance_sq(truth[1], estimate[1])
        ))
        records.append({
            "sup_w2": float(max(w2)),
            "w2_per_time": w2,
            "rkhs_error": rkhs_error(estimate, truth),
            "weighted_rkhs_discrepancy": discrepancy,
            "wall_s": time.perf_counter() - t0,
        })
    return records


# ---------------------------------------------------------------------------
# Exact-derivative diagnostics (error decomposition)
# ---------------------------------------------------------------------------

def spectral_slopes(traj: DensityTrajectory) -> np.ndarray:
    """Spectral d/dx of every slice; periodic data only."""
    if traj.boundary_mode != PERIODIC:
        raise AnalysisError("spectral slopes need periodic data")
    N = traj.mesh.N
    k = 2j * np.pi * np.fft.rfftfreq(N, d=traj.mesh.dx)
    return np.fft.irfft(k * np.fft.rfft(traj.values, axis=1), n=N, axis=1)


def exact_data_functional(traj: DensityTrajectory,
                          known_u: InternalEnergy = NO_INTERNAL_ENERGY) -> np.ndarray:
    """Gradient-flow data functional with spectral x- and central t-derivatives.

    Diagnostic companion of the forward-difference functional: substituting
    it (with the spectral slopes) isolates the scheme-dependent part of the
    reconstruction error.
    """
    dt_rho = np.gradient(traj.values, traj.mesh.dt, axis=0, edge_order=2)
    f = dt_rho
    if known_u.kind != "none":
        dx_rho = spectral_slopes(traj)
        du2 = known_u.d2u(traj.values)
        g1 = du2 * dx_rho
        N = traj.mesh.N
        k = 2j * np.pi * np.fft.rfftfreq(N, d=traj.mesh.dx)
        g2 = np.fft.irfft(k * np.fft.rfft(g1, axis=1), n=N, axis=1)
        f = f - dx_rho * g1 - traj.values * g2
    return f
