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
from dataclasses import dataclass

import numpy as np

from .estimator import EstimationProblem, solve
from .flows import (
    EnergySeries,
    EnergySpec,
    InternalEnergy,
    NO_INTERNAL_ENERGY,
    PeriodicityError,
    gradient_flow_simulate,
    hamiltonian_flow_simulate,
)
from .mesh import PERIODIC, DensityTrajectory, SpaceTimeMesh
from .rkhs import RkhsFunction, rkhs_inner


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

CDF_KINDS = ("linear", "step")
_OFFSET_STEPS = 64     # cap on the Newton/bisection steps of the torus offset
_OFFSET_TOL = 1e-15    # the search stops at a Newton step or bracket this short


class _Quantile:
    """A quantile function as a chain of knots (t_k, x_k), nondecreasing in
    both: linear between knots at distinct levels, a jump of x_{k+1} - x_k
    between two knots at one level.

    Piece k runs from knot k to knot k + 1.  ``pieces`` holds the level,
    value, slope, width and integral int_{t_0}^{t_k} Q of every piece, with
    one more piece of zero width at the top knot, so that every level in
    [t_0, t_K] finds a piece.
    """

    def __init__(self, t: np.ndarray, x: np.ndarray):
        dt, self.dx = t[1:] - t[:-1], x[1:] - x[:-1]
        self.slope = np.divide(self.dx, dt, out=np.zeros_like(dt), where=dt > 0)
        self.inv_dt = np.divide(1.0, dt, out=np.zeros_like(dt), where=dt > 0)
        self.t, self.x = t, x
        integral = np.concatenate([[0.0], np.cumsum(dt * (x[:-1] + x[1:]))]) / 2.0
        self.pieces = np.stack([t, x, np.append(self.slope, 0.0), np.append(dt, 0.0),
                                integral])

    @classmethod
    def of(cls, rho: np.ndarray, mesh: SpaceTimeMesh, cdf_kind: str) -> "_Quantile":
        """``"linear"``: the knots of the piecewise-linear CDF, levels F_j at
        a + j dx.  ``"step"``: atoms rho_n dx at the cell ends x_n, so a jump
        of dx at every level F_j, j < N, and flat in between."""
        F = np.concatenate([[0.0], np.cumsum(rho)])
        F /= F[-1]
        xs = np.concatenate([[mesh.a], mesh.x])
        if cdf_kind == "linear":
            return cls(F, xs)
        return cls(np.append(np.repeat(F[:-1], 2), 1.0),
                   np.insert(np.repeat(xs[1:], 2), 0, xs[0]))

    def lifted(self, length: float) -> "_Quantile":
        """The lift Q(s) = Q(s - 1) + length, on s in [-1, 2]."""
        return _Quantile(np.concatenate([self.t - 1.0, self.t, self.t + 1.0]),
                         np.concatenate([self.x - length, self.x, self.x + length]))

    def piece(self, u, side: str = "right"):
        """Index of the piece that holds Q(u+) (``side="right"``) or Q(u-)."""
        return np.searchsorted(self.t, u, side) - 1

    def on_piece(self, k: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Q on pieces k at u, clamped to each piece."""
        t, x, slope, width, _ = self.pieces[:, k]
        return x + slope * np.minimum(np.maximum(u - t, 0.0), width)


def _offset_cost(q_rho: _Quantile, q_sig: _Quantile, theta: float) -> float:
    """int_0^1 (Q_rho(t) - Q_sig(t - theta))^2 dt, exact: between merged knots
    both are linear, so the gap g is too and a piece of width h adds
    h (g0^2 + g0 g1 + g1^2) / 3.  The clamp in ``on_piece`` keeps a knot
    that the shift rounded within its piece."""
    knots = np.sort(np.concatenate([
        q_rho.t, np.minimum(np.maximum(q_sig.t + theta, 0.0), 1.0)]))
    ends = np.stack([knots[:-1], knots[1:]])
    mid = 0.5 * (ends[0] + ends[1])
    g0, g1 = (q_rho.on_piece(q_rho.piece(mid), ends)
              - q_sig.on_piece(q_sig.piece(mid - theta), ends - theta))
    return float((ends[1] - ends[0]) @ (g0 * g0 + g0 * g1 + g1 * g1)) / 3.0


def _offset_slopes(q_rho: _Quantile, q_sig: _Quantile, length: float,
                   theta: float) -> tuple[float, float]:
    """C'(theta+) and C''(theta) of C(theta) = ``_offset_cost`` for the lift
    ``q_sig``, in O(N) after one search.

    C' = 2 sum_k dx_k phi_k mean_k + length^2 - 2 length Q_sig((1 - theta)-),
    summed over the lift's pieces shifted by theta: phi_k is the share of
    piece k inside (0, 1) and mean_k the mean of Q_rho over that share, from
    J(u) = int_0^u Q_rho.  A jump piece (zero width) at level u in [0, 1)
    takes the limit Q_rho(u+); at level 1 it has left.  Each mean is
    clamped to the range of Q_rho over its share, which holds it where the
    difference of J cancels.  C'' is the same sum with Q_rho 1_(0, 1) in
    place of J, plus 2 length Q_sig'.
    """
    s = q_sig.t + theta
    u = np.minimum(np.maximum(s, 0.0), 1.0)
    t, x, slope, _, integral = q_rho.pieces[:, q_rho.piece(u)]
    d = u - t
    rise = slope * d
    q_at = x + rise
    J = integral + d * (x + 0.5 * rise)
    du = u[1:] - u[:-1]
    q_lo, q_hi = q_at[:-1], q_at[1:]
    mean = np.divide(J[1:] - J[:-1], du, out=q_lo.copy(), where=du > 0.0)
    mean = np.minimum(np.maximum(mean, q_lo), q_hi)
    lo, hi = s[:-1], s[1:]
    share = np.where((lo >= 0.0) & (lo < 1.0) & (hi <= 1.0), 1.0, du * q_sig.inv_dt)
    end = 1.0 - theta
    t_end, x_end, slope_end, _, _ = q_sig.pieces[:, q_sig.piece(end, "left")]
    first = (2.0 * (q_sig.dx * share) @ mean
             + length * (length - 2.0 * (x_end + slope_end * (end - t_end))))
    q_in = np.where((s > 0.0) & (s < 1.0), q_at, 0.0)
    second = 2.0 * (q_sig.slope @ (q_in[1:] - q_in[:-1]) + length * slope_end)
    return float(first), float(second)


def _best_offset(q_rho: _Quantile, q_sig: _Quantile, length: float) -> float:
    """The minimizer of the convex offset cost on [-1, 1]: Newton on C',
    kept inside the bracket C'(lo+) < 0 <= C'(hi+) and replaced by
    bisection where it would leave it, where it does not halve the step
    before last, or where C'' = 0 (the ``"step"`` kind).  A bisection ends
    at the bracket's upper end, so a kink of the cost that is a float (the
    minimum of the ``"step"`` kind, theta = 0 for equal inputs) is met
    exactly."""
    lo, hi, theta = -1.0, 1.0, 0.0
    before = last = hi - lo
    for _ in range(_OFFSET_STEPS):
        first, second = _offset_slopes(q_rho, q_sig, length, theta)
        if first == 0.0:
            return theta
        if first < 0.0:
            lo = theta
        else:
            hi = theta
        step = first / second if second > 0.0 else np.inf
        if not lo < theta - step < hi or abs(step) > 0.5 * before:
            if hi - lo <= _OFFSET_TOL:
                return hi
            step = theta - 0.5 * (lo + hi)
        elif abs(step) <= _OFFSET_TOL:
            return theta - step
        before, last = last, abs(step)
        theta -= step
    return theta


def wasserstein2_1d(rho: np.ndarray, sigma: np.ndarray, mesh: SpaceTimeMesh,
                    periodic: bool = False, cdf_kind: str = "linear") -> float:
    """Exact W2 distance of two grid densities via the quantile formula.

    Each density's CDF is normalized to unit mass; ``cdf_kind`` selects its
    inversion: "linear" treats the samples as a piecewise-constant density
    (a piecewise-linear CDF), "step" as atoms of mass rho_n dx at x_n (which
    matches discrete optimal transport).  Either way each quantile function
    is piecewise linear, possibly with jumps, so the squared gap integrates
    in closed form over the merged knots.

    On the line this is the L2 distance of the quantile functions.  On the
    torus the transport may wind, so the distance minimizes over a
    continuous level offset theta of the periodic lift Q(s + 1) = Q(s) +
    |domain| of sigma's quantile function:

        W2^2 = min_theta int_0^1 (Q_rho(t) - Q_sigma(t - theta))^2 dt.

    The cost is convex in theta (Delon, Salomon & Sobolevski 2010), and its
    minimum lies in [-1, 1]: past either end every displacement has the
    same sign, so the cost decreases towards the interval.  The offset is
    found by bracketed Newton on the exact derivative, at most 64 steps.
    """
    if cdf_kind not in CDF_KINDS:
        raise AnalysisError(f"unknown cdf interpolation {cdf_kind!r}")
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if rho.shape != (mesh.N,) or sigma.shape != (mesh.N,):
        raise AnalysisError("densities must be length-N vectors on the mesh")
    if np.any(rho <= 0) or np.any(sigma <= 0):
        raise AnalysisError("W2 inputs must be strictly positive")
    m1, m2 = mesh.dx * rho.sum(), mesh.dx * sigma.sum()
    if abs(m1 - m2) > 0.02 * max(m1, m2):
        raise AnalysisError(f"masses differ by more than 2%: {m1:.4g} vs {m2:.4g}")
    q_rho = _Quantile.of(rho, mesh, cdf_kind)
    q_sig = _Quantile.of(sigma, mesh, cdf_kind)
    if not periodic:
        return float(np.sqrt(_offset_cost(q_rho, q_sig, 0.0)))
    lift = q_sig.lifted(mesh.domain_length)
    theta = _best_offset(q_rho, lift, mesh.domain_length)
    return float(np.sqrt(_offset_cost(q_rho, lift, theta)))


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
    initial_center: float | tuple = 0.5
    initial_sigma: float | tuple = 0.14
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
        if len(self.window) != 2 or not self.window[0] < self.window[1]:
            raise AnalysisError(f"window must be a pair (a, b) with a < b, got {self.window}")
        if list(self.N_list) != sorted(set(int(n) for n in self.N_list)):
            raise AnalysisError("N_list must be strictly increasing integers")
        if not self.N_list or self.N_list[0] < 1:
            raise AnalysisError(f"N_list must be non-empty and positive, got {self.N_list}")
        if not (self.T > 0 and self.c_lambda > 0 and self.c_L > 0):
            raise AnalysisError("T, c_lambda and c_L must be positive, got "
                                f"{self.T}, {self.c_lambda}, {self.c_L}")
        check_bump(self.initial_sigma, self.initial_uniform_weight, prefix="initial_")

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


def check_bump(sigma, uniform_weight: float, bump_weights=None, prefix: str = "") -> None:
    """Range check of ``bump_density``'s parameters: every sigma positive,
    0 <= uniform_weight <= 1, and bump weights (when given) non-negative
    with a positive sum.  Messages name the keys with ``prefix``."""
    if not np.all(np.asarray(sigma, dtype=float) > 0):
        raise AnalysisError(f"{prefix}sigma must be positive, got {sigma!r}")
    if not 0 <= uniform_weight <= 1:
        raise AnalysisError(f"{prefix}uniform_weight must lie in [0, 1], got {uniform_weight!r}")
    weights = np.asarray(bump_weights if bump_weights is not None else 1.0, dtype=float)
    if not (np.all(weights >= 0) and weights.sum() > 0):
        raise AnalysisError(f"{prefix}bump_weights must be non-negative with a positive "
                            f"sum, got {bump_weights!r}")


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
                         dt_solver: float | None = None) -> list[dict]:
    """Torus W2 gaps between the Hamiltonian flow of the true energies and
    the flow of each estimated pair, one record per estimate.

    Every gap is the exact torus distance ``wasserstein2_1d(periodic=True)``
    of the two densities at one output time; ``sup_w2`` is their maximum.

    All flows start from the same (mu0, phi0), so the initial-distance term
    of the stability bound vanishes; reported alongside is the kernel-norm
    discrepancy weighted by the C^2-embedding constants of the two kernels.
    The truth and every estimate are integrated in one lockstep call of
    ``hamiltonian_flow_simulate``, the truth as flow 0 and estimate i as
    flow i + 1, which is how a particle crossing names its flow; each
    record's ``wall_s`` is the time of that estimate's W2 comparison.  The
    series tables of every energy are built before any flow starts, so a V
    or W that is not periodic on the torus raises ``PeriodicityError``
    naming it ("truth V", "estimate i W", ...) without simulating anything.
    """
    specs = [EnergySpec(V=v, W=w) for v, w in [truth, *estimates]]
    names = ["truth"] + [f"estimate {i}" for i in range(len(estimates))]
    series = []
    for name, spec in zip(names, specs):
        try:
            series.append(EnergySeries(spec, mesh.a, mesh.domain_length))
        except PeriodicityError as exc:
            raise PeriodicityError(exc.function, f"{name} {exc.function}: {exc}") from None
    (traj_true, *trajs), _ = hamiltonian_flow_simulate(
        mu0, phi0, specs, mesh, dt_solver, series=series)
    kappa1 = np.sqrt(2.0 * truth[0].kernel.sup_norm_c4(mesh.a, mesh.b))
    kappa2 = np.sqrt(2.0 * truth[1].kernel.sup_norm_c4(mesh.a, mesh.b))
    records = []
    for estimate, traj_est in zip(estimates, trajs):
        t0 = time.perf_counter()
        w2 = [
            wasserstein2_1d(traj_true.values[l], traj_est.values[l], mesh, periodic=True)
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
