"""Closed-form kernel estimator of potential and interaction functions.

Given trajectory data, the inverse solver regresses the flow's forcing
operator onto kernel sections.  With node weights a = (d+ rho)_l^n and
r = rho_l^n, the forward operator acting on a candidate pair (phi, psi) is

    Op(phi, psi)(t_l, x_n) = a d/dx (phi + psi conv rho_l)(x_n)
                           + r d2/dx2 (phi + psi conv rho_l)(x_n),

and the data side f collects the forward-differenced time derivatives plus,
for Hamiltonian data, the geodesic correction term.  The regularized least
squares over the product RKHS has the closed-form solution

    (G + l1 l2 / (dt dx) C) z = C f,      C = diag(rho),
    coef_V = l2 z,   coef_W = l1 z,

with G the density-weighted Gram of the two section families.  Both section
families are spanned by few generators (2N for plain sections, 2(2N-1) for
convolved ones), so G factors exactly as C (l2 F1 Kt1 F1' + l1 F2 Kt2 F2') C
with tall-skinny F factors.  Every problem is solved through that
factorization (Woodbury identity plus two steps of iterative refinement)
without materializing G; a dense Cholesky solve of the same system is kept
in the tests as the reference it is checked against.  The F factors are not
materialized either: F1 is applied as a broadcast over its two nonzeros per
row and F2 as one sliding-window matmul of the reversed densities per grid
node (see ``SectionFactors``), so beyond the K~ blocks the solve holds only
O(M k) arrays for generator rank k.  Nor is any K~ eigendecomposed in full:
a pivoted Cholesky, stopped at pivots below 1e-15 of its largest diagonal
entry, reveals its numerical rank in O(n^2 r), and an r x r eigensolve keeps
the directions above the 1e-14 relative eigenvalue cut (``_generator_factor``).

A third kernel turns the solver into the three-function variant that learns
the internal-energy contribution as an additional x-dependent term inside
the operator, with coefficient products of the complementary regularizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .flows import InternalEnergy, NO_INTERNAL_ENERGY, christoffel_term
from .kernels import SmoothKernel
from .mesh import PERIODIC, DensityTrajectory, diff_space
from .rkhs import CONVOLVED, PLAIN, RkhsFunction, difference_grid, rkhs_inner

GRADIENT = "gradient"
HAMILTONIAN = "hamiltonian"

# pivoted Cholesky of a generator Gram stops at pivots below this fraction
# of its largest diagonal entry, a decade under the 1e-14 eigenvalue cut
_PIVOT_TOL = 1e-15
# rows of the stacked factor per block when forming the k x k Grams
_ROW_BLOCK = 2048


class EstimatorError(RuntimeError):
    """Ill-posed problem setup or linear-algebra failure."""


@dataclass
class EstimationProblem:
    """Inputs of one inverse solve.

    ``drop_last_time_rows`` removes trailing time rows from the fitted node
    set (their forward time differences have no successor sample and carry
    O(1/dt) truncation error); the dropped rows still feed the time
    differences of the remaining rows.  Default 0 keeps every row.

    ``spatial_slope_override`` replaces the forward-differenced density
    slopes by caller-supplied values (e.g. spectral derivatives) and
    ``f_override`` replaces the assembled data functional; both exist for
    error-decomposition diagnostics.
    """

    traj: DensityTrajectory
    kernel1: SmoothKernel
    kernel2: SmoothKernel
    lambda1: float
    lambda2: float
    flow_kind: str = GRADIENT
    known_u: InternalEnergy = NO_INTERNAL_ENERGY
    kernel3: SmoothKernel | None = None
    lambda3: float | None = None
    drop_last_time_rows: int = 0
    spatial_slope_override: np.ndarray | None = None
    f_override: np.ndarray | None = None

    def __post_init__(self):
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise EstimatorError("regularization parameters must be positive")
        if (self.kernel3 is None) != (self.lambda3 is None):
            raise EstimatorError("kernel3 and lambda3 must be supplied together")
        if self.lambda3 is not None and self.lambda3 <= 0:
            raise EstimatorError("lambda3 must be positive")
        if self.flow_kind not in (GRADIENT, HAMILTONIAN):
            raise EstimatorError(f"unknown flow kind {self.flow_kind!r}")
        if self.flow_kind == HAMILTONIAN:
            if self.traj.mesh.L < 3:
                raise EstimatorError("Hamiltonian estimation needs L >= 3")
            if self.traj.boundary_mode != PERIODIC:
                raise EstimatorError(
                    "Hamiltonian estimation needs periodic data (the geodesic "
                    "correction solves an elliptic problem on the torus)"
                )
        if not self.known_u.pointwise:
            raise EstimatorError(
                f"internal energy {self.known_u.kind!r} has no pointwise "
                "derivatives; the data functional cannot be assembled"
            )
        if not 0 <= self.drop_last_time_rows < self.traj.mesh.L:
            raise EstimatorError("drop_last_time_rows must leave at least one row")

    @property
    def learn_internal(self) -> bool:
        return self.kernel3 is not None

    @property
    def fit_rows(self) -> int:
        return self.traj.mesh.L - self.drop_last_time_rows

    @property
    def node_count(self) -> int:
        return self.fit_rows * self.traj.mesh.N

    @property
    def node_weight(self) -> float:
        """Riemann weight dt*dx of one space-time node (= T|Omega|/NL)."""
        return self.traj.mesh.dt * self.traj.mesh.dx


@dataclass
class EstimatorResult:
    """Coefficients, reconstructed functions, and diagnostics of one solve.

    ``method`` names the solve route ("lowrank", the only one) and
    ``gram_condition`` is an upper bound on the system's condition number.
    ``kept_rank`` maps each learned function ("V", "W", "U") to
    [generator directions kept, generator count]: the pivoted Cholesky of
    the generator Gram stops at pivots below 1e-15 of its largest diagonal
    entry, and of its compressed directions those with eigenvalue above
    1e-14 of the largest are kept.  ``jitter`` is the diagonal jitter,
    relative to the largest diagonal entry, that the Woodbury core needed
    to factor (0.0 when none).
    """

    C1: np.ndarray
    C2: np.ndarray
    Vhat: RkhsFunction
    What: RkhsFunction
    rkhs_norms: dict
    loss_value: float
    residual_vector: np.ndarray
    gram_condition: float
    lambdas: tuple
    method: str
    C3: np.ndarray | None = None
    Uhat: RkhsFunction | None = None
    kept_rank: dict = field(default_factory=dict)
    jitter: float = 0.0
    operator_image: np.ndarray = field(default=None, repr=False)
    data_vector: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Data functional
# ---------------------------------------------------------------------------

def assemble_data_functional(traj: DensityTrajectory, flow_kind: str,
                             known_u: InternalEnergy = NO_INTERNAL_ENERGY,
                             include_internal: bool = True) -> np.ndarray:
    """Data side f of the regression, shape (L, N).

    gradient:     f = d+_t rho - a d/dx U'(rho) - rho d2/dx2 U'(rho)
    hamiltonian:  adds d+_tt rho and the geodesic correction on the
                  forward-differenced time slices.

    Spatial derivatives of U'(rho) use the chain rule with the same forward
    differences as the operator: d/dx U'(rho) ~ U''(rho) (d+ rho), second
    derivative by differencing that product again.  For the three-function
    estimator (``include_internal=False``) the internal-energy terms are
    omitted because that contribution is learned.
    """
    mesh = traj.mesh
    if flow_kind == GRADIENT:
        f = traj.dt_plus().copy()
    elif flow_kind == HAMILTONIAN:
        if mesh.L < 3:
            raise EstimatorError("Hamiltonian data functional needs L >= 3")
        if traj.boundary_mode != PERIODIC:
            raise EstimatorError("Hamiltonian data functional needs periodic data")
        f = traj.dtt_plus().copy()
        slopes = traj.dt_plus()
        for l in range(mesh.L):
            sdot = slopes[l]
            # geodesic correction is defined on zero-mean tangent slices;
            # project out the (discretization-induced) mean component
            f[l] += christoffel_term(traj.values[l], sdot - sdot.mean(), mesh)
    else:
        raise EstimatorError(f"unknown flow kind {flow_kind!r}")
    if include_internal and known_u.kind != "none":
        if not known_u.pointwise:
            raise EstimatorError(f"{known_u.kind!r} energy not supported here")
        a = traj.dx_plus()
        g1 = known_u.d2u(traj.values) * a
        g2 = diff_space(g1, mesh.dx, traj.boundary_mode)
        f = f - a * g1 - traj.values * g2
    return f


# ---------------------------------------------------------------------------
# Section factors
# ---------------------------------------------------------------------------

@dataclass
class SectionFactors:
    """Exact low-rank factorization of the section Gram matrices.

    Plain sections of a kernel K over nodes (l, n) satisfy
    section_{ln} = a d1K(x_n, .) + r d11K(x_n, .), so their Gram is
    F1 K~1 F1' with F1 the (nodes x 2N) coefficient matrix onto the
    generators d1^i K(x_n, .) and K~1 the generator Gram of mixed partials.
    Convolved sections reduce the same way over the 2N-1 difference-grid
    centers, with F2 of shape (nodes x (4N-2)).

    Neither factor is stored: both are applied from ``a``, ``r`` and ``dx``.
    Row (l, n) of F1 holds a[l, n] and r[l, n] in columns n and N + n, so
    ``_plain_apply`` is a broadcast and its transpose two column sums.  Row
    (l, n) of F2 is dx (a[l, n], r[l, n]) times the density row rho_l read
    backwards from difference-grid offset n, so ``_convolved_apply`` takes
    one matmul of the reversed densities per grid node against a window of
    N generator rows, and its transpose accumulates the same windows.
    """

    a: np.ndarray          # (Lf, N) density slopes entering the operator
    r: np.ndarray          # (Lf, N) density values
    rho_flat: np.ndarray   # (M,)
    dx: float
    K1t: np.ndarray        # (2N, 2N)
    K2t: np.ndarray        # (4N-2, 4N-2)
    centers1: np.ndarray   # grid points
    centers2: np.ndarray   # difference grid
    K3t: np.ndarray | None = None


def _plain_apply(fac: SectionFactors, Y: np.ndarray) -> np.ndarray:
    """F1 @ Y for Y of shape (2N,) or (2N, k)."""
    Lf, N = fac.a.shape
    Yh = Y.reshape(2, N, -1)
    out = fac.a[:, :, None] * Yh[0] + fac.r[:, :, None] * Yh[1]
    return out.reshape((Lf * N,) + Y.shape[1:])


def _plain_apply_t(fac: SectionFactors, u: np.ndarray) -> np.ndarray:
    """F1' @ u for u of shape (M,)."""
    u2 = u.reshape(fac.a.shape)
    return np.concatenate([(fac.a * u2).sum(axis=0), (fac.r * u2).sum(axis=0)])


def _convolved_apply(fac: SectionFactors, Y: np.ndarray) -> np.ndarray:
    """F2 @ Y for Y of shape (4N-2,) or (4N-2, k)."""
    Lf, N = fac.a.shape
    Yh = Y.reshape(2, 2 * N - 1, -1)
    k = Yh.shape[2]
    Y_ab = np.concatenate([Yh[0], Yh[1]], axis=1)
    rho_rev = np.ascontiguousarray(fac.r[:, ::-1])
    wa, wr = fac.dx * fac.a, fac.dx * fac.r
    out = np.empty((Lf, N, k))
    for n in range(N):
        win = rho_rev @ Y_ab[n:n + N]
        out[:, n] = wa[:, n, None] * win[:, :k] + wr[:, n, None] * win[:, k:]
    return out.reshape((Lf * N,) + Y.shape[1:])


def _convolved_apply_t(fac: SectionFactors, u: np.ndarray) -> np.ndarray:
    """F2' @ u for u of shape (M,)."""
    Lf, N = fac.a.shape
    u2 = fac.dx * u.reshape(Lf, N)
    u_ab = np.stack([fac.a * u2, fac.r * u2], axis=2)
    rho_rev_t = np.ascontiguousarray(fac.r[:, ::-1].T)
    out = np.zeros((2 * N - 1, 2))
    for n in range(N):
        out[n:n + N] += rho_rev_t @ u_ab[:, n]
    return out.T.ravel()


def _generator_gram(kernel: SmoothKernel, centers: np.ndarray) -> np.ndarray:
    m = centers.size
    out = np.empty((2 * m, 2 * m))
    for oi in (0, 1):
        for oj in (0, 1):
            out[oi * m:(oi + 1) * m, oj * m:(oj + 1) * m] = kernel.gram(
                centers, centers, i=oi + 1, j=oj + 1
            )
    return out


def build_factors(problem: EstimationProblem) -> SectionFactors:
    traj = problem.traj
    mesh = traj.mesh
    Lf = problem.fit_rows
    a_full = traj.dx_plus()
    if problem.spatial_slope_override is not None:
        a_full = np.asarray(problem.spatial_slope_override, dtype=float)
        if a_full.shape != traj.values.shape:
            raise EstimatorError("spatial_slope_override shape mismatch")
    a = a_full[:Lf]
    r = traj.values[:Lf]
    x = mesh.x
    dgrid = difference_grid(traj)
    factors = SectionFactors(
        a=a,
        r=r,
        rho_flat=r.ravel(),
        dx=mesh.dx,
        K1t=_generator_gram(problem.kernel1, x),
        K2t=_generator_gram(problem.kernel2, dgrid),
        centers1=x,
        centers2=dgrid,
    )
    if problem.learn_internal:
        factors.K3t = _generator_gram(problem.kernel3, x)
    return factors


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _regularizer_coefficient(problem: EstimationProblem) -> float:
    if problem.learn_internal:
        lam = problem.lambda1 * problem.lambda2 * problem.lambda3
    else:
        lam = problem.lambda1 * problem.lambda2
    return lam / problem.node_weight


def _cholesky_with_jitter(mat: np.ndarray):
    """Cholesky factor with escalating relative diagonal jitter.

    Returns the factor and the jitter applied, relative to the largest
    diagonal entry (0.0 when the matrix factors as given).
    """
    scale = float(np.max(np.diag(mat)))
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return sla.cho_factor(
                mat + jitter * scale * np.eye(mat.shape[0]) if jitter else mat,
                lower=True,
            ), jitter
        except np.linalg.LinAlgError:
            continue
    raise EstimatorError(
        "system matrix not positive definite even after jitter escalation; "
        f"diagonal scale {scale:.3g}"
    )


def _generator_factor(Kt: np.ndarray) -> np.ndarray:
    """Factor Y with orthogonal columns and Y Y' = K~ up to two cuts.

    K~ is factored in O(n^2 r) rather than eigendecomposed in O(n^3): a
    pivoted Cholesky K~ = R R' stops once every remaining pivot is below
    ``_PIVOT_TOL`` times the largest diagonal entry, then the small r x r
    eigenproblem R'R = V diag(w) V' compresses R to R V, whose columns are
    the eigenvectors of R R' scaled by sqrt(w).  Directions with w at or
    below 1e-14 times the largest are cut.
    """
    c, piv, rank, info = sla.lapack.dpstrf(
        Kt, lower=1, tol=_PIVOT_TOL * float(np.max(np.diag(Kt))))
    if info < 0:
        raise EstimatorError(f"dpstrf rejected its argument {-info}")
    R = np.empty((Kt.shape[0], rank))
    R[piv - 1] = np.tril(c[:, :rank])
    w, V = np.linalg.eigh(R.T @ R)
    return R @ V[:, w > max(w[-1], 0.0) * 1e-14]


def _stacked_factor(problem: EstimationProblem, fac: SectionFactors):
    """Weighted generator factor P with G = P P' and the K~ blocks, stacked.

    Each block applies its section factor to ``_generator_factor`` of its
    K~.  Returns P and, per block, the generator directions kept and the
    block's generator count.
    """
    if problem.learn_internal:
        l1, l2, l3 = problem.lambda1, problem.lambda2, problem.lambda3
        blocks = [
            ("V", np.sqrt(l2 * l3), _plain_apply, fac.K1t),
            ("W", np.sqrt(l1 * l3), _convolved_apply, fac.K2t),
            ("U", np.sqrt(l1 * l2), _plain_apply, fac.K3t),
        ]
    else:
        blocks = [
            ("V", np.sqrt(problem.lambda2), _plain_apply, fac.K1t),
            ("W", np.sqrt(problem.lambda1), _convolved_apply, fac.K2t),
        ]
    cols, kept = [], {}
    for name, weight, apply, Kt in blocks:
        Y = _generator_factor(Kt)
        block = apply(fac, Y)
        block *= (weight * fac.rho_flat)[:, None]
        cols.append(block)
        kept[name] = [Y.shape[1], Kt.shape[0]]
    return np.hstack(cols), kept


def _solve_lowrank(problem: EstimationProblem, fac: SectionFactors,
                   f_flat: np.ndarray) -> tuple[np.ndarray, float, dict, float]:
    """Solve (P P' + c diag(rho)) z = rho f through the k x k Woodbury core.

    The Woodbury formula cancels two O(1/c) terms, so on its own it loses
    accuracy as the regularization shrinks.  Two steps of iterative
    refinement on the same factored core, O(M k) each, bring the solution
    back to the roundoff level of a dense Cholesky solve.  The core
    P' D^-1 P and P'P (for the exact top eigenvalue in the condition bound)
    accumulate over row blocks of P, so no M x k copy of P is formed.
    Returns z, the condition bound, the kept rank per block and the
    Cholesky jitter.
    """
    c = _regularizer_coefficient(problem)
    P, kept = _stacked_factor(problem, fac)
    rho = fac.rho_flat
    dinv = 1.0 / (c * rho)
    k = P.shape[1]
    # core = S'S with S = D^-1/2 P, so both sums are symmetric rank-k updates
    sqrt_dinv = np.sqrt(dinv)
    core, gram = np.zeros((k, k)), np.zeros((k, k))
    for s in range(0, P.shape[0], _ROW_BLOCK):
        Pb = P[s:s + _ROW_BLOCK]
        Sb = sqrt_dinv[s:s + _ROW_BLOCK, None] * Pb
        core += Sb.T @ Sb
        gram += Pb.T @ Pb
    gram_top = float(np.linalg.eigvalsh(gram)[-1]) if k else 0.0
    core[np.diag_indices_from(core)] += 1.0
    cho, jitter = _cholesky_with_jitter(core)

    def woodbury(r: np.ndarray) -> np.ndarray:
        dr = dinv * r
        return dr - dinv * (P @ sla.cho_solve(cho, P.T @ dr))

    b = rho * f_flat
    z = woodbury(b)
    for _ in range(2):
        z += woodbury(b - P @ (P.T @ z) - c * rho * z)
    cond = (gram_top + c * float(rho.max())) / (c * float(rho.min()))
    return z, cond, kept, jitter


def solve(problem: EstimationProblem) -> EstimatorResult:
    """Solve the regularized regression in closed form.

    The representer system is solved through the exact low-rank
    factorization of the section Gram (see ``_solve_lowrank``), so no
    ``M x M`` matrix is formed; ``gram_condition`` is an upper bound on the
    condition number of the system matrix.
    """
    fac = build_factors(problem)
    if problem.f_override is not None:
        f_full = np.asarray(problem.f_override, dtype=float)
        if f_full.shape != problem.traj.values.shape:
            raise EstimatorError("f_override shape mismatch")
    else:
        f_full = assemble_data_functional(
            problem.traj, problem.flow_kind, problem.known_u,
            include_internal=not problem.learn_internal,
        )
    f_flat = f_full[:problem.fit_rows].ravel()
    z, cond, kept, jitter = _solve_lowrank(problem, fac, f_flat)

    if problem.learn_internal:
        l1, l2, l3 = problem.lambda1, problem.lambda2, problem.lambda3
        C1, C2, C3 = l2 * l3 * z, l1 * l3 * z, l1 * l2 * z
    else:
        C1, C2 = problem.lambda2 * z, problem.lambda1 * z
        C3 = None

    beta_v = _plain_apply_t(fac, fac.rho_flat * C1)
    beta_w = _convolved_apply_t(fac, fac.rho_flat * C2)
    N = problem.traj.mesh.N
    orders1 = np.repeat([1, 2], N)
    orders2 = np.repeat([1, 2], 2 * N - 1)
    Vhat = RkhsFunction.from_generators(
        problem.kernel1, orders1, np.tile(fac.centers1, 2), beta_v, PLAIN)
    What = RkhsFunction.from_generators(
        problem.kernel2, orders2, np.tile(fac.centers2, 2), beta_w, CONVOLVED)
    norms = {
        "V": float(np.sqrt(max(beta_v @ fac.K1t @ beta_v, 0.0))),
        "W": float(np.sqrt(max(beta_w @ fac.K2t @ beta_w, 0.0))),
    }
    image = (_plain_apply(fac, fac.K1t @ beta_v)
             + _convolved_apply(fac, fac.K2t @ beta_w))
    Uhat = None
    if problem.learn_internal:
        beta_u = _plain_apply_t(fac, fac.rho_flat * C3)
        Uhat = RkhsFunction.from_generators(
            problem.kernel3, orders1, np.tile(fac.centers1, 2), beta_u, PLAIN)
        norms["U"] = float(np.sqrt(max(beta_u @ fac.K3t @ beta_u, 0.0)))
        image = image + _plain_apply(fac, fac.K3t @ beta_u)

    residual = image - f_flat
    loss = problem.node_weight * float(residual**2 @ fac.rho_flat)
    loss += problem.lambda1 * norms["V"]**2 + problem.lambda2 * norms["W"]**2
    if problem.learn_internal:
        loss += problem.lambda3 * norms["U"]**2

    return EstimatorResult(
        C1=C1, C2=C2, C3=C3,
        Vhat=Vhat, What=What, Uhat=Uhat,
        rkhs_norms=norms,
        loss_value=loss,
        residual_vector=residual,
        gram_condition=cond,
        lambdas=(problem.lambda1, problem.lambda2, problem.lambda3),
        method="lowrank",
        kept_rank=kept,
        jitter=jitter,
        operator_image=image,
        data_vector=f_flat,
    )


# ---------------------------------------------------------------------------
# Forward operator on arbitrary candidate pairs
# ---------------------------------------------------------------------------

def operator_image(problem: EstimationProblem, phi, psi,
                   upsilon=None) -> np.ndarray:
    """Forward operator applied at every fit node, flattened (time-major)."""
    traj = problem.traj
    mesh = traj.mesh
    Lf = problem.fit_rows
    a = traj.dx_plus()[:Lf]
    if problem.spatial_slope_override is not None:
        a = np.asarray(problem.spatial_slope_override, dtype=float)[:Lf]
    r = traj.values[:Lf]
    x = mesh.x
    d1 = np.zeros((Lf, mesh.N))
    d2 = np.zeros((Lf, mesh.N))
    for fn in (phi, upsilon):
        if fn is not None:
            d1 += np.asarray(fn.value(x, order=1), dtype=float)
            d2 += np.asarray(fn.value(x, order=2), dtype=float)
    if psi is not None:
        dgrid = difference_grid(traj)
        N = mesh.N
        idx = np.arange(N)[:, None] - np.arange(N)[None, :] + (N - 1)
        t1 = np.asarray(psi.value(dgrid, order=1), dtype=float)[idx]
        t2 = np.asarray(psi.value(dgrid, order=2), dtype=float)[idx]
        d1 += mesh.dx * r @ t1.T
        d2 += mesh.dx * r @ t2.T
    return (a * d1 + r * d2).ravel()


def loss_at(problem: EstimationProblem, phi: RkhsFunction, psi: RkhsFunction,
            upsilon: RkhsFunction | None = None,
            f_flat: np.ndarray | None = None) -> float:
    """Regularized empirical loss at an explicit candidate tuple."""
    if f_flat is None:
        f_full = assemble_data_functional(
            problem.traj, problem.flow_kind, problem.known_u,
            include_internal=not problem.learn_internal,
        )
        f_flat = f_full[:problem.fit_rows].ravel()
    rho_flat = problem.traj.values[:problem.fit_rows].ravel()
    resid = operator_image(problem, phi, psi, upsilon) - f_flat
    loss = problem.node_weight * float(resid**2 @ rho_flat)
    loss += problem.lambda1 * rkhs_inner(phi, phi)
    loss += problem.lambda2 * rkhs_inner(psi, psi)
    if upsilon is not None:
        loss += problem.lambda3 * rkhs_inner(upsilon, upsilon)
    return loss


def stationarity_residual(result: EstimatorResult, problem: EstimationProblem,
                          directions) -> float:
    """Largest directional derivative of the loss at the returned minimizer.

    ``directions`` is an iterable of (phi, psi) RkhsFunction pairs drawn
    from the section span.  At a true minimizer every closed-form Gateaux
    derivative vanishes.
    """
    rho_flat = problem.traj.values[:problem.fit_rows].ravel()
    worst = 0.0
    for fdir, gdir in directions:
        image = operator_image(problem, fdir, gdir)
        deriv = 2.0 * problem.node_weight * float(
            (result.residual_vector * image) @ rho_flat
        )
        deriv += 2.0 * problem.lambda1 * rkhs_inner(result.Vhat, fdir)
        deriv += 2.0 * problem.lambda2 * rkhs_inner(result.What, gdir)
        worst = max(worst, abs(deriv))
    return worst
