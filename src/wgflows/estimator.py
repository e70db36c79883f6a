"""Closed-form kernel estimator of potential and interaction functions.

Given trajectory data, the inverse solver regresses the flow's forcing
operator onto kernel sections.  With node weights a = (d+ rho)_l^n and
r = rho_l^n, the forward operator acting on a candidate pair (phi, psi) is

    Op(phi, psi)(t_l, x_n) = a d/dx (phi + psi conv rho_l)(x_n)
                           + r d2/dx2 (phi + psi conv rho_l)(x_n),

and the data side f collects the forward-differenced time derivatives plus,
for Hamiltonian data, the geodesic correction term.  The regularized least
squares over the product RKHS has the closed-form solution

    (G + prod_j l_j / (dt dx) C) z = C f,      C = diag(rho),
    coef_i = w_i z,                            w_i = prod_{j != i} l_j,

the same rule for every learned function i: V (plain sections, l1), W
(convolved sections, l2) and, when a third kernel is given, U (plain
sections, l3), which learns the internal-energy term inside the operator.
``build_factors`` declares them once, as a list of records holding each
function's name, kernel, regularizer l_i, weight w_i, section side and
generator Gram, and every later step iterates over that list: the
regularizer c, one block of the stacked factor per function, and in
``solve`` the coefficients, reconstruction, RKHS norm, operator image and
penalty l_i |f_i|^2 of each, and in ``stationarity_residual`` each one's
part of the RKHS norm of the loss gradient.

G is the density-weighted Gram of the section families.  Every family is
spanned by few generators (2N for plain sections, 2(2N-1) for convolved
ones), so G factors exactly as C (sum_i w_i F_i Kt_i F_i') C with
tall-skinny F factors.  Every problem is solved without materializing G:
conjugate gradients run on the exact system, applying G through that
factorization, preconditioned by the Woodbury inverse of a low-rank part
P P' <= G cut at the regularizer, so that the preconditioned spectrum lies
in [1, 2] (``_factor_blocks``); a dense Cholesky solve of the same system
is kept in the tests as the reference it is checked against.  The F
factors are not materialized either: they are ``rkhs.SectionMap``, the same
map that reduces sections to generator form, applied from its structure
(plain F as a broadcast over its two nonzeros per row, convolved F of a
vector as one Hankel matmul of the reversed densities).  Nor is the stacked
generator factor P (M x k for generator rank k).  The Woodbury core
I + S'S, S = D^-1/2 P, writes each of W's rows of S once and reads it once:
they come a block of ``_ROW_BLOCK // L`` grid nodes per pair of Toeplitz
matmuls, whose window products one pass combines with the row scalings
into one reused buffer, read by one symmetric rank update and a per-node
reduction.  The plain blocks (V, U) and their cross block with W come from
2 x 2 per-node moments of the density weights and that reduction, so no
plain row is formed (``_woodbury_core``).  The preconditioner applies P and
P' through the section maps.  Nor is any generator Gram K~ formed: the
generators sit on a uniform grid and the kernels are radial, so each K~ is
block-Toeplitz and is held as three gap vectors (``GapGram``).  A pivoted
Cholesky reads each pivot column from them, stops once the remaining trace
falls below the block's threshold (or every pivot below 1e-15 of the
largest diagonal entry), and reveals the rank r it needs in O(n r^2) time
and O(n r) memory; an r x r eigensolve keeps the directions above the
threshold (and above 1e-14 of the largest) (``_generator_factor``).  K~
beta, for the RKHS norms and the operator image, is one convolution per
order block.  So the solve holds O(M) vectors, O(n r) factors,
O((N + _ROW_BLOCK) k + k^2) arrays and one band operand of b L (N + b - 1)
entries for b = max(1, _ROW_BLOCK // L) grid nodes, and it runs every dense
product and factorization through numpy, the package's only dependency, so
one BLAS thread pool serves the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .flows import InternalEnergy, NO_INTERNAL_ENERGY, christoffel_term
from .kernels import SmoothKernel
from .mesh import PERIODIC, DensityTrajectory, diff_space, difference_grid
from .rkhs import CONVOLVED, PLAIN, RkhsFunction, SectionMap, rkhs_inner

GRADIENT = "gradient"
HAMILTONIAN = "hamiltonian"

# pivoted Cholesky of a generator Gram stops at pivots below this fraction
# of its largest diagonal entry, a decade under the 1e-14 eigenvalue floor
_PIVOT_TOL = 1e-15
# the share of the Jacobi-scaled system the preconditioner's cut may leave
# out: the preconditioned spectrum lies in [1, 1 + _TAU], so CG converges at
# the rate of a condition number of at most 2
_TAU = 1.0
# rows of W's part of S per streamed block when forming the k x k core: a
# block holds _ROW_BLOCK // L grid nodes (at least one).  On the benchmark's
# estimate-large problems (2-core box) the core took within about 5% of the
# same time from 512 to 1024 rows; 512 keeps the solve's traced peak below
# that of the row-group stream it replaced
_ROW_BLOCK = 512
# conjugate gradients stop at this preconditioned relative residual and give
# up after this many iterations
_CG_TOL = 1e-14
_CG_MAX_ITER = 100


class EstimatorError(RuntimeError):
    """Ill-posed problem setup or linear-algebra failure."""


@dataclass
class EstimationProblem:
    """Inputs of one inverse solve.

    ``drop_last_time_rows`` removes trailing time rows from the fitted node
    set (their forward time differences have no successor sample and carry
    O(1/dt) truncation error); the dropped rows still feed the time
    differences of the remaining rows.  Default 0 keeps every row; sweeps
    and ``cli estimate`` default to ``analysis.DROP_LAST_TIME_ROWS``.

    ``spatial_slope_override`` replaces the forward-differenced density
    slopes by caller-supplied values (e.g. spectral derivatives) and
    ``f_override`` replaces the assembled data functional; both exist for
    error-decomposition diagnostics and must be finite.
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
        if not 0 <= self.drop_last_time_rows < self.traj.mesh.L:
            raise EstimatorError("drop_last_time_rows must leave at least one row")
        for name in ("spatial_slope_override", "f_override"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise EstimatorError(f"{name} has non-finite entries")

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

    Each learned function has one entry per field: V fills ``C1``, ``Vhat``
    and ``rkhs_norms["V"]``, W ``C2``, ``What`` and ``rkhs_norms["W"]``,
    and U, learned only when the problem has a third kernel, ``C3``,
    ``Uhat`` and ``rkhs_norms["U"]`` (``None`` and absent otherwise).  All
    are filled by one loop over the problem's learned functions.
    ``method`` names the solve route ("lowrank", the only one).
    ``dropped_share`` bounds the largest eigenvalue of the Gram part the
    preconditioner leaves out, D^-1/2 (G - P P') D^-1/2 with D = c diag(rho)
    (see ``_factor_blocks``): at most 1 unless the numerical floors stop the
    cut first.  ``gram_condition`` is lambda_max of the Woodbury core I + S'S
    plus ``dropped_share``: an upper bound on the condition number of the
    Jacobi-scaled exact system D^-1/2 (G + D) D^-1/2, whose smallest
    eigenvalue is at least 1.  ``kept_rank`` maps each learned function
    ("V", "W", "U") to [generator directions kept, generator count]: the
    pivoted Cholesky of the generator Gram, read column by column from its
    gap vectors, stops once its remaining trace is at most half the block's
    threshold (or every pivot is below 1e-15 of its largest diagonal
    entry), and of its compressed directions those with eigenvalue above
    half the threshold (and above 1e-14 of the largest) are kept.
    ``jitter`` is the diagonal jitter, relative to the largest diagonal
    entry, that the Woodbury core needed to factor (0.0 when none).
    ``cg_iterations`` and ``cg_residual`` are the conjugate-gradient
    iterations the solve took and the relative preconditioned residual of
    its recurrence at the stop.
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
    cg_iterations: int = 0
    cg_residual: float = 0.0
    dropped_share: float = 0.0
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
        a = traj.dx_plus()
        g1 = known_u.d2u(traj.values) * a
        g2 = diff_space(g1, mesh.dx, traj.boundary_mode)
        f = f - a * g1 - traj.values * g2
    return f


# ---------------------------------------------------------------------------
# Section factors
# ---------------------------------------------------------------------------

class GapGram(NamedTuple):
    """Generator Gram of one section family, held as three Toeplitz gap vectors.

    A section family's generators are d1^i K(c_q, .) for the orders i = 1, 2
    over n centers c_q = c_0 + q dx on a uniform grid (the N grid points for
    plain sections, the 2N-1 difference-grid points for convolved ones), and
    the kernels are radial, so entry (i, q; j, p) of the Gram K~ is
    (-1)^j g^(i+j)((q - p) dx): each of the four order blocks is Toeplitz.
    ``gaps[s - 2]`` holds the profile derivative g^(s), s = 2, 3, 4, at the
    2n-1 offsets d dx, d = -(n-1)..n-1.  Columns, the diagonal and K~ beta
    are read from these vectors; the 2n x 2n matrix is never formed.
    """

    gaps: np.ndarray    # (3, 2n-1)

    @classmethod
    def of(cls, kernel: SmoothKernel, n: int, dx: float) -> "GapGram":
        offsets = difference_grid(n, dx)
        return cls(np.stack([kernel.profile(s, offsets) for s in (2, 3, 4)]))

    @property
    def size(self) -> int:
        """Generator count 2n."""
        return self.gaps.shape[1] + 1

    def diagonal(self) -> np.ndarray:
        n = self.size // 2
        g2, _, g4 = self.gaps[:, n - 1]
        return np.repeat([-g2, g4], n)

    def column(self, p: int) -> np.ndarray:
        """Column p of K~: generator p has order j = 1 + p // n."""
        n = self.size // 2
        j, q = divmod(p, n)
        sign = -1.0 if j == 0 else 1.0
        return sign * self.gaps[j:j + 2, n - 1 - q:2 * n - 1 - q].ravel()

    def matvec(self, beta: np.ndarray) -> np.ndarray:
        """K~ beta, one ``valid`` convolution per order block."""
        g2, g3, g4 = self.gaps
        b1, b2 = np.split(beta, 2)
        return np.concatenate([
            np.convolve(g3, b2, "valid") - np.convolve(g2, b1, "valid"),
            np.convolve(g4, b2, "valid") - np.convolve(g3, b1, "valid")])


class _LearnedFunction(NamedTuple):
    """One learned function of the representer: V, W or U.

    Its coefficients are ``weight * z`` for the shared representer vector z,
    ``weight`` the product of the other functions' regularizers, and its
    norm is penalised by its own ``lam``.  ``side`` is ``rkhs.PLAIN`` or
    ``rkhs.CONVOLVED``: the section family it spans, which also names that
    family's methods of ``rkhs.SectionMap`` (``plain``, ``plain_t``,
    ``plain_generators`` and their convolved twins), i.e. its factor F onto
    the generators d1^i K(c, .), F' and the generators.  ``gram``
    is the generator Gram K~ of mixed partials, so that the function's
    section Gram is F K~ F'.
    """

    name: str
    kernel: SmoothKernel
    lam: float
    weight: float
    side: str
    gram: GapGram


def _fit_sections(problem: EstimationProblem) -> SectionMap:
    """The section map over the fit nodes, slopes from ``spatial_slope_override``."""
    traj, rows = problem.traj, problem.fit_rows
    if problem.spatial_slope_override is None:
        a = traj.dx_plus()
    else:
        a = np.asarray(problem.spatial_slope_override, dtype=float)
        if a.shape != traj.values.shape:
            raise EstimatorError("spatial_slope_override shape mismatch")
    return SectionMap(a[:rows], traj.values[:rows], traj.mesh.x, traj.mesh.dx)


def _fit_data(problem: EstimationProblem) -> np.ndarray:
    """Data functional f at the fit nodes, flattened time-major: the
    problem's ``f_override`` when given, else assembled from the trajectory."""
    if problem.f_override is None:
        f_full = assemble_data_functional(
            problem.traj, problem.flow_kind, problem.known_u,
            include_internal=not problem.learn_internal,
        )
    else:
        f_full = np.asarray(problem.f_override, dtype=float)
        if f_full.shape != problem.traj.values.shape:
            raise EstimatorError("f_override shape mismatch")
    return f_full[:problem.fit_rows].ravel()


def build_factors(problem: EstimationProblem
                  ) -> tuple[SectionMap, list[_LearnedFunction]]:
    """The section map over the fit nodes and the learned functions.

    V spans plain sections of ``kernel1``, W convolved sections of
    ``kernel2`` and, when the problem has a third kernel, U plain sections
    of ``kernel3``.  Plain generators sit on the N grid points, convolved
    ones on the 2N-1 difference-grid centers; each K~ is a ``GapGram``,
    three gap vectors of O(N) values.
    """
    mesh = problem.traj.mesh
    sections = _fit_sections(problem)
    spec = [("V", problem.kernel1, problem.lambda1, PLAIN),
            ("W", problem.kernel2, problem.lambda2, CONVOLVED)]
    if problem.learn_internal:
        spec.append(("U", problem.kernel3, problem.lambda3, PLAIN))
    lams = [lam for _, _, lam, _ in spec]
    centers = {PLAIN: mesh.N, CONVOLVED: 2 * mesh.N - 1}
    return sections, [
        _LearnedFunction(name, kernel, lam, math.prod(lams[:i] + lams[i + 1:]), side,
                         GapGram.of(kernel, centers[side], mesh.dx))
        for i, (name, kernel, lam, side) in enumerate(spec)]


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _cholesky_with_jitter(mat: np.ndarray):
    """Cholesky factor with escalating relative diagonal jitter.

    Returns the lower factor and the jitter applied, relative to the largest
    diagonal entry (0.0 when the matrix factors as given).  A non-finite
    matrix is rejected before any factorization is tried.
    """
    if not np.all(np.isfinite(mat)):
        raise EstimatorError("Woodbury core has non-finite entries")
    scale = float(np.max(np.diag(mat)))
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(
                mat + jitter * scale * np.eye(mat.shape[0]) if jitter else mat
            ), jitter
        except np.linalg.LinAlgError:
            continue
    raise EstimatorError(
        "system matrix not positive definite even after jitter escalation; "
        f"diagonal scale {scale:.3g}"
    )


def _generator_factor(gram: GapGram, threshold: float) -> tuple[np.ndarray, float]:
    """Factor Y with orthogonal columns and 0 <= K~ - Y Y' <= dropped I.

    K~ is factored in O(n r^2) with O(n r) memory rather than eigendecomposed
    in O(n^3): a pivoted Cholesky K~ = R R' + E (Harbrecht, Peters &
    Schneider, Appl. Numer. Math. 2012, Alg. 1) takes each pivot column from
    the gap vectors, downdates it by one matrix-vector product with the rows
    of R' found so far, and stops once the trace of the PSD remainder E, the
    sum of the remaining pivots, is at most ``threshold / 2``, or once every
    remaining pivot is at or below ``_PIVOT_TOL`` times the largest diagonal
    entry, the numerical floor.  R' is held row by row in a buffer that
    doubles as the rank grows.  The small r x r eigenproblem R'R = V diag(w)
    V' then compresses R to R V, whose columns are the eigenvectors of R R'
    scaled by sqrt(w); directions with w at or below ``threshold / 2``, or
    below the floor 1e-14 times the largest w, are cut.  Returns Y and
    ``dropped``, the remaining trace plus the largest cut eigenvalue, which
    bounds the largest eigenvalue of K~ - Y Y'.  Y may have no columns.
    """
    d = gram.diagonal()
    n = d.size
    floor = _PIVOT_TOL * float(d.max())
    Rt = np.empty((min(n, 64), n))
    m = 0
    while m < n:
        p = int(np.argmax(d))
        if d[p] <= floor or d.sum() <= threshold / 2:
            break
        if m == Rt.shape[0]:
            Rt = np.concatenate([Rt, np.empty((min(m, n - m), n))])
        row = gram.column(p)
        row -= Rt[:m, p] @ Rt[:m]
        row /= np.sqrt(d[p])
        d -= row * row
        # a remaining pivot is a Schur complement's diagonal entry, never
        # negative; a factored one is never picked again on roundoff
        np.maximum(d, 0.0, out=d)
        d[p] = 0.0
        Rt[m] = row
        m += 1
    Rt = Rt[:m]
    w, V = np.linalg.eigh(Rt @ Rt.T)
    keep = w > max(threshold / 2, w[-1] * 1e-14 if m else 0.0)
    dropped = float(d.sum()) + max(float(w[~keep].max(initial=0.0)), 0.0)
    return Rt.T @ V[:, keep], dropped


def _factor_blocks(learned: list[_LearnedFunction], sections: SectionMap,
                   c: float) -> tuple[list[np.ndarray], float]:
    """The blocks Y of P with P P' <= G, one per learned function, and the
    share of the Jacobi-scaled system their cut leaves out.

    P's columns for a function s are rho F_s Y_s, with F_s its section
    side's factor and Y_s its ``_generator_factor`` scaled by sqrt(w_s).
    Scaled by D^-1/2, D = c diag(rho), the Gram part G - P P' that the cut
    drops is sum_s w_s A_s (K~_s - Y_s Y_s') A_s' with A_s = diag(sqrt(rho /
    c)) F_s, whose largest eigenvalue is at most dropped_share = sum_s w_s
    |A_s|_F^2 dropped_s.  Each block's threshold, ``_TAU`` over the
    function count times w_s |A_s|_F^2, keeps that share at most ``_TAU``
    unless the numerical floors of ``_generator_factor`` stop it first, and
    the preconditioned spectrum lies in [1, 1 + dropped_share].  |A_s|_F^2
    is closed-form in O(L N): a plain row holds a and r, a convolved row dx
    (a, r) times the density row.
    """
    rows = sections.r / c * (sections.a**2 + sections.r**2)
    frobenius = {PLAIN: float(rows.sum()),
                 CONVOLVED: float(sections.dx**2 * rows.sum(axis=1)
                                  @ (sections.r**2).sum(axis=1))}
    blocks, dropped_share = [], 0.0
    for fn in learned:
        share = fn.weight * frobenius[fn.side]
        Y, dropped = _generator_factor(fn.gram, _TAU / (len(learned) * share))
        blocks.append(np.sqrt(fn.weight) * Y)
        dropped_share += share * dropped
    return blocks, dropped_share


def _woodbury_core(sections: SectionMap, learned: list[_LearnedFunction],
                   blocks: list[np.ndarray], c: float) -> np.ndarray:
    """The Woodbury core I + S'S for S = D^-1/2 P and D = c diag(rho).

    S's columns for function s are diag(sqrt(rho / c)) F_s Y_s, so with the
    row factors (p, q) = sqrt(rho / c) (a, r), a plain block's row (l, n) is
    p Y1[n] + q Y2[n] for its order halves Y1, Y2.  The plain blocks (V, and
    U when learned) are therefore not streamed: their Gram is
    sum_n [Y1[n]; Y2[n]]' M_n [Y1[n]; Y2[n]], M_n the 2 x 2 time sums of the
    products of (p, q) at node n, and their cross Gram with the convolved
    block S_W is Y1'Q_p + Y2'Q_q, Q_p[n] = sum_l p S_W[l, n] (likewise Q_q).
    Only S_W's rows are formed: ``SectionMap.convolved_blocks`` writes them
    with the row scalings applied, a block of ``_ROW_BLOCK // L`` grid nodes
    at a time, and each block is read once, by one symmetric rank update
    into the core and the reduction into Q.
    """
    L, N = sections.r.shape
    starts = np.cumsum([0] + [Y.shape[1] for Y in blocks])
    (w,) = [i for i, fn in enumerate(learned) if fn.side == CONVOLVED]
    plain = [i for i, fn in enumerate(learned) if fn.side == PLAIN]
    cw = slice(starts[w], starts[w + 1])
    cp = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in plain])
    Yp, Yw = np.hstack([blocks[i] for i in plain]), blocks[w]
    scale = np.sqrt(sections.r / c)
    factors = np.stack([scale * sections.a, scale * sections.r])       # (2, L, N)
    moments = np.einsum("hln,gln->hgn", factors, factors)
    gram = Yp.T @ np.einsum("hgn,gnk->hnk", moments, Yp.reshape(2, N, -1)).reshape(2 * N, -1)
    core = np.eye(starts[-1])
    core[np.ix_(cp, cp)] += 0.5 * (gram + gram.T)  # Yp'(M Yp) is symmetric to rounding only
    Q = np.zeros((N, 2, Yw.shape[1]))
    if Yw.shape[1]:  # W keeps at least one direction
        width = min(N, max(1, _ROW_BLOCK // L))
        for nodes, rows in sections.convolved_blocks(Yw, scale, width):
            group = rows.reshape(-1, rows.shape[2])
            core[cw, cw] += group.T @ group
            np.matmul(factors[:, :, nodes].transpose(2, 0, 1), rows, out=Q[nodes])
    cross = Yp.T @ Q.transpose(1, 0, 2).reshape(2 * N, -1)
    core[cp, cw] += cross
    core[cw, cp] += cross.T
    return core


def _pcg(system, precondition, b: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients for the SPD system ``system(z) = b``.

    Stops once the preconditioned norm sqrt(r'M^-1 r) of the recurrence's
    residual r is at most ``_CG_TOL`` times that of b (a true residual
    stalls at its roundoff floor, the recurrence's keeps falling), and
    raises ``EstimatorError`` when ``_CG_MAX_ITER`` iterations do not get
    there.  Returns z, the iteration count and that final relative residual.
    """
    z = np.zeros_like(b)
    r = b.copy()
    y = precondition(r)
    ry = r @ y
    if ry == 0.0:  # b = 0
        return z, 0, 0.0
    scale = np.sqrt(ry)
    p = y
    for iteration in range(1, _CG_MAX_ITER + 1):
        Ap = system(p)
        alpha = ry / (p @ Ap)
        z += alpha * p
        r -= alpha * Ap
        y = precondition(r)
        ry, ry_old = r @ y, ry
        residual = float(np.sqrt(max(ry, 0.0)) / scale)
        if residual <= _CG_TOL:
            return z, iteration, residual
        p = y + (ry / ry_old) * p
    raise EstimatorError(
        f"conjugate gradients did not reach relative residual {_CG_TOL:g} in "
        f"{_CG_MAX_ITER} iterations (last {residual:.3g})")


def _solve_lowrank(problem: EstimationProblem, sections: SectionMap,
                   learned: list[_LearnedFunction], f_flat: np.ndarray
                   ) -> tuple[np.ndarray, float, float, dict, float, int, float]:
    """Solve (G + c diag(rho)) z = rho f by conjugate gradients on the exact G.

    c is the product of every regularizer over the node weight dt dx.
    G = rho sum_s w_s F_s K~_s F_s' rho is applied matrix-free, one
    ``GapGram.matvec`` per learned function.  The preconditioner is
    (P P' + D)^-1, D = c diag(rho), for the factor P P' <= G cut at the
    regularizer (``_factor_blocks``), applied by the Woodbury identity
    through the explicit inverse of the Cholesky factor of the k x k core
    I + S'S, S = D^-1/2 P (numpy, the package's only dependency, has no
    triangular solve); with no kept direction it is D^-1.  Every eigenvalue
    of the preconditioned operator lies in [1, 1 + dropped_share], and CG
    absorbs the cut, the core's roundoff and the O(1/c) cancellation of the
    Woodbury formula.  P = rho [F_b Y_b]_b is never formed: the core comes
    from per-node moments and W's streamed rows (``_woodbury_core``), and
    P v = rho sum_b F_b (Y_b v_b) and P'u = [Y_b' F_b' (rho u)]_b go through
    the section maps, O(L N^2 + N k) per product.  Returns z, lambda_max of
    the core plus dropped_share (a bound on the condition number of the
    Jacobi-scaled exact system D^-1/2 (G + D) D^-1/2, whose smallest
    eigenvalue is at least 1), dropped_share, the kept rank per block, the
    Cholesky jitter, and the CG iteration count and final relative residual.
    """
    c = math.prod(fn.lam for fn in learned) / problem.node_weight
    blocks, dropped_share = _factor_blocks(learned, sections, c)
    rho = sections.r.ravel()
    dinv = 1.0 / (c * rho)
    if any(Y.shape[1] for Y in blocks):
        core = _woodbury_core(sections, learned, blocks, c)
        cond = float(np.linalg.eigvalsh(core)[-1])
        chol, jitter = _cholesky_with_jitter(core)
        chol_inv = np.linalg.inv(chol)
    else:  # no direction kept: the core is empty, the preconditioner D^-1
        cond, jitter, chol_inv = 1.0, 0.0, np.empty((0, 0))
    splits = np.cumsum([Y.shape[1] for Y in blocks])[:-1]

    def P_apply(v: np.ndarray) -> np.ndarray:
        return rho * sum(getattr(sections, fn.side)(Y @ part)
                         for fn, Y, part in zip(learned, blocks, np.split(v, splits)))

    def Pt_apply(u: np.ndarray) -> np.ndarray:
        return np.concatenate([Y.T @ getattr(sections, fn.side + "_t")(rho * u)
                               for fn, Y in zip(learned, blocks)])

    def woodbury(r: np.ndarray) -> np.ndarray:
        dr = dinv * r
        return dr - dinv * P_apply(chol_inv.T @ (chol_inv @ Pt_apply(dr)))

    def system(v: np.ndarray) -> np.ndarray:
        u = rho * v
        return rho * sum(
            fn.weight * getattr(sections, fn.side)(
                fn.gram.matvec(getattr(sections, fn.side + "_t")(u)))
            for fn in learned) + c * u

    z, iterations, residual = _pcg(system, woodbury, rho * f_flat)
    kept = {fn.name: [Y.shape[1], fn.gram.size] for fn, Y in zip(learned, blocks)}
    return z, cond + dropped_share, dropped_share, kept, jitter, iterations, residual


def solve(problem: EstimationProblem) -> EstimatorResult:
    """Solve the regularized regression in closed form.

    The representer system is solved by conjugate gradients on the exact
    section Gram, applied through its factorization and preconditioned by
    the Woodbury inverse of its low-rank part cut at the regularizer (see
    ``_solve_lowrank``), so no ``M x M`` matrix is formed;
    ``gram_condition`` bounds the condition number of the Jacobi-scaled
    exact system.  Each learned function then
    takes its coefficients weight * z, its reconstruction from the node
    weights rho * coefficients reduced onto its generators (beta), and, from
    K~ beta, its squared norm beta'K~beta and its operator image F K~ beta.
    """
    sections, learned = build_factors(problem)
    f_flat = _fit_data(problem)
    z, cond, dropped_share, kept, jitter, iterations, cg_residual = _solve_lowrank(
        problem, sections, learned, f_flat)
    rho = sections.r.ravel()
    coeffs, estimates, norms, images = {}, {}, {}, []
    for fn in learned:
        coeffs[fn.name] = fn.weight * z
        beta = getattr(sections, fn.side + "_t")(rho * coeffs[fn.name])
        estimates[fn.name] = RkhsFunction(
            fn.kernel, *getattr(sections, fn.side + "_generators")(), beta)
        Kb = fn.gram.matvec(beta)
        norms[fn.name] = float(np.sqrt(max(beta @ Kb, 0.0)))
        images.append(getattr(sections, fn.side)(Kb))
    image = reduce(np.add, images)
    residual = image - f_flat
    loss = problem.node_weight * float(residual**2 @ rho)
    loss += sum(fn.lam * norms[fn.name]**2 for fn in learned)

    return EstimatorResult(
        C1=coeffs["V"], C2=coeffs["W"], C3=coeffs.get("U"),
        Vhat=estimates["V"], What=estimates["W"], Uhat=estimates.get("U"),
        rkhs_norms=norms,
        loss_value=loss,
        residual_vector=residual,
        gram_condition=cond,
        dropped_share=dropped_share,
        lambdas=(problem.lambda1, problem.lambda2, problem.lambda3),
        method="lowrank",
        kept_rank=kept,
        jitter=jitter,
        cg_iterations=iterations,
        cg_residual=cg_residual,
        operator_image=image,
        data_vector=f_flat,
    )


# ---------------------------------------------------------------------------
# Forward operator on arbitrary candidate pairs
# ---------------------------------------------------------------------------

def operator_image(problem: EstimationProblem, phi, psi,
                   upsilon=None) -> np.ndarray:
    """Forward operator applied at every fit node, flattened (time-major): each
    candidate's section factor F applied to its f' and f'' at its side's
    generator centers, grid points for phi and upsilon, pair differences for psi."""
    sections = _fit_sections(problem)
    image = np.zeros(sections.r.size)
    for fn, side in ((phi, PLAIN), (psi, CONVOLVED), (upsilon, PLAIN)):
        if fn is not None:
            orders, centers = getattr(sections, side + "_generators")()
            image += getattr(sections, side)(np.concatenate(
                [fn.value(centers[orders == k], order=k) for k in (1, 2)]))
    return image


def loss_at(problem: EstimationProblem, phi: RkhsFunction, psi: RkhsFunction,
            upsilon: RkhsFunction | None = None,
            f_flat: np.ndarray | None = None) -> float:
    """Regularized empirical loss at an explicit candidate tuple.

    The data functional is the one ``solve`` fits (the problem's
    ``f_override`` when given) unless ``f_flat`` is passed.
    """
    if f_flat is None:
        f_flat = _fit_data(problem)
    rho_flat = problem.traj.values[:problem.fit_rows].ravel()
    resid = operator_image(problem, phi, psi, upsilon) - f_flat
    loss = problem.node_weight * float(resid**2 @ rho_flat)
    loss += problem.lambda1 * rkhs_inner(phi, phi)
    loss += problem.lambda2 * rkhs_inner(psi, psi)
    if upsilon is not None:
        loss += problem.lambda3 * rkhs_inner(upsilon, upsilon)
    return loss


def stationarity_residual(result: EstimatorResult, problem: EstimationProblem) -> float:
    """RKHS norm of the loss gradient at the returned estimate: the largest
    derivative of the loss along any unit direction of the product RKHS.

    Function s's part of the gradient has the generator coefficients
    g_s = F_s'(2 dt dx rho residual) + 2 l_s beta_s (beta_s the estimate's),
    so the norm is sqrt(sum_s g_s' K~_s g_s); no kernel is evaluated on pairs.
    """
    sections, learned = build_factors(problem)
    estimates = {"V": result.Vhat, "W": result.What, "U": result.Uhat}
    weights = 2.0 * problem.node_weight * sections.r.ravel() * result.residual_vector
    total = 0.0
    for fn in learned:
        beta = getattr(estimates[fn.name], "coeffs", None)
        if beta is None or beta.shape != (fn.gram.size,):
            raise EstimatorError(f"{fn.name} estimate is not on its {fn.gram.size} generators")
        g = getattr(sections, fn.side + "_t")(weights) + 2.0 * fn.lam * beta
        total += g @ fn.gram.matvec(g)
    return float(np.sqrt(max(total, 0.0)))
