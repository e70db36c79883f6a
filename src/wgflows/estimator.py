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
    coef_i = w_i z,                       w_V = l2,  w_W = l1,

for the two learned functions, V (plain sections, l1) and W (convolved
sections, l2).  A known internal energy enters the data side f
(``known_u``); it is not learned, since a third potential on plain sections
would only split V in two.  ``build_factors`` declares V and W once, as a
list of records holding each function's name, kernel, regularizer l_i,
weight w_i, section family and generator Gram, and every later step
iterates over that list: the regularizer c, one block of the stacked
factor per function, and in ``solve`` the coefficients, reconstruction,
RKHS norm, operator image and penalty l_i |f_i|^2 of each, and in
``stationarity_residual`` each one's part of the RKHS norm of the loss
gradient.

G is the density-weighted Gram of the section families.  Every family is
spanned by few generators (2N for plain sections, 2(2N-1) for convolved
ones), so G factors exactly as C (sum_i w_i F_i Kt_i F_i') C with
tall-skinny F factors.  Every problem is solved without materializing G:
conjugate gradients run on the exact system, applying G through that
factorization, preconditioned by the Woodbury inverse of a low-rank part
P P' <= G cut at the regularizer, so that the preconditioned spectrum lies
in [1, 2] (``_factor_blocks``), its k x k core inverted through one
eigendecomposition (``_inverse_factor``); a dense Cholesky solve of the
same system is kept in the tests as the reference it is checked against.
The F factors are not materialized either: each is its ``rkhs`` section
family (``PlainSections``, ``ConvolvedSections``), the same object that
reduces sections to generator form, applied from its structure (plain F as
a broadcast over its two nonzeros per row, convolved F of a vector as one
Hankel matmul of the reversed densities).  Nor is the stacked generator
factor P (M x k for generator rank k).  In the Woodbury core
I + S'S, S = D^-1/2 P, V's plain block and its cross block with W
come from 2 x 2 per-node moments of the density weights and a per-node
reduction Q of W's part, so no plain row is formed, and W's block
Y_W' (F2' H F2) Y_W, H = diag(rho / c), is evaluated in whichever of two
associations takes fewer multiply-adds (``_core_route``), picked by
``_woodbury_core`` itself.  Both routes stream W's rows a block of
b = ``_ROW_BLOCK // L`` grid nodes at a time over one band operand of the
reversed densities (``_band``).  The rows route writes each of W's rows of
S once and reads it once: they come from one pair of Toeplitz matmuls per
block, whose window products one pass combines with the row scalings into
one reused buffer, read by one symmetric rank update and the reduction, at
L N (2 (N+b) k_W + k_W^2 / 2) multiply-adds.  The moment route forms no
row: it accumulates F2' H F2 as three (2N-1)^2 order blocks, one product of
the row-scaled band operand with itself per node block (2 L N (N+b)^2),
reads Q from the same operand, and multiplies Y_W into the blocks in column
chunks (4 (2N-1)^2 k_W), so it wins once W keeps more directions than its
window is wide; it is taken only when its blocks fit in the bytes the rows
route would hold.  The preconditioner applies P and P' through the section
families.  Nor is any generator Gram K~ formed: the
generators sit on a uniform grid and the kernels are radial, so each K~ is
block-Toeplitz and is held as three gap vectors (``GapGram``).  Reversing
the n centers, with a sign flip on the order-2 block, leaves each K~
unchanged, so in the parity basis of that reflection K~ splits into two
halves of n generators, each read from the same vectors as Toeplitz plus
Hankel slices (``_ParityHalf``).  A pivoted Cholesky of each half reads
each pivot column from them, stops once the half's remaining trace falls
below half the block's threshold (or every pivot below 1e-15 of K~'s
largest diagonal entry), and reveals the rank r it needs in O(n r^2) time
and O(n r) memory; an r x r eigensolve per half keeps the directions above
the threshold (and above 1e-14 of the largest over both halves)
(``_generator_factor``).  K~ beta, for the RKHS norms and the operator
image, is one convolution per order block.  So the solve holds O(M)
vectors, O(n r) factors, O((N + _ROW_BLOCK) k + k^2) arrays and one band
operand of b L (N + b - 1) entries for b = max(1, _ROW_BLOCK // L) grid
nodes, plus, on the moment route, three (2N-1)^2 moment blocks (taken only
when they fit in the bytes of the rows route's buffers and the core) and
the band scaled once per order, and it runs every dense product and
factorization through numpy, the package's only dependency, so one BLAS
thread pool serves the solve.
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
from .rkhs import ConvolvedSections, PlainSections, RkhsFunction, rkhs_inner

GRADIENT = "gradient"
HAMILTONIAN = "hamiltonian"

# the pivoted Cholesky of a generator Gram's parity half stops at pivots
# below this fraction of the Gram's largest diagonal entry, a decade under
# the 1e-14 eigenvalue floor
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
# columns of Y_W per chunk when the moment route forms Y_W' A Y_W: on the
# benchmark's short-lengthscale case (N = 256, k_W = 603, 2-core box) 64,
# 128 and 256 columns took 35, 32 and 29 ms; 128 keeps each chunk product
# near 0.5 MB there
_MOMENT_CHUNK = 128
# conjugate gradients stop at this preconditioned relative residual and give
# up after this many iterations
_CG_TOL = 1e-14
_CG_MAX_ITER = 100
_SQRT_HALF = math.sqrt(0.5)


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

    The section slopes are the trajectory's ``dx_plus`` and the data
    functional is assembled from it (``assemble_data_functional``).  The
    regularizers must be positive and finite.  A known internal energy U
    (``known_u``) is subtracted on the data side.
    """

    traj: DensityTrajectory
    kernel1: SmoothKernel
    kernel2: SmoothKernel
    lambda1: float
    lambda2: float
    flow_kind: str = GRADIENT
    known_u: InternalEnergy = NO_INTERNAL_ENERGY
    drop_last_time_rows: int = 0

    def __post_init__(self):
        if not (0 < self.lambda1 < np.inf and 0 < self.lambda2 < np.inf):
            raise EstimatorError("regularization parameters must be positive and finite")
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
    both filled by one loop over the problem's learned functions.
    ``residual_vector`` is the estimate's operator image at the fit nodes
    minus ``data_vector``, the data functional f there (both time-major).
    ``method`` names the solve route ("lowrank", the only one).
    ``dropped_share`` bounds the largest eigenvalue of the Gram part the
    preconditioner leaves out, D^-1/2 (G - P P') D^-1/2 with D = c diag(rho)
    (see ``_factor_blocks``): at most 1 unless the numerical floors stop the
    cut first; each block's part of it is the larger, over the two
    reflection-parity halves of its generator Gram, of the remaining trace
    plus the largest cut eigenvalue plus the factor's rounding (n times the
    pivot floor for the n generators of a half).  ``gram_condition`` is
    lambda_max of the Woodbury core I + S'S plus ``dropped_share``: an upper
    bound on the condition number of the Jacobi-scaled exact system
    D^-1/2 (G + D) D^-1/2, whose smallest eigenvalue is at least 1.
    ``kept_rank`` maps "V" and "W" to [generator directions kept, generator
    count]: the pivoted Cholesky of each parity half of the generator Gram,
    read column by column from its gap vectors, stops once that half's
    remaining trace is at most half the block's threshold (or every pivot
    is below 1e-15 of the Gram's largest diagonal entry), and of the
    compressed directions of both halves those with eigenvalue above half
    the threshold (and above 1e-14 of the largest) are kept.  ``jitter`` is the shift, relative to
    the Woodbury core's largest diagonal entry, added to the core's
    eigenvalues to make them all positive (0.0 when none).  ``core_route``
    names the association that assembled W's block of the Woodbury core:
    "rows" (W's rows streamed) or "moments" (its generator moments), the
    one of fewer multiply-adds whose memory fits (``_core_route``).
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
    method: str
    kept_rank: dict = field(default_factory=dict)
    jitter: float = 0.0
    core_route: str = "rows"
    cg_iterations: int = 0
    cg_residual: float = 0.0
    dropped_share: float = 0.0
    data_vector: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Data functional
# ---------------------------------------------------------------------------

def assemble_data_functional(traj: DensityTrajectory, flow_kind: str,
                             known_u: InternalEnergy = NO_INTERNAL_ENERGY) -> np.ndarray:
    """Data side f of the regression, shape (L, N).

    gradient:     f = d+_t rho - a d/dx U'(rho) - rho d2/dx2 U'(rho)
    hamiltonian:  adds d+_tt rho and the geodesic correction on the
                  forward-differenced time slices.

    Spatial derivatives of U'(rho) use the chain rule with the same forward
    differences as the operator: d/dx U'(rho) ~ U''(rho) (d+ rho), second
    derivative by differencing that product again.  With ``known_u`` none
    these terms vanish.
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
        # geodesic correction is defined on zero-mean tangent slices;
        # project out the (discretization-induced) mean component
        f += christoffel_term(traj.values, slopes - slopes.mean(axis=1, keepdims=True), mesh)
    else:
        raise EstimatorError(f"unknown flow kind {flow_kind!r}")
    if known_u.kind != "none":
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
    2n-1 offsets d dx, d = -(n-1)..n-1.  The diagonal and K~ beta are read
    from these vectors, and so are the columns of its parity halves
    (``_ParityHalf``); the 2n x 2n matrix is never formed.
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

    def matvec(self, beta: np.ndarray) -> np.ndarray:
        """K~ beta, one ``valid`` convolution per order block."""
        g2, g3, g4 = self.gaps
        b1, b2 = np.split(beta, 2)
        return np.concatenate([
            np.convolve(g3, b2, "valid") - np.convolve(g2, b1, "valid"),
            np.convolve(g4, b2, "valid") - np.convolve(g3, b1, "valid")])


class _ParityHalf(NamedTuple):
    """One reflection-parity half of a generator Gram, read from its gap vectors.

    Let R reverse the n centers of an order block and S = diag(R, -R).  The
    order blocks of K~ on the diagonal are even Toeplitz and the cross blocks
    odd, so S K~ S = K~ and K~ splits into its restrictions to the two
    eigenspaces of S (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  The
    half of parity sigma spans order 1 vectors of R-parity sigma and order 2
    vectors of R-parity -sigma, n generators in all.  Its orthonormal basis
    is ordered R-parity +1 block first (order 1 when sigma = +1, order 2
    otherwise), then the R-parity -1 block; vector q of a block of R-parity
    s is u_q (e_q + s e_(n-1-q)) / sqrt(2) in its order block, for q = 0 ..
    ceil(n/2) - 1 (s = +1) or floor(n/2) - 1 (s = -1), with u_q = 1 except
    at the middle center of an odd n, where u = 1 / sqrt(2) makes the vector
    e_q.  Entry (i, q; j, p) of the half-Gram is then u_q u_p (K~[iq, jp] +
    s_j K~[iq, j(n-1-p)]): a Toeplitz plus a Hankel slice of the same gap
    vector, and its diagonal is u_q^2 (K~[iq, iq] + s_i K~[iq, i(n-1-q)]),
    from g(0) and g((2q - n + 1) dx).
    """

    gaps: np.ndarray      # (3, 2n-1), of the full Gram
    # per block, R-parity +1 first: (order, R-parity, first index, length,
    # the two gap rows its columns read, rows of the +1 block's order first)
    blocks: tuple

    @classmethod
    def of(cls, gram: GapGram, sigma: int) -> "_ParityHalf":
        n = gram.size // 2
        h = (n + 1) // 2
        first, second = (1, 2) if sigma == 1 else (2, 1)
        return cls(gram.gaps, tuple(
            (j, s, start, length, gram.gaps[j - 1:j + 1][::sigma])
            for j, s, start, length in ((first, 1, 0, h), (second, -1, h, n - h))))

    def diagonal(self) -> np.ndarray:
        n = self.gaps.shape[1] // 2 + 1
        d = np.concatenate([
            (2 * i - 3) * (self.gaps[2 * i - 2, n - 1] + s * self.gaps[2 * i - 2, :2 * h:2])
            for i, s, _, h, _ in self.blocks])
        if n % 2:  # the middle center: u^2 (g(0) + g(0)) = g(0)
            d[n // 2] /= 2
        return d

    def column(self, p: int) -> np.ndarray:
        """Column p of the half-Gram, in the basis order above."""
        n = self.gaps.shape[1] // 2 + 1
        h = self.blocks[0][3]
        j, s, start, _, rows = self.blocks[p >= h]
        q = p - start
        # both blocks are read h long and the -1 block's extra entry dropped
        col = (np.add if s > 0 else np.subtract)(
            rows[:, n - 1 - q:n - 1 - q + h], rows[:, q:q + h]).ravel()[:n]
        col *= 2 * j - 3
        if n % 2:  # the middle center's u on its row and on its column
            col[h - 1] *= _SQRT_HALF
            if p == h - 1:
                col *= _SQRT_HALF
        return col

    def lift(self, Z: np.ndarray) -> np.ndarray:
        """Q Z for the half's orthonormal basis Q (2n x n): half coordinates
        to generator coordinates, order blocks stacked."""
        n = Z.shape[0]
        out = np.zeros((2, n, Z.shape[1]))
        # row q and its mirror n-1-q each take Z's row q over sqrt(2); a
        # middle center is its own mirror and takes it whole (its vector is
        # e_q), written twice with the same value
        scaled = Z * _SQRT_HALF
        if n % 2:
            scaled[n // 2] = Z[n // 2]
        for i, s, start, h, _ in self.blocks:
            part = scaled[start:start + h]
            out[i - 1, :h] = part
            np.multiply(part[::-1], s, out=out[i - 1, n - h:])
        return out.reshape(2 * n, -1)


class _LearnedFunction(NamedTuple):
    """One learned function of the representer: V or W.

    Its coefficients are ``weight * z`` for the shared representer vector z,
    ``weight`` the other function's regularizer, and its norm is penalised
    by its own ``lam``.  ``family`` is the section family it spans, an
    ``rkhs.PlainSections`` or ``rkhs.ConvolvedSections``: its factor F onto
    the generators d1^i K(c, .), F' and the generators.  ``gram`` is the
    generator Gram K~ of mixed partials, so that its section Gram is F K~ F'.
    """

    name: str
    kernel: SmoothKernel
    lam: float
    weight: float
    family: PlainSections | ConvolvedSections
    gram: GapGram


def _fit_sections(problem: EstimationProblem) -> tuple[PlainSections, ConvolvedSections]:
    """The plain and convolved section families over the fit nodes."""
    traj, rows = problem.traj, problem.fit_rows
    nodes = (traj.dx_plus()[:rows], traj.values[:rows], traj.mesh.x, traj.mesh.dx)
    return PlainSections(*nodes), ConvolvedSections(*nodes)


def _fit_data(problem: EstimationProblem) -> np.ndarray:
    """Data functional f at the fit nodes, flattened time-major."""
    f_full = assemble_data_functional(problem.traj, problem.flow_kind, problem.known_u)
    return f_full[:problem.fit_rows].ravel()


def build_factors(problem: EstimationProblem) -> list[_LearnedFunction]:
    """The learned functions over the fit nodes.

    V spans plain sections of ``kernel1`` and W convolved sections of
    ``kernel2``, each weighted by the other's regularizer.  Plain generators
    sit on the N grid points, convolved ones on the 2N-1 difference-grid
    centers; each K~ is a ``GapGram``, three gap vectors of O(N) values.
    """
    plain, convolved = _fit_sections(problem)
    spec = [("V", problem.kernel1, problem.lambda1, problem.lambda2, plain),
            ("W", problem.kernel2, problem.lambda2, problem.lambda1, convolved)]
    return [
        _LearnedFunction(name, kernel, lam, weight, family,
                         GapGram.of(kernel, family.generators()[1].size // 2,
                                    problem.traj.mesh.dx))
        for name, kernel, lam, weight, family in spec]


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _pivoted_cholesky(half: _ParityHalf, threshold: float,
                      floor: float) -> tuple[np.ndarray, float]:
    """R' with half-Gram = R R' + E, E >= 0, and the trace of E.

    Alg. 1 of Harbrecht, Peters & Schneider (Appl. Numer. Math. 2012): each
    pivot column comes from the gap vectors and is downdated by one
    matrix-vector product with the rows of R' found so far; the loop stops
    once the trace of E, the sum of the remaining pivots, is at most
    ``threshold / 2``, or once every remaining pivot is at or below
    ``floor``.  R' is held row by row in a buffer that doubles as the rank
    grows.
    """
    d = half.diagonal()
    n = d.size
    Rt = np.empty((min(n, 64), n))
    m = 0
    while m < n:
        p = int(np.argmax(d))
        if d[p] <= floor or d.sum() <= threshold / 2:
            break
        if m == Rt.shape[0]:
            Rt = np.concatenate([Rt, np.empty((min(m, n - m), n))])
        row = half.column(p)
        row -= Rt[:m, p] @ Rt[:m]
        row /= np.sqrt(d[p])
        d -= row * row
        # a remaining pivot is a Schur complement's diagonal entry, never
        # negative; a factored one is never picked again on roundoff
        np.maximum(d, 0.0, out=d)
        d[p] = 0.0
        Rt[m] = row
        m += 1
    return Rt[:m], float(d.sum())


def _generator_factor(gram: GapGram, threshold: float) -> tuple[np.ndarray, float]:
    """Factor Y with orthogonal columns and 0 <= K~ - Y Y' <= dropped I.

    K~ is factored in O(n r^2) with O(n r) memory rather than eigendecomposed
    in O(n^3), and one reflection-parity half at a time (``_ParityHalf``):
    in the parity basis K~ is block-diagonal, so each half of n of the 2n
    generators takes its own ``_pivoted_cholesky`` at a quarter of the flops
    of one over K~.  Its pivots stop at ``_PIVOT_TOL`` times K~'s largest
    diagonal entry, the numerical floor.  Each half's small r x r
    eigenproblem R'R = V diag(w) V' then compresses R to R V, whose columns
    are the eigenvectors of R R' scaled by sqrt(w); directions with w at or
    below ``threshold / 2``, or below the floor 1e-14 times the largest w
    over both halves, are cut, and the kept ones are mapped back to the
    generators.  K~ - Y Y' is block-diagonal in the parity basis too, so
    ``dropped``, the larger over the two halves of the remaining trace plus
    the largest cut eigenvalue plus the factor's rounding, bounds its
    largest eigenvalue.  The rounding is counted as n pivot floors for n
    generators per half (measured below 0.4 of that for n < 80).  Y may
    have no columns.
    """
    floor = _PIVOT_TOL * float(gram.diagonal().max())
    halves = [(half, *_pivoted_cholesky(half, threshold, floor))
              for half in (_ParityHalf.of(gram, 1), _ParityHalf.of(gram, -1))]
    spectra = [np.linalg.eigh(Rt @ Rt.T) for _, Rt, _ in halves]
    top = max((w[-1] for w, _ in spectra if w.size), default=0.0)
    cut = max(threshold / 2, 1e-14 * top)
    rounding = gram.size // 2 * floor
    Y, dropped = [], 0.0
    for (half, Rt, rest), (w, V) in zip(halves, spectra):
        keep = w > cut
        Y.append(half.lift(Rt.T @ V[:, keep]))
        dropped = max(dropped, rest + max(float(w[~keep].max(initial=0.0)), 0.0) + rounding)
    return np.hstack(Y), dropped


def _factor_blocks(learned: list[_LearnedFunction], c: float
                   ) -> tuple[list[np.ndarray], float]:
    """The blocks Y of P with P P' <= G, one per learned function, and the
    share of the Jacobi-scaled system their cut leaves out.

    P's columns for a function s are rho F_s Y_s, with F_s its section
    family's factor and Y_s its ``_generator_factor`` scaled by sqrt(w_s).
    Scaled by D^-1/2, D = c diag(rho), the Gram part G - P P' that the cut
    drops is sum_s w_s A_s (K~_s - Y_s Y_s') A_s' with A_s = diag(sqrt(rho /
    c)) F_s, whose largest eigenvalue is at most dropped_share = sum_s w_s
    |A_s|_F^2 dropped_s.  Each block's threshold, ``_TAU`` over the
    function count times w_s |A_s|_F^2, keeps that share at most ``_TAU``
    unless the numerical floors of ``_generator_factor`` stop it first, and
    the preconditioned spectrum lies in [1, 1 + dropped_share].  |A_s|_F^2
    is the family's closed-form ``frobenius_sq`` at the row weights rho / c.
    """
    blocks, dropped_share = [], 0.0
    for fn in learned:
        share = fn.weight * fn.family.frobenius_sq(fn.family.r / c)
        Y, dropped = _generator_factor(fn.gram, _TAU / (len(learned) * share))
        blocks.append(np.sqrt(fn.weight) * Y)
        dropped_share += share * dropped
    return blocks, dropped_share


def _node_width(L: int, N: int) -> int:
    """Grid nodes per streamed block of W's rows: ``_ROW_BLOCK // L``, at
    least one and at most N."""
    return min(N, max(1, _ROW_BLOCK // L))


def _core_route(L: int, N: int, kw: int, k: int) -> str:
    """The association of W's block Y_W' (F2' H F2) Y_W of the Woodbury core,
    H = diag(rho / c), with fewer multiply-adds: "rows" or "moments".

    With b = ``_node_width(L, N)`` nodes per block and w = N + b, the rows
    route (``_rows_gram``) costs L N (2 w k_W + k_W^2 / 2 + 4 k_W) and the
    moment route (``_moment_gram``) 2 L N w^2 + 4 L N w + 4 N w k_W +
    4 (2N-1)^2 k_W + (2N-1) k_W^2, so moments win once W keeps more
    directions than its window is wide.  They are taken only when their
    three (2N-1)^2 blocks fit in the bytes the rows route would hold: its
    windows and row buffer (3 b L k_W), Q (2 N k_W) and the k x k core, so
    the solve's peak does not rise.
    """
    b = _node_width(L, N)
    w, n2 = N + b, 2 * N - 1
    rows = L * N * (2 * w * kw + kw * kw / 2 + 4 * kw)
    moments = (2 * L * N * w * w + 4 * L * N * w + 4 * N * w * kw
               + 4 * n2 * n2 * kw + n2 * kw * kw)
    fits = 3 * n2 * n2 <= 3 * b * L * kw + 2 * N * kw + k * k
    return "moments" if moments < rows and fits else "rows"


def _band(sections: ConvolvedSections, width: int) -> np.ndarray:
    """The band operand of a block of ``width`` grid nodes: row (j, l)
    holds r_l^rev at column offset j, shape (width L, N + width - 1).  It
    does not depend on the block's first node, so it is laid out once per
    core."""
    L, N = sections.r.shape
    band = np.zeros((width * L, N + width - 1))
    for j in range(width):
        band[j * L:(j + 1) * L, j:j + N] = sections.r_rev
    return band


def _rows_gram(sections: ConvolvedSections, Yw: np.ndarray, scale: np.ndarray,
               factors: np.ndarray, ww: np.ndarray, Q: np.ndarray) -> None:
    """Add S_W'S_W to ``ww`` and write Q from W's rows S_W = diag(scale) F2 Y_W.

    Row (l, n) is dx scale (a r_l^rev @ Y1[n:n+N] + r r_l^rev @ Y2[n:n+N]),
    Y1 and Y2 the order halves of Y_W.  For a block of ``_node_width`` grid
    nodes from n0 the ``_band`` multiplies the rows of Y1 and of Y2 from n0
    on, and one pass combines each row's two window products with its
    factors dx scale (a, r) into one reused buffer, read once by one
    symmetric rank update into ``ww`` and the reduction
    Q[n] = sum_l factors[:, l, n] S_W[l, n].
    """
    L, N = sections.r.shape
    k, width = Yw.shape[1], _node_width(L, N)
    Y1, Y2 = np.split(Yw, 2)
    band = _band(sections, width)
    rows_of = (np.stack([sections.a.T, sections.r.T], axis=2)
               * (sections.dx * scale.T)[:, :, None])                   # (N, L, 2)
    windows = np.empty((width * L, 2, k))
    buffer = np.empty((width * L, k))
    for n0 in range(0, N, width):
        b = min(width, N - n0)
        nodes = slice(n0, n0 + b)
        # the last block's band ends at row 2N - 2 of the halves
        left = band[:b * L, :2 * N - 1 - n0]
        np.matmul(left, Y1[n0:n0 + left.shape[1]], out=windows[:b * L, 0])
        np.matmul(left, Y2[n0:n0 + left.shape[1]], out=windows[:b * L, 1])
        rows = buffer[:b * L]
        np.einsum("rh,rhk->rk", rows_of[nodes].reshape(b * L, 2), windows[:b * L], out=rows)
        ww += rows.T @ rows
        np.matmul(factors[:, :, nodes].transpose(2, 0, 1), rows.reshape(b, L, k),
                  out=Q[nodes])


def _moment_gram(sections: ConvolvedSections, Yw: np.ndarray, scale: np.ndarray,
                 factors: np.ndarray, ww: np.ndarray, Q: np.ndarray) -> None:
    """Add Y_W' A Y_W to ``ww`` and write Q, never forming a row of S_W.

    A = F2' diag(scale^2) F2 is accumulated as its three (2N-1)^2 order
    blocks A11, A12 = A21 and A22 (each symmetric), one product per block of
    ``_node_width`` grid nodes of the operand [X1; X2] with itself: the
    block's rows of diag(scale) F2 on its window of N+b-1 columns per order
    half, the ``_band`` scaled row by row by dx scale a and by dx scale r
    into one reused buffer, so X_g' X_h lands on the window.  The same operand
    gives Q: with C_g[n] = sum_l factors[:, l, n] X_g[(n, l)], Q[n] =
    C_1[n] Y1[window] + C_2[n] Y2[window].  Y_W' A Y_W is then formed in
    column chunks J, Z = A Y_W[:, J], of which only the part above the
    diagonal chunk and the diagonal chunk itself are multiplied out.
    """
    L, N = sections.r.shape
    n2, kw, width = 2 * N - 1, Yw.shape[1], _node_width(L, N)
    Y1, Y2 = np.split(Yw, 2)
    A11, A12, A22 = np.zeros((3, n2, n2))
    band = _band(sections, width)
    rows_of = (sections.dx * scale * np.stack([sections.a, sections.r])).transpose(0, 2, 1)
    rows_of = rows_of.reshape(2, N * L, 1)
    buffer = np.empty(band.size * 2)
    for n0 in range(0, N, width):
        b = min(width, N - n0)
        w = N + b - 1
        nodes, window = slice(n0, n0 + b), slice(n0, n0 + w)
        X1, X2 = operand = buffer[:2 * b * L * w].reshape(2, b * L, w)
        np.multiply(band[:b * L, :w], rows_of[:, n0 * L:(n0 + b) * L], out=operand)
        A11[window, window] += X1.T @ X1
        A12[window, window] += X1.T @ X2
        A22[window, window] += X2.T @ X2
        pq = factors[:, :, nodes].transpose(2, 0, 1)                  # (b, 2, L)
        Q[nodes] = sum(np.matmul(pq, X.reshape(b, L, w)).reshape(2 * b, w) @ Y[window]
                       for X, Y in ((X1, Y1), (X2, Y2))).reshape(b, 2, kw)
    # the band, row factors and buffer go before the chunk products, so that
    # they do not add to the route's peak
    del band, rows_of, buffer, operand, X1, X2
    for j0 in range(0, kw, _MOMENT_CHUNK):
        J = slice(j0, j0 + _MOMENT_CHUNK)
        Z1 = A11 @ Y1[:, J] + A12 @ Y2[:, J]
        Z2 = A12 @ Y1[:, J] + A22 @ Y2[:, J]
        above = Y1[:, :j0].T @ Z1 + Y2[:, :j0].T @ Z2
        ww[:j0, J] += above
        ww[J, :j0] += above.T
        diagonal = Y1[:, J].T @ Z1 + Y2[:, J].T @ Z2
        ww[J, J] += 0.5 * (diagonal + diagonal.T)


def _woodbury_core(learned: list[_LearnedFunction], blocks: list[np.ndarray],
                   c: float) -> tuple[np.ndarray, str]:
    """The Woodbury core I + S'S for S = D^-1/2 P and D = c diag(rho), and
    the route that assembled W's block of it.

    S's columns for function s are diag(sqrt(rho / c)) F_s Y_s, so with the
    row factors (p, q) = sqrt(rho / c) (a, r), a row (l, n) of V's plain
    block is p Y1[n] + q Y2[n] for its order halves Y1, Y2.  V's block is
    therefore not streamed: its Gram is sum_n [Y1[n]; Y2[n]]' M_n [Y1[n];
    Y2[n]], M_n the 2 x 2 time sums of the products of (p, q) at node n, and
    its cross Gram with the convolved block S_W is Y1'Q_p + Y2'Q_q, Q_p[n] =
    sum_l p S_W[l, n] (likewise Q_q).
    W's own block S_W'S_W = Y_W' (F2' H F2) Y_W, H = diag(rho / c), and Q
    come from the route that ``_core_route`` picks for W's kept rank and
    the core's size: "rows" streams S_W's rows and reads each once
    (``_rows_gram``), "moments" accumulates the generator moment blocks
    F2' H F2 in O(N^2) memory and multiplies Y_W into them
    (``_moment_gram``); both give the same core to rounding.  A W that keeps
    no direction takes neither, and its route reads "rows".
    """
    Yp, Yw = blocks
    sections = learned[1].family    # W's, after V's
    L, N = sections.r.shape
    k = Yp.shape[1] + Yw.shape[1]
    cp, cw = slice(0, Yp.shape[1]), slice(Yp.shape[1], k)
    scale = np.sqrt(sections.r / c)
    factors = np.stack([scale * sections.a, scale * sections.r])       # (2, L, N)
    moments = np.einsum("hln,gln->hgn", factors, factors)
    gram = Yp.T @ np.einsum("hgn,gnk->hnk", moments, Yp.reshape(2, N, -1)).reshape(2 * N, -1)
    core = np.eye(k)
    core[cp, cp] += 0.5 * (gram + gram.T)  # Yp'(M Yp) is symmetric to rounding only
    Q = np.zeros((N, 2, Yw.shape[1]))
    route = _core_route(L, N, Yw.shape[1], k)
    if Yw.shape[1]:  # W keeps at least one direction
        stream = _rows_gram if route == "rows" else _moment_gram
        stream(sections, Yw, scale, factors, core[cw, cw], Q)
    cross = Yp.T @ Q.transpose(1, 0, 2).reshape(2 * N, -1)
    core[cp, cw] += cross
    core[cw, cp] += cross.T
    return core, route


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


def _inverse_factor(core: np.ndarray) -> tuple[np.ndarray, float, float]:
    """X with X'X = core^-1, from one eigendecomposition core = V diag(w) V'.

    X = (V diag(w)^-1/2)'.  A non-finite core is rejected before it is
    decomposed.  When the smallest eigenvalue is not positive, w is shifted
    by the first of 1e-12, 1e-10 and 1e-8 times the core's largest diagonal
    entry that makes it so.  Returns X, the largest eigenvalue of the core
    and the relative shift applied (0.0 when none).
    """
    if not np.all(np.isfinite(core)):
        raise EstimatorError("Woodbury core has non-finite entries")
    w, V = np.linalg.eigh(core)
    scale = float(np.max(np.diag(core)))
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        shifted = w + jitter * scale
        if shifted[0] > 0.0:
            return (V / np.sqrt(shifted)).T, float(w[-1]), jitter
    raise EstimatorError(
        "system matrix not positive definite even after jitter escalation; "
        f"diagonal scale {scale:.3g}"
    )


def _preconditioner(learned: list[_LearnedFunction], blocks: list[np.ndarray],
                    rho: np.ndarray, c: float):
    """(P P' + D)^-1, D = c diag(rho), for the factor P P' <= G of
    ``_factor_blocks``, applied by the Woodbury identity.

    The inverse of the k x k core I + S'S, S = D^-1/2 P, is applied as X'X
    from the core's one eigendecomposition (``_inverse_factor``); with no
    kept direction the preconditioner is D^-1.  P = rho [F_b Y_b]_b is never
    formed: the core comes from per-node moments and W's block on the
    route it picks (``_woodbury_core``), and P v =
    rho sum_b F_b (Y_b v_b) and P'u = [Y_b' F_b' (rho u)]_b go through the
    section families, O(L N^2 + N k) per product.  Returns the apply,
    lambda_max of the core, the jitter added to its eigenvalues and the
    core's route.
    """
    dinv = 1.0 / (c * rho)
    kept = [Y.shape[1] for Y in blocks]
    if sum(kept):
        core, route = _woodbury_core(learned, blocks, c)
        inv_factor, top, jitter = _inverse_factor(core)
    else:  # no direction kept: the core is empty, the preconditioner D^-1
        top, jitter, inv_factor, route = 1.0, 0.0, np.empty((0, 0)), "rows"
    splits = np.cumsum(kept)[:-1]

    def woodbury(r: np.ndarray) -> np.ndarray:
        dr = dinv * r
        v = inv_factor.T @ (inv_factor @ np.concatenate(
            [Y.T @ fn.family.apply_t(rho * dr) for fn, Y in zip(learned, blocks)]))
        return dr - dinv * (rho * sum(fn.family.apply(Y @ part) for fn, Y, part
                                      in zip(learned, blocks, np.split(v, splits))))

    return woodbury, top, jitter, route


def solve(problem: EstimationProblem) -> EstimatorResult:
    """Solve the regularized regression in closed form.

    (G + c diag(rho)) z = rho f, c the product l1 l2 of the regularizers over
    the node weight dt dx, is solved by conjugate gradients on the exact G =
    rho sum_s w_s F_s K~_s F_s' rho, applied matrix-free (one
    ``GapGram.matvec`` per learned function), so no ``M x M`` matrix is
    formed.  The preconditioner is the Woodbury inverse of its low-rank part
    cut at the regularizer (``_preconditioner``).  Every eigenvalue of the
    preconditioned operator lies in [1, 1 + dropped_share], and CG absorbs
    the cut, the core's roundoff and the O(1/c) cancellation of the Woodbury
    formula.  ``gram_condition``, lambda_max of the core plus dropped_share,
    bounds the condition number of the Jacobi-scaled exact system
    D^-1/2 (G + D) D^-1/2, whose smallest eigenvalue is at least 1.  Each
    learned function then takes its coefficients weight * z, its
    reconstruction from the node weights rho * coefficients reduced onto its
    generators (beta), and, from K~ beta, its squared norm beta'K~beta and
    its operator image F K~ beta.
    """
    learned = build_factors(problem)
    f_flat = _fit_data(problem)
    rho = learned[0].family.r.ravel()
    c = math.prod(fn.lam for fn in learned) / problem.node_weight
    blocks, dropped_share = _factor_blocks(learned, c)
    woodbury, top, jitter, route = _preconditioner(learned, blocks, rho, c)

    def system(v: np.ndarray) -> np.ndarray:
        u = rho * v
        return rho * sum(fn.weight * fn.family.apply(fn.gram.matvec(fn.family.apply_t(u)))
                         for fn in learned) + c * u

    z, iterations, cg_residual = _pcg(system, woodbury, rho * f_flat)
    coeffs, estimates, norms, images = {}, {}, {}, []
    for fn in learned:
        coeffs[fn.name] = fn.weight * z
        beta = fn.family.apply_t(rho * coeffs[fn.name])
        estimates[fn.name] = RkhsFunction(fn.kernel, *fn.family.generators(), beta)
        Kb = fn.gram.matvec(beta)
        norms[fn.name] = float(np.sqrt(max(beta @ Kb, 0.0)))
        images.append(fn.family.apply(Kb))
    image = reduce(np.add, images)
    residual = image - f_flat
    loss = problem.node_weight * float(residual**2 @ rho)
    loss += sum(fn.lam * norms[fn.name]**2 for fn in learned)

    return EstimatorResult(
        C1=coeffs["V"], C2=coeffs["W"], Vhat=estimates["V"], What=estimates["W"],
        rkhs_norms=norms,
        loss_value=loss,
        residual_vector=residual,
        gram_condition=top + dropped_share,
        dropped_share=dropped_share,
        method="lowrank",
        kept_rank={fn.name: [Y.shape[1], fn.gram.size] for fn, Y in zip(learned, blocks)},
        jitter=jitter,
        core_route=route,
        cg_iterations=iterations,
        cg_residual=cg_residual,
        data_vector=f_flat,
    )


# ---------------------------------------------------------------------------
# Forward operator on arbitrary candidate pairs
# ---------------------------------------------------------------------------

def operator_image(problem: EstimationProblem, phi, psi) -> np.ndarray:
    """Forward operator applied at every fit node, flattened (time-major): each
    candidate's section factor F applied to its f' and f'' at its family's
    generator centers, grid points for phi and pair differences for psi."""
    plain, convolved = _fit_sections(problem)
    image = np.zeros(plain.r.size)
    for fn, family in ((phi, plain), (psi, convolved)):
        if fn is not None:
            orders, centers = family.generators()
            image += family.apply(np.concatenate(
                [fn.value(centers[orders == k], order=k) for k in (1, 2)]))
    return image


def loss_at(problem: EstimationProblem, phi: RkhsFunction, psi: RkhsFunction) -> float:
    """Regularized empirical loss at an explicit candidate pair, on the data
    functional ``solve`` fits."""
    rho_flat = problem.traj.values[:problem.fit_rows].ravel()
    resid = operator_image(problem, phi, psi) - _fit_data(problem)
    loss = problem.node_weight * float(resid**2 @ rho_flat)
    loss += problem.lambda1 * rkhs_inner(phi, phi)
    loss += problem.lambda2 * rkhs_inner(psi, psi)
    return loss


def stationarity_residual(result: EstimatorResult, problem: EstimationProblem) -> float:
    """RKHS norm of the loss gradient at the returned estimate: the largest
    derivative of the loss along any unit direction of the product RKHS.

    Function s's part of the gradient has the generator coefficients
    g_s = F_s'(2 dt dx rho residual) + 2 l_s beta_s (beta_s the estimate's),
    so the norm is sqrt(sum_s g_s' K~_s g_s); no kernel is evaluated on pairs.
    """
    learned = build_factors(problem)
    estimates = {"V": result.Vhat, "W": result.What}
    weights = 2.0 * problem.node_weight * learned[0].family.r.ravel() * result.residual_vector
    total = 0.0
    for fn in learned:
        beta = getattr(estimates[fn.name], "coeffs", None)
        if beta is None or beta.shape != (fn.gram.size,):
            raise EstimatorError(f"{fn.name} estimate is not on its {fn.gram.size} generators")
        g = fn.family.apply_t(weights) + 2.0 * fn.lam * beta
        total += g @ fn.gram.matvec(g)
    return float(np.sqrt(max(total, 0.0)))
