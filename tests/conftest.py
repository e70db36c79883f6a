import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial import polynomial as npoly

from wgflows.estimator import (
    EstimationProblem,
    EstimatorError,
    GapGram,
    _factor_blocks,
    _fit_sections,
    assemble_data_functional,
    build_factors,
)
from wgflows.flows import SmoothFunction, _Lockstep
from wgflows.kernels import GAUSSIAN, SmoothKernel
from wgflows.mesh import PERIODIC, TRUNCATED, DensityTrajectory, SpaceTimeMesh
from wgflows.rkhs import ConvolvedSections, PlainSections, RkhsFunction


@pytest.fixture(autouse=True)
def _quiet_mass_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="per-slice mass deviates")
        yield


def space_integral(values, mesh: SpaceTimeMesh) -> float | np.ndarray:
    """Riemann sum dx * sum(values) along the last axis."""
    out = mesh.dx * np.sum(values, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def kernel_config(kernel: SmoothKernel) -> dict:
    """The JSON kernel spec ``cli.kernel_from_config`` reads back."""
    cfg = {"family": kernel.family, "lengthscale": kernel.lengthscale}
    if kernel.beta is not None:
        cfg["beta"] = kernel.beta
    return cfg


def zero_phase() -> SmoothFunction:
    """The zero initial phase of a Hamiltonian flow."""
    return SmoothFunction([np.zeros_like] * 4, "zero")


def count_lockstep_calls(monkeypatch) -> list:
    """Record every call of the Hamiltonian simulator's series tables,
    which only its Verlet steps and its energy diagnostic make."""
    calls = []
    call = _Lockstep.__call__

    def counting(self, *args, **kwargs):
        calls.append(args)
        return call(self, *args, **kwargs)

    monkeypatch.setattr(_Lockstep, "__call__", counting)
    return calls


def random_trajectory(N=12, L=3, mode=TRUNCATED, seed=0, a=0.0, b=1.0, T=0.3,
                      lo=0.5, hi=1.5):
    rng = np.random.default_rng(seed)
    mesh = SpaceTimeMesh(a, b, T, N, L)
    values = lo + (hi - lo) * rng.random((L, N))
    return DensityTrajectory(mesh, values, boundary_mode=mode)


class GivenDerivatives(DensityTrajectory):
    """``traj`` with given forward differences: ``dx_plus`` returns
    ``slopes`` and ``dt_plus`` returns ``rate`` where given, and the
    trajectory's own differences otherwise.  The estimator reads its section
    slopes through ``dx_plus`` and, for gradient data with U = none, its
    whole data functional through ``dt_plus``, so a solve on this trajectory
    runs on exact or chosen derivatives along the production path."""

    def __init__(self, traj: DensityTrajectory, slopes=None, rate=None):
        super().__init__(traj.mesh, traj.values, traj.boundary_mode)
        self.slopes, self.rate = slopes, rate

    def dx_plus(self) -> np.ndarray:
        return super().dx_plus() if self.slopes is None else self.slopes

    def dt_plus(self) -> np.ndarray:
        return super().dt_plus() if self.rate is None else self.rate


@pytest.fixture
def traj_truncated():
    return random_trajectory(mode=TRUNCATED, seed=3)


@pytest.fixture
def traj_periodic():
    return random_trajectory(mode=PERIODIC, seed=4)


# ---------------------------------------------------------------------------
# Dense reference of the representer solve
# ---------------------------------------------------------------------------

DENSE_CEILING = 4096  # largest node count for materialized Gram matrices


def _plain_factor(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    Lf, N = a.shape
    M = Lf * N
    F = np.zeros((M, 2 * N))
    rows = np.arange(M)
    ncol = np.tile(np.arange(N), Lf)
    F[rows, ncol] = a.ravel()
    F[rows, N + ncol] = r.ravel()
    return F


def _convolved_factor(a: np.ndarray, r: np.ndarray, rho: np.ndarray, dx: float) -> np.ndarray:
    Lf, N = a.shape
    M = Lf * N
    ncols = 2 * N - 1
    F = np.zeros((M, 2 * ncols))
    for s in range(-(N - 1), N):
        col = s + N - 1
        lo, hi = max(0, s), N + min(0, s)   # nodes n with 0 <= n - s < N
        block_a = np.zeros((Lf, N))
        block_r = np.zeros((Lf, N))
        block_a[:, lo:hi] = dx * a[:, lo:hi] * rho[:, lo - s:hi - s]
        block_r[:, lo:hi] = dx * r[:, lo:hi] * rho[:, lo - s:hi - s]
        F[:, col] = block_a.ravel()
        F[:, ncols + col] = block_r.ravel()
    return F


def dense_factors(fac) -> tuple[np.ndarray, np.ndarray]:
    """The plain and convolved section factors F1, F2 as dense matrices,
    from the node weights of either section family."""
    return _plain_factor(fac.a, fac.r), _convolved_factor(fac.a, fac.r, fac.r, fac.dx)


def dense_factor(family: PlainSections | ConvolvedSections) -> np.ndarray:
    """The factor F of one section family as a dense matrix."""
    if isinstance(family, ConvolvedSections):
        return _convolved_factor(family.a, family.r, family.r, family.dx)
    return _plain_factor(family.a, family.r)


def kernel_gram(kernel: SmoothKernel, za, zb=None, i: int = 0, j: int = 0) -> np.ndarray:
    """Matrix of mixed partials d1^i d2^j K(za_p, zb_q) over two point sets
    (``zb`` defaults to ``za``)."""
    za = np.atleast_1d(np.asarray(za, dtype=float))
    zb = za if zb is None else np.atleast_1d(np.asarray(zb, dtype=float))
    return kernel.eval(i, j, za[:, None], zb[None, :])


def dense_generator_gram(kernel: SmoothKernel, orders: np.ndarray,
                         centers: np.ndarray) -> np.ndarray:
    """Mixed partials d1^i d2^j K(c_p, c_q) between generators (i, c), the
    dense reference for ``estimator.GapGram``."""
    out = np.empty((orders.size,) * 2)
    for oi in np.unique(orders):
        for oj in np.unique(orders):
            mi, mj = orders == oi, orders == oj
            out[np.ix_(mi, mj)] = kernel_gram(kernel, centers[mi], centers[mj],
                                              i=int(oi), j=int(oj))
    return out


def dense_generator_grams(problem: EstimationProblem) -> dict[str, np.ndarray]:
    """Dense generator Grams K~ by learned function ("V" and "W")."""
    plain, convolved = _fit_sections(problem)
    return {"V": dense_generator_gram(problem.kernel1, *plain.generators()),
            "W": dense_generator_gram(problem.kernel2, *convolved.generators())}


def gap_gram_column(gram: GapGram, p: int) -> np.ndarray:
    """Column p of the generator Gram K~ that ``gram`` holds as gap vectors:
    generator p has order j = 1 + p // n, and its column reads the two gap
    rows of its order, signed -1 for order 1, at offsets n-1-q .. 2n-2-q."""
    n = gram.size // 2
    j, q = divmod(p, n)
    sign = -1.0 if j == 0 else 1.0
    return sign * gram.gaps[j:j + 2, n - 1 - q:2 * n - 1 - q].ravel()


def reflection(n: int) -> np.ndarray:
    """S = diag(R, -R), R reversing the n centers of an order block: the
    reflection under which every generator Gram of a radial kernel is even."""
    R = np.eye(n)[::-1]
    Z = np.zeros((n, n))
    return np.block([[R, Z], [Z, -R]])


def parity_basis(n: int, sigma: int) -> np.ndarray:
    """Orthonormal basis Q (2n x n) of the eigenspace of ``reflection(n)``
    for the eigenvalue sigma, in the column order of ``estimator._ParityHalf``:
    the order block of R-parity +1 first (order 1 when sigma = +1), then
    that of R-parity -1; column q of a block of R-parity s is e_q + s
    e_(n-1-q) in its order block, normalized."""
    columns = []
    for order, s in (((1, 1), (2, -1)) if sigma == 1 else ((2, 1), (1, -1))):
        for q in range((n + 1) // 2 if s == 1 else n // 2):
            v = np.zeros(2 * n)
            v[(order - 1) * n + q] += 1.0
            v[(order - 1) * n + n - 1 - q] += s
            columns.append(v / np.linalg.norm(v))
    return np.array(columns).reshape(-1, 2 * n).T


def section_grams(problem: EstimationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense unweighted section Grams (plain, convolved); small problems only."""
    if problem.node_count > DENSE_CEILING:
        raise EstimatorError(
            f"dense section Grams limited to {DENSE_CEILING} nodes, "
            f"got {problem.node_count}"
        )
    F1, F2 = dense_factors(_fit_sections(problem)[0])
    grams = dense_generator_grams(problem)
    return F1 @ grams["V"] @ F1.T, F2 @ grams["W"] @ F2.T


def assemble_gram(problem: EstimationProblem) -> np.ndarray:
    """Density-weighted Gram C (l2 G_plain + l1 G_conv) C, dense."""
    fac = _fit_sections(problem)[0]
    G1, G2 = section_grams(problem)
    C = fac.r.ravel()
    core = problem.lambda2 * G1 + problem.lambda1 * G2
    return C[:, None] * core * C[None, :]


def regularizer(problem: EstimationProblem) -> float:
    """c = l1 l2 / (dt dx), the system's diagonal over rho."""
    return problem.lambda1 * problem.lambda2 / problem.node_weight


def stacked_factor(problem: EstimationProblem) -> tuple[np.ndarray, dict]:
    """The stacked factor P (M x k) with P P' <= G, assembled as rho times the
    dense section factors applied to the blocks Y that ``solve`` keeps, and
    the kept rank per block."""
    learned = build_factors(problem)
    blocks, _ = _factor_blocks(learned, regularizer(problem))
    rho = learned[0].family.r.reshape(-1, 1)
    P = rho * np.hstack([dense_factor(fn.family) @ Y for fn, Y in zip(learned, blocks)])
    kept = {fn.name: [Y.shape[1], fn.gram.size] for fn, Y in zip(learned, blocks)}
    return P, kept


def dense_reference_solve(problem: EstimationProblem) -> SimpleNamespace:
    """Representer solve by dense Cholesky of the M x M system matrix.

    Solves (assemble_gram + c diag(rho)) z = rho f, the system ``solve``
    handles in factored form, and derives the coefficients, RKHS norms and
    loss from the dense section Grams alone.  Returns them under the
    attribute names of ``EstimatorResult``.
    """
    G1, G2 = section_grams(problem)
    rho = problem.traj.values[:problem.fit_rows].ravel()
    f_full = assemble_data_functional(problem.traj, problem.flow_kind, problem.known_u)
    f = f_full[:problem.fit_rows].ravel()
    l1, l2 = problem.lambda1, problem.lambda2
    system = assemble_gram(problem) + regularizer(problem) * np.diag(rho)
    z = sla.cho_solve(sla.cho_factor(system, lower=True), rho * f)
    # name: (section Gram, coefficients, regularizer)
    blocks = {"V": (G1, l2 * z, l1), "W": (G2, l1 * z, l2)}
    # the section combination with weights rho * C has operator image
    # G (rho C) and squared RKHS norm (rho C)' G (rho C)
    norms = {name: float(np.sqrt(max((rho * C) @ G @ (rho * C), 0.0)))
             for name, (G, C, _) in blocks.items()}
    image = sum(G @ (rho * C) for G, C, _ in blocks.values())
    loss = problem.node_weight * float((image - f) ** 2 @ rho)
    loss += sum(lam * norms[name] ** 2 for name, (_, _, lam) in blocks.items())
    return SimpleNamespace(
        C1=blocks["V"][1], C2=blocks["W"][1], rkhs_norms=norms, loss_value=loss,
    )


# ---------------------------------------------------------------------------
# Pointwise forward operator, the reference for ``operator_image``
# ---------------------------------------------------------------------------

def apply_flow_operator(traj: DensityTrajectory, phi, psi, l: int, n: int) -> float:
    """Pointwise forward operator at node (l, n) for evaluable (phi, psi)."""
    mesh = traj.mesh
    a = traj.dx_plus()[l, n]
    r = traj.values[l, n]
    x = mesh.x[n]
    d1 = d2 = 0.0
    if phi is not None:
        d1 += float(phi.value(x, order=1))
        d2 += float(phi.value(x, order=2))
    if psi is not None:
        rho = traj.values[l]
        diffs = x - mesh.x
        d1 += mesh.dx * float(np.asarray(psi.value(diffs, order=1)) @ rho)
        d2 += mesh.dx * float(np.asarray(psi.value(diffs, order=2)) @ rho)
    return a * d1 + r * d2


# ---------------------------------------------------------------------------
# Sections and functions built node by node (the estimator reduces its
# sections through the section families directly)
# ---------------------------------------------------------------------------

def node_weights(nodes, weights, shape: tuple[int, int]) -> np.ndarray:
    """Weights of 0-based (l, n) nodes summed onto the (L, N) grid."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=int))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if nodes.shape[1] != 2 or nodes.shape[0] != weights.shape[0]:
        raise ValueError("nodes must be (m, 2) index pairs matching weights")
    ls, ns = nodes[:, 0], nodes[:, 1]
    if np.any(ls < 0) or np.any(ls >= shape[0]):
        raise IndexError("time index outside trajectory")
    if np.any(ns < 0) or np.any(ns >= shape[1]):
        raise IndexError("space index outside trajectory")
    u = np.zeros(shape)
    np.add.at(u, (ls, ns), weights)
    return u


def family_sections(family: type, kernel: SmoothKernel, traj: DensityTrajectory,
                    nodes, weights) -> RkhsFunction:
    """sum over 0-based nodes (l, n) of w times the section anchored at
    (l, n) of ``family``, ``PlainSections`` or ``ConvolvedSections`` over
    every node of the trajectory."""
    if family not in (PlainSections, ConvolvedSections):
        raise ValueError(f"unknown section family {family!r}")
    sections = family(traj.dx_plus(), traj.values, traj.mesh.x, traj.mesh.dx)
    u = node_weights(nodes, weights, sections.a.shape)
    return RkhsFunction(kernel, *sections.generators(), sections.apply_t(u))


def plain_sections(kernel: SmoothKernel, traj: DensityTrajectory,
                   nodes, weights) -> RkhsFunction:
    """sum over 0-based nodes (l, n) of w * [a d1K(x_n,.) + r d11K(x_n,.)]."""
    return family_sections(PlainSections, kernel, traj, nodes, weights)


def convolved_sections(kernel: SmoothKernel, traj: DensityTrajectory,
                       nodes, weights) -> RkhsFunction:
    """Convolved analogue of ``plain_sections``; centers live on the
    difference grid."""
    return family_sections(ConvolvedSections, kernel, traj, nodes, weights)


def zero_function(kernel: SmoothKernel) -> RkhsFunction:
    """The zero function: no generators."""
    empty = np.empty(0)
    return RkhsFunction(kernel, empty.astype(int), empty, empty)


def diff_section(kernel: SmoothKernel, traj: DensityTrajectory, l: int, n: int,
                 family: type = PlainSections) -> RkhsFunction:
    """Single weighted-Laplacian kernel section of ``family`` anchored at
    node (l, n)."""
    return family_sections(family, kernel, traj, [(l, n)], [1.0])


# ---------------------------------------------------------------------------
# Out-of-place profile formula, the reference for ``SmoothKernel.profile``
# ---------------------------------------------------------------------------

def reference_profile(kernel: SmoothKernel, order: int, u) -> np.ndarray | float:
    """g^(order)(u) as polyval(u, P_order) * base, one temporary per step."""
    u = np.asarray(u, dtype=float)
    poly_val = npoly.polyval(u, kernel._polys[order])
    if kernel.family == GAUSSIAN:
        base = np.exp(-0.5 * u**2 / kernel.lengthscale**2)
    else:
        base = (1.0 + u**2 / kernel.lengthscale**2) ** (-(kernel.beta + order))
    out = poly_val * base
    return float(out) if out.ndim == 0 else out


def reference_eval(kernel: SmoothKernel, i: int, j: int, x, y) -> np.ndarray | float:
    """d_x^i d_y^j K(x, y) = (-1)^j g^(i+j)(x - y) from the reference profile."""
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    sign = -1.0 if j % 2 else 1.0
    return sign * reference_profile(kernel, i + j, u)


# ---------------------------------------------------------------------------
# Direct particle interaction sum, the reference for the series pair sums
# of the Hamiltonian simulator's tables (``flows._energy_tables``)
# ---------------------------------------------------------------------------

def dense_pair_sums(q: np.ndarray, masses: np.ndarray, W, length: float,
                    order: int) -> np.ndarray:
    """sum_j m_j W^(order)(q_i - q_j) over minimal-image pair differences,
    O(n^2), one particle row at a time."""
    sums = np.empty(q.size)
    for i in range(q.size):
        diff = q[i] - q
        diff -= length * np.round(diff / length)
        sums[i] = np.asarray(W.value(diff, order=order), dtype=float) @ masses
    return sums


# ---------------------------------------------------------------------------
# Dense grid convolution matrix, the reference for the gradient flow's
# offset-vector convolution
# ---------------------------------------------------------------------------

def dense_interaction_matrix(W, mesh: SpaceTimeMesh, order: int = 0) -> np.ndarray | None:
    """Precomputed W^(order)(x_n - x_m) for grid convolutions; None for W = 0."""
    if W is None:
        return None
    x = mesh.x
    return np.asarray(W.value(x[:, None] - x[None, :], order=order), dtype=float)


# ---------------------------------------------------------------------------
# Exact-derivative diagnostics (error decomposition), the references the
# forward-difference data functional is checked against
# ---------------------------------------------------------------------------

def spectral_slopes(traj: DensityTrajectory) -> np.ndarray:
    """Spectral d/dx of every slice; periodic data only."""
    if traj.boundary_mode != PERIODIC:
        raise ValueError("spectral slopes need periodic data")
    N = traj.mesh.N
    k = 2j * np.pi * np.fft.rfftfreq(N, d=traj.mesh.dx)
    return np.fft.irfft(k * np.fft.rfft(traj.values, axis=1), n=N, axis=1)


def exact_data_functional(traj: DensityTrajectory) -> np.ndarray:
    """Gradient-flow data functional with U = none from central t-derivatives
    (second order at the ends), for ``GivenDerivatives(rate=...)``.

    Diagnostic companion of the forward-difference functional: substituting
    it (with the spectral slopes) isolates the scheme-dependent part of the
    reconstruction error.
    """
    return np.gradient(traj.values, traj.mesh.dt, axis=0, edge_order=2)
