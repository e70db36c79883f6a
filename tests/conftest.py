import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial import polynomial as npoly

from wgflows.estimator import (
    EstimationProblem,
    EstimatorError,
    _factor_blocks,
    assemble_data_functional,
    build_factors,
)
from wgflows.flows import NO_INTERNAL_ENERGY, InternalEnergy
from wgflows.kernels import GAUSSIAN, SmoothKernel
from wgflows.mesh import PERIODIC, TRUNCATED, DensityTrajectory, SpaceTimeMesh
from wgflows.rkhs import CONVOLVED, PLAIN, RkhsFunction, SectionMap


@pytest.fixture(autouse=True)
def _quiet_mass_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="per-slice mass deviates")
        yield


def random_trajectory(N=12, L=3, mode=TRUNCATED, seed=0, a=0.0, b=1.0, T=0.3,
                      lo=0.5, hi=1.5):
    rng = np.random.default_rng(seed)
    mesh = SpaceTimeMesh(a, b, T, N, L)
    values = lo + (hi - lo) * rng.random((L, N))
    return DensityTrajectory(mesh, values, boundary_mode=mode)


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


def dense_factors(fac: SectionMap) -> tuple[np.ndarray, np.ndarray]:
    """The plain and convolved section factors F1, F2 as dense matrices."""
    return _plain_factor(fac.a, fac.r), _convolved_factor(fac.a, fac.r, fac.r, fac.dx)


def dense_generator_gram(kernel: SmoothKernel, orders: np.ndarray,
                         centers: np.ndarray) -> np.ndarray:
    """Mixed partials d1^i d2^j K(c_p, c_q) between generators (i, c), the
    dense reference for ``estimator.GapGram``."""
    out = np.empty((orders.size,) * 2)
    for oi in np.unique(orders):
        for oj in np.unique(orders):
            mi, mj = orders == oi, orders == oj
            out[np.ix_(mi, mj)] = kernel.gram(centers[mi], centers[mj],
                                              i=int(oi), j=int(oj))
    return out


def dense_generator_grams(problem: EstimationProblem,
                          fac: SectionMap) -> dict[str, np.ndarray]:
    """Dense generator Grams K~ by learned function ("V", "W", and "U")."""
    grams = {"V": dense_generator_gram(problem.kernel1, *fac.plain_generators()),
             "W": dense_generator_gram(problem.kernel2, *fac.convolved_generators())}
    if problem.learn_internal:
        grams["U"] = dense_generator_gram(problem.kernel3, *fac.plain_generators())
    return grams


def section_grams(problem: EstimationProblem,
                  factors: SectionMap | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dense unweighted section Grams (plain, convolved); small problems only."""
    if problem.node_count > DENSE_CEILING:
        raise EstimatorError(
            f"dense section Grams limited to {DENSE_CEILING} nodes, "
            f"got {problem.node_count}"
        )
    fac = factors or build_factors(problem)[0]
    F1, F2 = dense_factors(fac)
    grams = dense_generator_grams(problem, fac)
    return F1 @ grams["V"] @ F1.T, F2 @ grams["W"] @ F2.T


def internal_section_gram(problem: EstimationProblem, fac: SectionMap) -> np.ndarray:
    """Dense section Gram of the three-function variant's internal term."""
    F3 = _plain_factor(fac.a, fac.r)
    return F3 @ dense_generator_gram(problem.kernel3, *fac.plain_generators()) @ F3.T


def assemble_gram(problem: EstimationProblem,
                  factors: SectionMap | None = None) -> np.ndarray:
    """Density-weighted Gram C (l2 G_plain + l1 G_conv [+ ...]) C, dense."""
    fac = factors or build_factors(problem)[0]
    G1, G2 = section_grams(problem, fac)
    C = fac.r.ravel()
    if problem.learn_internal:
        l1, l2, l3 = problem.lambda1, problem.lambda2, problem.lambda3
        G3 = internal_section_gram(problem, fac)
        core = l2 * l3 * G1 + l1 * l3 * G2 + l1 * l2 * G3
    else:
        core = problem.lambda2 * G1 + problem.lambda1 * G2
    return C[:, None] * core * C[None, :]


def regularizer(problem: EstimationProblem) -> float:
    """c = prod_j l_j / (dt dx), the system's diagonal over rho."""
    lams = (problem.lambda1, problem.lambda2, problem.lambda3 or 1.0)
    return float(np.prod(lams)) / problem.node_weight


def stacked_factor(problem: EstimationProblem) -> tuple[np.ndarray, dict]:
    """The stacked factor P (M x k) with P P' <= G, assembled as rho times the
    dense section factors applied to the blocks Y that ``solve`` keeps, and
    the kept rank per block."""
    sections, learned = build_factors(problem)
    blocks, _ = _factor_blocks(learned, sections, regularizer(problem))
    F = dict(zip((PLAIN, CONVOLVED), dense_factors(sections)))
    P = sections.r.reshape(-1, 1) * np.hstack([F[fn.side] @ Y for fn, Y in zip(learned, blocks)])
    kept = {fn.name: [Y.shape[1], fn.gram.size] for fn, Y in zip(learned, blocks)}
    return P, kept


def dense_reference_solve(problem: EstimationProblem) -> SimpleNamespace:
    """Representer solve by dense Cholesky of the M x M system matrix.

    Solves (assemble_gram + c diag(rho)) z = rho f, the system ``solve``
    handles in factored form, and derives the coefficients, RKHS norms and
    loss from the dense section Grams alone.  Returns them under the
    attribute names of ``EstimatorResult``.
    """
    fac, _ = build_factors(problem)
    G1, G2 = section_grams(problem, fac)
    rho = fac.r.ravel()
    if problem.f_override is not None:
        f_full = np.asarray(problem.f_override, dtype=float)
    else:
        f_full = assemble_data_functional(
            problem.traj, problem.flow_kind, problem.known_u,
            include_internal=not problem.learn_internal,
        )
    f = f_full[:problem.fit_rows].ravel()
    l1, l2, l3 = problem.lambda1, problem.lambda2, problem.lambda3
    if problem.learn_internal:
        c = l1 * l2 * l3 / problem.node_weight
    else:
        c = l1 * l2 / problem.node_weight
    system = assemble_gram(problem, fac) + c * np.diag(rho)
    z = sla.cho_solve(sla.cho_factor(system, lower=True), rho * f)
    # name: (section Gram, coefficients, regularizer)
    if problem.learn_internal:
        G3 = internal_section_gram(problem, fac)
        blocks = {"V": (G1, l2 * l3 * z, l1), "W": (G2, l1 * l3 * z, l2),
                  "U": (G3, l1 * l2 * z, l3)}
    else:
        blocks = {"V": (G1, l2 * z, l1), "W": (G2, l1 * z, l2)}
    # the section combination with weights rho * C has operator image
    # G (rho C) and squared RKHS norm (rho C)' G (rho C)
    norms = {name: float(np.sqrt(max((rho * C) @ G @ (rho * C), 0.0)))
             for name, (G, C, _) in blocks.items()}
    image = sum(G @ (rho * C) for G, C, _ in blocks.values())
    loss = problem.node_weight * float((image - f) ** 2 @ rho)
    loss += sum(lam * norms[name] ** 2 for name, (_, _, lam) in blocks.items())
    return SimpleNamespace(
        C1=blocks["V"][1], C2=blocks["W"][1],
        C3=blocks["U"][1] if problem.learn_internal else None,
        rkhs_norms=norms, loss_value=loss,
    )


# ---------------------------------------------------------------------------
# Pointwise forward operator, the reference for ``operator_image``
# ---------------------------------------------------------------------------

def apply_flow_operator(traj: DensityTrajectory, phi, psi, l: int, n: int,
                        spatial_slope: float | None = None, upsilon=None) -> float:
    """Pointwise forward operator at node (l, n) for evaluable (phi, psi)
    and, when given, the plain internal-energy term upsilon."""
    mesh = traj.mesh
    a = traj.dx_plus()[l, n] if spatial_slope is None else spatial_slope
    r = traj.values[l, n]
    x = mesh.x[n]
    d1 = d2 = 0.0
    for fn in (phi, upsilon):
        if fn is not None:
            d1 += float(fn.value(x, order=1))
            d2 += float(fn.value(x, order=2))
    if psi is not None:
        rho = traj.values[l]
        diffs = x - mesh.x
        d1 += mesh.dx * float(np.asarray(psi.value(diffs, order=1)) @ rho)
        d2 += mesh.dx * float(np.asarray(psi.value(diffs, order=2)) @ rho)
    return a * d1 + r * d2


# ---------------------------------------------------------------------------
# Sections and functions built node by node (the estimator reduces its
# sections through ``SectionMap`` directly)
# ---------------------------------------------------------------------------

def section_map(traj: DensityTrajectory) -> SectionMap:
    """The section map over every node of a trajectory."""
    return SectionMap(traj.dx_plus(), traj.values, traj.mesh.x, traj.mesh.dx)


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


def plain_sections(kernel: SmoothKernel, traj: DensityTrajectory,
                   nodes, weights) -> RkhsFunction:
    """sum over 0-based nodes (l, n) of w * [a d1K(x_n,.) + r d11K(x_n,.)]."""
    sections = section_map(traj)
    u = node_weights(nodes, weights, sections.a.shape)
    return RkhsFunction(kernel, *sections.plain_generators(), sections.plain_t(u))


def convolved_sections(kernel: SmoothKernel, traj: DensityTrajectory,
                       nodes, weights) -> RkhsFunction:
    """Convolved analogue of ``plain_sections``; centers live on the
    difference grid."""
    sections = section_map(traj)
    u = node_weights(nodes, weights, sections.a.shape)
    return RkhsFunction(kernel, *sections.convolved_generators(), sections.convolved_t(u))


def zero_function(kernel: SmoothKernel) -> RkhsFunction:
    """The zero function: no generators."""
    empty = np.empty(0)
    return RkhsFunction(kernel, empty.astype(int), empty, empty)


def diff_section(kernel: SmoothKernel, traj: DensityTrajectory,
                 l: int, n: int, kind: str = PLAIN) -> RkhsFunction:
    """Single weighted-Laplacian kernel section anchored at node (l, n)."""
    if kind == PLAIN:
        return plain_sections(kernel, traj, [(l, n)], [1.0])
    if kind == CONVOLVED:
        return convolved_sections(kernel, traj, [(l, n)], [1.0])
    raise ValueError(f"unknown section kind {kind!r}")


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
# Direct particle interaction sum, the reference for ``InteractionSeries``
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
