import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from wgflows.estimator import (
    EstimationProblem,
    EstimatorError,
    SectionFactors,
    assemble_data_functional,
    build_factors,
)
from wgflows.mesh import PERIODIC, TRUNCATED, DensityTrajectory, SpaceTimeMesh


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


def dense_factors(fac: SectionFactors) -> tuple[np.ndarray, np.ndarray]:
    """The plain and convolved section factors F1, F2 as dense matrices."""
    return _plain_factor(fac.a, fac.r), _convolved_factor(fac.a, fac.r, fac.r, fac.dx)


def section_grams(problem: EstimationProblem,
                  factors: SectionFactors | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dense unweighted section Grams (plain, convolved); small problems only."""
    if problem.node_count > DENSE_CEILING:
        raise EstimatorError(
            f"dense section Grams limited to {DENSE_CEILING} nodes, "
            f"got {problem.node_count}"
        )
    fac = factors or build_factors(problem)
    F1, F2 = dense_factors(fac)
    G1 = F1 @ fac.K1t @ F1.T
    G2 = F2 @ fac.K2t @ F2.T
    return G1, G2


def internal_section_gram(fac: SectionFactors) -> np.ndarray:
    """Dense section Gram of the three-function variant's internal term."""
    F3 = _plain_factor(fac.a, fac.r)
    return F3 @ fac.K3t @ F3.T


def assemble_gram(problem: EstimationProblem,
                  factors: SectionFactors | None = None) -> np.ndarray:
    """Density-weighted Gram C (l2 G_plain + l1 G_conv [+ ...]) C, dense."""
    fac = factors or build_factors(problem)
    G1, G2 = section_grams(problem, fac)
    C = fac.rho_flat
    if problem.learn_internal:
        l1, l2, l3 = problem.lambda1, problem.lambda2, problem.lambda3
        G3 = internal_section_gram(fac)
        core = l2 * l3 * G1 + l1 * l3 * G2 + l1 * l2 * G3
    else:
        core = problem.lambda2 * G1 + problem.lambda1 * G2
    return C[:, None] * core * C[None, :]


def dense_reference_solve(problem: EstimationProblem) -> SimpleNamespace:
    """Representer solve by dense Cholesky of the M x M system matrix.

    Solves (assemble_gram + c diag(rho)) z = rho f, the system ``solve``
    handles in factored form, and derives the coefficients, RKHS norms and
    loss from the dense section Grams alone.  Returns them under the
    attribute names of ``EstimatorResult``.
    """
    fac = build_factors(problem)
    G1, G2 = section_grams(problem, fac)
    rho = fac.rho_flat
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
        G3 = internal_section_gram(fac)
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
                        spatial_slope: float | None = None) -> float:
    """Pointwise forward operator at node (l, n) for evaluable (phi, psi)."""
    mesh = traj.mesh
    a = traj.dx_plus()[l, n] if spatial_slope is None else spatial_slope
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
