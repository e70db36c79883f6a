import itertools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgflows import estimator
from wgflows.estimator import (
    EstimationProblem,
    EstimatorError,
    _factor_blocks,
    _fit_sections,
    _woodbury_core,
    assemble_data_functional,
    build_factors,
    loss_at,
    operator_image,
    solve,
    stationarity_residual,
)
from wgflows.flows import InternalEnergy, SmoothFunction
from wgflows.kernels import SmoothKernel, gaussian_kernel, imq_kernel
from wgflows.mesh import PERIODIC, TRUNCATED, DensityTrajectory, SpaceTimeMesh
from wgflows.rkhs import ConvolvedSections, PlainSections, RkhsFunction, rkhs_inner

from conftest import (
    GivenDerivatives,
    apply_flow_operator,
    assemble_gram,
    convolved_sections,
    dense_factor,
    dense_factors,
    dense_generator_grams,
    dense_reference_solve,
    diff_section,
    family_sections,
    gap_gram_column,
    parity_basis,
    plain_sections,
    random_trajectory,
    reflection,
    regularizer,
    section_grams,
    stacked_factor,
    zero_function,
)

ENTROPY = InternalEnergy("entropy")


def make_problem(N=8, L=3, mode=PERIODIC, seed=0, lam1=0.05, lam2=0.08, **kw):
    traj = random_trajectory(N=N, L=L, mode=mode, seed=seed)
    return EstimationProblem(traj, gaussian_kernel(0.25),
                             imq_kernel(0.3, beta=1.5),
                             lambda1=lam1, lambda2=lam2, **kw)


class TestProblemValidation:
    def test_lambda_positive(self):
        traj = random_trajectory()
        with pytest.raises(EstimatorError):
            EstimationProblem(traj, gaussian_kernel(0.2), gaussian_kernel(0.2),
                              lambda1=0.0, lambda2=1.0)

    def test_hamiltonian_needs_three_rows(self):
        traj = random_trajectory(L=2, mode=PERIODIC)
        with pytest.raises(EstimatorError):
            EstimationProblem(traj, gaussian_kernel(0.2), gaussian_kernel(0.2),
                              lambda1=1.0, lambda2=1.0, flow_kind="hamiltonian")

    def test_hamiltonian_needs_periodic_data(self):
        traj = random_trajectory(L=4, mode=TRUNCATED)
        with pytest.raises(EstimatorError):
            EstimationProblem(traj, gaussian_kernel(0.2), gaussian_kernel(0.2),
                              lambda1=1.0, lambda2=1.0, flow_kind="hamiltonian")

    def test_non_finite_woodbury_core_rejected(self):
        core = np.eye(3)
        core[0, 1] = core[1, 0] = np.inf
        with pytest.raises(EstimatorError, match="non-finite"):
            estimator._inverse_factor(core)


class TestFlowOperator:
    def test_constant_candidate_is_annihilated(self, traj_periodic):
        const = SmoothFunction([lambda x: np.full_like(x, 3.0),
                                np.zeros_like, np.zeros_like])
        assert apply_flow_operator(traj_periodic, const, None, 1, 4) == 0.0
        assert apply_flow_operator(traj_periodic, None, None, 1, 4) == 0.0

    def test_quadratic_on_constant_density(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.3, 10, 2)
        c = 1.7
        traj = DensityTrajectory(mesh, np.full((2, 10), c), boundary_mode=PERIODIC)
        quad = SmoothFunction([lambda x: x**2,
                               lambda x: 2 * x,
                               lambda x: np.full_like(x, 2.0)])
        # slope weights vanish, so only the second-derivative term survives
        assert apply_flow_operator(traj, quad, None, 0, 3) == pytest.approx(2 * c)

    def test_operator_image_matches_pointwise(self):
        """At every node, for both boundary modes and for forward-differenced
        and given slopes."""
        K1 = gaussian_kernel(0.25)
        K2 = imq_kernel(0.3, beta=1.5)
        phi = RkhsFunction.from_points(K1, [0.2, 0.7], [1.0, -0.4])
        psi = RkhsFunction.from_points(K2, [-0.1, 0.3], [0.6, 0.2])
        for mode, given in itertools.product((PERIODIC, TRUNCATED), (False, True)):
            traj = random_trajectory(mode=mode, seed=4)
            if given:
                traj = GivenDerivatives(
                    traj, slopes=np.random.default_rng(5).standard_normal(traj.values.shape))
            p = EstimationProblem(traj, K1, K2, lambda1=1.0, lambda2=1.0)
            image = operator_image(p, phi, psi).reshape(traj.mesh.L, -1)
            for l, n in np.ndindex(image.shape):
                direct = apply_flow_operator(traj, phi, psi, l, n)
                assert image[l, n] == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestDataFunctional:
    def test_stationary_gradient_rows_vanish(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.3, 6, 4)
        traj = DensityTrajectory(mesh, np.tile(0.8 + 0.1 * np.sin(
            2 * np.pi * mesh.x), (4, 1)), boundary_mode=PERIODIC)
        f = assemble_data_functional(traj, "gradient")
        assert np.allclose(f[:-1], 0.0)

    def test_heat_data_residual_shrinks_with_mesh(self):
        from wgflows.flows import EnergySpec, gradient_flow_simulate

        def residual(N, L):
            mesh = SpaceTimeMesh(0.0, 1.0, 0.05, N, L)
            x = mesh.x
            var0 = 0.2**2
            rho0 = np.zeros(N)
            for k in range(-6, 7):
                rho0 += np.exp(-((x - 0.5 + k) ** 2) / (2 * var0))
            rho0 /= mesh.dx * rho0.sum()
            fine = SpaceTimeMesh(0.0, 1.0, 0.05, 4 * N, L)
            rho0f = np.interp(fine.x, x, rho0, period=1.0)
            traj_f, _ = gradient_flow_simulate(rho0f, EnergySpec(U=ENTROPY), fine)
            traj = DensityTrajectory(mesh, traj_f.values[:, 3::4],
                                     boundary_mode=PERIODIC)
            f = assemble_data_functional(traj, "gradient", ENTROPY)
            return np.max(np.abs(f[:-1]))

        r1 = residual(24, 8)
        r2 = residual(48, 16)
        assert r2 < 0.75 * r1  # first-order shrink under refinement

    def test_hamiltonian_time_constant_rows_vanish(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.3, 8, 5)
        row = 0.8 + 0.2 * np.cos(2 * np.pi * mesh.x)
        traj = DensityTrajectory(mesh, np.tile(row, (5, 1)), boundary_mode=PERIODIC)
        f = assemble_data_functional(traj, "hamiltonian")
        assert np.allclose(f[:-2], 0.0, atol=1e-9)

    def test_internal_energy_terms_subtracted(self, traj_periodic):
        f_plain = assemble_data_functional(traj_periodic, "gradient")
        f_ent = assemble_data_functional(traj_periodic, "gradient", ENTROPY)
        assert not np.allclose(f_plain, f_ent)


class TestGram:
    def test_single_node_hand_composition(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.3, 1, 1)
        c = 1.3
        traj = DensityTrajectory(mesh, np.array([[c]]), boundary_mode=TRUNCATED)
        K1, K2 = gaussian_kernel(0.4), gaussian_kernel(0.5)
        lam1, lam2 = 0.2, 0.7
        p = EstimationProblem(traj, K1, K2, lambda1=lam1, lambda2=lam2)
        G = assemble_gram(p)
        a = -c / mesh.dx
        x = mesh.x[0]
        plain = (a * a * K1.eval(1, 1, x, x) + 2 * a * c * K1.eval(1, 2, x, x)
                 + c * c * K1.eval(2, 2, x, x))
        # doubly convolved kernel collapses to a single quadrature node
        w = mesh.dx * c
        conv = w * w * (a * a * K2.eval(1, 1, 0.0, 0.0)
                        + 2 * a * c * K2.eval(1, 2, 0.0, 0.0)
                        + c * c * K2.eval(2, 2, 0.0, 0.0))
        expected = c * (lam2 * plain + lam1 * conv) * c
        assert G[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_section_grams_match_rkhs_pairings(self, traj_periodic):
        p = EstimationProblem(traj_periodic, gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.3, lambda2=0.3)
        G1, G2 = section_grams(p)
        N = traj_periodic.mesh.N
        rng = np.random.default_rng(2)
        for _ in range(6):
            l1, n1, l2, n2 = rng.integers(0, 3), rng.integers(0, N), \
                rng.integers(0, 3), rng.integers(0, N)
            i, j = l1 * N + n1, l2 * N + n2
            s1p = diff_section(p.kernel1, traj_periodic, int(l1), int(n1), PlainSections)
            s2p = diff_section(p.kernel1, traj_periodic, int(l2), int(n2), PlainSections)
            assert G1[i, j] == pytest.approx(rkhs_inner(s1p, s2p),
                                             rel=1e-10, abs=1e-10)
            s1c = diff_section(p.kernel2, traj_periodic, int(l1), int(n1), ConvolvedSections)
            s2c = diff_section(p.kernel2, traj_periodic, int(l2), int(n2), ConvolvedSections)
            assert G2[i, j] == pytest.approx(rkhs_inner(s1c, s2c),
                                             rel=1e-10, abs=1e-10)

    def test_uniform_density_diagonal_scaling(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.3, 6, 2)
        K1, K2 = gaussian_kernel(0.3), gaussian_kernel(0.35)
        lam = 0.4
        grams = []
        for c in (1.0, 2.0):
            traj = DensityTrajectory(mesh, np.full((2, 6), c), boundary_mode=PERIODIC)
            p = EstimationProblem(traj, K1, K2, lambda1=lam, lambda2=lam)
            grams.append((c, assemble_gram(p), p))
        (c1, G1, p1), (c2, G2, p2) = grams
        # plain block scales c^2 (slopes vanish); convolved block gains the
        # squared convolution masses as well
        G1p, _ = section_grams(p1)
        G2p, _ = section_grams(p2)
        assert np.allclose(G2p, (c2 / c1) ** 2 * G1p, rtol=1e-10)

    def test_symmetry_and_psd(self, traj_truncated):
        p = EstimationProblem(traj_truncated, gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.2, lambda2=0.5)
        G = assemble_gram(p)
        assert np.max(np.abs(G - G.T)) < 1e-10 * max(np.max(np.abs(G)), 1.0)
        eig = np.linalg.eigvalsh(G)
        assert eig[0] >= -1e-8 * max(eig[-1], 1.0)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 40), L=st.integers(1, 6),
       mode=st.sampled_from([PERIODIC, TRUNCATED]), seed=st.integers(0, 2**32 - 1))
def test_factor_applies_match_dense_factors(N, L, mode, seed):
    """The matrix-free F1/F2 applies equal the dense factors and are adjoint."""
    families = _fit_sections(make_problem(N=N, L=L, mode=mode, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    M = L * N
    for F, family in zip(dense_factors(families[0]), families):
        y = rng.standard_normal(F.shape[1])
        u = rng.standard_normal(M)
        Fy, Ftu = family.apply(y), family.apply_t(u)
        assert Fy.shape == (M,) and Ftu.shape == (F.shape[1],)
        # roundoff of a reordered dot product is bounded by |F| |y|
        assert np.all(np.abs(Fy - F @ y) <= 1e-13 * (np.abs(F) @ np.abs(y)))
        assert np.all(np.abs(Ftu - F.T @ u) <= 1e-13 * (np.abs(F).T @ np.abs(u)))
        pairing = np.abs(u) @ (np.abs(F) @ np.abs(y))
        assert abs(u @ Fy - Ftu @ y) <= 1e-13 * pairing


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 40), L=st.integers(1, 6),
       mode=st.sampled_from([PERIODIC, TRUNCATED]), single=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_convolved_vector_applies_match_matrix_path(N, L, mode, single, seed):
    """The one-matmul vector F2 and F2' equal the dense F2."""
    _, fac = _fit_sections(make_problem(N=N, L=L, mode=mode, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    F = dense_factors(fac)[1]
    y = rng.standard_normal(4 * N - 2)
    u = rng.standard_normal((L, N))
    if single:
        u[:, np.arange(N) != rng.integers(N)] = 0.0
    u = u.ravel()
    assert np.all(np.abs(fac.apply(y) - F @ y) <= 1e-13 * (np.abs(F) @ np.abs(y)))
    assert np.all(np.abs(fac.apply_t(u) - F.T @ u) <= 1e-13 * (np.abs(F).T @ np.abs(u)))


@settings(max_examples=30, deadline=None)
# every example keeps more W directions than N (all 4N - 2 of them at these
# sizes), where the moment route pays.  13 nodes in blocks of 7 // 3 = 2:
# the last block holds one node, and the 7-row budget ends inside a node's 3
# time rows
@example(N=13, L=3, row_block=7, lams=(0.05, 0.08), seed=1)
# 14 nodes in blocks of 10 // 2 = 5: the last block's 4 nodes span a window
# one column narrower than the band, clipped at offset 2N - 2
@example(N=14, L=2, row_block=10, lams=(0.05, 0.08), seed=5)
# the first example's shape on another draw
@example(N=13, L=3, row_block=7, lams=(0.05, 0.08), seed=2)
# a regularizer so large that V, or W, keeps no direction
@example(N=9, L=4, row_block=7, lams=(1e10, 0.08), seed=3)
@example(N=9, L=4, row_block=7, lams=(0.05, 1e10), seed=4)
@given(N=st.integers(1, 20), L=st.integers(1, 5), row_block=st.sampled_from([1, 7, 2048]),
       lams=st.sampled_from([(0.05, 0.08), (1e10, 0.08), (0.05, 1e10)]),
       seed=st.integers(0, 999))
def test_streamed_grams_match_assembled_factor(N, L, row_block, lams, seed):
    """The Woodbury core is I + P' D^-1 P of the P assembled from the dense
    section factors by either route, W's rows or its generator moments, for
    any block width, and when a block keeps no direction."""
    traj = random_trajectory(N=N, L=L, mode=PERIODIC, seed=seed)
    p = EstimationProblem(traj, gaussian_kernel(0.1), imq_kernel(0.2, beta=1.5),
                          lambda1=lams[0], lambda2=lams[1])
    learned = build_factors(p)
    c = regularizer(p)
    P, kept = stacked_factor(p)
    for name, lam in zip("VW", lams):
        assert lam < 1.0 or kept[name][0] == 0
    blocks = _factor_blocks(learned, c)[0]
    rho = traj.values.reshape(-1, 1)
    # the rounding scale of each association: the rows route sums the same
    # products as P'D^-1 P grouped by grid node, so |P|'D^-1 |P| bounds it;
    # the moment route multiplies Y' (F' D^-1 F) Y, whose sums cancel
    # differently, so it is bounded by the same chain in absolute values
    chain = rho * np.hstack([np.abs(dense_factor(fn.family)) @ np.abs(Y)
                             for fn, Y in zip(learned, blocks)])
    dinv, eye = 1.0 / (c * traj.values.ravel()), np.eye(P.shape[1])
    for route, scale in (("rows", np.abs(P)), ("moments", chain)):
        with mock.patch.object(estimator, "_ROW_BLOCK", row_block), \
                mock.patch.object(estimator, "_core_route", return_value=route):
            core, taken = _woodbury_core(learned, blocks, c)
        assert taken == route
        assert np.all(np.abs(core - (eye + P.T @ (dinv[:, None] * P)))
                      <= 1e-13 * (eye + scale.T @ (dinv[:, None] * scale)))


# (fit rows L, N, W's kept rank, core size k) of the perfbench problems at
# their recorded kept ranks: estimate-large's n128, n256, n512 and short
# cases and cli-hamiltonian's estimate.  The moment route costs 1.3-6.1x the
# rows route's multiply-adds on all but short, and 0.4x on short
@pytest.mark.parametrize("shape, route", [
    ((127, 128, 89, 108), "rows"),
    ((63, 256, 93, 113), "rows"),
    ((31, 512, 98, 119), "rows"),
    ((63, 256, 603, 705), "moments"),
    ((22, 96, 20, 36), "rows"),
], ids=["n128", "n256", "n512", "short", "cli-hamiltonian"])
def test_core_route_on_benchmark_shapes(shape, route):
    """Each route is taken on a benchmark problem, so both stay exercised."""
    assert estimator._core_route(*shape) == route


smooth_kernels = st.builds(
    lambda gaussian, ls: gaussian_kernel(ls) if gaussian else imq_kernel(ls, beta=1.5),
    st.booleans(), st.sampled_from([0.03, 0.05, 0.2]) | st.floats(0.03, 0.6))


@settings(max_examples=30, deadline=None)
@given(N=st.integers(1, 16), L=st.integers(1, 4), k1=smooth_kernels, k2=smooth_kernels,
       lam=st.sampled_from([0.5, 0.05]), seed=st.integers(0, 999))
def test_gram_condition_bounds_the_scaled_system(N, L, k1, k2, lam, seed):
    """``gram_condition`` less ``dropped_share`` is at most the bound
    (lambda_max(P'P) + c rho_max) / (c rho_min), and ``gram_condition`` is at
    least the condition number of the Jacobi-scaled exact system
    D^-1/2 (G + D) D^-1/2, D = c diag(rho)."""
    traj = random_trajectory(N=N, L=L, mode=PERIODIC, seed=seed)
    p = EstimationProblem(traj, k1, k2, lambda1=lam, lambda2=lam)
    res = solve(p)
    cond = res.gram_condition
    P, _ = stacked_factor(p)
    d = lam ** 2 / p.node_weight * traj.values.ravel()
    bound = (np.linalg.eigvalsh(P.T @ P)[-1] + d.max()) / d.min()
    # D^-1/2 G D^-1/2 is PSD: the scaled system's spectrum is 1 + its spectrum,
    # whose smallest eigenvalue the dense eigensolver finds to about eps times
    # the largest, a relative eps * cond in the ratio
    spectrum = np.linalg.eigvalsh(assemble_gram(p) / np.sqrt(np.outer(d, d)))
    dense = (1.0 + spectrum[-1]) / (1.0 + spectrum[0])
    eps = np.finfo(float).eps
    assert dense <= cond * (1 + 16 * eps * cond)
    assert cond - res.dropped_share <= bound * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 40), k1=smooth_kernels, k2=smooth_kernels,
       a=st.sampled_from([0.0, -0.7]), seed=st.integers(0, 999))
def test_gap_gram_matches_dense_reference(N, k1, k2, a, seed):
    """Columns, diagonal and K~ beta of the plain and convolved gap Grams
    equal the dense generator Grams of mixed partials."""
    traj = random_trajectory(N=N, L=1, seed=seed, a=a, b=a + 1.0)
    p = EstimationProblem(traj, k1, k2, lambda1=0.05, lambda2=0.08)
    learned = build_factors(p)
    rng = np.random.default_rng(seed)
    for fn, K, kernel in zip(learned, dense_generator_grams(p).values(), (k1, k2)):
        gram = fn.gram
        assert gram.size == K.shape[0]
        # the dense Gram rounds each center difference c_q - c_p (|c| <= 1)
        # where the gaps use (q - p) dx: at most 2 eps off, on a profile
        # whose slope is O(max |K~| / lengthscale)
        tol = 8 * np.finfo(float).eps * np.max(np.abs(K)) / kernel.lengthscale
        assert np.all(np.abs(gram.diagonal() - np.diag(K)) <= tol)
        columns = np.stack([gap_gram_column(gram, q) for q in range(gram.size)], axis=1)
        assert np.all(np.abs(columns - K) <= tol)
        beta = rng.standard_normal(gram.size)
        assert np.all(np.abs(gram.matvec(beta) - K @ beta)
                      <= tol * np.abs(beta).sum() + 1e-13 * (np.abs(K) @ np.abs(beta)))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 16), k1=smooth_kernels, k2=smooth_kernels,
       a=st.sampled_from([0.0, -0.7]), cut=st.sampled_from([0.0, 1e-10, 1e-4, 0.1]),
       seed=st.integers(0, 999))
@example(N=256, k1=imq_kernel(0.03, beta=1.5), k2=imq_kernel(0.03, beta=1.5), a=0.0,
         cut=1e-10, seed=0)
def test_parity_halves_split_the_generator_gram(N, k1, k2, a, cut, seed):
    """Each generator Gram is even under the reflection S = diag(R, -R), plain
    (n = N centers) and convolved (n = 2N - 1, with a middle center) alike;
    every half-Gram column and diagonal read from the gap vectors is
    Q' K~ Q for the parity basis Q, the two halves do not couple, ``lift``
    applies Q, and the parity-split factor leaves 0 <= K~ - Y Y' <= dropped."""
    traj = random_trajectory(N=N, L=1, seed=seed, a=a, b=a + 1.0)
    p = EstimationProblem(traj, k1, k2, lambda1=0.05, lambda2=0.08)
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for fn, K, kernel in zip(build_factors(p), dense_generator_grams(p).values(), (k1, k2)):
        n = fn.gram.size // 2
        S = reflection(n)
        # each dense entry is within test_gap_gram_matches_dense_reference's
        # tolerance of the gap Gram's, which is exactly even
        tol = 8 * eps * np.max(np.abs(K)) / kernel.lengthscale
        assert np.all(np.abs(S @ K @ S - K) <= 2 * tol)
        Kt = np.stack([gap_gram_column(fn.gram, q) for q in range(2 * n)], axis=1)
        assert np.array_equal(S @ Kt @ S, Kt)
        # an entry of either side sums at most four products of K~'s entries
        # with weights 1/sqrt(2) or 1/2, so each rounds at a few eps of |K~|
        roundoff = 8 * eps * np.max(np.abs(Kt))
        halves = [estimator._ParityHalf.of(fn.gram, sigma) for sigma in (1, -1)]
        Q = [parity_basis(n, sigma) for sigma in (1, -1)]
        assert np.all(np.abs(Q[0].T @ Kt @ Q[1]) <= roundoff)
        for half, Qs in zip(halves, Q):
            dense = Qs.T @ Kt @ Qs
            columns = np.stack([half.column(q) for q in range(n)], axis=1)
            assert np.all(np.abs(columns - dense) <= roundoff)
            assert np.all(np.abs(half.diagonal() - np.diag(dense)) <= roundoff)
            Z = rng.standard_normal((n, 3))
            assert np.all(np.abs(half.lift(Z) - Qs @ Z) <= 4 * eps * np.abs(Z).max())
        Y, dropped = estimator._generator_factor(fn.gram, cut * np.max(np.diag(Kt)))
        e = np.linalg.eigvalsh(Kt - Y @ Y.T)
        top = np.linalg.eigvalsh(Kt)[-1]
        assert e[0] >= -1e-14 * top
        assert e[-1] <= dropped + 1e-14 * top


def test_parity_halves_at_one_center():
    """With one center (N = 1) each half holds one generator: the order-1
    middle for sigma = +1, whose order-2 block (R-parity -1) is empty, and
    the order-2 middle for sigma = -1, whose order-1 block is empty."""
    p = make_problem(N=1, L=1)
    for fn in build_factors(p):
        assert fn.gram.size == 2
        K = np.stack([gap_gram_column(fn.gram, q) for q in range(2)], axis=1)
        plus, minus = (estimator._ParityHalf.of(fn.gram, sigma) for sigma in (1, -1))
        assert [block[::3] for block in plus.blocks] == [(1, 1), (2, 0)]
        assert [block[::3] for block in minus.blocks] == [(2, 1), (1, 0)]
        # a column applies the middle center's weight 1/sqrt(2) twice, which
        # rounds at 1 ulp; the diagonal halves g(0) + g(0) exactly
        rel = 4 * np.finfo(float).eps
        for half, q in ((plus, 0), (minus, 1)):
            assert half.diagonal().tolist() == [K[q, q]]
            assert half.column(0) == pytest.approx([K[q, q]], rel=rel, abs=0.0)
            assert half.lift(np.ones((1, 1))).ravel().tolist() == np.eye(2)[q].tolist()
        Y, dropped = estimator._generator_factor(fn.gram, 0.0)
        # nothing is cut: only the factor's rounding, one pivot floor, is dropped
        assert Y.shape == (2, 2) and dropped == estimator._PIVOT_TOL * K.diagonal().max()
        assert np.allclose(Y @ Y.T, K, rtol=rel, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 24), L=st.integers(1, 4),
       mode=st.sampled_from([PERIODIC, TRUNCATED]),
       k1=smooth_kernels, k2=smooth_kernels, seed=st.integers(0, 999))
def test_stacked_factor_matches_dense_gram(N, L, mode, k1, k2, seed):
    """P P' <= G, the part it drops is at most ``dropped_share`` of the
    Jacobi-scaled system, and each block keeps the eigh-rule rank at the
    regularizer's threshold."""
    traj = random_trajectory(N=N, L=L, mode=mode, seed=seed)
    p = EstimationProblem(traj, k1, k2, lambda1=0.05, lambda2=0.08)
    learned = build_factors(p)
    c = regularizer(p)
    _, dropped_share = _factor_blocks(learned, c)
    P, kept = stacked_factor(p)
    F1, F2 = dense_factors(learned[0].family)
    grams = dense_generator_grams(p)
    blocks = {"V": (grams["V"], F1, p.lambda2), "W": (grams["W"], F2, p.lambda1)}
    # the roundoff of entry (i, j) of G - P P' is bounded on the scale
    # lambda_max |F_i| |F_j| rho_i rho_j of each block's K~
    scale = np.zeros((P.shape[0],) * 2)
    rho = traj.values.ravel()
    assert set(kept) == set(blocks)
    for name, (Kt, F, weight) in blocks.items():
        w = np.linalg.eigh(Kt)[0]
        row = rho * np.linalg.norm(F, axis=1)
        scale += weight * max(w[-1], 0.0) * np.outer(row, row)
        # reference rule: eigh eigenvalues above the threshold t / 2, t =
        # tau / (functions * weight * |diag(sqrt(rho / c)) F|_F^2), or above
        # the floor 1e-14 lambda_max; the pivoted Cholesky leaves a remainder
        # of trace at most max(t / 2, 1e-15 lambda_max) unresolved, so
        # eigenvalues within that band above the cut may fall on either side
        t = estimator._TAU / (len(blocks) * weight * np.sum(rho / c * np.sum(F**2, axis=1)))
        cut = max(t / 2, 1e-14 * max(w[-1], 0.0))
        band, roundoff = max(t / 2, 1e-15 * max(w[-1], 0.0)), 1e-15 * max(w[-1], 0.0)
        assert np.sum(w > cut + band) <= kept[name][0] <= np.sum(w > cut - roundoff)
        assert kept[name][1] == Kt.shape[0]
    # G - P P' is PSD up to that roundoff: |x| <= s entrywise bounds the
    # spectral norm of x by that of s, before and after the Jacobi scaling
    dropped = assemble_gram(p) - P @ P.T
    assert np.linalg.eigvalsh(dropped)[0] >= -1e-13 * np.linalg.eigvalsh(scale)[-1]
    jacobi = np.sqrt(c * rho)
    d = np.outer(jacobi, jacobi)
    top = np.linalg.eigvalsh(dropped / d)[-1]
    roundoff = 1e-13 * np.linalg.eigvalsh(scale / d)[-1]
    assert top - roundoff <= dropped_share * (1 + 1e-12) <= estimator._TAU


@settings(max_examples=30, deadline=None)
@given(N=st.integers(1, 16), L=st.integers(1, 4), k1=smooth_kernels, k2=smooth_kernels,
       lam=st.sampled_from([0.05, 1e-4, 1e-6]), seed=st.integers(0, 999))
# every direction kept (c = 1.2e-10): the factor's rounding alone is dropped
@example(N=9, L=4, k1=imq_kernel(0.59375, beta=1.5), k2=imq_kernel(0.5625, beta=1.5),
         lam=1e-6, seed=0)
@example(N=9, L=4, k1=imq_kernel(0.59375, beta=1.5), k2=imq_kernel(0.5625, beta=1.5),
         lam=1e-6, seed=2)
def test_preconditioned_spectrum_is_certified(N, L, k1, k2, lam, seed):
    """Every eigenvalue of M^-1 (G + D) = I + M^-1 (G - P P'), M = P P' + D
    the preconditioner, lies in [1, 1 + dropped_share], and CG needs no more
    iterations than a condition number of 2 allows for a 1e-14 residual."""
    traj = random_trajectory(N=N, L=L, mode=PERIODIC, seed=seed)
    p = EstimationProblem(traj, k1, k2, lambda1=lam, lambda2=lam)
    res = solve(p)
    learned = build_factors(p)
    c = regularizer(p)
    blocks, dropped_share = _factor_blocks(learned, c)
    assert dropped_share == res.dropped_share
    # Jacobi-scaled, A_s = D^-1/2 rho F_s, S = D^-1/2 P = [A_s Y_s]_s and
    # D^-1/2 (G - P P') D^-1/2 = sum_s A_s E_s A_s', E_s = w_s K~_s - Y_s Y_s'
    # from the dense generator Gram: no M x M cancellation of G against P P'
    # rounds at eps times the system's condition number
    scaled = np.sqrt(traj.values.ravel() / c)[:, None]
    A = {fn.name: scaled * dense_factor(fn.family) for fn in learned}
    grams = dense_generator_grams(p)
    S = np.hstack([A[fn.name] @ Y for fn, Y in zip(learned, blocks)])
    dropped = 0.0
    for fn, Y in zip(learned, blocks):
        e, U = np.linalg.eigh(fn.weight * grams[fn.name] - Y @ Y.T)
        # E_s >= 0 up to the 1e-14 eigenvalue floor; A_s scales its roundoff
        # by up to |A_s|^2, about 1 / t_s, past 1e-10 once the regularizer is
        # below the precision of K~, so the spectrum below takes E_s's PSD part
        top = fn.weight * np.linalg.eigvalsh(grams[fn.name])[-1]
        assert e[0] >= -1e-14 * top
        AU = A[fn.name] @ U
        dropped = dropped + (AU * np.maximum(e, 0.0)) @ AU.T
    chol = np.linalg.cholesky(np.eye(S.shape[0]) + S @ S.T)
    half = np.linalg.solve(chol, dropped)
    spectrum = 1.0 + np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    assert 1 - 1e-10 <= spectrum[0] and spectrum[-1] <= 1 + dropped_share + 1e-10
    # (sqrt(2) - 1) / (sqrt(2) + 1) per iteration: 2 (0.172)^20 < 1e-14
    assert res.cg_iterations <= 20


def test_solve_eigensolves_only_compressed_factors(monkeypatch):
    """At N=128 no eigensolve sees a full generator Gram (O(n^3) per block):
    each block takes one compression per parity half, each below a quarter
    of its generators, and the Woodbury core one eigensolve of the kept
    rank."""
    N, L = 128, 8
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kw):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    rng = np.random.default_rng(0)
    traj = DensityTrajectory(SpaceTimeMesh(0.0, 1.0, 1.0, N, L), 0.5 + rng.random((L, N)))
    p = EstimationProblem(traj, gaussian_kernel(0.2), imq_kernel(0.25, beta=1.5),
                          lambda1=0.05, lambda2=0.05, drop_last_time_rows=1)
    res = solve(p)
    generators = [total for _, total in res.kept_rank.values()]
    assert generators == [2 * N, 4 * N - 2] and len(sizes) == 5
    assert all(size < total / 4 for size, total
               in zip(sizes, np.repeat(generators, 2)))
    assert sizes[4] == sum(kept for kept, _ in res.kept_rank.values())


def test_solve_peak_memory_below_one_dense_convolved_factor():
    """At N=512, L=32 the solve never holds an M x (4N-2) array."""
    N, L = 512, 32
    rng = np.random.default_rng(0)
    traj = DensityTrajectory(SpaceTimeMesh(0.0, 1.0, 1.0, N, L), 0.5 + rng.random((L, N)))
    p = EstimationProblem(traj, gaussian_kernel(0.2), imq_kernel(0.25, beta=1.5),
                          lambda1=0.05, lambda2=0.05, drop_last_time_rows=1)
    dense_f2_bytes = p.node_count * (4 * N - 2) * 8
    tracemalloc.start()
    try:
        solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_f2_bytes


def test_solve_peak_memory_below_half_a_dense_generator_gram():
    """At N=1024, L=4 the solve never forms a (4N-2) x (4N-2) generator Gram:
    K~2 is held as gap vectors and factored column by column, and the
    Woodbury core streams W's rows: its generator moments would take more
    multiply-adds and would not fit in the rows route's buffers."""
    N, L = 1024, 4
    rng = np.random.default_rng(0)
    traj = DensityTrajectory(SpaceTimeMesh(0.0, 1.0, 1.0, N, L), 0.5 + rng.random((L, N)))
    p = EstimationProblem(traj, gaussian_kernel(0.2), imq_kernel(0.25, beta=1.5),
                          lambda1=0.05, lambda2=0.05, drop_last_time_rows=1)
    tracemalloc.start()
    try:
        res = solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.core_route == "rows"
    assert peak < (4 * N - 2) ** 2 * 8 / 2


def test_solve_peak_memory_below_one_stacked_factor():
    """At M = 16384, k = 333 the solve never holds an M x k array: the
    stacked factor P is applied matrix-free, and W, which keeps more
    directions than its window is wide, enters the Woodbury core through its
    generator moments."""
    N, L = 64, 257
    rng = np.random.default_rng(0)
    traj = DensityTrajectory(SpaceTimeMesh(0.0, 1.0, 1.0, N, L), 0.5 + rng.random((L, N)))
    p = EstimationProblem(traj, gaussian_kernel(0.03), imq_kernel(0.03, beta=1.5),
                          lambda1=0.05, lambda2=0.05, drop_last_time_rows=1)
    tracemalloc.start()
    try:
        res = solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = sum(kept for kept, _ in res.kept_rank.values())
    assert (p.node_count, k) == (16384, 333)
    assert res.core_route == "moments"
    assert peak < p.node_count * k * 8


class TestSolve:
    def test_zero_data_gives_zero_estimate(self, traj_periodic):
        traj = GivenDerivatives(traj_periodic, rate=np.zeros_like(traj_periodic.values))
        p = EstimationProblem(traj, gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.1, lambda2=0.2)
        res = solve(p)
        assert np.allclose(res.C1, 0.0) and np.allclose(res.C2, 0.0)
        assert res.rkhs_norms["V"] == 0.0 and res.rkhs_norms["W"] == 0.0
        assert res.loss_value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("rate", ["zero", "random"])
    def test_loss_at_reads_the_fitted_override(self, traj_periodic, rate):
        """``loss_at`` scores the data functional ``solve`` fits, here a
        given time derivative that overrides the trajectory's own (the data
        functional of gradient data with U = none)."""
        f = np.zeros_like(traj_periodic.values)
        if rate == "random":
            f = np.random.default_rng(8).standard_normal(f.shape)
        p = EstimationProblem(GivenDerivatives(traj_periodic, rate=f), gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.1, lambda2=0.2)
        res = solve(p)
        assert loss_at(p, res.Vhat, res.What) == pytest.approx(res.loss_value,
                                                               rel=1e-10, abs=0.0)

    def test_solve_matches_dense_reference(self):
        for seed in (1, 5):
            for lam1, lam2 in ((0.05, 0.08), (1e-6, 1e-6), (1e-8, 1e-8)):
                p = make_problem(N=10, L=4, seed=seed, lam1=lam1, lam2=lam2)
                rd = dense_reference_solve(p)
                rl = solve(p)
                scale = np.max(np.abs(rd.C1))
                assert np.max(np.abs(rd.C1 - rl.C1)) < 1e-8 * scale
                assert rd.rkhs_norms["V"] == pytest.approx(rl.rkhs_norms["V"], rel=1e-8)
                assert rd.loss_value == pytest.approx(rl.loss_value, rel=1e-8)
        # short lengthscales: the eigen-cut P P' misses the exact Gram by far
        # more than the roundoff of a dense Cholesky solve, cond * eps, so
        # only a solve on the exact Gram meets that bound
        traj = random_trajectory(N=48, L=8, mode=PERIODIC, seed=7)
        for ls, lam in itertools.product((0.03, 0.05), (0.05, 1e-4, 1e-6)):
            p = EstimationProblem(traj, gaussian_kernel(ls), imq_kernel(ls, beta=1.5),
                                  lambda1=lam, lambda2=lam)
            rd, rl = dense_reference_solve(p), solve(p)
            bound = rl.gram_condition * np.finfo(float).eps
            assert np.max(np.abs(rd.C1 - rl.C1)) <= bound * np.max(np.abs(rd.C1))
            assert rl.loss_value == pytest.approx(rd.loss_value, rel=bound)

    def test_cg_iteration_cap_raises(self):
        p = make_problem(seed=2)
        res = solve(p)
        assert res.cg_iterations >= 2 and res.cg_residual <= estimator._CG_TOL
        with mock.patch.object(estimator, "_CG_MAX_ITER", res.cg_iterations - 1):
            with pytest.raises(EstimatorError, match="conjugate gradients"):
                solve(p)

    def test_coefficient_identity(self):
        p = make_problem(lam1=0.03, lam2=0.4, seed=2)
        res = solve(p)
        scale = np.max(np.abs(p.lambda1 * res.C1))
        assert np.max(np.abs(p.lambda1 * res.C1 - p.lambda2 * res.C2)) <= 1e-10 * scale

    def test_large_lambda_shrinks_to_zero(self):
        p = make_problem(lam1=1e6, lam2=1e6, seed=3)
        res = solve(p)
        f = assemble_data_functional(p.traj, "gradient")
        bound = np.max(np.abs(f)) / 1e6 * 100
        assert res.rkhs_norms["V"] < bound and res.rkhs_norms["W"] < bound

    def test_loss_dominates_zero_and_random_candidates(self):
        p = make_problem(seed=4)
        res = solve(p)
        zero1 = zero_function(p.kernel1)
        zero2 = zero_function(p.kernel2)
        assert res.loss_value <= loss_at(p, zero1, zero2) + 1e-12
        rng = np.random.default_rng(0)
        for _ in range(10):
            nodes = [(int(rng.integers(0, 3)), int(rng.integers(0, 8)))]
            phi = plain_sections(p.kernel1, p.traj, nodes, rng.standard_normal(1))
            psi = convolved_sections(p.kernel2, p.traj, nodes, rng.standard_normal(1))
            assert res.loss_value <= loss_at(p, phi, psi) + 1e-12

    def test_representer_system_back_substitution(self):
        # the returned coefficients satisfy the coupled linear equations the
        # weighted Gram blocks define, restated from the closed-form solve
        p = make_problem(N=6, L=2, seed=6)
        res = solve(p)
        G1, G2 = section_grams(p)
        rho = p.traj.values.ravel()
        f = assemble_data_functional(p.traj, "gradient").ravel()
        inv_s = 1.0 / p.node_weight
        # lam1/S * C1 + (G1 C_rho C1 + G2 C_rho C2) = f  (rows weighted by rho)
        sys1 = p.lambda1 * inv_s * res.C1 + G1 @ (rho * res.C1) + G2 @ (rho * res.C2)
        sys2 = p.lambda2 * inv_s * res.C2 + G1 @ (rho * res.C1) + G2 @ (rho * res.C2)
        scale = max(np.max(np.abs(f)), 1.0)
        assert np.max(np.abs(sys1 - f)) < 1e-8 * scale
        assert np.max(np.abs(sys2 - f)) < 1e-8 * scale

    def test_residual_and_image_consistency(self):
        p = make_problem(seed=7)
        res = solve(p)
        f = assemble_data_functional(p.traj, "gradient").ravel()
        assert np.allclose(res.residual_vector, operator_image(p, res.Vhat, res.What) - f)

    def test_reconstruction_matches_weighted_sections(self):
        # Vhat equals the C_rho-weighted combination of plain sections
        p = make_problem(N=5, L=2, seed=8)
        res = solve(p)
        nodes = [(l, n) for l in range(2) for n in range(5)]
        rho = p.traj.values.ravel()
        direct = plain_sections(p.kernel1, p.traj, nodes, rho * res.C1)
        xs = np.linspace(0, 1, 9)
        assert np.allclose(res.Vhat.value(xs), direct.value(xs), atol=1e-10)
        direct_w = convolved_sections(p.kernel2, p.traj, nodes, rho * res.C2)
        assert np.allclose(res.What.value(xs), direct_w.value(xs), atol=1e-10)

    def test_drop_last_time_rows(self):
        p_full = make_problem(N=6, L=4, seed=9)
        p_drop = make_problem(N=6, L=4, seed=9, drop_last_time_rows=1)
        assert p_drop.node_count == 18
        res = solve(p_drop)
        assert res.C1.size == 18
        assert not np.allclose(res.C1, solve(p_full).C1[:18])


class TestStationarity:
    def directions(self, p, count, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            l = int(rng.integers(0, p.traj.mesh.L))
            n = int(rng.integers(0, p.traj.mesh.N))
            out.append((diff_section(p.kernel1, p.traj, l, n, PlainSections),
                        diff_section(p.kernel2, p.traj, l, n, ConvolvedSections)))
        return out

    def test_small_at_minimizer(self):
        p = make_problem(seed=10)
        res = solve(p)
        worst = stationarity_residual(res, p)
        assert worst <= 1e-6 * max(res.loss_value, 1.0)

    def test_nonzero_away_from_minimizer(self):
        p = make_problem(seed=11)
        res = solve(p)
        zeroed = type(res)(
            C1=np.zeros_like(res.C1), C2=np.zeros_like(res.C2),
            Vhat=res.Vhat.scaled(0.0), What=res.What.scaled(0.0),
            rkhs_norms={"V": 0.0, "W": 0.0}, loss_value=0.0,
            residual_vector=-assemble_data_functional(p.traj, "gradient").ravel(),
            gram_condition=1.0, method="lowrank",
        )
        worst = stationarity_residual(zeroed, p)
        assert worst > 1e-4

    def test_dual_norm_of_the_loss_gradient(self):
        """At a perturbed candidate the certificate is the derivative along
        the normalized gradient, built from section sums and differentiated
        through ``operator_image`` and ``rkhs_inner``, and it bounds the
        derivative along every sampled unit section direction."""
        p = make_problem(N=7, L=3, seed=14)
        res = solve(p)
        kernels = [p.kernel1, p.kernel2]
        lams = [p.lambda1, p.lambda2]
        families = [PlainSections, ConvolvedSections]
        rng = np.random.default_rng(15)
        cand = [RkhsFunction(f.kernel, f.orders, f.centers,
                             f.coeffs + 0.3 * np.abs(f.coeffs).max()
                             * rng.standard_normal(f.coeffs.size))
                for f in [res.Vhat, res.What]]
        residual = operator_image(p, *cand) - res.data_vector
        perturbed = replace(res, Vhat=cand[0], What=cand[1], residual_vector=residual)
        certificate = stationarity_residual(perturbed, p)
        weights = 2 * p.node_weight * residual * p.traj.values.ravel()

        def deriv(h):
            return (float(weights @ operator_image(p, *h))
                    + sum(2 * lam * rkhs_inner(f, hs) for lam, f, hs in zip(lams, cand, h)))

        def norm(h):
            return np.sqrt(sum(rkhs_inner(hs, hs) for hs in h))

        nodes = [(l, n) for l in range(p.traj.mesh.L) for n in range(p.traj.mesh.N)]
        gradient = [family_sections(family, k, p.traj, nodes, weights) + 2 * lam * f
                    for family, k, lam, f in zip(families, kernels, lams, cand)]
        assert certificate > 1e-3
        assert deriv(gradient) / norm(gradient) == pytest.approx(certificate, rel=1e-10)
        worst = 0.0
        for _ in range(24):
            h = [diff_section(k, p.traj, int(rng.integers(p.traj.mesh.L)),
                              int(rng.integers(p.traj.mesh.N)), family) * rng.standard_normal()
                 for k, family in zip(kernels, families)]
            worst = max(worst, abs(deriv(h)) / norm(h))
        assert 0.0 < worst <= certificate * (1 + 1e-10)

    def test_evaluates_no_kernel(self, monkeypatch):
        """The certificate reads the generator Grams' gap vectors only."""
        p = make_problem(seed=16)
        res = solve(p)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel evaluated on pairs")

        monkeypatch.setattr(SmoothKernel, "eval", refuse)
        assert 0.0 <= stationarity_residual(res, p) <= 1e-6 * max(res.loss_value, 1.0)

    def test_estimate_off_its_generators_rejected(self):
        p = make_problem(seed=17)
        res = solve(p)
        for edit in ({"Vhat": zero_function(p.kernel1)}, {"What": None}):
            with pytest.raises(EstimatorError):
                stationarity_residual(replace(res, **edit), p)

    def test_directional_linearity(self):
        p = make_problem(seed=12)
        res = solve(p)
        (fdir, gdir), = self.directions(p, 1, seed=3)
        rho = p.traj.values.ravel()

        def deriv(f, g):
            image = operator_image(p, f, g)
            val = 2 * p.node_weight * float((res.residual_vector * image) @ rho)
            val += 2 * p.lambda1 * rkhs_inner(res.Vhat, f)
            val += 2 * p.lambda2 * rkhs_inner(res.What, g)
            return val

        assert deriv(3.0 * fdir, 3.0 * gdir) == pytest.approx(
            3.0 * deriv(fdir, gdir), rel=1e-9, abs=1e-12)

    def test_fd_agreement_away_from_minimizer(self):
        p = make_problem(N=6, L=2, seed=13)
        res = solve(p)
        (fdir, gdir), = self.directions(p, 1, seed=5)
        phi = res.Vhat + 0.5 * fdir
        psi = res.What + 0.5 * gdir
        rho = p.traj.values.ravel()
        image = operator_image(p, fdir, gdir)
        resid = operator_image(p, phi, psi) - assemble_data_functional(
            p.traj, "gradient").ravel()
        closed = (2 * p.node_weight * float((resid * image) @ rho)
                  + 2 * p.lambda1 * rkhs_inner(phi, fdir)
                  + 2 * p.lambda2 * rkhs_inner(psi, gdir))
        h = 1e-5
        fd = (loss_at(p, phi + h * fdir, psi + h * gdir)
              - loss_at(p, phi + (-h) * fdir, psi + (-h) * gdir)) / (2 * h)
        assert fd == pytest.approx(closed, rel=1e-4)


class TestUniquenessOrthogonality:
    def test_estimate_orthogonal_to_null_pairs(self):
        p = make_problem(N=6, L=2, seed=14, lam1=0.2, lam2=0.07)
        res = solve(p)
        G1, G2 = section_grams(p)
        design = np.hstack([G1, G2])  # operator values of every section
        _, svals, vt = np.linalg.svd(design)
        null = vt[len(svals):] if design.shape[0] < design.shape[1] else \
            vt[np.sum(svals > 1e-10 * svals[0]):]
        assert null.shape[0] > 0
        rho = p.traj.values.ravel()
        M = p.node_count
        for vec in null[:6]:
            u, v = vec[:M], vec[M:]
            # <(l1 Vhat, l2 What), (phi, psi)> via the section Grams
            inner = (p.lambda1 * (rho * res.C1) @ (G1 @ u)
                     + p.lambda2 * (rho * res.C2) @ (G2 @ v))
            pair_norm_sq = u @ G1 @ u + v @ G2 @ v
            if pair_norm_sq < 1e-12:
                continue
            norms = (np.hypot(p.lambda1 * res.rkhs_norms["V"],
                              p.lambda2 * res.rkhs_norms["W"])
                     * np.sqrt(pair_norm_sq))
            assert abs(inner) <= 1e-8 * max(norms, 1e-6)


class TestTraceBound:
    def test_trace_below_continuum_bound(self, traj_periodic):
        p = EstimationProblem(traj_periodic, gaussian_kernel(0.3),
                              gaussian_kernel(0.35), lambda1=0.1, lambda2=0.1)
        G1, G2 = section_grams(p)
        rho = traj_periodic.values.ravel()
        trace = p.node_weight * float(((np.diag(G1) + np.diag(G2)) * rho**2).sum())
        mesh = traj_periodic.mesh
        kappa1_sq = 2.0 * p.kernel1.sup_norm_c4(mesh.a, mesh.b)
        kappa2_sq = 2.0 * p.kernel2.sup_norm_c4(mesh.a, mesh.b)
        dxp = traj_periodic.dx_plus()
        dxx = np.gradient(dxp, mesh.dx, axis=1)
        c_t = float(np.max(np.abs(traj_periodic.values))
                    + np.max(np.abs(dxp)) + np.max(np.abs(dxx)))
        bound = 4.0 * mesh.T * c_t * (kappa1_sq + kappa2_sq)
        assert trace <= bound


class TestGivenDerivatives:
    def test_given_slopes_enter_factors(self, traj_periodic):
        traj = GivenDerivatives(traj_periodic, slopes=np.zeros_like(traj_periodic.values))
        p = EstimationProblem(traj, gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.1, lambda2=0.1)
        plain, convolved = _fit_sections(p)
        assert np.allclose(plain.a, 0.0) and np.allclose(convolved.a, 0.0)
        image = operator_image(p, RkhsFunction.from_points(p.kernel1, [0.5], [1.0]),
                               None)
        # with zero slopes only second-derivative terms survive
        expected = (traj_periodic.values.ravel()
                    * np.tile(p.kernel1.eval(2, 0, 0.5, traj_periodic.mesh.x),
                              traj_periodic.mesh.L))
        assert np.allclose(image, expected)
