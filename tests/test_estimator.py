import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgflows.estimator import (
    EstimationProblem,
    EstimatorError,
    _stacked_factor,
    assemble_data_functional,
    build_factors,
    loss_at,
    operator_image,
    solve,
    stationarity_residual,
)
from wgflows.flows import InternalEnergy, SmoothFunction
from wgflows.kernels import gaussian_kernel, imq_kernel
from wgflows.mesh import PERIODIC, TRUNCATED, DensityTrajectory, SpaceTimeMesh
from wgflows.rkhs import CONVOLVED, PLAIN, RkhsFunction, diff_section, rkhs_inner

from conftest import (
    apply_flow_operator,
    assemble_gram,
    dense_factors,
    dense_reference_solve,
    random_trajectory,
    section_grams,
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

    def test_kernel3_requires_lambda3(self):
        traj = random_trajectory()
        with pytest.raises(EstimatorError):
            EstimationProblem(traj, gaussian_kernel(0.2), gaussian_kernel(0.2),
                              lambda1=1.0, lambda2=1.0,
                              kernel3=gaussian_kernel(0.2))

    def test_fisher_rejected(self):
        traj = random_trajectory()
        with pytest.raises(EstimatorError):
            EstimationProblem(traj, gaussian_kernel(0.2), gaussian_kernel(0.2),
                              lambda1=1.0, lambda2=1.0,
                              known_u=InternalEnergy("fisher"))


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

    def test_operator_image_matches_pointwise(self, traj_periodic):
        K1 = gaussian_kernel(0.25)
        K2 = imq_kernel(0.3, beta=1.5)
        phi = RkhsFunction.from_points(K1, [0.2, 0.7], [1.0, -0.4])
        psi = RkhsFunction.from_points(K2, [-0.1, 0.3], [0.6, 0.2])
        p = EstimationProblem(traj_periodic, K1, K2, lambda1=1.0, lambda2=1.0)
        image = operator_image(p, phi, psi).reshape(traj_periodic.mesh.L, -1)
        for l, n in [(0, 0), (1, 5), (2, 11)]:
            direct = apply_flow_operator(traj_periodic, phi, psi, l, n)
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
        f_skip = assemble_data_functional(traj_periodic, "gradient", ENTROPY,
                                          include_internal=False)
        assert np.allclose(f_plain, f_skip)


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
            s1p = diff_section(p.kernel1, traj_periodic, int(l1), int(n1), PLAIN)
            s2p = diff_section(p.kernel1, traj_periodic, int(l2), int(n2), PLAIN)
            assert G1[i, j] == pytest.approx(rkhs_inner(s1p, s2p),
                                             rel=1e-10, abs=1e-10)
            s1c = diff_section(p.kernel2, traj_periodic, int(l1), int(n1), CONVOLVED)
            s2c = diff_section(p.kernel2, traj_periodic, int(l2), int(n2), CONVOLVED)
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
       mode=st.sampled_from([PERIODIC, TRUNCATED]),
       k=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_factor_applies_match_dense_factors(N, L, mode, k, seed):
    """The matrix-free F1/F2 applies equal the dense factors and are adjoint."""
    fac = build_factors(make_problem(N=N, L=L, mode=mode, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    M = L * N
    cols = () if k is None else (k,)
    for F, apply, apply_t in zip(dense_factors(fac),
                                 (fac.plain, fac.convolved),
                                 (fac.plain_t, fac.convolved_t)):
        Y = rng.standard_normal((F.shape[1],) + cols)
        u = rng.standard_normal(M)
        FY, Ftu = apply(Y), apply_t(u)
        assert FY.shape == (M,) + cols and Ftu.shape == (F.shape[1],)
        # roundoff of a reordered dot product is bounded by |F| |Y|
        assert np.all(np.abs(FY - F @ Y) <= 1e-13 * (np.abs(F) @ np.abs(Y)))
        assert np.all(np.abs(Ftu - F.T @ u) <= 1e-13 * (np.abs(F).T @ np.abs(u)))
        pairing = np.abs(u) @ (np.abs(F) @ np.abs(Y))
        assert np.all(np.abs(u @ FY - Ftu @ Y) <= 1e-13 * pairing)


smooth_kernels = st.builds(
    lambda gaussian, ls: gaussian_kernel(ls) if gaussian else imq_kernel(ls, beta=1.5),
    st.booleans(), st.sampled_from([0.03, 0.05, 0.2]) | st.floats(0.03, 0.6))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 24), L=st.integers(1, 4),
       mode=st.sampled_from([PERIODIC, TRUNCATED]),
       k1=smooth_kernels, k2=smooth_kernels, k3=st.none() | smooth_kernels,
       seed=st.integers(0, 999))
def test_stacked_factor_matches_dense_gram(N, L, mode, k1, k2, k3, seed):
    """P P' is the weighted Gram and each block keeps the eigh-rule rank."""
    traj = random_trajectory(N=N, L=L, mode=mode, seed=seed)
    p = EstimationProblem(traj, k1, k2, lambda1=0.05, lambda2=0.08, kernel3=k3,
                          lambda3=None if k3 is None else 0.3)
    fac = build_factors(p)
    P, kept = _stacked_factor(p, fac)
    F1, F2 = dense_factors(fac)
    l1, l2, l3 = p.lambda1, p.lambda2, p.lambda3 or 1.0
    blocks = {"V": (fac.K1t, F1, l2 * l3), "W": (fac.K2t, F2, l1 * l3)}
    if k3 is not None:
        blocks["U"] = (fac.K3t, F1, l1 * l2)
    # each block drops eigenvalues up to 1e-14 lambda_max of its K~, so entry
    # (i, j) of P P' - G is bounded on the scale lambda_max |F_i| |F_j| rho_i rho_j
    scale = np.zeros((P.shape[0],) * 2)
    assert set(kept) == set(blocks)
    for name, (Kt, F, weight) in blocks.items():
        w = np.linalg.eigh(Kt)[0]
        row = fac.rho_flat * np.linalg.norm(F, axis=1)
        scale += weight * max(w[-1], 0.0) * np.outer(row, row)
        # reference rule: eigh eigenvalues above 1e-14 lambda_max; those within
        # the pivot tolerance 1e-15 lambda_max of that cut are resolved by
        # neither factorization, so they may fall on either side
        cut, band = 1e-14 * max(w[-1], 0.0), 1e-15 * max(w[-1], 0.0)
        assert np.sum(w > cut + band) <= kept[name][0] <= np.sum(w > cut - band)
        assert kept[name][1] == Kt.shape[0]
    G = assemble_gram(p, fac)
    assert np.all(np.abs(P @ P.T - G) <= 1e-13 * scale)


def test_solve_eigensolves_only_compressed_factors(monkeypatch):
    """At N=128 no eigensolve sees a full generator Gram (O(n^3) per block)."""
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
    assert generators == [2 * N, 4 * N - 2] and len(sizes) == 2
    assert all(size < total / 2 for size, total in zip(sizes, generators))


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


class TestSolve:
    def test_zero_data_gives_zero_estimate(self, traj_periodic):
        p = EstimationProblem(traj_periodic, gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.1, lambda2=0.2,
                              f_override=np.zeros_like(traj_periodic.values))
        res = solve(p)
        assert np.allclose(res.C1, 0.0) and np.allclose(res.C2, 0.0)
        assert res.rkhs_norms["V"] == 0.0 and res.rkhs_norms["W"] == 0.0
        assert res.loss_value == pytest.approx(0.0, abs=1e-14)

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
        zero1 = RkhsFunction.zero(p.kernel1)
        zero2 = RkhsFunction.zero(p.kernel2)
        assert res.loss_value <= loss_at(p, zero1, zero2) + 1e-12
        rng = np.random.default_rng(0)
        for _ in range(10):
            nodes = [(int(rng.integers(0, 3)), int(rng.integers(0, 8)))]
            phi = RkhsFunction.from_plain_sections(p.kernel1, p.traj, nodes,
                                                   rng.standard_normal(1))
            psi = RkhsFunction.from_convolved_sections(p.kernel2, p.traj, nodes,
                                                       rng.standard_normal(1))
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
        assert np.allclose(res.residual_vector, res.operator_image - f)

    def test_reconstruction_matches_weighted_sections(self):
        # Vhat equals the C_rho-weighted combination of plain sections
        p = make_problem(N=5, L=2, seed=8)
        res = solve(p)
        nodes = [(l, n) for l in range(2) for n in range(5)]
        rho = p.traj.values.ravel()
        direct = RkhsFunction.from_plain_sections(
            p.kernel1, p.traj, nodes, rho * res.C1)
        xs = np.linspace(0, 1, 9)
        assert np.allclose(res.Vhat.value(xs), direct.value(xs), atol=1e-10)
        direct_w = RkhsFunction.from_convolved_sections(
            p.kernel2, p.traj, nodes, rho * res.C2)
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
            out.append((diff_section(p.kernel1, p.traj, l, n, PLAIN),
                        diff_section(p.kernel2, p.traj, l, n, CONVOLVED)))
        return out

    def test_small_at_minimizer(self):
        p = make_problem(seed=10)
        res = solve(p)
        worst = stationarity_residual(res, p, self.directions(p, 8))
        assert worst <= 1e-6 * max(res.loss_value, 1.0)

    def test_nonzero_away_from_minimizer(self):
        p = make_problem(seed=11)
        res = solve(p)
        zeroed = type(res)(
            C1=np.zeros_like(res.C1), C2=np.zeros_like(res.C2),
            Vhat=RkhsFunction.zero(p.kernel1), What=RkhsFunction.zero(p.kernel2),
            rkhs_norms={"V": 0.0, "W": 0.0}, loss_value=0.0,
            residual_vector=-assemble_data_functional(p.traj, "gradient").ravel(),
            gram_condition=1.0, lambdas=res.lambdas, method="lowrank",
        )
        worst = stationarity_residual(zeroed, p, self.directions(p, 8))
        assert worst > 1e-4

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


class TestThreeFunction:
    def test_coefficient_products(self):
        traj = random_trajectory(N=6, L=2, seed=15)
        p = EstimationProblem(traj, gaussian_kernel(0.25), imq_kernel(0.3, beta=1.5),
                              lambda1=0.2, lambda2=0.3,
                              kernel3=gaussian_kernel(0.4), lambda3=0.15)
        res = solve(p)
        assert res.C3 is not None and res.Uhat is not None
        l1, l2, l3 = 0.2, 0.3, 0.15
        scale = np.max(np.abs(res.C1)) * l1
        assert np.max(np.abs(l1 * res.C1 - l2 * res.C2)) < 1e-10 * max(scale, 1e-30)
        assert np.max(np.abs(l1 * res.C1 - l3 * res.C3)) < 1e-10 * max(scale, 1e-30)

    def test_large_lambda3_recovers_two_function_solution(self):
        traj = random_trajectory(N=6, L=2, seed=16)
        k1, k2 = gaussian_kernel(0.25), imq_kernel(0.3, beta=1.5)
        p2 = EstimationProblem(traj, k1, k2, lambda1=0.2, lambda2=0.3)
        p3 = EstimationProblem(traj, k1, k2, lambda1=0.2, lambda2=0.3,
                               kernel3=gaussian_kernel(0.4), lambda3=1e12)
        r2, r3 = solve(p2), solve(p3)
        scale = max(np.max(np.abs(r2.C1)), 1e-30)
        assert np.max(np.abs(r2.C1 - r3.C1)) < 1e-6 * scale
        assert r3.rkhs_norms["U"] < 1e-6
        xs = np.linspace(0, 1, 7)
        assert np.allclose(r2.Vhat.value(xs), r3.Vhat.value(xs), atol=1e-6)

    def test_solve_matches_dense_reference_three_function(self):
        traj = random_trajectory(N=5, L=2, seed=17)
        p = EstimationProblem(traj, gaussian_kernel(0.25), imq_kernel(0.3, beta=1.5),
                              lambda1=0.2, lambda2=0.3,
                              kernel3=gaussian_kernel(0.4), lambda3=0.25)
        rd, rl = dense_reference_solve(p), solve(p)
        assert np.max(np.abs(rd.C3 - rl.C3)) < 1e-8 * max(np.max(np.abs(rd.C3)), 1e-30)


class TestExactDerivativeOverride:
    def test_spatial_slope_override_enters_factors(self, traj_periodic):
        override = np.zeros_like(traj_periodic.values)
        p = EstimationProblem(traj_periodic, gaussian_kernel(0.25),
                              imq_kernel(0.3, beta=1.5), lambda1=0.1, lambda2=0.1,
                              spatial_slope_override=override)
        fac = build_factors(p)
        assert np.allclose(fac.a, 0.0)
        image = operator_image(p, RkhsFunction.from_points(p.kernel1, [0.5], [1.0]),
                               None)
        # with zero slopes only second-derivative terms survive
        expected = (traj_periodic.values.ravel()
                    * np.tile(p.kernel1.eval(2, 0, 0.5, traj_periodic.mesh.x),
                              traj_periodic.mesh.L))
        assert np.allclose(image, expected)
