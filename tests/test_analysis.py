import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgflows.analysis import (
    CDF_KINDS,
    AnalysisError,
    SweepPlan,
    bump_density,
    fit_loglog_slope,
    generate_gradient_data,
    pair_norm,
    predicted_exponents,
    rkhs_error,
    run_sweep,
    stability_experiment,
    wasserstein2_1d,
    wrap_periodic,
)
from wgflows.estimator import EstimationProblem, solve
from wgflows.flows import SmoothFunction
from wgflows.kernels import gaussian_kernel
from wgflows.mesh import PERIODIC, SpaceTimeMesh, DensityTrajectory
from wgflows.rkhs import RkhsFunction

from conftest import (
    GivenDerivatives,
    exact_data_functional,
    plain_sections,
    spectral_slopes,
    zero_function,
)


@pytest.fixture
def mesh200():
    return SpaceTimeMesh(0.0, 1.0, 0.1, 200, 1)


class TestRkhsError:
    def test_identical_pair_is_zero(self):
        K1, K2 = gaussian_kernel(0.2), gaussian_kernel(0.25)
        V = RkhsFunction.from_points(K1, [0.3], [1.0])
        W = RkhsFunction.from_points(K2, [0.1], [0.5])
        assert rkhs_error((V, W), (V, W)) == pytest.approx(0.0, abs=1e-10)

    def test_identical_periodized_pairs_are_exactly_zero(self):
        # the squared error of equal pairs cancels to roundoff of either sign;
        # a negative one must not turn into nan
        def periodized_pair(seed):
            rng = np.random.default_rng(seed)
            K1 = gaussian_kernel(float(rng.uniform(0.1, 0.4)))
            K2 = gaussian_kernel(float(rng.uniform(0.1, 0.4)))
            V = RkhsFunction.from_points(K1, rng.random(3), rng.standard_normal(3))
            W = RkhsFunction.from_points(K2, rng.random(3) - 0.5,
                                         rng.standard_normal(3))
            return wrap_periodic(V, 1.0), wrap_periodic(W, 1.0)

        for seed in range(100):
            pair = periodized_pair(seed)
            assert rkhs_error(pair, pair) == 0.0
            assert rkhs_error(pair, periodized_pair(seed)) == 0.0

    def test_pythagorean_stacking(self):
        K1, K2 = gaussian_kernel(0.2), gaussian_kernel(0.25)
        V = RkhsFunction.from_points(K1, [0.3], [3.0 / np.sqrt(K1.eval(0, 0, 0, 0))])
        W = RkhsFunction.from_points(K2, [0.1], [4.0 / np.sqrt(K2.eval(0, 0, 0, 0))])
        zero = (zero_function(K1), zero_function(K2))
        assert rkhs_error((V, W), zero) == pytest.approx(5.0)
        assert pair_norm((V, W)) == pytest.approx(5.0)

    def test_dense_gram_oracle(self, traj_periodic):
        # compare against assembling the Gram of all generators entry by entry
        K = gaussian_kernel(0.3)
        est = plain_sections(K, traj_periodic, [(0, 2), (1, 7)], [0.4, -0.2])
        true = RkhsFunction.from_points(K, [0.3, 0.6], [1.0, -0.5])
        diff = est - true
        G = np.array([
            [K.eval(int(oi), int(oj), ci, cj)
             for oj, cj in zip(diff.orders, diff.centers)]
            for oi, ci in zip(diff.orders, diff.centers)])
        brute = np.sqrt(max(diff.coeffs @ G @ diff.coeffs, 0.0))
        zero = zero_function(K)
        assert rkhs_error((est, zero), (true, zero)) == pytest.approx(brute, rel=1e-9)


def lifted_quantile(rho, mesh):
    """Knots (levels, positions) of the piecewise-linear quantile function
    of ``rho``, lifted over three periods: Q(s + 1) = Q(s) + |domain| on
    s in [-1, 2]."""
    F = np.cumsum(rho)
    F = np.concatenate([[0.0], F / F[-1]])
    xs = mesh.a + mesh.dx * np.arange(mesh.N + 1)
    ell = mesh.domain_length
    return (np.concatenate([F - 1.0, F[1:], F[1:] + 1.0]),
            np.concatenate([xs - ell, xs[1:], xs[1:] + ell]))


def exact_offset_cost(lift_rho, lift_sigma, theta):
    """int_0^1 (Q_rho(t) - Q_sigma(t - theta))^2 dt for continuous
    piecewise-linear quantile functions: the squared gap of two linear
    functions, integrated between merged knots."""
    (t_r, x_r), (t_s, x_s) = lift_rho, lift_sigma
    knots = np.unique(np.clip(np.concatenate([t_r, t_s + theta]), 0.0, 1.0))
    gap = np.interp(knots, t_r, x_r) - np.interp(knots - theta, t_s, x_s)
    g0, g1 = gap[:-1], gap[1:]
    return float(np.sum(np.diff(knots) * (g0 * g0 + g0 * g1 + g1 * g1)) / 3.0)


def brute_force_offset(rho, sigma, mesh, zooms=9):
    """(theta, cost) at the smallest exact offset cost on a grid: 201 offsets
    on [-1, 1], then ``zooms`` grids of 41 offsets over the two spacings
    around the best, each 20 times finer.  The cost is convex, so its
    minimizer stays within one spacing of the best grid offset."""
    lifts = lifted_quantile(rho, mesh), lifted_quantile(sigma, mesh)
    grid = np.linspace(-1.0, 1.0, 201)
    for _ in range(zooms + 1):
        costs = [exact_offset_cost(*lifts, theta) for theta in grid]
        best = int(np.argmin(costs))
        spacing = grid[1] - grid[0]
        theta, cost = grid[best], costs[best]
        grid = np.linspace(theta - spacing, theta + spacing, 41)
    return theta, cost


def random_pair(N, contrast, seed):
    mesh = SpaceTimeMesh(0.0, 1.0, 0.1, N, 1)
    rng = np.random.default_rng(seed)
    rho, sigma = (d / (mesh.dx * d.sum()) for d in contrast ** rng.random((2, N)))
    return mesh, rho, sigma


class TestWasserstein:
    def test_identical_zero(self, mesh200):
        rho = bump_density(mesh200.x, 1.0, 0.4, 0.08, 0.1)
        assert wasserstein2_1d(rho, rho, mesh200) == 0.0

    @pytest.mark.parametrize("c", [0.05, 0.1])
    def test_translation_on_line(self, mesh200, c):
        rho = bump_density(mesh200.x, 1.0, 0.4, 0.08, 0.0)
        sigma = bump_density(mesh200.x, 1.0, 0.4 + c, 0.08, 0.0)
        w2 = wasserstein2_1d(rho, sigma, mesh200)
        assert abs(w2 - c) <= 2 * mesh200.dx

    def test_periodic_translation_picks_short_way(self, mesh200):
        rho = bump_density(mesh200.x, 1.0, 0.2, 0.06, 0.0)
        sigma = np.roll(rho, -40)  # shift by -0.2, i.e. 0.8 the long way
        w2 = wasserstein2_1d(rho, sigma, mesh200, periodic=True)
        assert abs(w2 - 0.2) <= 2 * mesh200.dx

    def test_metric_properties(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 64, 1)
        rng = np.random.default_rng(0)
        dens = [0.2 + rng.random(64) for _ in range(3)]
        dens = [d / (mesh.dx * d.sum()) for d in dens]
        d01 = wasserstein2_1d(dens[0], dens[1], mesh)
        d10 = wasserstein2_1d(dens[1], dens[0], mesh)
        assert d01 == pytest.approx(d10, abs=1e-10)
        d02 = wasserstein2_1d(dens[0], dens[2], mesh)
        d12 = wasserstein2_1d(dens[1], dens[2], mesh)
        assert d02 <= d01 + d12 + 1e-8

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(4, 96), contrast=st.floats(1.0, 100.0),
           seed=st.integers(0, 2**32 - 1), periodic=st.booleans())
    def test_symmetry_property(self, N, contrast, seed, periodic):
        # swapping the arguments mirrors the offset, theta -> -theta, and
        # leaves the exact cost unchanged
        mesh, rho, sigma = random_pair(N, contrast, seed)
        assert wasserstein2_1d(rho, sigma, mesh, periodic=periodic) == pytest.approx(
            wasserstein2_1d(sigma, rho, mesh, periodic=periodic), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(4, 96), contrast=st.floats(1.0, 100.0),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_torus_shift_invariance_property(self, N, contrast, seed, data):
        # a shift by whole cells rotates both densities on the circle, which
        # leaves the exact distance unchanged up to roundoff
        shift = data.draw(st.integers(1, N - 1))
        mesh, rho, sigma = random_pair(N, contrast, seed)
        before = wasserstein2_1d(rho, sigma, mesh, periodic=True)
        after = wasserstein2_1d(np.roll(rho, shift), np.roll(sigma, shift), mesh,
                                periodic=True)
        assert abs(before - after) <= 1e-12

    def test_discrete_sorting_oracle(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 8, 1)
        rng = np.random.default_rng(5)
        counts1 = rng.integers(1, 9, 8).astype(float)
        counts2 = rng.integers(1, 9, 8).astype(float)
        h1 = counts1 / (counts1.sum() * mesh.dx)
        h2 = counts2 / (counts2.sum() * mesh.dx)
        units = int(counts1.sum() * counts2.sum())
        xs = np.repeat(mesh.x, np.rint(h1 * mesh.dx * units).astype(int))
        ys = np.repeat(mesh.x, np.rint(h2 * mesh.dx * units).astype(int))
        oracle = np.sqrt(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
        mine = wasserstein2_1d(h1, h2, mesh, cdf_kind="step")
        assert mine == pytest.approx(oracle, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(4, 64), contrast=st.floats(1.0, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_torus_matches_brute_force_offset(self, N, contrast, seed):
        # the offset search finds the minimum of the exact cost; the
        # absolute floor covers identical pairs (contrast 1), whose
        # distance is roundoff
        mesh, rho, sigma = random_pair(N, contrast, seed)
        _, cost = brute_force_offset(rho, sigma, mesh)
        mine = wasserstein2_1d(rho, sigma, mesh, periodic=True)
        assert mine == pytest.approx(np.sqrt(cost), rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_level_sampling_converges_to_exact(self, seed):
        # midpoint sampling of the squared gap at the optimal offset tends
        # to the exact torus value as the level count grows
        mesh, rho, sigma = random_pair(24, 30.0, seed)
        theta, _ = brute_force_offset(rho, sigma, mesh)
        (t_r, x_r), (t_s, x_s) = lifted_quantile(rho, mesh), lifted_quantile(sigma, mesh)
        exact = wasserstein2_1d(rho, sigma, mesh, periodic=True)
        errors = []
        for n in (2**8, 2**11, 2**14, 2**17):
            levels = (np.arange(n) + 0.5) / n
            gap = np.interp(levels, t_r, x_r) - np.interp(levels - theta, t_s, x_s)
            errors.append(abs(np.sqrt(np.mean(gap**2)) - exact))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-8 * exact

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_step_matches_circle_transport(self, N, seed):
        # atoms of equal mass 1/units: the optimal circle transport pairs
        # the sorted atoms up to a cyclic shift k, and a shift past the end
        # lifts its partner by one period.  The costs (squared distances)
        # are compared: near a zero distance the square root would turn a
        # level rounded by one ulp into a 1e-8 gap
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, N, 1)
        counts = np.random.default_rng(seed).integers(1, 5, (2, N))
        units = int(counts[0].sum() * counts[1].sum())
        xs = np.repeat(mesh.x, counts[0] * counts[1].sum())
        ys = np.repeat(mesh.x, counts[1] * counts[0].sum())
        shifted = np.arange(units)[None, :] - np.arange(-units, units + 1)[:, None]
        partners = ys[shifted % units] + (shifted // units) * mesh.domain_length
        cost = np.min(np.mean((xs - partners) ** 2, axis=1))
        h1, h2 = (c / (c.sum() * mesh.dx) for c in counts)
        mine = wasserstein2_1d(h1, h2, mesh, periodic=True, cdf_kind="step")
        assert mine**2 == pytest.approx(cost, abs=1e-12)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("cdf_kind", CDF_KINDS)
    def test_zero_width_cdf_pieces(self, mesh200, cdf_kind, periodic):
        # the bump's tails underflow their CDF increments, so the CDF
        # repeats levels and the quantile function jumps there
        rho = bump_density(mesh200.x, 1.0, 0.2, 0.06, 0.0)
        sigma = np.roll(rho, -40)
        cdf = np.cumsum(rho)
        assert np.any(np.diff(cdf / cdf[-1]) == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w2 = wasserstein2_1d(rho, sigma, mesh200, periodic=periodic,
                                 cdf_kind=cdf_kind)
        assert np.isfinite(w2)
        if periodic:
            assert abs(w2 - 0.2) <= 2 * mesh200.dx

    def test_mass_mismatch_rejected(self, mesh200):
        rho = bump_density(mesh200.x, 1.0, 0.4, 0.08, 0.1)
        with pytest.raises(AnalysisError):
            wasserstein2_1d(rho, 1.1 * rho, mesh200)

    def test_nonpositive_rejected(self, mesh200):
        rho = bump_density(mesh200.x, 1.0, 0.4, 0.08, 0.1)
        bad = rho.copy()
        bad[3] = 0.0
        with pytest.raises(AnalysisError):
            wasserstein2_1d(rho, bad, mesh200)


class TestSweepPlan:
    def truth(self):
        K1, K2 = gaussian_kernel(0.2), gaussian_kernel(0.15)
        V = RkhsFunction.from_points(K1, [0.4, 0.8, 1.2], [0.018, -0.032, 0.016])
        W = RkhsFunction.from_points(K2, [-0.3, 0.0, 0.3], [-0.0432, 0.0768, -0.0384])
        return V, W

    def plan(self, **kw):
        V, W = self.truth()
        base = dict(N_list=(16, 24), alpha=0.2, beta=1.2, truth_v=V, truth_w=W,
                    T=12.5, window=(0.0, 1.6), scheme="upwind",
                    initial_center=[0.55, 1.0], initial_sigma=[0.16, 0.2],
                    initial_uniform_weight=0.2, drop_last_time_rows=1, seed=1)
        base.update(kw)
        return SweepPlan(**base)

    def test_parameter_regime_enforced(self):
        V, W = self.truth()
        with pytest.raises(AnalysisError):
            SweepPlan(N_list=(8,), alpha=0.4, beta=1.3, truth_v=V, truth_w=W, T=1.0)
        with pytest.raises(AnalysisError):
            SweepPlan(N_list=(8,), alpha=0.3, beta=0.8, truth_v=V, truth_w=W, T=1.0)
        with pytest.raises(AnalysisError):
            SweepPlan(N_list=(8, 8), alpha=0.2, beta=1.2, truth_v=V, truth_w=W, T=1.0)
        for edit in ({"N_list": ()}, {"N_list": (0, 8)}, {"T": 0.0}, {"c_lambda": -1.0},
                     {"c_L": 0.0}):
            with pytest.raises(AnalysisError):
                SweepPlan(**{**dict(N_list=(8,), alpha=0.2, beta=1.2, truth_v=V,
                                    truth_w=W, T=1.0), **edit})

    def test_scaling_rules(self):
        plan = self.plan()
        assert plan.L_at(32) == int(np.ceil(32**1.2))
        assert plan.lambda_at(32) == pytest.approx(32**-0.2)

    def test_zero_truth_gives_tiny_errors(self):
        K1, K2 = gaussian_kernel(0.2), gaussian_kernel(0.15)
        plan = self.plan(truth_v=zero_function(K1),
                         truth_w=zero_function(K2), N_list=(12,))
        report = run_sweep(plan)
        assert report.errors[0] <= 1e-10
        assert report.slope is None

    def test_lambda_prefactor_changes_only_lambda(self):
        plan_a = self.plan(N_list=(16,))
        plan_b = self.plan(N_list=(16,), c_lambda=2.0)
        ra, rb = run_sweep(plan_a), run_sweep(plan_b)
        assert rb.lambdas[0] == pytest.approx(2 * ra.lambdas[0])
        assert rb.L_list == ra.L_list
        assert np.isfinite(rb.errors[0])

    def test_reproducible_bit_for_bit(self):
        r1 = run_sweep(self.plan(N_list=(16,)))
        r2 = run_sweep(self.plan(N_list=(16,)))
        assert r1.errors == r2.errors
        assert r1.relative_errors == r2.relative_errors

    def test_generated_data_aligns_with_fine_grid(self):
        plan = self.plan(N_list=(16,))
        traj = generate_gradient_data(plan, 16, plan.L_at(16))
        assert traj.values.shape == (plan.L_at(16), 16)
        assert traj.boundary_mode == PERIODIC

    def test_predicted_exponents_regimes(self):
        bands_low = predicted_exponents(0.2, 0.9)
        assert bands_low["gamma=1"] == pytest.approx(min(0.2, 0.5 * (0.9 - 0.6)))
        bands_high = predicted_exponents(0.2, 1.2)
        assert bands_high["gamma=1"] == pytest.approx(min(0.2, 0.5 * (1 - 0.6)))
        assert bands_high["gamma=0.25"] == pytest.approx(0.05)

    def test_slope_fit(self):
        Ns = [10, 20, 40]
        errs = [1.0, 0.5, 0.25]
        assert fit_loglog_slope(Ns, errs) == pytest.approx(-1.0)
        assert fit_loglog_slope(Ns, [1.0, 0.0, 0.1]) is None


class TestSpectralDiagnostics:
    def test_spectral_slope_exact_for_sine(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 64, 2)
        vals = 1.0 + 0.3 * np.sin(2 * np.pi * mesh.x)
        traj = DensityTrajectory(mesh, np.tile(vals, (2, 1)), boundary_mode=PERIODIC)
        slopes = spectral_slopes(traj)
        exact = 0.3 * 2 * np.pi * np.cos(2 * np.pi * mesh.x)
        assert np.max(np.abs(slopes[0] - exact)) < 1e-10

    def test_exact_functional_beats_forward_differences(self):
        # scheme-dependent component is nonnegative in practice: the exact
        # operator data pipeline recovers at least as well (10% slack)
        K1, K2 = gaussian_kernel(0.2), gaussian_kernel(0.15)
        V = RkhsFunction.from_points(K1, [0.4, 0.8, 1.2], [0.018, -0.032, 0.016])
        W = RkhsFunction.from_points(K2, [-0.3, 0.0, 0.3], [-0.043, 0.077, -0.038])
        plan = SweepPlan(N_list=(24,), alpha=0.2, beta=1.2, truth_v=V, truth_w=W,
                         T=12.5, window=(0.0, 1.6), scheme="upwind",
                         initial_center=[0.55, 1.0], initial_sigma=[0.16, 0.2],
                         initial_uniform_weight=0.2, drop_last_time_rows=1, seed=1)
        traj = generate_gradient_data(plan, 24, plan.L_at(24))
        lam = plan.lambda_at(24)
        full = solve(EstimationProblem(traj, K1, K2, lambda1=lam, lambda2=lam,
                                       drop_last_time_rows=1))
        exact = solve(EstimationProblem(
            GivenDerivatives(traj, slopes=spectral_slopes(traj),
                             rate=exact_data_functional(traj)),
            K1, K2, lambda1=lam, lambda2=lam, drop_last_time_rows=1))
        err_full = rkhs_error((full.Vhat, full.What), (V, W))
        err_exact = rkhs_error((exact.Vhat, exact.What), (V, W))
        assert err_exact <= 1.1 * err_full


class TestStability:
    def periodic_pair(self, eps=0.0):
        K1, K2 = gaussian_kernel(0.25), gaussian_kernel(0.25)
        V = wrap_periodic(RkhsFunction.from_points(K1, [0.3, 0.7], [0.04, -0.04]), 1.0)
        W = wrap_periodic(RkhsFunction.from_points(K2, [-0.2, 0.2], [0.02, -0.02]), 1.0)
        if eps:
            bump = wrap_periodic(RkhsFunction.from_points(K1, [0.5], [eps]), 1.0)
            V = V + bump
        return V, W

    def test_identical_dynamics_within_tolerance(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 48, 5)
        truth = self.periodic_pair()
        mu0 = bump_density(mesh.x, 1.0, 0.5, 0.12, 0.2)
        phi0 = SmoothFunction.cosine_sum(1.0, [0.03], [1])
        out, = stability_experiment(truth, [truth], mu0, phi0, mesh)
        assert out["sup_w2"] <= 2 * mesh.dx
        assert out["rkhs_error"] == pytest.approx(0.0, abs=1e-9)
        assert out["weighted_rkhs_discrepancy"] == 0.0

    def test_perturbation_response_roughly_linear(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 48, 5)
        truth = self.periodic_pair()
        mu0 = bump_density(mesh.x, 1.0, 0.5, 0.12, 0.2)
        phi0 = SmoothFunction.cosine_sum(1.0, [0.03], [1])
        small, large = stability_experiment(
            truth, [self.periodic_pair(1e-6), self.periodic_pair(1e-3)], mu0, phi0, mesh)
        assert small["sup_w2"] <= 1e-3
        ratio = large["sup_w2"] / max(small["sup_w2"], 1e-15)
        assert 50 < ratio < 20000  # roughly linear in the perturbation size

    def test_w2_ordering_with_rkhs_error(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 48, 5)
        truth = self.periodic_pair()
        mu0 = bump_density(mesh.x, 1.0, 0.5, 0.12, 0.2)
        phi0 = SmoothFunction.cosine_sum(1.0, [0.03], [1])
        records = stability_experiment(
            truth, [self.periodic_pair(eps) for eps in (4e-3, 1e-3, 2.5e-4)],
            mu0, phi0, mesh)
        sups = [out["sup_w2"] for out in records]
        errs = [out["rkhs_error"] for out in records]
        assert errs[0] > errs[1] > errs[2]
        assert sups[0] >= sups[1] >= sups[2]
