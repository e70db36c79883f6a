import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from wgflows import flows
from wgflows.analysis import wrap_periodic
from wgflows.flows import (
    DENSITY_FLOOR,
    EnergySpec,
    FlowError,
    InternalEnergy,
    PeriodicityError,
    SmoothFunction,
    christoffel_term,
    gradient_flow_simulate,
    hamiltonian_flow_simulate,
    internal_energy_from_label,
    weighted_laplacian_apply,
)
from wgflows.kernels import SmoothKernel, gaussian_kernel, imq_kernel
from wgflows.mesh import PERIODIC, SpaceTimeMesh, diff_space, diff_space_backward
from wgflows.rkhs import RkhsFunction

from conftest import (
    count_lockstep_calls,
    dense_interaction_matrix,
    dense_pair_sums,
    space_integral,
    zero_phase,
)

ENTROPY = InternalEnergy("entropy")


def wrapped_gaussian(x, mu, var, wraps=8, period=1.0):
    out = np.zeros_like(x)
    for k in range(-wraps, wraps + 1):
        out += np.exp(-((x - mu + k * period) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    return out


class TestInternalEnergy:
    def test_labels_round_trip(self):
        for label in ("none", "entropy", "power:2", "power:1.5"):
            assert internal_energy_from_label(label).label() == label

    def test_power_requires_m_above_one(self):
        with pytest.raises(ValueError):
            InternalEnergy("power", exponent=1.0)

    @pytest.mark.parametrize("label", ["power:nan", "power:inf", "power:1e400"])
    def test_power_requires_finite_m(self, label):
        # NaN compares False with 1, and 1e400 reads as inf
        with pytest.raises(ValueError):
            internal_energy_from_label(label)

    def test_entropy_derivatives(self):
        rho = np.array([0.5, 1.0, 2.0])
        assert np.allclose(ENTROPY.du(rho), np.log(rho) + 1)
        assert np.allclose(ENTROPY.d2u(rho), 1 / rho)

    def test_power_derivatives(self):
        u = InternalEnergy("power", exponent=3.0)
        rho = np.array([0.5, 1.5])
        assert np.allclose(u.u(rho), rho**3 / 2)
        assert np.allclose(u.du(rho), 1.5 * rho**2)
        assert np.allclose(u.d2u(rho), 3.0 * rho)


class TestWeightedLaplacian:
    def test_eigenfunction(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 128, 1)
        phi = np.sin(2 * np.pi * mesh.x)
        out = weighted_laplacian_apply(np.ones(128), phi, mesh)
        assert np.max(np.abs(out + (2 * np.pi) ** 2 * phi)) < 4 * np.pi**3 * mesh.dx

    def test_constant_gives_zero(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * mesh.x)
        assert np.allclose(weighted_laplacian_apply(rho, np.full(16, 2.3), mesh), 0.0)

    def test_zero_mean_image_periodic(self):
        rng = np.random.default_rng(0)
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 32, 1)
        rho = 0.5 + rng.random(32)
        phi = rng.standard_normal(32)
        out = weighted_laplacian_apply(rho, phi, mesh)
        assert abs(space_integral(out, mesh)) < 1e-10

    def test_rejects_nonpositive_weight(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 8, 1)
        with pytest.raises(FlowError):
            weighted_laplacian_apply(np.zeros(8), np.ones(8), mesh)


class TestChristoffel:
    def test_zero_velocity(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 32, 1)
        rho = np.ones(32)
        out = christoffel_term(rho, np.zeros(32), mesh)
        assert np.allclose(out, 0.0)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(5)
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 64, 1)
        rho = 0.5 + rng.random(64)
        rho_dot = rng.standard_normal(64)
        rho_dot -= rho_dot.mean()
        g1 = christoffel_term(rho, rho_dot, mesh)
        g2 = christoffel_term(rho, 3.0 * rho_dot, mesh)
        assert np.max(np.abs(g2 - 9.0 * g1)) <= 1e-8 * max(np.max(np.abs(g2)), 1.0)

    def test_uniform_density_spectral_oracle(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 512, 1)
        x = mesh.x
        rho = np.ones(512)
        rho_dot = np.sin(2 * np.pi * x)
        out = christoffel_term(rho, rho_dot, mesh)
        # eta = -sin/(2 pi)^2; term1 = d/dx(sin * eta') = -cos(4 pi x);
        # term2 = (|eta'|^2)'' with eta' = -cos/(2 pi)
        term1 = -np.cos(4 * np.pi * x)
        grad_eta_sq = (np.cos(2 * np.pi * x) / (2 * np.pi)) ** 2
        term2 = -2.0 * np.cos(4 * np.pi * x)
        exact = -(term1 + 0.5 * term2)
        assert np.max(np.abs(out - exact)) < 150 * mesh.dx

    def test_zero_mean_for_uniform_density(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 64, 1)
        rho_dot = np.sin(4 * np.pi * mesh.x)
        out = christoffel_term(np.ones(64), rho_dot, mesh)
        assert abs(space_integral(out, mesh)) < 1e-9

    def test_rejects_biased_input(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        with pytest.raises(FlowError):
            christoffel_term(np.ones(16), np.ones(16), mesh)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    def test_rejects_pure_mean_at_any_scale(self, scale):
        # the mean check is relative to the input's size, not absolute
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        with pytest.raises(FlowError, match="non-zero mean"):
            christoffel_term(np.ones(16), np.full(16, scale), mesh)

    def test_rows_match_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(7)
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 96, 24)
        rho = 0.5 + rng.random((24, 96))
        rho_dot = rng.standard_normal((24, 96))
        rho_dot -= rho_dot.mean(axis=1, keepdims=True)
        out = christoffel_term(rho, rho_dot, mesh)
        for l in range(24):
            assert np.array_equal(out[l], christoffel_term(rho[l], rho_dot[l], mesh))

    def test_rejects_nonpositive_density_row(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 8, 3)
        rho = np.ones((3, 8))
        rho[1, 4] = 0.0
        rho_dot = np.tile(np.sin(2 * np.pi * mesh.x), (3, 1))
        with pytest.raises(FlowError, match="strictly positive"):
            christoffel_term(rho, rho_dot, mesh)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(2, 64), contrast=st.floats(1.0, 1e2),
       shape=st.sampled_from(["random", "smooth", "step"]),
       seed=st.integers(0, 2**32 - 1))
def test_christoffel_matches_dense_potential(N, contrast, shape, seed):
    """Gamma = -(Lap_s eta + 1/2 Lap_rho |d+ eta|^2) with eta a least-squares
    solution of the N x N stencil of ``weighted_laplacian_apply``.

    Both sides difference the terms s v and 1/2 rho d+(v^2), v = d+ eta, of
    sizes |s v| and 1/2 rho (v_n^2 + v_(n+1)^2) / dx.  The dense solve,
    whose stencil has condition number of order N^2 max(rho) / min(rho),
    dominates the gap, which stayed below 1.5 N^2 eps (max rho / min rho)
    times those terms over 55000 random draws of this test's space.
    """
    rng = np.random.default_rng(seed)
    mesh = SpaceTimeMesh(0.0, 1.0, 1.0, N, 1)
    if shape == "random":
        rho = contrast ** rng.random(N)
    elif shape == "smooth":
        rho = 1.0 + 0.5 * (contrast - 1.0) * (1.0 + np.sin(2 * np.pi * mesh.x))
    else:
        rho = np.where(mesh.x < 0.5, 1.0, contrast)
    s = rng.standard_normal(N)
    s -= s.mean()
    stencil = np.column_stack([weighted_laplacian_apply(rho, e, mesh) for e in np.eye(N)])
    eta = np.linalg.lstsq(stencil, s, rcond=None)[0]
    v = diff_space(eta, mesh.dx, PERIODIC)
    dense = -(diff_space_backward(s * v, mesh.dx)
              + 0.5 * weighted_laplacian_apply(rho, v**2, mesh))
    terms = np.max(np.abs(s * v) + 0.5 * rho * (v**2 + np.roll(v, -1)**2) / mesh.dx) / mesh.dx
    tol = 8.0 * N**2 * np.finfo(float).eps * rho.max() / rho.min() * terms
    assert np.max(np.abs(christoffel_term(rho, s, mesh) - dense)) <= tol


class TestGradientFlow:
    def test_zero_energy_keeps_state(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 32, 2)
        rho0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        out, _ = flows._GridEnergy(EnergySpec(), mesh).step(rho0, 1e-3, "divergence", 0.0)
        assert np.array_equal(out, rho0)

    def test_heat_flow_matches_exact_kernel(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 128, 8)
        var0 = 0.18**2
        rho0 = wrapped_gaussian(mesh.x, 0.5, var0)
        traj, diag = gradient_flow_simulate(rho0, EnergySpec(U=ENTROPY), mesh)
        worst = max(
            np.max(np.abs(traj.values[l] - wrapped_gaussian(mesh.x, 0.5, var0 + 2 * t)))
            for l, t in enumerate(mesh.t))
        assert worst <= 5 * (mesh.dx + diag["dt_solver"])

    def test_mass_conservation_per_step(self):
        rng = np.random.default_rng(11)
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 64, 2)
        rho = 0.5 + rng.random(64)
        rho /= space_integral(rho, mesh)
        V = RkhsFunction.from_points(gaussian_kernel(0.2), [0.4], [0.5])
        energy = flows._GridEnergy(EnergySpec(V=V, U=ENTROPY), mesh)
        for scheme in ("divergence", "upwind"):
            out, _ = energy.step(rho, 1e-5, scheme, 0.0)
            assert space_integral(out, mesh) == pytest.approx(
                space_integral(rho, mesh), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(4, 256), seed=st.integers(0, 2**32 - 1),
           scheme=st.sampled_from(["divergence", "upwind"]),
           contrast=st.floats(1.0, 100.0), amplitude=st.floats(0.0, 2.0))
    def test_mass_conservation_property(self, N, seed, scheme, contrast, amplitude):
        # both fluxes are differences of a periodic face flux, so one step
        # keeps the Riemann mass up to rounding; the step moves each node by
        # at most about 2e-3 ln(contrast) of the smallest density, so none
        # is floored
        rng = np.random.default_rng(seed)
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, N, 2)
        rho = contrast ** rng.random(N)
        rho /= space_integral(rho, mesh)
        centers = rng.random(3)
        V = RkhsFunction.from_points(gaussian_kernel(0.2), centers,
                                     amplitude * rng.standard_normal(3))
        out, floored = flows._GridEnergy(EnergySpec(V=V, U=ENTROPY), mesh).step(
            rho, 1e-3 * mesh.dx**2 / contrast, scheme, 0.0)
        assert floored == 0
        assert space_integral(out, mesh) == pytest.approx(
            space_integral(rho, mesh), abs=1e-10)

    def test_gibbs_state_is_stationary(self):
        # with U = entropy the discrete update nearly vanishes at rho ~ exp(-V)
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 128, 2)
        V = RkhsFunction.from_points(gaussian_kernel(0.25), [0.5], [1.0])
        v_grid = V.value(mesh.x)
        gibbs = np.exp(-v_grid)
        gibbs /= space_integral(gibbs, mesh)
        out, _ = flows._GridEnergy(EnergySpec(V=V, U=ENTROPY), mesh).step(
            gibbs, 1e-6, "divergence", 0.0)
        rate = np.max(np.abs(out - gibbs)) / 1e-6
        assert rate < 100 * mesh.dx  # update magnitude O(dx) at the fixed point

    def test_free_energy_decreases(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.02, 64, 10)
        V = RkhsFunction.from_points(gaussian_kernel(0.2), [0.35, 0.7], [0.8, -0.5])
        spec = EnergySpec(V=V, U=ENTROPY)
        rho0 = wrapped_gaussian(mesh.x, 0.4, 0.03)
        traj, diag = gradient_flow_simulate(rho0, spec, mesh)
        energies = [flows._GridEnergy(spec, mesh).free(rho0)] + diag["free_energy"]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_floor_hits_per_output_time(self):
        # the tails of a narrow bump start on DENSITY_FLOOR, and a drift
        # without diffusion pushes some of them below it step after step
        mesh = SpaceTimeMesh(0.0, 1.0, 0.02, 64, 4)
        rho0 = np.maximum(wrapped_gaussian(mesh.x, 0.5, 0.05**2), DENSITY_FLOOR)
        assert np.sum(rho0 == DENSITY_FLOOR) > 0
        V = RkhsFunction.from_points(gaussian_kernel(0.2), [0.5], [1.0])
        traj, diag = gradient_flow_simulate(rho0, EnergySpec(V=V), mesh)
        hits = diag["floor_hits"]
        assert len(hits) == mesh.L and sum(hits) > 0
        # a node on the floor at an output time was raised in the last step
        floored = [int(np.sum(row == DENSITY_FLOOR)) for row in traj.values]
        assert any(floored)
        assert all(h >= f for h, f in zip(hits, floored))

    def test_cfl_violation_reports_step(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 64, 2)
        V = RkhsFunction.from_points(gaussian_kernel(0.1), [0.5], [5.0])
        rho0 = wrapped_gaussian(mesh.x, 0.5, 0.02)
        with pytest.raises(FlowError, match="dt_solver"):
            gradient_flow_simulate(rho0, EnergySpec(V=V), mesh, dt_solver=0.05)


INTERACTIONS = ["wrapped_gaussian", "wrapped_imq", "cosine_sum", "linear"]


def interaction(kind: str, length: float, rng: np.random.Generator):
    """An interaction kernel W of the given kind with random parameters."""
    if kind == "linear":
        return SmoothFunction.linear(float(rng.standard_normal()))
    if kind == "cosine_sum":
        return SmoothFunction.cosine_sum(length, rng.standard_normal(3),
                                         rng.integers(0, 6, 3), length * rng.random(3))
    lengthscale = length * rng.uniform(0.05, 0.5)
    kernel = (gaussian_kernel(lengthscale) if kind == "wrapped_gaussian"
              else imq_kernel(lengthscale, beta=rng.uniform(0.5, 2.5)))
    return wrap_periodic(RkhsFunction.from_points(
        kernel, length * rng.uniform(-1.0, 1.0, 3), rng.standard_normal(3)), length)


def convolution_roundoff(W, mesh: SpaceTimeMesh, rho: np.ndarray, order: int) -> np.ndarray:
    """eps dx sum_m (|W^(order)| + max|x| |W^(order+1)|)(x_n - x_m) rho_m.

    The first term is the size of the terms of the grid convolution; the
    second is how far a term moves when its pair difference rounds, which
    the dense reference's x_n - x_m does by up to about eps max|x|.
    """
    terms = (np.abs(dense_interaction_matrix(W, mesh, order))
             + np.max(np.abs(mesh.x)) * np.abs(dense_interaction_matrix(W, mesh, order + 1)))
    return np.finfo(float).eps * mesh.dx * terms @ rho


class TestGridConvolution:
    """The gradient flow reads W on the 2N-1 pair differences and applies it
    as a Toeplitz product; the dense N x N matrix is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(INTERACTIONS), N=st.integers(1, 64),
           a=st.floats(-2.0, 2.0), length=st.floats(0.5, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_interaction_matrix(self, kind, N, a, length, seed):
        rng = np.random.default_rng(seed)
        mesh = SpaceTimeMesh(a, a + length, 0.1, N, 2)
        W = interaction(kind, length, rng)
        spec = EnergySpec(W=W)
        rho = 10.0 ** rng.uniform(-2.0, 2.0, N)
        rho /= space_integral(rho, mesh)
        dense = [mesh.dx * dense_interaction_matrix(W, mesh, order) for order in (0, 1)]
        bound = [64.0 * convolution_roundoff(W, mesh, rho, order) for order in (0, 1)]
        energy = flows._GridEnergy(spec, mesh)

        # the drive U'(rho) + V + W conv rho of a step, here W conv rho alone
        assert np.all(np.abs(energy.drive(rho) - dense[0] @ rho) <= bound[0])

        free = 0.5 * mesh.dx * float(rho @ dense[0] @ rho)
        assert abs(energy.free(rho) - free) <= 0.5 * mesh.dx * rho @ bound[0]

        # no diffusion: the step is 0.2 dx over the largest drift slope, which
        # lies within the largest bound of the dense one; the upwind flux
        # takes a 2.5 times wider step
        def step(vmax, widen):
            return mesh.dt if vmax == 0.0 else min(mesh.dt, widen * 0.2 * mesh.dx / vmax)

        vmax, slack = float(np.max(np.abs(dense[1] @ rho))), float(np.max(bound[1]))
        for scheme, widen in (("divergence", 1.0), ("upwind", 2.5)):
            lo, hi = step(vmax + slack, widen), step(max(vmax - slack, 0.0), widen)
            assert lo * (1 - 1e-15) <= energy.default_dt(rho, scheme) <= hi * (1 + 1e-15)

    def test_simulation_reads_w_on_the_pair_differences(self):
        """A whole simulation evaluates W on at most 2N-1 points per
        derivative order, not on the N^2 pair differences."""
        inner = wrap_periodic(RkhsFunction.from_points(
            gaussian_kernel(0.2), [-0.2, 0.2], [0.05, -0.05]), 1.0)
        points = {}

        class CountingW:
            def value(self, x, order=0):
                points[order] = points.get(order, 0) + np.size(x)
                return inner.value(x, order=order)

        N = 48
        mesh = SpaceTimeMesh(0.0, 1.0, 0.02, N, 3)
        gradient_flow_simulate(wrapped_gaussian(mesh.x, 0.5, 0.01),
                               EnergySpec(W=CountingW()), mesh, scheme="upwind")
        assert set(points) == {0, 1}
        assert max(points.values()) <= 2 * N - 1


class TestHamiltonianFlow:
    def test_free_transport(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.25, 64, 5)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        (traj,), _ = hamiltonian_flow_simulate(mu0, SmoothFunction.linear(0.3),
                                               [EnergySpec()], mesh)
        c = 0.3 * mesh.t[-1]
        exact = wrapped_gaussian(mesh.x - c, 0.5, 0.04)
        assert np.max(np.abs(traj.values[-1] - exact)) < 2 * mesh.dx

    def test_zero_phase_is_static(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.2, 32, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.05)
        (traj,), _ = hamiltonian_flow_simulate(mu0, zero_phase(), [EnergySpec()], mesh)
        for l in range(4):
            assert np.max(np.abs(traj.values[l] - traj.values[0])) < 1e-10

    def test_velocities_preserved_without_forces(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.2, 32, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.05)
        _, (diag,) = hamiltonian_flow_simulate(mu0, SmoothFunction.linear(0.7),
                                               [EnergySpec()], mesh)
        assert diag["kinetic_final"] == pytest.approx(diag["kinetic_initial"],
                                                      rel=1e-12)

    @pytest.mark.parametrize("W", [
        None,
        wrap_periodic(RkhsFunction.from_points(gaussian_kernel(0.25), [0.0], [0.005]),
                      1.0),
        # 64 wrapped copies leave W and W' jumps across the period boundary
        wrap_periodic(RkhsFunction.from_points(imq_kernel(0.25, 0.6), [0.0], [0.005]),
                      1.0),
    ], ids=["no-W", "even-gaussian", "even-imq"])
    def test_energy_drift_second_order(self, W):
        # Verlet drift shrinks ~4x when the step is halved; the energy is
        # conserved only for an even W, whose pair sums see all of it
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 48, 4)
        V = ana_wrapped_potential()
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)

        def drift(dt):
            _, (diag,) = hamiltonian_flow_simulate(
                mu0, SmoothFunction.cosine_sum(1.0, [0.05], [1]),
                [EnergySpec(V=V, W=W)], mesh, dt_solver=dt)
            return abs(diag["energy_final"] - diag["energy_initial"])

        d1, d2 = drift(2e-3), drift(1e-3)
        assert d2 < 0.4 * d1

    def test_particle_energy_matches_dense_pairs(self):
        # an odd W has no pair energy; this one has W and W' seam jumps
        rng = np.random.default_rng(2)
        W = wrap_periodic(RkhsFunction.from_points(imq_kernel(0.25, 0.6), [0.1], [1.0]), 1.0)
        q = (np.arange(100) + 0.3 * rng.random(100)) / 100
        v = rng.standard_normal(100)
        masses = (0.5 + rng.random(100)) / 100
        dense = 0.5 * masses @ v**2 + 0.5 * masses @ dense_pair_sums(q, masses, W, 1.0, 0)
        tables, _ = flows._energy_tables([EnergySpec(W=W)], 0.0, 1.0)
        got, = flows._particle_energy(q[None], v[None], masses, tables)
        assert got == pytest.approx(dense, rel=1e-13)

    def test_kernel_evaluations_independent_of_step_count(self, monkeypatch):
        # V, V', W and W' are evaluated once, for their Fourier series, not
        # at every step, for every particle or for every particle pair
        calls = []
        evaluate = SmoothKernel.eval

        def counting(kernel, *args, **kwargs):
            calls.append(args)
            return evaluate(kernel, *args, **kwargs)

        monkeypatch.setattr(SmoothKernel, "eval", counting)

        def count(spec, dt, n):
            mesh = SpaceTimeMesh(0.0, 1.0, 0.2, n, 4)
            mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
            calls.clear()
            hamiltonian_flow_simulate(mu0, SmoothFunction.cosine_sum(1.0, [0.05], [1]),
                                      [spec], mesh, dt_solver=dt)
            return len(calls)

        for spec in (EnergySpec(W=ana_wrapped_potential()),
                     EnergySpec(V=ana_wrapped_potential(0.25), W=ana_wrapped_potential())):
            assert count(spec, 2e-3, 32) == count(spec, 1e-3, 32) == count(spec, 2e-3, 256) > 0

    def test_heavy_tailed_interaction_simulated(self):
        # 64 wrapped copies of an IMQ with beta = 0.6 leave W' a jump of
        # 3e-5 of its peak across the period boundary; the series carries it
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        W = wrap_periodic(RkhsFunction.from_points(imq_kernel(0.25, 0.6), [0.1], [1.0]),
                          1.0)
        _, (diag,) = hamiltonian_flow_simulate(np.ones(16), zero_phase(),
                                               [EnergySpec(W=W)], mesh)
        assert 0 < diag["interaction_modes"] <= 512

    def test_internal_energy_rejected(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        with pytest.raises(FlowError):
            hamiltonian_flow_simulate(np.ones(16), zero_phase(),
                                      [EnergySpec(U=ENTROPY)], mesh)

    def test_particle_crossing_detected(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 32, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        phase = SmoothFunction.cosine_sum(1.0, [0.8], [2])  # strong compression
        with pytest.raises(FlowError, match="crossing"):
            hamiltonian_flow_simulate(mu0, phase, [EnergySpec()], mesh)

    def test_particle_crossing_detected_across_period_boundary(self):
        # the same compression half a period on crosses particles N - 1 and
        # 0 at the same output time as particles 15 and 16
        mesh = SpaceTimeMesh(0.0, 1.0, 0.515, 32, 515)
        messages = []
        for centre in (0.5, 1.0):
            phase = SmoothFunction.cosine_sum(1.0, [0.05], [1], [centre + 0.5 * mesh.dx])
            with pytest.raises(FlowError, match="crossing") as err:
                hamiltonian_flow_simulate(np.ones(32), phase, [EnergySpec()], mesh)
            messages.append(str(err.value))
        assert messages[0].endswith("between particles 15 and 16")
        assert messages[1] == messages[0].replace("15 and 16", "31 and 0")

    def test_lockstep_flows_match_their_own_runs(self):
        # W's of 8 and 32 modes and a flow without W, integrated together
        mesh = SpaceTimeMesh(0.0, 1.0, 0.3, 48, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        phase = SmoothFunction.cosine_sum(1.0, [0.05], [1])
        specs = [
            EnergySpec(V=ana_wrapped_potential(), W=wrap_periodic(
                RkhsFunction.from_points(gaussian_kernel(0.25), [0.1], [0.01]), 1.0)),
            EnergySpec(V=ana_wrapped_potential(0.25), W=wrap_periodic(
                RkhsFunction.from_points(imq_kernel(0.25, 1.5), [-0.1], [0.01]), 1.0)),
            EnergySpec(V=ana_wrapped_potential(0.3)),
        ]
        trajs, diags = hamiltonian_flow_simulate(mu0, phase, specs, mesh)
        assert [d["interaction_modes"] for d in diags] == [8, 32, 0]
        for spec, traj, diag in zip(specs, trajs, diags):
            (alone,), (alone_diag,) = hamiltonian_flow_simulate(mu0, phase, [spec], mesh)
            assert np.max(np.abs(traj.values - alone.values)) <= (
                1e-12 * np.max(alone.values))
            assert diag["floor_hits"] == alone_diag["floor_hits"]
            assert diag["potential_modes"] == alone_diag["potential_modes"] > 0
            assert diag["interaction_modes"] == alone_diag["interaction_modes"]
            assert diag["energy_final"] == pytest.approx(alone_diag["energy_final"],
                                                         rel=1e-12)

    def test_lockstep_crossing_names_its_flow(self):
        # only the middle flow's potential well is deep enough to cross
        # particles by the last data time
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 32, 4)
        shallow, deep = (EnergySpec(V=SmoothFunction.cosine_sum(1.0, [amp], [2]))
                         for amp in (0.01, 0.1))
        with pytest.raises(FlowError) as alone:
            hamiltonian_flow_simulate(np.ones(32), zero_phase(), [deep], mesh)
        with pytest.raises(FlowError) as lockstep:
            hamiltonian_flow_simulate(np.ones(32), zero_phase(),
                                      [shallow, deep, EnergySpec()], mesh)
        assert str(alone.value).startswith("particle crossing at t=")
        assert str(lockstep.value) == f"flow 1: {alone.value}"

    @pytest.mark.parametrize("V", [
        RkhsFunction.from_points(gaussian_kernel(0.2), [0.3, 0.7], [0.1, -0.1]),
        SmoothFunction.linear(0.3),
    ], ids=["unwrapped-gaussian", "linear"])
    def test_nonperiodic_potential_rejected(self, V):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        with pytest.raises(PeriodicityError, match="wrap V with the domain length") as err:
            hamiltonian_flow_simulate(np.ones(16), zero_phase(), [EnergySpec(V=V)], mesh)
        assert err.value.function == "V"

    def test_nonperiodic_interaction_names_its_flow(self, monkeypatch):
        # flows 0 and 1 are periodic, and so is flow 2's V; its W is an
        # unwrapped odd Gaussian pair
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        W = RkhsFunction.from_points(gaussian_kernel(0.2), [-0.2, 0.2], [0.02, -0.02])
        specs = [EnergySpec(V=ana_wrapped_potential()),
                 EnergySpec(W=wrap_periodic(W, 1.0)),
                 EnergySpec(V=ana_wrapped_potential(0.25), W=W)]
        steps = count_lockstep_calls(monkeypatch)
        with pytest.raises(PeriodicityError) as err:
            hamiltonian_flow_simulate(np.ones(16), zero_phase(), specs, mesh)
        assert (err.value.flow, err.value.function) == (2, "W")
        assert steps == []


@st.composite
def pchip_cases(draw):
    """3-128 strictly increasing knots with non-uniform spacing and values
    monotone apart from flat runs (zero secants) and a reversed first or
    last secant of any size, which reaches both end-slope branches (the
    reset to 0 and the 3 m0 clamp); plus the evaluation points: the knots,
    the midpoints and points up to 5% of the span outside the knots."""
    n = draw(st.integers(3, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    knots = draw(st.floats(-2.0, 2.0)) + np.cumsum(
        rng.lognormal(0.0, draw(st.floats(0.0, 2.0)), n))
    steps = rng.lognormal(0.0, draw(st.floats(0.0, 2.0)), n - 1)
    steps[rng.random(n - 1) < draw(st.floats(0.0, 0.5))] = 0.0
    for end in (0, -1):
        if draw(st.booleans()):
            steps[end] *= -(10.0 ** draw(st.floats(-3.0, 3.0)))
    values = draw(st.sampled_from([1.0, -1.0])) * np.concatenate([[0.0], np.cumsum(steps)])
    span = knots[-1] - knots[0]
    outside = span * rng.uniform(0.0, 0.05, 8)
    x = np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1]),
                        knots[0] - outside, knots[-1] + outside])
    return knots, values, x


@settings(max_examples=300, deadline=None)
@given(case=pchip_cases())
def test_pchip_matches_scipy_reference(case):
    """The push-forward's interpolant equals scipy's PchipInterpolator and
    its derivative to 16 eps of max|y| in value and of max|s'| in slope."""
    knots, values, x = case
    reference = PchipInterpolator(knots, values)
    ref_value, ref_slope = reference(x), reference.derivative()(x)
    (value,), (slope,) = flows._pchip(knots[None], values[None], x)
    eps = np.finfo(float).eps
    assert np.max(np.abs(value - ref_value)) <= 16 * eps * np.max(np.abs(values))
    assert np.max(np.abs(slope - ref_slope)) <= 16 * eps * np.max(np.abs(ref_slope))


def test_pchip_rejects_repeated_knots():
    with pytest.raises(FlowError, match="strictly increasing"):
        flows._pchip(np.array([[0.0, 1.0, 1.0, 2.0]]), np.arange(4.0)[None],
                     np.array([0.5]))


def series_fields(spec, a, length, order, q, masses):
    """V^(order)(q_i) + sum_j m_j W^(order)(q_i - q_j) from the series
    tables of ``spec`` on the torus [a, a + length), as one flow."""
    tables = flows._energy_tables([spec], a, length)[order]
    return tables(q[None], masses)[0]


def assert_series_matches_dense(W, q, masses, length, order):
    """The spectral interaction sum of W^(order) equals the direct
    minimal-image sum to 64 eps sum_j m_j S, S = max_d sum_g |w_g
    d^order K(c_g, d)| the size of the terms of W^(order) (``magnitude``);
    S is max|W^(order)| unless the terms cancel."""
    grid = length * (np.arange(4096) / 4096 - 0.5)
    scale = float(np.max(W.magnitude(grid, order=order)))
    got = series_fields(EnergySpec(W=W), 0.0, length, order, q, masses)
    err = np.max(np.abs(got - dense_pair_sums(q, masses, W, length, order)))
    assert err <= 64 * np.finfo(float).eps * masses.sum() * scale


@pytest.mark.parametrize("kernel, centers, weights", [
    (imq_kernel(0.25, 0.6), [0.1], [1.0]),             # W' jump 3e-5 of its peak
    (imq_kernel(0.25, 1.5), [0.35, 0.7], [0.05, -0.05]),
    (imq_kernel(0.5, 0.51), [-0.3], [2.0]),            # W' jump 6e-4, W'' jump 1e-7
    (gaussian_kernel(0.7), [0.1], [1.0]),              # terms 1600 x max|W'|
    (gaussian_kernel(0.5), [0.25, -0.25], [1.0, 1.0]),  # terms 2.5e7 x max|W'|
])
def test_series_matches_dense_pairs_near_period_boundary(kernel, centers, weights):
    W = wrap_periodic(RkhsFunction.from_points(kernel, centers, weights), 1.0)
    rng = np.random.default_rng(5)
    base = rng.random(64)
    # pairs within 1e-9 .. 1e-2 of half a period apart, on both sides
    near = 0.5 + np.outer([1.0, -1.0], np.logspace(-9, -2, 32)).ravel()
    q = np.concatenate([base, base + near])
    masses = rng.random(q.size)
    for order in (0, 1):
        assert_series_matches_dense(W, q, masses, 1.0, order)


def test_series_pair_sums_independent_of_phase_blocks(monkeypatch):
    W = wrap_periodic(RkhsFunction.from_points(imq_kernel(0.25, 0.6), [0.1], [1.0]), 1.0)
    tables = flows._energy_tables([EnergySpec(W=W)], 0.0, 1.0)
    rng = np.random.default_rng(7)
    q, masses = rng.random((1, 100)), rng.random(100)
    for order in (0, 1):
        fields = tables[order]
        whole = fields(q, masses)
        # three particle rows per block, the last block partial
        monkeypatch.setattr(flows, "_PHASE_BLOCK", 3 * fields.modes)
        scale = float(np.max(W.magnitude(np.linspace(-0.5, 0.5, 4097), order=order)))
        assert np.max(np.abs(fields(q, masses) - whole)) <= (
            4 * np.finfo(float).eps * masses.sum() * scale)
        monkeypatch.undo()


def test_series_of_closed_form_interaction_matches_dense_pairs():
    W = SmoothFunction.cosine_sum(2.0, [0.3, -0.1], [1, 3], [0.2, 0.0])
    rng = np.random.default_rng(6)
    q, masses = 4.0 * rng.random(50) - 1.0, rng.random(50)
    for order in (0, 1):
        assert_series_matches_dense(W, q, masses, 2.0, order)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gaussian", "imq"]),
       lengthscale=st.floats(0.03, 0.7), beta=st.floats(0.5, 3.0, exclude_min=True),
       centers=st.integers(1, 3), n=st.integers(1, 256),
       a=st.floats(-1.0, 1.0), length=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1), order=st.integers(0, 1))
def test_series_pair_sums_match_dense_pairs(family, lengthscale, beta, centers, n,
                                            a, length, seed, order):
    """For W and W', on tori of any offset and length, for unwrapped
    positions anywhere in one period, and for W wrapped from 1-3 centres
    with any weights:
    Gaussian lengthscales up to 0.7 of the length (whose wrapped terms
    cancel to 1e-3 of themselves), IMQ lengthscales up to 0.5 (whose 64
    wrapped copies leave W, W' and W'' jumps across the period boundary)."""
    if family == "imq":
        lengthscale = min(lengthscale, 0.5)
    rng = np.random.default_rng(seed)
    kernel = (gaussian_kernel(lengthscale * length) if family == "gaussian"
              else imq_kernel(lengthscale * length, beta))
    c = length * (rng.random(centers) - 0.5)
    W = wrap_periodic(RkhsFunction.from_points(kernel, c, rng.standard_normal(centers)),
                      length)
    assert_series_matches_dense(W, a + length * rng.random(n), rng.random(n), length,
                                order)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gaussian", "imq"]),
       lengthscale=st.floats(0.03, 0.7), beta=st.floats(0.5, 3.0, exclude_min=True),
       centers=st.integers(1, 3), n=st.integers(1, 256),
       a=st.floats(-1.0, 1.0), length=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1), order=st.integers(0, 1))
def test_series_potential_matches_wrapped_values(family, lengthscale, beta, centers,
                                                 n, a, length, seed, order):
    """The table's V^(order) equals V.value(wrap(q), order) at wrap(q), for
    q up to a period outside the torus [a, a + length), to 64 eps times the
    size of the terms of V^(order) (``magnitude``) over the torus; for tori
    of any offset and length, and V wrapped from 1-3 centres with any
    weights: the wrapped Gaussians and IMQs of
    ``test_series_pair_sums_match_dense_pairs``.  Both sides read the same
    float wrap(q): q itself lies up to eps |q| from wrap(q) plus a whole
    number of periods, which can move a V' of lengthscale 0.03 by more than
    64 eps of its size."""
    if family == "imq":
        lengthscale = min(lengthscale, 0.5)
    rng = np.random.default_rng(seed)
    kernel = (gaussian_kernel(lengthscale * length) if family == "gaussian"
              else imq_kernel(lengthscale * length, beta))
    c = a + length * rng.random(centers)
    V = wrap_periodic(RkhsFunction.from_points(kernel, c, rng.standard_normal(centers)),
                      length)
    grid = a + length * np.arange(4096) / 4096
    scale = float(np.max(V.magnitude(grid, order=order)))
    x = flows._wrap(a + length * (3.0 * rng.random(n) - 1.0), a, length)
    got = series_fields(EnergySpec(V=V), a, length, order, x, rng.random(n))
    want = V.value(x, order=order)
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("lengthscale", [0.03, 0.1])
def test_series_potential_independent_of_torus_offset(lengthscale):
    """Far from the origin the sample points a + L/2 + d round by up to
    eps |a|, which moves a narrow V' by far more than the roundoff of its
    values; the samples are corrected for it, so the table keeps the modes
    it has near the origin and meets the 64 eps bound."""
    modes = set()
    for a in (0.1, 10.1, 100.1):
        V = wrap_periodic(RkhsFunction.from_points(
            gaussian_kernel(lengthscale), [a + 0.3], [1.0]), 0.7)
        (v_modes, _), = flows._energy_tables([EnergySpec(V=V)], a, 0.7)[1].kept
        modes.add(v_modes)
        x = flows._wrap(a + 0.7 * np.linspace(-1.0, 2.0, 301), a, 0.7)
        for order in (0, 1):
            scale = float(np.max(V.magnitude(a + 0.7 * np.arange(4096) / 4096, order=order)))
            got = series_fields(EnergySpec(V=V), a, 0.7, order, x, np.ones(x.size))
            assert np.max(np.abs(got - V.value(x, order=order))) <= (
                64 * np.finfo(float).eps * scale)
    assert len(modes) == 1


def ana_wrapped_potential(lengthscale=0.2):
    base = RkhsFunction.from_points(gaussian_kernel(lengthscale), [0.3, 0.7], [0.1, -0.1])
    return wrap_periodic(base, 1.0)
