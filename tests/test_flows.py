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
    FlowState,
    InteractionSeries,
    InternalEnergy,
    NO_INTERNAL_ENERGY,
    PeriodicityError,
    SmoothFunction,
    christoffel_term,
    free_energy,
    gradient_flow_simulate,
    gradient_flow_step,
    hamiltonian_flow_simulate,
    internal_energy_from_label,
    weighted_laplacian_apply,
    weighted_laplacian_pinv,
)
from wgflows.kernels import SmoothKernel, gaussian_kernel, imq_kernel
from wgflows.mesh import PERIODIC, TRUNCATED, SpaceTimeMesh, space_integral
from wgflows.rkhs import RkhsFunction

from conftest import dense_pair_sums

ENTROPY = InternalEnergy("entropy")


def wrapped_gaussian(x, mu, var, wraps=8, period=1.0):
    out = np.zeros_like(x)
    for k in range(-wraps, wraps + 1):
        out += np.exp(-((x - mu + k * period) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    return out


class TestInternalEnergy:
    def test_labels_round_trip(self):
        for label in ("none", "entropy", "power:2", "power:1.5", "fisher"):
            assert internal_energy_from_label(label).label() == label

    def test_power_requires_m_above_one(self):
        with pytest.raises(ValueError):
            InternalEnergy("power", exponent=1.0)

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

    def test_fisher_is_label_only(self):
        u = InternalEnergy("fisher")
        assert not u.pointwise
        with pytest.raises(ValueError):
            u.du(np.ones(3))


class TestWeightedLaplacian:
    def test_eigenfunction(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 128, 1)
        phi = np.sin(2 * np.pi * mesh.x)
        out = weighted_laplacian_apply(np.ones(128), phi, mesh, PERIODIC)
        assert np.max(np.abs(out + (2 * np.pi) ** 2 * phi)) < 4 * np.pi**3 * mesh.dx

    def test_constant_gives_zero(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * mesh.x)
        assert np.allclose(weighted_laplacian_apply(rho, np.full(16, 2.3), mesh,
                                                    PERIODIC), 0.0)

    def test_truncated_mode_symbolic_oracle(self):
        # rho = 1 + 0.5 cos(2 pi x), phi = x^2: d/dx(rho * 2x) by symbols
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 256, 1)
        x = mesh.x
        rho = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        out = weighted_laplacian_apply(rho, x**2, mesh, TRUNCATED)
        exact = -np.pi * np.sin(2 * np.pi * x) * 2 * x + rho * 2.0
        interior = slice(2, -3)
        assert np.max(np.abs(out[interior] - exact[interior])) < 60 * mesh.dx

    def test_zero_mean_image_periodic(self):
        rng = np.random.default_rng(0)
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 32, 1)
        rho = 0.5 + rng.random(32)
        phi = rng.standard_normal(32)
        out = weighted_laplacian_apply(rho, phi, mesh, PERIODIC)
        assert abs(space_integral(out, mesh)) < 1e-10

    def test_rejects_nonpositive_weight(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 8, 1)
        with pytest.raises(FlowError):
            weighted_laplacian_apply(np.zeros(8), np.ones(8), mesh, PERIODIC)


class TestPseudoInverse:
    def test_eigenfunction_inverse(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 256, 1)
        sigma = np.sin(2 * np.pi * mesh.x)
        phi = weighted_laplacian_pinv(np.ones(256), sigma, mesh)
        assert np.max(np.abs(phi + sigma / (2 * np.pi) ** 2)) < 0.01

    def test_zero_input(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        assert np.allclose(weighted_laplacian_pinv(np.ones(16), np.zeros(16), mesh), 0.0)

    def test_round_trip_and_dense_oracle(self):
        rng = np.random.default_rng(3)
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 48, 1)
        rho = 0.5 + rng.random(48)
        sigma = rng.standard_normal(48)
        sigma -= sigma.mean()
        phi = weighted_laplacian_pinv(rho, sigma, mesh)
        back = weighted_laplacian_apply(rho, phi, mesh, PERIODIC)
        assert np.max(np.abs(back - sigma)) <= 1e-8 * np.max(np.abs(sigma))
        assert abs(phi.mean()) < 1e-12
        # independent dense solve on the stencil matrix
        N = 48
        A = np.zeros((N, N))
        for n in range(N):
            e = np.zeros(N)
            e[n] = 1.0
            A[:, n] = weighted_laplacian_apply(rho, e, mesh, PERIODIC)
        dense = np.linalg.lstsq(A, sigma, rcond=None)[0]
        dense -= dense.mean()
        assert np.max(np.abs(dense - phi)) < 1e-7

    def test_rejects_biased_input(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        with pytest.raises(FlowError):
            weighted_laplacian_pinv(np.ones(16), np.ones(16), mesh)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    def test_rejects_pure_mean_at_any_scale(self, scale):
        # the mean check is relative to the input's size, not absolute
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 16, 1)
        with pytest.raises(FlowError, match="non-zero mean"):
            weighted_laplacian_pinv(np.ones(16), np.full(16, scale), mesh)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(2, 2048), contrast=st.floats(1.0, 1e3),
       shape=st.sampled_from(["random", "smooth", "step"]),
       seed=st.integers(0, 2**32 - 1))
def test_pseudo_inverse_is_exact_inverse_on_zero_mean(N, contrast, shape, seed):
    """apply(pinv(sigma)) = sigma and pinv(apply(phi)) = phi - mean(phi).

    A first-order rounding analysis of the closed form (running sums of
    sigma and of dx J / rho, then the two differences of ``apply``) bounds
    both errors by a small multiple of N eps (max rho / min rho) times the
    1-norm of the input.
    """
    rng = np.random.default_rng(seed)
    mesh = SpaceTimeMesh(0.0, 1.0, 1.0, N, 1)
    if shape == "random":
        rho = contrast ** rng.random(N)
    elif shape == "smooth":
        rho = 1.0 + 0.5 * (contrast - 1.0) * (1.0 + np.sin(2 * np.pi * mesh.x))
    else:
        rho = np.where(mesh.x < 0.5, 1.0, contrast)
    tol = 4.0 * N * np.finfo(float).eps * rho.max() / rho.min()
    sigma = rng.standard_normal(N)
    sigma -= sigma.mean()
    phi = weighted_laplacian_pinv(rho, sigma, mesh)
    # the rounding-level mean left in sigma is projected out, not inverted
    residual = weighted_laplacian_apply(rho, phi, mesh, PERIODIC) - (sigma - sigma.mean())
    assert np.max(np.abs(residual)) <= tol * np.abs(sigma).sum()
    psi = rng.standard_normal(N)
    back = weighted_laplacian_pinv(rho, weighted_laplacian_apply(rho, psi, mesh, PERIODIC), mesh)
    assert np.max(np.abs(back - (psi - psi.mean()))) <= tol * np.abs(psi).sum()


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


class TestGradientFlow:
    def test_zero_energy_keeps_state(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 32, 2)
        rho0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        state = FlowState(time=0.0, density=rho0.copy())
        out = gradient_flow_step(state, EnergySpec(), mesh, 1e-3)
        assert np.array_equal(out.density, rho0)

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
        for scheme in ("divergence", "upwind"):
            state = FlowState(time=0.0, density=rho.copy())
            out = gradient_flow_step(state, EnergySpec(V=V, U=ENTROPY), mesh,
                                     1e-5, scheme=scheme)
            assert space_integral(out.density, mesh) == pytest.approx(
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
        state = FlowState(time=0.0, density=rho.copy())
        out = gradient_flow_step(state, EnergySpec(V=V, U=ENTROPY), mesh,
                                 1e-3 * mesh.dx**2 / contrast, scheme=scheme)
        assert out.floor_hits == 0
        assert space_integral(out.density, mesh) == pytest.approx(
            space_integral(rho, mesh), abs=1e-10)

    def test_gibbs_state_is_stationary(self):
        # with U = entropy the discrete update nearly vanishes at rho ~ exp(-V)
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 128, 2)
        V = RkhsFunction.from_points(gaussian_kernel(0.25), [0.5], [1.0])
        v_grid = V.value(mesh.x)
        gibbs = np.exp(-v_grid)
        gibbs /= space_integral(gibbs, mesh)
        state = FlowState(time=0.0, density=gibbs.copy())
        out = gradient_flow_step(state, EnergySpec(V=V, U=ENTROPY), mesh, 1e-6)
        rate = np.max(np.abs(out.density - gibbs)) / 1e-6
        assert rate < 100 * mesh.dx  # update magnitude O(dx) at the fixed point

    def test_free_energy_decreases(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.02, 64, 10)
        V = RkhsFunction.from_points(gaussian_kernel(0.2), [0.35, 0.7], [0.8, -0.5])
        spec = EnergySpec(V=V, U=ENTROPY)
        rho0 = wrapped_gaussian(mesh.x, 0.4, 0.03)
        traj, diag = gradient_flow_simulate(rho0, spec, mesh)
        energies = [free_energy(rho0, spec, mesh)] + diag["free_energy"]
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

    def test_fisher_rejected(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        state = FlowState(time=0.0, density=np.ones(16))
        with pytest.raises(FlowError):
            gradient_flow_step(state, EnergySpec(U=InternalEnergy("fisher")),
                               mesh, 1e-4)


class TestHamiltonianFlow:
    def test_free_transport(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.25, 64, 5)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        traj, _ = hamiltonian_flow_simulate(mu0, SmoothFunction.linear(0.3),
                                            EnergySpec(), mesh)
        c = 0.3 * mesh.t[-1]
        exact = wrapped_gaussian(mesh.x - c, 0.5, 0.04)
        assert np.max(np.abs(traj.values[-1] - exact)) < 2 * mesh.dx

    def test_zero_phase_is_static(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.2, 32, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.05)
        traj, _ = hamiltonian_flow_simulate(mu0, SmoothFunction.zero(),
                                            EnergySpec(), mesh)
        for l in range(4):
            assert np.max(np.abs(traj.values[l] - traj.values[0])) < 1e-10

    def test_velocities_preserved_without_forces(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.2, 32, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.05)
        _, diag = hamiltonian_flow_simulate(mu0, SmoothFunction.linear(0.7),
                                            EnergySpec(), mesh)
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
            _, diag = hamiltonian_flow_simulate(
                mu0, SmoothFunction.cosine_sum(1.0, [0.05], [1]),
                EnergySpec(V=V, W=W), mesh, dt_solver=dt)
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
        got = flows._particle_energy(q, v, masses, None, InteractionSeries(W, 1.0),
                                     0.0, 1.0)
        assert got == pytest.approx(dense, rel=1e-13)

    def test_kernel_evaluations_independent_of_step_count(self, monkeypatch):
        # W and W' are evaluated once, for their Fourier series, not at
        # every step or for every particle pair
        calls = []
        evaluate = SmoothKernel.eval

        def counting(kernel, *args, **kwargs):
            calls.append(args)
            return evaluate(kernel, *args, **kwargs)

        monkeypatch.setattr(SmoothKernel, "eval", counting)
        spec = EnergySpec(W=ana_wrapped_potential())

        def count(dt, n):
            mesh = SpaceTimeMesh(0.0, 1.0, 0.2, n, 4)
            mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
            calls.clear()
            hamiltonian_flow_simulate(mu0, SmoothFunction.cosine_sum(1.0, [0.05], [1]),
                                      spec, mesh, dt_solver=dt)
            return len(calls)

        assert count(2e-3, 32) == count(1e-3, 32) == count(2e-3, 256) > 0

    def test_heavy_tailed_interaction_simulated(self):
        # 64 wrapped copies of an IMQ with beta = 0.6 leave W' a jump of
        # 3e-5 of its peak across the period boundary; the series carries it
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        W = wrap_periodic(RkhsFunction.from_points(imq_kernel(0.25, 0.6), [0.1], [1.0]),
                          1.0)
        _, diag = hamiltonian_flow_simulate(np.ones(16), SmoothFunction.zero(),
                                            EnergySpec(W=W), mesh)
        assert 0 < diag["interaction_modes"] <= 512

    def test_internal_energy_rejected(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 16, 2)
        with pytest.raises(FlowError):
            hamiltonian_flow_simulate(np.ones(16), SmoothFunction.zero(),
                                      EnergySpec(U=ENTROPY), mesh)

    def test_particle_crossing_detected(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 32, 4)
        mu0 = wrapped_gaussian(mesh.x, 0.5, 0.04)
        phase = SmoothFunction.cosine_sum(1.0, [0.8], [2])  # strong compression
        with pytest.raises(FlowError, match="crossing"):
            hamiltonian_flow_simulate(mu0, phase, EnergySpec(), mesh)

    def test_particle_crossing_detected_across_period_boundary(self):
        # the same compression half a period on crosses particles N - 1 and
        # 0 at the same output time as particles 15 and 16
        mesh = SpaceTimeMesh(0.0, 1.0, 0.515, 32, 515)
        messages = []
        for centre in (0.5, 1.0):
            phase = SmoothFunction.cosine_sum(1.0, [0.05], [1], [centre + 0.5 * mesh.dx])
            with pytest.raises(FlowError, match="crossing") as err:
                hamiltonian_flow_simulate(np.ones(32), phase, EnergySpec(), mesh)
            messages.append(str(err.value))
        assert messages[0].endswith("between particles 15 and 16")
        assert messages[1] == messages[0].replace("15 and 16", "31 and 0")


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
    value, slope = flows._pchip(knots, values, x)
    eps = np.finfo(float).eps
    assert np.max(np.abs(value - ref_value)) <= 16 * eps * np.max(np.abs(values))
    assert np.max(np.abs(slope - ref_slope)) <= 16 * eps * np.max(np.abs(ref_slope))


def test_pchip_rejects_repeated_knots():
    with pytest.raises(FlowError, match="strictly increasing"):
        flows._pchip(np.array([0.0, 1.0, 1.0, 2.0]), np.arange(4.0), np.array([0.5]))


def assert_series_matches_dense(W, q, masses, length, order):
    """The spectral interaction sum of W^(order) equals the direct
    minimal-image sum to 64 eps sum_j m_j S, S = max_d sum_g |w_g
    d^order K(c_g, d)| the size of the terms of W^(order) (``magnitude``);
    S is max|W^(order)| unless the terms cancel."""
    grid = length * (np.arange(4096) / 4096 - 0.5)
    scale = float(np.max(W.magnitude(grid, order=order)))
    got = InteractionSeries(W, length).pair_sums(q, masses, order)
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
    series = InteractionSeries(W, 1.0)
    rng = np.random.default_rng(7)
    q, masses = rng.random(100), rng.random(100)
    wholes = [series.pair_sums(q, masses, order) for order in (0, 1)]
    for order, whole in enumerate(wholes):
        # three particle rows per block, the last block partial
        monkeypatch.setattr(flows, "_PHASE_BLOCK", 3 * series.omega[order].size)
        scale = float(np.max(W.magnitude(np.linspace(-0.5, 0.5, 4097), order=order)))
        assert np.max(np.abs(series.pair_sums(q, masses, order) - whole)) <= (
            4 * np.finfo(float).eps * masses.sum() * scale)


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


def ana_wrapped_potential():
    base = RkhsFunction.from_points(gaussian_kernel(0.2), [0.3, 0.7], [0.1, -0.1])
    return wrap_periodic(base, 1.0)
