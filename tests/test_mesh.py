import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgflows.mesh import (
    PERIODIC,
    TRUNCATED,
    DensityTrajectory,
    MeshError,
    SpaceTimeMesh,
    TrajectoryFormatError,
    diff_space,
    diff_space_backward,
    diff_time,
    diff_time2,
    read_trajectory,
    write_trajectory,
)

from conftest import space_integral


def make_traj(values, a=0.0, b=None, T=1.0, mode=TRUNCATED):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    L, N = values.shape
    if b is None:
        b = a + 0.5 * N  # dx = 0.5 by default
    mesh = SpaceTimeMesh(a, b, T, N, L)
    return DensityTrajectory(mesh, values, boundary_mode=mode)


class TestMesh:
    def test_grid_endpoints(self):
        mesh = SpaceTimeMesh(-1.0, 2.0, 0.6, 12, 5)
        assert mesh.x[0] == pytest.approx(-1.0 + mesh.dx)
        assert mesh.x[-1] == pytest.approx(2.0)
        assert mesh.t[-1] == pytest.approx(0.6)
        assert np.allclose(np.diff(mesh.x), mesh.dx)
        assert np.all(np.diff(mesh.x) > 0)

    def test_invalid_parameters(self):
        with pytest.raises(MeshError):
            SpaceTimeMesh(1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(MeshError):
            SpaceTimeMesh(0.0, 1.0, -1.0, 4, 4)
        with pytest.raises(MeshError):
            SpaceTimeMesh(0.0, 1.0, 1.0, 0, 4)

    def test_positivity_required(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 3, 1)
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(MeshError):
                DensityTrajectory(mesh, np.array([[1.0, bad, 1.0]]))

    def test_mass_warning(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 4, 1)
        with pytest.warns(UserWarning, match="mass"):
            DensityTrajectory(mesh, np.full((1, 4), 3.0))


class TestForwardDifferences:
    def test_interior_value(self):
        traj = make_traj([[1.0, 2.0, 4.0]])
        assert traj.dx_plus()[0, 0] == pytest.approx(2.0)

    def test_truncation_branch(self):
        traj = make_traj([[1.0, 2.0, 4.0]], mode=TRUNCATED)
        assert traj.dx_plus()[0, 2] == pytest.approx(-8.0)

    def test_periodic_branch(self):
        traj = make_traj([[1.0, 2.0, 4.0]], mode=PERIODIC)
        assert traj.dx_plus()[0, 2] == pytest.approx((1.0 - 4.0) / 0.5)

    def test_constant_row_periodic(self):
        traj = make_traj([[3.0, 3.0, 3.0, 3.0]], mode=PERIODIC)
        assert np.all(traj.dx_plus() == 0.0)

    def test_space_difference_follows_in_place_edit(self):
        traj = make_traj([[1.0, 2.0, 4.0]], mode=PERIODIC)
        assert traj.dx_plus()[0, 0] == pytest.approx(2.0)
        traj.values[0, 1] = 3.0
        assert np.array_equal(traj.dx_plus(),
                              diff_space(traj.values, traj.mesh.dx, PERIODIC))

    def test_time_difference_linear(self):
        # rho(t, x) = t sampled at t in {0.5, 1.0}
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 2, 2)
        traj = DensityTrajectory(mesh, np.array([[0.5, 0.5], [1.0, 1.0]]))
        assert traj.dt_plus()[0, 0] == pytest.approx(1.0)

    def test_time_truncation_branch(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 2, 2)
        traj = DensityTrajectory(mesh, np.array([[0.5, 0.5], [1.0, 1.0]]))
        assert traj.dt_plus()[1, 0] == pytest.approx(-1.0 / 0.5)

    def test_constant_in_time(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 2, 3)
        traj = DensityTrajectory(mesh, np.ones((3, 2)))
        assert traj.dt_plus()[0, 0] == 0.0
        assert traj.dtt_plus()[0, 0] == 0.0

    def test_double_difference_quadratic(self):
        # rho(t) = t^2 at t = dt, 2dt, 3dt: double forward difference of a
        # quadratic is exactly 2 at the first index
        dt = 0.25
        mesh = SpaceTimeMesh(0.0, 1.0, 3 * dt, 2, 3)
        ts = mesh.t
        traj = DensityTrajectory(mesh, np.tile((ts**2)[:, None], (1, 2)))
        assert traj.dtt_plus()[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_convergence_first_order(self):
        # halving dx roughly halves the max interior error of d/dx
        def max_err(N):
            mesh = SpaceTimeMesh(0.0, 1.0, 1.0, N, 1)
            vals = np.exp(np.sin(2 * np.pi * mesh.x))
            exact = 2 * np.pi * np.cos(2 * np.pi * mesh.x) * vals
            approx = diff_space(vals, mesh.dx, PERIODIC)
            return np.max(np.abs(approx - exact))

        e1, e2 = max_err(64), max_err(128)
        assert 1.7 < e1 / e2 < 2.3


class TestQuadrature:
    """The Riemann rule the mass checks of the flow tests integrate with."""

    def test_constant_exact(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 10, 1)
        assert space_integral(np.ones(10), mesh) == pytest.approx(1.0)

    def test_linear_closed_form(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 100, 1)
        assert space_integral(mesh.x, mesh) == pytest.approx(0.505)

    def test_sine_symmetry(self):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 64, 1)
        assert abs(space_integral(np.sin(2 * np.pi * mesh.x), mesh)) < 1e-12

    def test_spacetime_sum(self):
        mesh = SpaceTimeMesh(0.0, 2.0, 0.5, 4, 5)
        vals = np.ones((5, 4))
        assert mesh.dt * space_integral(vals, mesh).sum() == pytest.approx(0.5 * 2.0)

    def test_first_order_convergence(self):
        def err(N):
            mesh = SpaceTimeMesh(0.0, 1.0, 1.0, N, 1)
            return abs(space_integral(np.exp(mesh.x), mesh) - (np.e - 1.0))

        assert 1.7 < err(50) / err(100) < 2.3


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 10**6),
)
def test_difference_and_quadrature_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 12, 1)
    u, v = rng.random(12), rng.random(12)
    for mode in (PERIODIC, TRUNCATED):
        lhs = diff_space(alpha * u + beta * v, mesh.dx, mode)
        rhs = alpha * diff_space(u, mesh.dx, mode) + beta * diff_space(v, mesh.dx, mode)
        assert np.allclose(lhs, rhs, atol=1e-10)
    assert space_integral(alpha * u + beta * v, mesh) == pytest.approx(
        alpha * space_integral(u, mesh) + beta * space_integral(v, mesh))
    lhs_t = diff_time(np.outer([1.0, 2.0], u), 0.5)
    assert np.allclose(lhs_t[0], (2 * u - u) / 0.5)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 64), dx=st.floats(1e-3, 2.0), seed=st.integers(0, 2**32 - 1))
def test_backward_difference_is_negative_adjoint(N, dx, seed):
    """<d+ u, v> = -<u, d- v> on the torus (summation by parts)."""
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(N), rng.standard_normal(N)
    du, dv = diff_space(u, dx, PERIODIC), diff_space_backward(v, dx)
    pairing = np.abs(du) @ np.abs(v) + np.abs(u) @ np.abs(dv)
    assert abs(du @ v + u @ dv) <= 1e-13 * pairing


def test_diff_time2_matches_composition():
    rng = np.random.default_rng(1)
    vals = rng.random((5, 4))
    assert np.allclose(diff_time2(vals, 0.2), diff_time(diff_time(vals, 0.2), 0.2))


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path, traj_periodic):
        path = tmp_path / "t.csv"
        write_trajectory(traj_periodic, path)
        back = read_trajectory(path)
        assert back.boundary_mode == PERIODIC
        assert np.array_equal(back.values, traj_periodic.values)
        assert back.mesh == traj_periodic.mesh

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(TrajectoryFormatError) as err:
            read_trajectory(path)
        assert err.value.code == "meta_missing"

    def test_shape_mismatch(self, tmp_path, traj_periodic):
        path = tmp_path / "t.csv"
        write_trajectory(traj_periodic, path)
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        meta["N"] += 1
        (tmp_path / "t.meta.json").write_text(json.dumps(meta))
        with pytest.raises(TrajectoryFormatError) as err:
            read_trajectory(path)
        assert err.value.code == "shape_mismatch"
