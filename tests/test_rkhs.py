import numpy as np
import pytest

from wgflows.kernels import KernelError, gaussian_kernel, imq_kernel
from wgflows.mesh import PERIODIC, SpaceTimeMesh, DensityTrajectory
from wgflows.rkhs import (
    CONVOLVED,
    PLAIN,
    RkhsFunction,
    diff_section,
    rkhs_inner,
    rkhs_norm,
    rkhs_norm_sq,
)

from conftest import apply_flow_operator


@pytest.fixture
def kernel():
    return gaussian_kernel(0.3)


class TestConvolution:
    def test_uniform_density_constant_in_x(self):
        # periodized kernel: convolving over a full period kills x-dependence
        kernel = gaussian_kernel(0.2)
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 64, 1)
        traj = DensityTrajectory(mesh, np.ones((1, 64)), boundary_mode=PERIODIC)

        def wrapped(x, y):
            return sum(kernel.eval(0, 0, x + k, y) for k in range(-3, 4))

        vals = [mesh.dx * sum(wrapped(x - xm, 0.5) for xm in mesh.x)
                for x in np.linspace(0.0, 1.0, 20)]
        assert np.max(np.abs(np.diff(vals))) < 1e-10


class TestSections:
    def test_constant_trajectory_kills_first_term(self, kernel):
        mesh = SpaceTimeMesh(0.0, 1.0, 1.0, 12, 1)
        c = 1.0
        traj = DensityTrajectory(mesh, np.full((1, 12), c), boundary_mode=PERIODIC)
        s = diff_section(kernel, traj, 0, 4, PLAIN)
        xn = mesh.x[4]
        ys = np.linspace(0, 1, 7)
        assert np.allclose(s.value(ys), c * kernel.eval(2, 0, xn, ys), atol=1e-13)

    def test_section_value_composition(self, kernel, traj_truncated):
        l, n = 1, 3
        s = diff_section(kernel, traj_truncated, l, n, PLAIN)
        a = traj_truncated.dx_plus()[l, n]
        r = traj_truncated.values[l, n]
        xn = traj_truncated.mesh.x[n]
        y = xn  # evaluate at the anchor
        expected = a * kernel.eval(1, 0, xn, y) + r * kernel.eval(2, 0, xn, y)
        assert s.value(y) == pytest.approx(expected, abs=1e-12)

    def test_weights_scale_linearly(self, kernel, traj_truncated):
        s = diff_section(kernel, traj_truncated, 0, 2, PLAIN)
        ys = np.linspace(0, 1, 9)
        assert np.allclose((2.5 * s).value(ys), 2.5 * s.value(ys))

    def test_unknown_kind(self, kernel, traj_truncated):
        with pytest.raises(ValueError):
            diff_section(kernel, traj_truncated, 0, 0, "weird")


class TestInnerProducts:
    def test_point_section_norm_is_kernel_diagonal(self, kernel):
        f = RkhsFunction.from_points(kernel, [0.4], [1.0])
        assert rkhs_norm_sq(f) == pytest.approx(kernel.eval(0, 0, 0.4, 0.4))

    def test_zero_weights(self, kernel):
        f = RkhsFunction.from_points(kernel, [0.4], [0.0])
        assert rkhs_norm_sq(f) == 0.0

    def test_kernel_mismatch_raises(self, kernel):
        g = RkhsFunction.from_points(imq_kernel(0.3, beta=1.5), [0.1], [1.0])
        f = RkhsFunction.from_points(kernel, [0.4], [1.0])
        with pytest.raises(KernelError):
            rkhs_inner(f, g)

    def test_bilinear_symmetry(self, kernel, traj_periodic):
        f = RkhsFunction.from_plain_sections(kernel, traj_periodic,
                                             [(0, 1), (2, 5)], [0.3, -1.1])
        g = RkhsFunction.from_points(kernel, [0.2, 0.9], [1.0, 0.4])
        assert rkhs_inner(f, g) == pytest.approx(rkhs_inner(g, f))

    def test_mixed_section_gram_psd(self, kernel, traj_periodic):
        rng = np.random.default_rng(5)
        sections = [diff_section(kernel, traj_periodic, int(l), int(n), kind)
                    for l, n, kind in zip(rng.integers(0, 3, 8),
                                          rng.integers(0, 8, 8),
                                          [PLAIN, CONVOLVED] * 4)]
        G = np.array([[rkhs_inner(a, b) for b in sections] for a in sections])
        eig = np.linalg.eigvalsh(G)
        assert eig[0] >= -1e-8 * max(eig[-1], 1.0)

    def test_finite_difference_laplacian_oracle(self, kernel, traj_periodic):
        # inner product of two plain sections vs a finite-difference oracle:
        # mixed tensor stencils on plain kernel values, Richardson-refined
        l1, n1, l2, n2 = 0, 2, 2, 6
        s1 = diff_section(kernel, traj_periodic, l1, n1, PLAIN)
        s2 = diff_section(kernel, traj_periodic, l2, n2, PLAIN)
        mesh = traj_periodic.mesh
        a1 = traj_periodic.dx_plus()[l1, n1]
        r1 = traj_periodic.values[l1, n1]
        a2 = traj_periodic.dx_plus()[l2, n2]
        r2 = traj_periodic.values[l2, n2]
        x1, x2 = mesh.x[n1], mesh.x[n2]
        stencils = {1: {-1: -0.5, 1: 0.5}, 2: {-1: 1.0, 0: -2.0, 1: 1.0}}

        def mixed(i, j, h):
            return sum(
                ci * cj * kernel.eval(0, 0, x1 + p * h, x2 + q * h)
                for p, ci in stencils[i].items()
                for q, cj in stencils[j].items()) / h ** (i + j)

        def richardson(i, j, h=4e-3):
            return (4.0 * mixed(i, j, h / 2) - mixed(i, j, h)) / 3.0

        fd = (a1 * a2 * richardson(1, 1) + a1 * r2 * richardson(1, 2)
              + r1 * a2 * richardson(2, 1) + r1 * r2 * richardson(2, 2))
        assert rkhs_inner(s1, s2) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestReproducingProperty:
    def test_plain_identity(self, kernel, traj_periodic):
        rng = np.random.default_rng(7)
        f = RkhsFunction.from_plain_sections(
            kernel, traj_periodic,
            [(0, 2), (2, 7), (1, 11)], rng.standard_normal(3))
        for l, n in [(2, 5), (0, 0), (2, 11)]:
            s = diff_section(kernel, traj_periodic, l, n, PLAIN)
            lhs = rkhs_inner(f, s)
            rhs = apply_flow_operator(traj_periodic, f, None, l, n)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_convolved_identity(self, kernel, traj_periodic):
        rng = np.random.default_rng(8)
        f = RkhsFunction.from_points(kernel, rng.uniform(0, 1, 4),
                                     rng.standard_normal(4))
        for l, n in [(1, 3), (2, 9), (0, 6)]:
            s = diff_section(kernel, traj_periodic, l, n, CONVOLVED)
            lhs = rkhs_inner(f, s)
            rhs = apply_flow_operator(traj_periodic, None, f, l, n)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestEvaluationAndAlgebra:
    def test_derivative_evaluation_fd(self, kernel, traj_periodic):
        f = RkhsFunction.from_convolved_sections(kernel, traj_periodic,
                                                 [(0, 3), (1, 8)], [1.0, -0.7])
        h = 1e-6
        for x in (0.2, 0.55):
            fd = (f.value(x + h) - f.value(x - h)) / (2 * h)
            assert f.value(x, order=1) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_magnitude_sums_term_sizes(self, kernel, traj_periodic):
        # a section has generators of orders 1 and 2; f - f keeps both
        # copies of them, which cancel
        g = RkhsFunction.from_convolved_sections(kernel, traj_periodic, [(0, 3)], [1.0])
        f = g - g
        xs = np.linspace(0, 1, 7)
        terms = np.array([abs(c) * np.abs(kernel.eval(int(o), 1, z, xs))
                          for o, z, c in zip(f.orders, f.centers, f.coeffs)])
        assert np.allclose(f.magnitude(xs, order=1), terms.sum(axis=0), rtol=1e-14)
        assert np.all(f.magnitude(xs, order=1) > 0)
        assert f.value(xs, order=1) == pytest.approx(np.zeros(7), abs=1e-12)

    def test_combine_and_scale(self, kernel):
        f = RkhsFunction.from_points(kernel, [0.2], [1.0])
        g = RkhsFunction.from_points(kernel, [0.8], [2.0])
        xs = np.linspace(0, 1, 5)
        assert np.allclose((f + g).value(xs), f.value(xs) + g.value(xs))
        assert np.allclose((f - g).value(xs), f.value(xs) - g.value(xs))
        assert np.allclose((3.0 * f).value(xs), 3.0 * f.value(xs))

    def test_norm_of_difference_via_inner(self, kernel):
        f = RkhsFunction.from_points(kernel, [0.2, 0.5], [1.0, -1.0])
        g = RkhsFunction.from_points(kernel, [0.5], [0.5])
        d = f - g
        expect = rkhs_norm_sq(f) - 2 * rkhs_inner(f, g) + rkhs_norm_sq(g)
        assert rkhs_norm_sq(d) == pytest.approx(expect, abs=1e-12)
        assert rkhs_norm(d) == pytest.approx(np.sqrt(max(expect, 0.0)))
