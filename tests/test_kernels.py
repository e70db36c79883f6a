import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_config, kernel_gram, reference_eval, reference_profile
from wgflows.cli import ConfigError, build_parser, kernel_from_config, load_config
from wgflows.kernels import KernelError, SmoothKernel, gaussian_kernel, imq_kernel

KERNELS = [
    gaussian_kernel(1.0),
    gaussian_kernel(0.5),
    imq_kernel(0.5, beta=1.3),
    imq_kernel(0.8, beta=2.0),
]


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(KernelError):
            SmoothKernel("gaussian", -0.1)
        with pytest.raises(KernelError):
            SmoothKernel("imq", 0.5, beta=0.4)
        with pytest.raises(KernelError):
            SmoothKernel("imq", 0.5)
        with pytest.raises(KernelError):
            SmoothKernel("matern", 0.5)
        with pytest.raises(KernelError):
            SmoothKernel("gaussian", 0.5, beta=1.0)
        # a lengthscale and a beta are finite, and NaN fails no "<= 0" test
        for lengthscale, beta in ((np.nan, None), (np.inf, None), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(KernelError):
                SmoothKernel("gaussian" if beta is None else "imq", lengthscale, beta=beta)

    def test_config_round_trip(self):
        for k in KERNELS:
            back = kernel_from_config(kernel_config(k), "kernel")
            assert back.same_kernel(k)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"family": "imq", "lengthscale": 0.4, "beta": 1.5}))
        cfg = load_config(build_parser().parse_args(["estimate", "--kernel1", str(path)]))
        k = kernel_from_config(cfg["kernel1"], "kernel1")
        assert k.family == "imq" and k.beta == 1.5

    def test_malformed_config(self):
        with pytest.raises(ConfigError, match="kernel.lengthscale"):
            kernel_from_config({"family": "gaussian"}, "kernel")


class TestPointwiseValues:
    def test_diagonal_is_one(self):
        k = gaussian_kernel(1.0)
        assert k.eval(0, 0, 0.3, 0.3) == pytest.approx(1.0)

    def test_odd_derivative_vanishes_on_diagonal(self):
        k = gaussian_kernel(1.0)
        assert k.eval(1, 0, 0.7, 0.7) == pytest.approx(0.0)

    def test_symmetry(self):
        for k in KERNELS:
            assert k.eval(0, 0, 0.2, -0.4) == pytest.approx(k.eval(0, 0, -0.4, 0.2))

    def test_unsupported_order(self):
        with pytest.raises(KernelError):
            gaussian_kernel(1.0).eval(4, 0, 0.0, 0.0)


class TestDerivatives:
    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    def test_second_derivative_fd_oracle(self, kernel):
        # central finite difference of the plain kernel, step 1e-4
        h = 1e-4
        x, y = 0.0, 0.3
        fd = (kernel.eval(0, 0, x + h, y) - 2 * kernel.eval(0, 0, x, y)
              + kernel.eval(0, 0, x - h, y)) / h**2
        an = kernel.eval(2, 0, x, y)
        assert an == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    @pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (1, 1), (2, 1), (3, 0),
                                     (2, 2), (3, 3)])
    def test_mixed_partials_fd_oracle(self, kernel, i, j):
        rng = np.random.default_rng(i * 7 + j)
        h = 1e-5 * kernel.lengthscale
        for x, y in rng.uniform(-1, 1, (4, 2)):
            if i > 0:
                fd = (kernel.eval(i - 1, j, x + h, y)
                      - kernel.eval(i - 1, j, x - h, y)) / (2 * h)
            else:
                fd = (kernel.eval(i, j - 1, x, y + h)
                      - kernel.eval(i, j - 1, x, y - h)) / (2 * h)
            an = kernel.eval(i, j, x, y)
            assert an == pytest.approx(fd, rel=2e-6, abs=1e-7)

    def test_broadcasting(self):
        k = imq_kernel(0.5, beta=1.5)
        xs = np.linspace(-1, 1, 5)
        mat = kernel_gram(k, xs, xs, i=1, j=2)
        assert mat.shape == (5, 5)
        assert mat[1, 3] == pytest.approx(k.eval(1, 2, xs[1], xs[3]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6),
       lengthscale=st.floats(0.2, 2.0),
       n=st.integers(5, 30))
def test_positive_semidefinite(seed, lengthscale, n):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2, 2, n)
    for k in (gaussian_kernel(lengthscale), imq_kernel(lengthscale, beta=1.1)):
        eig = np.linalg.eigvalsh(kernel_gram(k, z))
        assert eig[0] >= -1e-8 * max(eig[-1], 1.0)


def test_smoothness_budget_c6():
    # both families expose profile derivatives through total order 6,
    # matching the regularity the error analysis assumes
    for k in KERNELS:
        for order in range(7):
            val = k.profile(order, 0.37)
            assert np.isfinite(val)
        assert np.isfinite(k.sup_norm_c4(0.0, 1.0))


def test_sup_norm_c4_bounds_samples():
    k = gaussian_kernel(0.3)
    bound = k.sup_norm_c4(0.0, 1.0)
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(0, 1, (20, 2)):
        for i in range(3):
            for j in range(3 - i):
                assert abs(k.eval(i, j, x, y)) <= bound * (1 + 1e-12)


finite = st.floats(-8.0, 8.0, allow_nan=False)
kernels = st.one_of(
    st.builds(gaussian_kernel, st.floats(0.05, 3.0)),
    st.builds(imq_kernel, st.floats(0.05, 3.0), st.floats(0.51, 4.0)),
)
shapes = st.lists(st.integers(1, 5), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(kernel=kernels, order=st.integers(0, 6), shape=shapes,
       seed=st.integers(0, 2**32 - 1), scalar=finite)
def test_profile_matches_reference_bit_for_bit(kernel, order, shape, seed, scalar):
    """The in-place profile repeats the reference's operations in order."""
    u = 3.0 * np.random.default_rng(seed).standard_normal(shape)
    before = u.copy()
    out = kernel.profile(order, u)
    assert np.array_equal(u, before)           # the caller's u is not written
    assert out.shape == u.shape
    assert np.all(out == reference_profile(kernel, order, u))
    for value in (scalar, np.float64(scalar), np.asarray(scalar)):
        got = kernel.profile(order, value)
        assert type(got) is float
        assert got == reference_profile(kernel, order, value)


@settings(max_examples=300, deadline=None)
@given(kernel=kernels, i=st.integers(0, 3), j=st.integers(0, 3), shape=shapes,
       seed=st.integers(0, 2**32 - 1), x=finite, y=finite)
def test_eval_matches_reference_bit_for_bit(kernel, i, j, shape, seed, x, y):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-3, 3, shape)
    ys = rng.uniform(-3, 3, shape[-1:])
    before = (xs.copy(), ys.copy())
    out = kernel.eval(i, j, xs[..., None], ys)
    assert np.array_equal(xs, before[0]) and np.array_equal(ys, before[1])
    assert np.all(out == reference_eval(kernel, i, j, xs[..., None], ys))
    for args in ((x, y), (np.float64(x), y), (np.asarray(x), np.asarray(y))):
        got = kernel.eval(i, j, *args)
        assert type(got) is float
        assert got == reference_eval(kernel, i, j, *args)
