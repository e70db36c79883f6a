"""Kernel section families, their factors onto generators, and RKHS inner products.

The estimator works with two kinds of weighted-Laplacian kernel sections
anchored at a space-time node (l, n):

    plain:      a * d1K(x_n, .) + r * d11K(x_n, .)
    convolved:  a * d1(K conv rho_l)(x_n, .) + r * d11(K conv rho_l)(x_n, .)

where a = (d+ rho)_l^n is the forward-differenced density slope and
r = rho_l^n, i.e. the discrete weighted-Laplacian operator applied to the
first kernel slot.  Density convolutions difference the first argument,

    (K conv rho)(x, y) = dx * sum_m K(x - x_m, y) rho_m,

with the same left Riemann rule as the loss functional.

Every finite combination of such sections collapses onto a small set of
*generators* d1^i K(c, .): plain sections use the N grid points as centers,
convolved sections the 2N-1 difference-grid points x_n - x_m.  Each family
is one class, ``PlainSections`` or ``ConvolvedSections``, built from the
same node weights and holding its factor F from node weights to generator
coefficients: ``apply`` and ``apply_t`` give F and F', ``generators`` the
orders and centers of its columns, and ``frobenius_sq`` the closed-form
norm of its row-scaled factor.  The estimator factors its Gram matrices
through the same families; the band that streams F2's rows into its
Woodbury core is its own, laid out from ``r_rev``.  RkhsFunction stores
that reduced form, which makes evaluation and inner products cheap
(pairwise mixed partials between generators) even when thousands of
sections are combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import KernelError, SmoothKernel
from .mesh import difference_grid

_ORDER_AXIS = (1, 2)  # slot orders carried by a weighted-Laplacian section


@dataclass
class _SectionFamily:
    """Node weights of one section family: node (l, n) carries the density
    slope a[l, n] and the density r[l, n]."""

    a: np.ndarray   # (L, N) density slopes
    r: np.ndarray   # (L, N) densities; row l is also the convolution weight
    x: np.ndarray   # (N,) grid points
    dx: float


class PlainSections(_SectionFamily):
    """The plain sections and their factor F1 (nodes x 2N) onto the
    generators d1K(x_n, .) and d11K(x_n, .): row (l, n) holds a and r in
    columns n and N + n, so ``apply`` is a broadcast and ``apply_t`` two
    column sums.  F1 is not formed.
    """

    def generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and centers of F1's columns."""
        return np.repeat(_ORDER_AXIS, self.x.size), np.tile(self.x, 2)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """F1 @ y for y of shape (2N,); flattened time-major."""
        y1, y2 = np.split(y, 2)
        return (self.a * y1 + self.r * y2).ravel()

    def apply_t(self, u: np.ndarray) -> np.ndarray:
        """F1' @ u for node weights u of shape (L*N,) or (L, N)."""
        u2 = u.reshape(self.a.shape)
        return np.concatenate([np.einsum("ln,ln->n", self.a, u2),
                               np.einsum("ln,ln->n", self.r, u2)])

    def frobenius_sq(self, w: np.ndarray) -> float:
        """|diag(sqrt(w)) F1|_F^2 for row weights w of shape (L, N)."""
        return float((w * (self.a**2 + self.r**2)).sum())


class ConvolvedSections(_SectionFamily):
    """The convolved sections and their factor F2 (nodes x (4N-2)) onto the
    generators d1^i K(c, .) at the 2N-1 difference-grid centers: row (l, n)
    is dx (a, r) times the density row r_l read backwards from
    difference-grid offset n.  So ``apply`` of a vector takes one matmul of
    the reversed densities against the Hankel matrix of its coefficients,
    and ``apply_t`` one matmul over the grid nodes.  F2 is not formed.
    The reversed densities are copied once per family (``r_rev``), not
    once per apply.
    """

    @cached_property
    def r_rev(self) -> np.ndarray:
        """The densities with each time row reversed, C-contiguous."""
        return np.ascontiguousarray(self.r[:, ::-1])

    def generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and centers of F2's columns."""
        N = self.x.size
        return np.repeat(_ORDER_AXIS, 2 * N - 1), np.tile(difference_grid(N, self.dx), 2)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """F2 @ y for y of shape (4N-2,); flattened time-major.

        One matmul of the reversed densities against the N x N Hankel
        matrices H[m, n] = y[n + m] of its two halves.
        """
        N = self.x.size
        yh = y.reshape(2, 2 * N - 1)
        hankel = np.concatenate([sliding_window_view(yh[0], N),
                                 sliding_window_view(yh[1], N)], axis=1)
        win = self.r_rev @ hankel
        return (self.dx * (self.a * win[:, :N] + self.r * win[:, N:])).ravel()

    def apply_t(self, u: np.ndarray) -> np.ndarray:
        """F2' @ u for node weights u of shape (L*N,) or (L, N).

        One matmul over the grid nodes, then a sum along the anti-diagonals:
        node n's window lands reversed on difference-grid offsets
        n .. n + N - 1.
        """
        L, N = self.a.shape
        du = self.dx * u.reshape(L, N)
        windows = np.concatenate([self.a * du, self.r * du], axis=1).T @ self.r
        offsets = (np.arange(N)[:, None] + np.arange(N - 1, -1, -1)).ravel()
        return np.concatenate([
            np.bincount(offsets, weights=half.ravel(), minlength=2 * N - 1)
            for half in np.split(windows, 2)])

    def frobenius_sq(self, w: np.ndarray) -> float:
        """|diag(sqrt(w)) F2|_F^2 for row weights w of shape (L, N): row
        (l, n) has squared norm dx^2 (a^2 + r^2) |r_l|^2."""
        rows = w * (self.a**2 + self.r**2)
        return float(self.dx**2 * rows.sum(axis=1) @ (self.r**2).sum(axis=1))


class RkhsFunction:
    """Weighted combination of kernel sections, stored in generator form.

    Generators are the functions d1^order K(center, .); ``orders``,
    ``centers`` and ``coeffs`` are parallel arrays describing the
    combination.  The raw constructor takes that generator form;
    ``from_points`` reduces point evaluations onto it, and the estimator
    builds its sections through the section families.
    """

    def __init__(self, kernel: SmoothKernel, orders: np.ndarray,
                 centers: np.ndarray, coeffs: np.ndarray):
        orders = np.asarray(orders, dtype=int)
        centers = np.asarray(centers, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        if not orders.shape == centers.shape == coeffs.shape:
            raise ValueError("orders, centers, coeffs must be parallel 1-D arrays")
        self.kernel = kernel
        self.orders = orders
        self.centers = centers
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_points(cls, kernel: SmoothKernel, centers, weights) -> "RkhsFunction":
        """sum_i w_i K(z_i, .)"""
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if centers.shape != weights.shape:
            raise ValueError("centers and weights must have equal length")
        return cls(kernel, np.zeros_like(centers, dtype=int), centers, weights)

    # -- evaluation and algebra ----------------------------------------------

    def value(self, x, order: int = 0):
        """Evaluate the function (or its order-th derivative) at x."""
        return self._generator_sum(x, order, absolute=False)

    def magnitude(self, x, order: int = 0):
        """sum_g |c_g| S_g(x), S_g the size of the terms of the generator
        d^order g(x) (``SmoothKernel.eval(..., absolute=True)``): the size of
        the terms ``value`` sums, which sets the scale of its roundoff."""
        return self._generator_sum(x, order, absolute=True)

    def _generator_sum(self, x, order: int, absolute: bool):
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, ()), dtype=float)
        for slot in np.unique(self.orders):
            mask = self.orders == slot
            vals = self.kernel.eval(int(slot), order, self.centers[mask], x[..., None],
                                    absolute=absolute)
            coeffs = np.abs(self.coeffs[mask]) if absolute else self.coeffs[mask]
            out = out + vals @ coeffs
        return float(out) if np.ndim(out) == 0 else out

    def __call__(self, x, order: int = 0):
        return self.value(x, order=order)

    def combine(self, other: "RkhsFunction", alpha: float = 1.0) -> "RkhsFunction":
        """self + alpha * other (same kernel required)."""
        _require_same_kernel(self.kernel, other.kernel)
        return RkhsFunction(
            self.kernel,
            np.concatenate([self.orders, other.orders]),
            np.concatenate([self.centers, other.centers]),
            np.concatenate([self.coeffs, alpha * other.coeffs]),
        )

    def scaled(self, alpha: float) -> "RkhsFunction":
        return RkhsFunction(self.kernel, self.orders, self.centers,
                            alpha * self.coeffs)

    def __add__(self, other):
        return self.combine(other)

    def __sub__(self, other):
        return self.combine(other, alpha=-1.0)

    def __mul__(self, alpha: float):
        return self.scaled(alpha)

    __rmul__ = __mul__


def _require_same_kernel(k1: SmoothKernel, k2: SmoothKernel) -> None:
    if not k1.same_kernel(k2):
        raise KernelError(f"kernel mismatch: {k1} vs {k2}")


def rkhs_inner(f: RkhsFunction, g: RkhsFunction) -> float:
    """RKHS inner product via pairwise mixed partials of the generators."""
    _require_same_kernel(f.kernel, g.kernel)
    if f.coeffs.size == 0 or g.coeffs.size == 0:
        return 0.0
    total = 0.0
    for oi in np.unique(f.orders):
        mi = f.orders == oi
        for oj in np.unique(g.orders):
            mj = g.orders == oj
            block = f.kernel.eval(int(oi), int(oj),
                                  f.centers[mi][:, None], g.centers[mj][None, :])
            total += f.coeffs[mi] @ block @ g.coeffs[mj]
    return float(total)


def rkhs_norm_sq(f: RkhsFunction) -> float:
    """Squared RKHS norm <f, f>."""
    return rkhs_inner(f, f)


def rkhs_norm(f: RkhsFunction) -> float:
    return float(np.sqrt(max(rkhs_norm_sq(f), 0.0)))
