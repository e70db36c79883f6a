"""Kernel sections, the section map onto generators, and RKHS inner products.

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
convolved sections the 2N-1 difference-grid points x_n - x_m.  The linear
map from node weights to generator coefficients, and its transpose, is
``SectionMap``; the estimator factors its Gram matrices through the same
map.  RkhsFunction stores that reduced form, which makes evaluation and
inner products cheap (pairwise mixed partials between generators) even when
thousands of sections are combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import KernelError, SmoothKernel
from .mesh import difference_grid

PLAIN = "plain"
CONVOLVED = "convolved"

_ORDER_AXIS = (1, 2)  # slot orders carried by a weighted-Laplacian section


@dataclass
class SectionMap:
    """Linear map from node weights to the generator coefficients of sections.

    Node (l, n) carries the density slope a[l, n] and density r[l, n].  Its
    plain section has coefficients a and r on the generators d1K(x_n, .) and
    d11K(x_n, .), so row (l, n) of the plain factor F1 (nodes x 2N) holds a
    and r in columns n and N + n: ``plain`` is a broadcast and ``plain_t``
    two column sums.  Its convolved section reduces over the difference grid:
    row (l, n) of F2 (nodes x (4N-2)) is dx (a, r) times the density row r_l
    read backwards from difference-grid offset n, so ``convolved`` of a
    vector takes one matmul of the reversed densities against the Hankel
    matrix of its coefficients, and ``convolved_t`` one matmul over the grid
    nodes that carry weight.  Neither factor is formed.  ``convolved_blocks``
    streams the rows of diag(scale) F2 @ Y for a matrix Y, a block of grid
    nodes per pair of matmuls, so a caller can consume them through one
    buffer.  The reversed densities are copied once per map (``r_rev``), not
    once per apply.
    """

    a: np.ndarray   # (L, N) density slopes
    r: np.ndarray   # (L, N) densities; row l is also the convolution weight
    x: np.ndarray   # (N,) grid points
    dx: float

    @cached_property
    def r_rev(self) -> np.ndarray:
        """The densities with each time row reversed, C-contiguous."""
        return np.ascontiguousarray(self.r[:, ::-1])

    def plain_generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and centers of F1's columns."""
        return np.repeat(_ORDER_AXIS, self.x.size), np.tile(self.x, 2)

    def convolved_generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and centers of F2's columns."""
        N = self.x.size
        return np.repeat(_ORDER_AXIS, 2 * N - 1), np.tile(difference_grid(N, self.dx), 2)

    def plain(self, y: np.ndarray) -> np.ndarray:
        """F1 @ y for y of shape (2N,); flattened time-major."""
        y1, y2 = np.split(y, 2)
        return (self.a * y1 + self.r * y2).ravel()

    def plain_t(self, u: np.ndarray) -> np.ndarray:
        """F1' @ u for node weights u of shape (L*N,) or (L, N)."""
        u2 = u.reshape(self.a.shape)
        return np.concatenate([np.einsum("ln,ln->n", self.a, u2),
                               np.einsum("ln,ln->n", self.r, u2)])

    def convolved(self, y: np.ndarray) -> np.ndarray:
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

    def convolved_blocks(self, Y: np.ndarray, scale: np.ndarray, width: int):
        """Rows of diag(scale) F2 @ Y for Y of shape (4N-2, k) and row scales
        of shape (L, N), one block of ``width`` grid nodes at a time.

        Row (l, n) is dx scale (a r_l^rev @ Y1[n:n+N] + r r_l^rev @ Y2[n:n+N])
        at (l, n), Y1 and Y2 the order halves of Y.  For a block of nodes
        n0 .. n0+b-1 one band operand, whose row (j, l) holds r_l^rev at
        column offset j and which is laid out once per call since it does
        not depend on n0, multiplies the rows of Y1 and of Y2 from n0 on;
        one pass then combines each row's two window products with its
        factors dx scale (a, r).  Yields (nodes, rows) with ``nodes`` a slice
        of grid nodes and ``rows`` of shape (nodes, L, k), node-major,
        written into one reused buffer that the consumer may overwrite
        before the next block.
        """
        L, N = self.r.shape
        k = Y.shape[1]
        Y1, Y2 = np.split(Y, 2)
        band = np.zeros((width * L, N + width - 1))
        for j in range(width):
            band[j * L:(j + 1) * L, j:j + N] = self.r_rev
        factors = np.stack([self.a.T, self.r.T], axis=2) * (self.dx * scale.T)[:, :, None]
        windows = np.empty((width * L, 2, k))
        buffer = np.empty((width * L, k))
        for n0 in range(0, N, width):
            b = min(width, N - n0)
            # the last block's band ends at row 2N - 2 of the halves
            left = band[:b * L, :2 * N - 1 - n0]
            np.matmul(left, Y1[n0:n0 + left.shape[1]], out=windows[:b * L, 0])
            np.matmul(left, Y2[n0:n0 + left.shape[1]], out=windows[:b * L, 1])
            rows = buffer[:b * L]
            np.einsum("rh,rhk->rk", factors[n0:n0 + b].reshape(b * L, 2), windows[:b * L],
                      out=rows)
            yield slice(n0, n0 + b), rows.reshape(b, L, k)

    def convolved_t(self, u: np.ndarray) -> np.ndarray:
        """F2' @ u for node weights u of shape (L*N,) or (L, N).

        One matmul over the grid nodes that carry weight, then a sum along
        the anti-diagonals: node n's window lands reversed on difference-grid
        offsets n .. n + N - 1.  A single section costs O(L N), not O(L N^2).
        """
        L, N = self.a.shape
        u2 = u.reshape(L, N)
        cols = np.flatnonzero(np.any(u2, axis=0))
        du = self.dx * u2[:, cols]
        windows = np.concatenate([self.a[:, cols] * du, self.r[:, cols] * du],
                                 axis=1).T @ self.r
        offsets = (cols[:, None] + np.arange(N - 1, -1, -1)).ravel()
        return np.concatenate([
            np.bincount(offsets, weights=half.ravel(), minlength=2 * N - 1)
            for half in np.split(windows, 2)])


class RkhsFunction:
    """Weighted combination of kernel sections, stored in generator form.

    Generators are the functions d1^order K(center, .); ``orders``,
    ``centers`` and ``coeffs`` are parallel arrays describing the
    combination.  The raw constructor takes that generator form;
    ``from_points`` reduces point evaluations onto it, and the estimator
    builds its sections through ``SectionMap``.
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
        """sum_g |c_g d^order g(x)| over the generators g: the size of the
        terms ``value`` sums, which sets the scale of its roundoff."""
        return self._generator_sum(x, order, absolute=True)

    def _generator_sum(self, x, order: int, absolute: bool):
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, ()), dtype=float)
        for slot in np.unique(self.orders):
            mask = self.orders == slot
            vals = self.kernel.eval(int(slot), order,
                                    self.centers[mask], x[..., None])
            coeffs = self.coeffs[mask]
            if absolute:
                vals, coeffs = np.abs(vals), np.abs(coeffs)
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
