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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import KernelError, SmoothKernel
from .mesh import DensityTrajectory

PLAIN = "plain"
CONVOLVED = "convolved"

_ORDER_AXIS = (1, 2)  # slot orders carried by a weighted-Laplacian section


def difference_grid(N: int, dx: float) -> np.ndarray:
    """Centers x_n - x_m of convolved sections: d*dx for d = -(N-1)..N-1."""
    return dx * np.arange(-(N - 1), N)


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
    matrix takes one matmul of the reversed densities per grid node against
    a window of N generator rows, of a vector one matmul against the Hankel
    matrix of its coefficients, and ``convolved_t`` one matmul over the grid
    nodes that carry weight.  Neither factor is formed.  The ``*_rows``
    applies form the rows of a range of grid nodes only, so a caller can
    stream F @ Y through one buffer.
    """

    a: np.ndarray   # (L, N) density slopes
    r: np.ndarray   # (L, N) densities; row l is also the convolution weight
    x: np.ndarray   # (N,) grid points
    dx: float

    @classmethod
    def of(cls, traj: DensityTrajectory) -> "SectionMap":
        """The map over every node of a trajectory."""
        return cls(traj.dx_plus(), traj.values, traj.mesh.x, traj.mesh.dx)

    def plain_generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and centers of F1's columns."""
        return np.repeat(_ORDER_AXIS, self.x.size), np.tile(self.x, 2)

    def convolved_generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and centers of F2's columns."""
        N = self.x.size
        return np.repeat(_ORDER_AXIS, 2 * N - 1), np.tile(difference_grid(N, self.dx), 2)

    def plain(self, Y: np.ndarray) -> np.ndarray:
        """F1 @ Y for Y of shape (2N,) or (2N, k); flattened time-major."""
        L, N = self.a.shape
        out = np.empty((L, N, Y.size // (2 * N)))
        self.plain_rows(Y, slice(None), out)
        return out.reshape((L * N,) + Y.shape[1:])

    def plain_rows(self, Y: np.ndarray, nodes: slice, out: np.ndarray) -> None:
        """Rows of F1 @ Y at the grid nodes ``nodes``, every time row, into
        ``out`` of shape (L, nodes, k)."""
        Yh = Y.reshape(2, self.x.size, -1)
        np.multiply(self.a[:, nodes, None], Yh[0, nodes], out=out)
        out += self.r[:, nodes, None] * Yh[1, nodes]

    def plain_t(self, u: np.ndarray) -> np.ndarray:
        """F1' @ u for node weights u of shape (L*N,) or (L, N)."""
        u2 = u.reshape(self.a.shape)
        return np.concatenate([np.einsum("ln,ln->n", self.a, u2),
                               np.einsum("ln,ln->n", self.r, u2)])

    def convolved(self, Y: np.ndarray) -> np.ndarray:
        """F2 @ Y for Y of shape (4N-2,) or (4N-2, k); flattened time-major.

        A vector Y takes one matmul of the reversed densities against the
        N x N Hankel matrices H[m, n] = Y[n + m] of its two halves.
        """
        L, N = self.a.shape
        if Y.ndim == 2:
            out = np.empty((L, N, Y.shape[1]))
            self.convolved_rows(Y, slice(None), out)
            return out.reshape(L * N, -1)
        Yh = Y.reshape(2, 2 * N - 1)
        hankel = np.concatenate([sliding_window_view(Yh[0], N),
                                 sliding_window_view(Yh[1], N)], axis=1)
        win = np.ascontiguousarray(self.r[:, ::-1]) @ hankel
        return (self.dx * (self.a * win[:, :N] + self.r * win[:, N:])).ravel()

    def convolved_rows(self, Y: np.ndarray, nodes: slice, out: np.ndarray) -> None:
        """Rows of F2 @ Y at the grid nodes ``nodes``, every time row, into
        ``out`` of shape (L, nodes, k): one window matmul per grid node."""
        L, N = self.a.shape
        Yh = Y.reshape(2, 2 * N - 1, -1)
        k = Yh.shape[2]
        Y_ab = np.concatenate([Yh[0], Yh[1]], axis=1)
        rho_rev = np.ascontiguousarray(self.r[:, ::-1])
        wa, wr = self.dx * self.a, self.dx * self.r
        for j, n in enumerate(range(N)[nodes]):
            win = rho_rev @ Y_ab[n:n + N]
            np.multiply(wa[:, n, None], win[:, :k], out=out[:, j])
            out[:, j] += wr[:, n, None] * win[:, k:]

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
    combination.  The raw constructor takes that generator form; the
    classmethod constructors reduce points and sections onto it.
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
    def zero(cls, kernel: SmoothKernel) -> "RkhsFunction":
        e = np.empty(0)
        return cls(kernel, e.astype(int), e, e)

    @classmethod
    def from_points(cls, kernel: SmoothKernel, centers, weights) -> "RkhsFunction":
        """sum_i w_i K(z_i, .)"""
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if centers.shape != weights.shape:
            raise ValueError("centers and weights must have equal length")
        return cls(kernel, np.zeros_like(centers, dtype=int), centers, weights)

    @classmethod
    def from_plain_sections(cls, kernel: SmoothKernel,
                            traj: DensityTrajectory | SectionMap,
                            nodes, weights) -> "RkhsFunction":
        """sum over nodes (l, n) of w * [a d1K(x_n,.) + r d11K(x_n,.)].

        ``nodes`` is a sequence of 0-based (l, n) pairs.  ``traj`` may be the
        trajectory's ``SectionMap``, which callers building many sections
        construct once.
        """
        sections = _section_map(traj)
        u = _node_weights(nodes, weights, sections.a.shape)
        return cls(kernel, *sections.plain_generators(), sections.plain_t(u))

    @classmethod
    def from_convolved_sections(cls, kernel: SmoothKernel,
                                traj: DensityTrajectory | SectionMap,
                                nodes, weights) -> "RkhsFunction":
        """Convolved analogue; centers live on the difference grid."""
        sections = _section_map(traj)
        u = _node_weights(nodes, weights, sections.a.shape)
        return cls(kernel, *sections.convolved_generators(), sections.convolved_t(u))

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


def _section_map(traj: DensityTrajectory | SectionMap) -> SectionMap:
    return traj if isinstance(traj, SectionMap) else SectionMap.of(traj)


def _node_weights(nodes, weights, shape: tuple[int, int]) -> np.ndarray:
    """Weights of 0-based (l, n) nodes summed onto the (L, N) grid."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=int))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if nodes.shape[1] != 2 or nodes.shape[0] != weights.shape[0]:
        raise ValueError("nodes must be (m, 2) index pairs matching weights")
    ls, ns = nodes[:, 0], nodes[:, 1]
    if np.any(ls < 0) or np.any(ls >= shape[0]):
        raise IndexError("time index outside trajectory")
    if np.any(ns < 0) or np.any(ns >= shape[1]):
        raise IndexError("space index outside trajectory")
    u = np.zeros(shape)
    np.add.at(u, (ls, ns), weights)
    return u


def _require_same_kernel(k1: SmoothKernel, k2: SmoothKernel) -> None:
    if not k1.same_kernel(k2):
        raise KernelError(f"kernel mismatch: {k1} vs {k2}")


def diff_section(kernel: SmoothKernel, traj: DensityTrajectory | SectionMap,
                 l: int, n: int, kind: str = PLAIN) -> RkhsFunction:
    """Single weighted-Laplacian kernel section anchored at node (l, n)."""
    if kind == PLAIN:
        return RkhsFunction.from_plain_sections(kernel, traj, [(l, n)], [1.0])
    if kind == CONVOLVED:
        return RkhsFunction.from_convolved_sections(kernel, traj, [(l, n)], [1.0])
    raise ValueError(f"unknown section kind {kind!r}")


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


def rkhs_norm_sq(f: RkhsFunction, g: RkhsFunction | None = None) -> float:
    """Inner product <f, g>; the squared norm when g is omitted."""
    return rkhs_inner(f, f if g is None else g)


def rkhs_norm(f: RkhsFunction) -> float:
    return float(np.sqrt(max(rkhs_norm_sq(f), 0.0)))
