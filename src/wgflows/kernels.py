"""Smooth translation-invariant Mercer kernels with analytic mixed partials.

Both supported families are radial profiles g of the difference u = x - y,

    gaussian:               g(u) = exp(-u^2 / (2 l^2)),
    inverse multiquadric:   g(u) = (1 + u^2 / l^2)^(-beta),  beta > 1/2,

so every mixed partial reduces to a profile derivative,

    d^i/dx^i d^j/dy^j K(x, y) = (-1)^j g^(i+j)(x - y).

Profile derivatives are produced by exact polynomial recurrences computed
once at construction:

    gaussian:  g^(n)(u) = P_n(u) g(u),          P_{n+1} = P_n' - (u/l^2) P_n,
    imq:       g^(n)(u) = Q_n(u) s(u)^(-beta-n), s(u) = 1 + u^2/l^2,
               Q_{n+1} = Q_n' s - 2 (beta + n) (u/l^2) Q_n.

Both families are C-infinity, comfortably above the C^6 regularity the
derivative-based Gram assembly requires.

A profile is evaluated in place: Horner's rule for the polynomial runs in
one output array, the base factor exp(-u^2 / (2 l^2)) or s(u)^(-beta-n)
in one scratch array, and the sign of an odd y-order is a negation of the
output.  ``eval`` reuses its difference array as the scratch, so a kernel
sum over a (points x generators) block, as ``rkhs.RkhsFunction.value``
forms, allocates two block-sized arrays per call.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

MAX_SLOT_ORDER = 3  # mixed partials available for 0 <= i, j <= 3

GAUSSIAN = "gaussian"
IMQ = "imq"


class KernelError(ValueError):
    """Invalid kernel parameters or unsupported derivative order."""


class SmoothKernel:
    """Evaluable symmetric kernel K(x, y) with mixed partials up to (3, 3)."""

    def __init__(self, family: str, lengthscale: float, beta: float | None = None):
        if not 0 < lengthscale < np.inf:
            raise KernelError(f"lengthscale must be positive and finite, got {lengthscale}")
        if family == GAUSSIAN:
            if beta is not None:
                raise KernelError("gaussian kernel takes no beta exponent")
        elif family == IMQ:
            if beta is None or not 0.5 < beta < np.inf:
                raise KernelError(f"imq kernel needs a finite beta > 1/2, got {beta}")
        else:
            raise KernelError(f"unknown kernel family {family!r}")
        self.family = family
        self.lengthscale = float(lengthscale)
        self.beta = float(beta) if beta is not None else None
        self._polys = self._build_polys(2 * MAX_SLOT_ORDER)

    def _build_polys(self, max_order: int) -> list[np.ndarray]:
        inv_l2 = 1.0 / self.lengthscale**2
        polys = [np.array([1.0])]
        if self.family == GAUSSIAN:
            for _ in range(max_order):
                p = polys[-1]
                polys.append(npoly.polyadd(npoly.polyder(p), -inv_l2 * np.append([0.0], p)))
        else:
            s = np.array([1.0, 0.0, inv_l2])
            for n in range(max_order):
                q = polys[-1]
                term1 = npoly.polymul(npoly.polyder(q), s)
                term2 = -2.0 * (self.beta + n) * inv_l2 * np.append([0.0], q)
                polys.append(npoly.polyadd(term1, term2))
        return polys

    def profile(self, order: int, u: np.ndarray | float) -> np.ndarray | float:
        """n-th derivative of the radial profile g at the difference u."""
        if not 0 <= order <= 2 * MAX_SLOT_ORDER:
            raise KernelError(f"profile derivative order {order} unsupported")
        u = np.asarray(u, dtype=float)
        out = self._profile(order, u, np.empty_like(u))
        return float(out) if out.ndim == 0 else out

    def _profile(self, order: int, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """g^(order)(u) computed in place; ``scratch`` may be ``u`` itself.

        The operations and their order are those of
        ``polyval(u, P_order) * base``, so the values are the same bits.
        The result is a fresh array, or ``scratch`` for order 0.
        """
        coeffs = self._polys[order]
        out = None
        if coeffs.size > 1:
            out = np.multiply(u, coeffs[-1], out=np.empty_like(u))
            out += coeffs[-2]
            for c in coeffs[-3::-1]:
                out *= u
                out += c
        base = np.multiply(u, u, out=scratch)
        if self.family == GAUSSIAN:
            base *= -0.5
            base /= self.lengthscale**2
            np.exp(base, out=base)
        else:
            base /= self.lengthscale**2
            base += 1.0
            if base.ndim:
                base **= -(self.beta + order)
            else:  # a numpy scalar's power is libm's pow, not the array loop's
                base = np.asarray(base[()] ** -(self.beta + order))
        if out is None:
            base *= coeffs[-1]
            return base
        out *= base
        return out

    def eval(self, i: int, j: int, x, y):
        """Mixed partial d_x^i d_y^j K at (x, y); broadcasts over arrays."""
        if not (0 <= i <= MAX_SLOT_ORDER and 0 <= j <= MAX_SLOT_ORDER):
            raise KernelError(f"derivative orders ({i},{j}) outside 0..{MAX_SLOT_ORDER}")
        u = np.asarray(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        out = self._profile(i + j, u, u)
        if j % 2:
            np.negative(out, out=out)
        return float(out) if out.ndim == 0 else out

    def __call__(self, x, y):
        return self.eval(0, 0, x, y)

    def sup_norm_c4(self, lo: float, hi: float, samples: int = 2001) -> float:
        """Grid estimate of max |d^i d^j K| over i+j <= 4 on [lo, hi]^2.

        Differences x - y then range over [lo-hi, hi-lo]; the profile view
        makes the 2-D sup a 1-D scan.
        """
        u = np.linspace(lo - hi, hi - lo, samples)
        return max(float(np.max(np.abs(self.profile(s, u)))) for s in range(5))

    def same_kernel(self, other: "SmoothKernel") -> bool:
        return (
            self.family == other.family
            and self.lengthscale == other.lengthscale
            and self.beta == other.beta
        )

    def __repr__(self):
        if self.beta is None:
            return f"SmoothKernel({self.family!r}, l={self.lengthscale})"
        return f"SmoothKernel({self.family!r}, l={self.lengthscale}, beta={self.beta})"


def gaussian_kernel(lengthscale: float) -> SmoothKernel:
    return SmoothKernel(GAUSSIAN, lengthscale)


def imq_kernel(lengthscale: float, beta: float) -> SmoothKernel:
    return SmoothKernel(IMQ, lengthscale, beta=beta)
