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

``periodized(period)`` gives the kernel on the circle of length ell,
K_per(u) = sum_j g(u + j ell) (Wahba, Spline Models for Observational
Data, 1990, ch. 2), to rounding for orders up to 6: u is reduced to its
minimal image and the direct copies |j| <= C are summed along one extra
array axis.  A Gaussian keeps the copies within 11 lengthscales.  An IMQ
keeps C = max(8, ceil(2 l / ell)) and adds the tail beyond them from
g(r) = sum_m binom(-beta, m) (l / |r|)^(2 beta + 2 m), |r| > l, each power
summed over j as a Hurwitz zeta value by Euler-Maclaurin with 8 Bernoulli
terms (DLMF 25.11, 2.10).  ``eval(..., absolute=True)`` sums the absolute
values of the terms instead, the scale of the roundoff.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

MAX_SLOT_ORDER = 3  # mixed partials available for 0 <= i, j <= 3
_GAUSSIAN_REACH = 11.0  # lengthscales to the last Gaussian copy a period keeps
_IMQ_COPIES = 8         # least direct IMQ copies a period keeps on each side
_TAIL_TOL = 1e-18       # relative size of the last tail term of m an IMQ keeps
_BERNOULLI = (1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510)  # B_2 .. B_16

GAUSSIAN = "gaussian"
IMQ = "imq"


class KernelError(ValueError):
    """Invalid kernel parameters or unsupported derivative order."""


class SmoothKernel:
    """Evaluable symmetric kernel K(x, y) with mixed partials up to (3, 3);
    with a ``period`` (``periodized``), the kernel periodized over it."""

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
        self.period = None
        self._polys = self._build_polys(2 * MAX_SLOT_ORDER)

    def periodized(self, period: float) -> "SmoothKernel":
        """This kernel periodized over ``period``: K_per(x, y) = sum_j K(x - y + j period)."""
        if self.period is not None:
            raise KernelError(f"{self} is periodic already")
        if not 0 < period < np.inf:
            raise KernelError(f"period must be positive and finite, got {period}")
        kernel = copy.copy(self)        # shares the profile polynomials
        kernel.period = float(period)
        ratio = self.lengthscale / kernel.period
        copies = (max(_IMQ_COPIES, math.ceil(2.0 * ratio)) if self.family == IMQ
                  else max(0, math.ceil(_GAUSSIAN_REACH * ratio - 0.5)))
        kernel._shifts = kernel.period * np.arange(-copies, copies + 1)
        kernel._tails = None if self.family == GAUSSIAN else [
            self._tail_terms(order, (ratio / (copies + 0.5)) ** 2)
            for order in range(2 * MAX_SLOT_ORDER + 1)]
        return kernel

    def _tail_terms(self, order: int, falloff: float):
        """Weights w_m, exponents q_m and Euler-Maclaurin coefficients
        E_mi = B_2i / (2i)! (q_m)_(2i-1) of the tail's expansion
        g^(n)(r) = sum_m w_m (l / |r|)^q_m sign(r)^n, n = ``order``; term m is
        kept while binom(-beta, m) falloff^m (1 + 2m)^6 bounds it above
        _TAIL_TOL of term 0 at the nearest tail copy, for every n <= 6."""
        weights, q, binom, m = [], [], 1.0, 0
        while abs(binom) * falloff**m * (1 + 2 * m) ** 6 > _TAIL_TOL:
            p = 2.0 * (self.beta + m)
            weights.append(binom * math.prod(-(p + i) / self.lengthscale for i in range(order)))
            q.append(p + order)
            binom *= -(self.beta + m) / (m + 1)
            m += 1
        rising = np.cumprod(np.array(q)[:, None] + np.arange(15), axis=1)  # (q)_1 .. (q)_15
        em = rising[:, ::2] * np.divide(_BERNOULLI, [math.factorial(k) for k in range(2, 17, 2)])
        return np.array(weights), np.array(q), em

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
        """n-th derivative of the radial profile g, or of K_per, at the difference u."""
        if not 0 <= order <= 2 * MAX_SLOT_ORDER:
            raise KernelError(f"profile derivative order {order} unsupported")
        u = np.asarray(u, dtype=float)
        out = (self._profile(order, u, np.empty_like(u)) if self.period is None
               else self._periodic(order, u, absolute=False))
        return float(out) if out.ndim == 0 else out

    def _periodic(self, order: int, u: np.ndarray, absolute: bool) -> np.ndarray:
        """K_per^(order)(u), or the sum of the absolute values of its terms:
        the direct copies of the minimal image of u, plus an IMQ's tail."""
        ell = self.period
        u = u - ell * np.round(u / ell)
        copies = u[..., None] + self._shifts
        terms = self._profile(order, copies, copies)
        out = (np.abs(terms) if absolute else terms).sum(axis=-1)
        if self._tails is None:
            return out
        # beyond C on either side, (l / ell)^q zeta(q, a), a = C + 1 +- u / ell,
        # is (l / (ell a))^q (a / (q - 1) + 1/2 + sum_i E_i a^(1 - 2i))
        weights, q, em = self._tails[order]
        sides = []
        for a in ((len(self._shifts) + 1) / 2 + u[..., None] / ell,
                  (len(self._shifts) + 1) / 2 - u[..., None] / ell):
            series = em[:, -1]
            for c in em[:, -2::-1].T:
                series = series / (a * a) + c
            sides.append((self.lengthscale / (ell * a)) ** q
                         * (a / (q - 1.0) + 0.5 + series / a))
        sign = 1 if absolute else (-1) ** order
        return out + (sides[0] + sign * sides[1]) @ (np.abs(weights) if absolute else weights)

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

    def eval(self, i: int, j: int, x, y, absolute: bool = False):
        """Mixed partial d_x^i d_y^j K at (x, y); broadcasts over arrays.
        ``absolute``: the size of the terms summed for it instead, which
        sets the scale of its roundoff (|d_x^i d_y^j K| without a period)."""
        if not (0 <= i <= MAX_SLOT_ORDER and 0 <= j <= MAX_SLOT_ORDER):
            raise KernelError(f"derivative orders ({i},{j}) outside 0..{MAX_SLOT_ORDER}")
        u = np.asarray(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        if self.period is not None:
            out = self._periodic(i + j, u, absolute)
        else:
            out = self._profile(i + j, u, u)
            if absolute:
                np.abs(out, out=out)
        if j % 2 and not absolute:
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
            and self.period == other.period
        )

    def __repr__(self):
        params = [f"l={self.lengthscale}"]
        params += [] if self.beta is None else [f"beta={self.beta}"]
        params += [] if self.period is None else [f"period={self.period}"]
        return f"SmoothKernel({self.family!r}, {', '.join(params)})"


def gaussian_kernel(lengthscale: float) -> SmoothKernel:
    return SmoothKernel(GAUSSIAN, lengthscale)


def imq_kernel(lengthscale: float, beta: float) -> SmoothKernel:
    return SmoothKernel(IMQ, lengthscale, beta=beta)
