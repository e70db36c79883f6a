"""Forward models: gradient-flow PDE stepping, Hamiltonian particle flow,
weighted Laplacian and its pseudo-inverse, and the geodesic correction term.

The 1-D density evolutions generated here are

    d/dt rho = div(rho grad(U'(rho) + V + W conv rho))            (gradient)
    d2/dt2 rho + Gamma(d/dt rho, d/dt rho) = div(rho grad(V + W conv rho))
                                                                  (Hamiltonian)

with Gamma the quadratic correction of the Otto geometry,

    Gamma(s, s) = -( Lap_s eta + 1/2 Lap_rho |grad eta|^2 ),  eta = pinv(Lap_rho) s.

On the grid, div(rho grad phi) is discretized in conservation form as a
backward difference of the forward-difference flux,

    (Lap_rho phi)_n = d-( rho * d+ phi )_n,

which telescopes (exact mass conservation on the torus) and is symmetric
negative semidefinite, so the pseudo-inverse is a well-posed zero-mean solve.
In 1-D it integrates in closed form: the flux J = rho d+ phi is a running
sum of sigma up to a constant, which periodicity of phi fixes.

The Hamiltonian flow is integrated on characteristics: particles obey
q'' = -(V + W conv rho)'(q) with the mean-field convolution carried by fixed
particle masses, stepped by velocity Verlet; the density is recovered from
the 1-D push-forward rule rho_t(q_i) * dq_i/dx = mu0(x_i) and resampled onto
the grid through monotone interpolation of the transport map.

On the torus of length L every particle pair sum, the force's over W' and
the energy's over W, goes through a Fourier series.  For G = W (order 0)
or W' (order 1), write G(d) = f(d) + J1 d/L + J2 d^2/(2L) on [-L/2, L/2],
with J1 and J2 the jumps of G and G' across the period boundary (a
truncated wrap of a heavy-tailed kernel leaves small ones), so that f and
f' are continuous on the torus.  f(d) = Re sum_k w_k c_k exp(i omega_k d)
with omega_k = 2 pi k / L and weights w = (1, 2, 2, ...), so

    sum_j m_j f(q_i - q_j)
        = Re sum_k w_k c_k exp(i omega_k q_i) sum_j m_j exp(-i omega_k q_j),

and the two polynomial terms are sums of the first two powers of the
minimal-image differences, which one sort and prefix sums give.  A Verlet
step or an energy then costs O(n K + n log n) for n particles and K modes
instead of n^2 kernel sums, which pays while K is small against n times
the kernel terms of W (K = 8 against 96 x 18 on the benchmark's flow).

Each order's coefficients are built once per simulation from P samples of
f at the minimal images of p L / P, P = 32, 64, ..., until the modes
k < P/4 reproduce the samples to 32 eps times the size of the terms of G
(the scale of the roundoff of the samples); those modes are kept.  A W
that is not smooth on the torus beyond those jumps (not wrapped with its
domain length as period, or with too few copies) has not converged at
P = 2^16 and is rejected with ``PeriodicityError`` before the first step.
A smooth periodic f has exponentially decaying coefficients (Trefethen &
Weideman, SIAM Review 2014), so a few modes reach roundoff: K = 8 for a
wrapped Gaussian of lengthscale 0.25 on the unit torus.

The energy 1/2 sum_ij m_i m_j W(q_i - q_j) sees only the even part of W,
while the force uses all of W'; the flow conserves it only for an even W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    PERIODIC,
    TRUNCATED,
    DensityTrajectory,
    SpaceTimeMesh,
    diff_space,
    diff_space_backward,
)

DENSITY_FLOOR = 1e-10
# pseudo-inverse inputs whose Riemann mean exceeds this fraction of their
# scale are rejected; smaller means are projected out
_MEAN_TOL = 1e-8


class FlowError(RuntimeError):
    """Solver failure: CFL violation, particle crossing, singular system."""


class PeriodicityError(FlowError):
    """The Fourier series of an interaction kernel W or its W' did not
    converge on the torus: it is not periodic and smooth there, or is lost
    in roundoff."""


# ---------------------------------------------------------------------------
# Internal energies and scalar fields
# ---------------------------------------------------------------------------

ENTROPY = "entropy"
POWER = "power"
FISHER = "fisher"
NONE = "none"


@dataclass(frozen=True)
class InternalEnergy:
    """Internal-energy density U(rho) with the derivatives the schemes need.

    ``fisher`` is accepted as a label for data provenance but supplies no
    pointwise derivatives; neither the forward solver nor the estimator can
    consume it.
    """

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in (ENTROPY, POWER, FISHER, NONE):
            raise ValueError(f"unknown internal energy {self.kind!r}")
        if self.kind == POWER and (self.exponent is None or self.exponent <= 1):
            raise ValueError("power internal energy requires exponent m > 1")

    @property
    def pointwise(self) -> bool:
        return self.kind in (ENTROPY, POWER, NONE)

    def u(self, rho: np.ndarray) -> np.ndarray:
        if self.kind == ENTROPY:
            return rho * np.log(rho)
        if self.kind == POWER:
            m = self.exponent
            return rho**m / (m - 1.0)
        if self.kind == NONE:
            return np.zeros_like(rho)
        raise ValueError("fisher energy has no pointwise density")

    def du(self, rho: np.ndarray) -> np.ndarray:
        if self.kind == ENTROPY:
            return np.log(rho) + 1.0
        if self.kind == POWER:
            m = self.exponent
            return m / (m - 1.0) * rho ** (m - 1.0)
        if self.kind == NONE:
            return np.zeros_like(rho)
        raise ValueError("fisher energy has no pointwise U'")

    def d2u(self, rho: np.ndarray) -> np.ndarray:
        if self.kind == ENTROPY:
            return 1.0 / rho
        if self.kind == POWER:
            m = self.exponent
            return m * rho ** (m - 2.0)
        if self.kind == NONE:
            return np.zeros_like(rho)
        raise ValueError("fisher energy has no pointwise U''")

    def label(self) -> str:
        if self.kind == POWER:
            return f"power:{self.exponent:g}"
        return self.kind


NO_INTERNAL_ENERGY = InternalEnergy(NONE)


def internal_energy_from_label(label: str) -> InternalEnergy:
    if label.startswith("power:"):
        return InternalEnergy(POWER, exponent=float(label.split(":", 1)[1]))
    return InternalEnergy(label)


class SmoothFunction:
    """Closed-form scalar field with derivatives, for potentials and phases."""

    def __init__(self, derivs, description: str = "smooth"):
        # derivs: sequence of callables for orders 0, 1, 2, ...
        self._derivs = list(derivs)
        self.description = description

    def value(self, x, order: int = 0):
        if order >= len(self._derivs):
            raise ValueError(f"{self.description} has no order-{order} derivative")
        out = self._derivs[order](np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def magnitude(self, x, order: int = 0):
        """|value|: a closed form has no terms of its own to size its roundoff."""
        return np.abs(self.value(x, order=order))

    def __call__(self, x, order: int = 0):
        return self.value(x, order=order)

    @classmethod
    def zero(cls) -> "SmoothFunction":
        return cls([np.zeros_like] * 4, "zero")

    @classmethod
    def linear(cls, slope: float) -> "SmoothFunction":
        return cls(
            [lambda x: slope * x,
             lambda x: np.full_like(x, slope),
             np.zeros_like,
             np.zeros_like],
            f"linear({slope})",
        )

    @classmethod
    def cosine_sum(cls, period: float, amplitudes, modes, phases=None) -> "SmoothFunction":
        amplitudes = np.asarray(amplitudes, dtype=float)
        modes = np.asarray(modes, dtype=float)
        phases = np.zeros_like(amplitudes) if phases is None else np.asarray(phases, dtype=float)
        omega = 2.0 * np.pi * modes / period

        def deriv(order):
            def f(x):
                arg = omega * (np.asarray(x)[..., None] - phases)
                shifted = np.cos(arg + order * np.pi / 2.0)
                return (amplitudes * omega**order * shifted).sum(axis=-1)
            return f

        return cls([deriv(k) for k in range(4)], f"cosine_sum(period={period})")


def is_evaluable(obj) -> bool:
    return obj is not None and hasattr(obj, "value")


def field_on_grid(fn, x: np.ndarray, order: int = 0) -> np.ndarray:
    if fn is None:
        return np.zeros_like(x)
    return np.asarray(fn.value(x, order=order), dtype=float)


@dataclass
class EnergySpec:
    """Potential V, interaction kernel W, and internal energy U of a flow."""

    V: object | None = None        # evaluable with derivatives to order 2
    W: object | None = None
    U: InternalEnergy = NO_INTERNAL_ENERGY

    def __post_init__(self):
        for name, fn in (("V", self.V), ("W", self.W)):
            if fn is not None and not is_evaluable(fn):
                raise TypeError(f"{name} must expose .value(x, order=...)")


@dataclass
class FlowState:
    """State of the grid solver (density) or particle solver (q, v, masses)."""

    time: float
    density: np.ndarray | None = None
    positions: np.ndarray | None = None
    velocities: np.ndarray | None = None
    masses: np.ndarray | None = None
    floor_hits: int = 0


# ---------------------------------------------------------------------------
# Weighted Laplacian, pseudo-inverse, geodesic correction
# ---------------------------------------------------------------------------

def weighted_laplacian_apply(rho: np.ndarray, phi: np.ndarray, mesh: SpaceTimeMesh,
                             mode: str = PERIODIC, allow_signed: bool = False) -> np.ndarray:
    """Divergence-form discrete div(rho grad phi) on the spatial grid."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not allow_signed and not np.all(rho > 0):
        raise FlowError("weighted Laplacian needs a strictly positive weight")
    flux = rho * diff_space(phi, mesh.dx, mode)
    return diff_space_backward(flux, mesh.dx, mode)


def weighted_laplacian_pinv(rho: np.ndarray, sigma: np.ndarray,
                            mesh: SpaceTimeMesh) -> np.ndarray:
    """Zero-mean phi with div(rho grad phi) = sigma on the periodic grid.

    sigma must have (near-)zero Riemann mean: deviations within
    ``_MEAN_TOL`` of zero (relative to the sigma scale) are projected
    out, larger ones are rejected.  The backward difference of the flux
    J = rho d+ phi is sigma, so J = dx cumsum(sigma) + J0; phi is periodic
    exactly when sum(J / rho) = 0, which fixes J0, and phi is the running
    sum of its forward differences dx J / rho.
    """
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(rho > 0):
        raise FlowError("pseudo-inverse needs a strictly positive density")
    scale = float(np.max(np.abs(sigma)))
    if scale == 0.0:
        return np.zeros_like(sigma)
    mean = float(sigma.mean())
    if abs(mean) * mesh.dx * rho.size > _MEAN_TOL * scale * mesh.domain_length:
        raise FlowError(
            f"pseudo-inverse input has non-zero mean {mean * mesh.domain_length:.3g}"
        )
    sigma = sigma - mean
    flux = mesh.dx * np.cumsum(sigma)
    flux -= np.sum(flux / rho) / np.sum(1.0 / rho)
    phi = np.zeros_like(sigma)
    phi[1:] = np.cumsum(mesh.dx * flux[:-1] / rho[:-1])
    phi -= phi.mean()
    residual = float(np.max(np.abs(weighted_laplacian_apply(rho, phi, mesh) - sigma)))
    if residual > 1e-8 * scale:
        raise FlowError(f"pseudo-inverse residual {residual:.3g} exceeds tolerance")
    return phi


def christoffel_term(rho: np.ndarray, rho_dot: np.ndarray, mesh: SpaceTimeMesh) -> np.ndarray:
    """Quadratic geodesic correction Gamma(rho_dot, rho_dot) on the torus."""
    rho_dot = np.asarray(rho_dot, dtype=float)
    eta = weighted_laplacian_pinv(rho, rho_dot, mesh)
    term1 = weighted_laplacian_apply(rho_dot, eta, mesh, PERIODIC, allow_signed=True)
    grad_eta = diff_space(eta, mesh.dx, PERIODIC)
    term2 = weighted_laplacian_apply(rho, grad_eta**2, mesh, PERIODIC)
    return -(term1 + 0.5 * term2)


# ---------------------------------------------------------------------------
# Gradient flow solver
# ---------------------------------------------------------------------------

def interaction_matrix(W, mesh: SpaceTimeMesh) -> np.ndarray | None:
    """Precomputed W(x_n - x_m) for grid convolutions; None for W = 0."""
    if W is None:
        return None
    x = mesh.x
    return np.asarray(W.value(x[:, None] - x[None, :]), dtype=float)


def default_gradient_dt(mesh: SpaceTimeMesh, spec: EnergySpec, rho0: np.ndarray) -> float:
    """Stability-motivated default step: min(dt, 0.2 dx^2 / max rho) with a
    diffusive term, otherwise an advective bound from the drift slope."""
    if spec.U.kind in (ENTROPY, POWER):
        return min(mesh.dt, 0.2 * mesh.dx**2 / float(np.max(rho0)))
    x = mesh.x
    drift = field_on_grid(spec.V, x, order=1)
    if spec.W is not None:
        wconv1 = np.asarray(spec.W.value(x[:, None] - x[None, :], order=1), dtype=float)
        wconv1 *= mesh.dx  # scaled in place, not copied
        drift = drift + wconv1 @ rho0
    vmax = float(np.max(np.abs(drift)))
    if vmax == 0.0:
        return mesh.dt
    return min(mesh.dt, 0.2 * mesh.dx / vmax)


def gradient_flow_step(state: FlowState, spec: EnergySpec, mesh: SpaceTimeMesh,
                       dt_solver: float, wconv: np.ndarray | None = None,
                       v_grid: np.ndarray | None = None,
                       scheme: str = "divergence") -> FlowState:
    """One explicit-Euler step of the gradient flow on the periodic grid.

    ``scheme`` picks the spatial flux: "divergence" is the weighted-Laplacian
    stencil shared with the estimator (needs a diffusive internal energy for
    stability); "upwind" selects the donor cell by the face velocity, which
    keeps pure-drift flows positive under the advective CFL condition.
    ``wconv`` is the convolution matrix dx W(x_n - x_m), built from spec.W
    when not given; a simulation builds it once for all its steps.
    """
    if spec.U.kind == FISHER:
        raise FlowError("gradient solver does not integrate the fisher energy")
    rho = state.density
    x = mesh.x
    if v_grid is None:
        v_grid = field_on_grid(spec.V, x)
    if wconv is None and spec.W is not None:
        wconv = mesh.dx * interaction_matrix(spec.W, mesh)
    drive = spec.U.du(rho) + v_grid
    if wconv is not None:
        drive = drive + wconv @ rho
    if scheme == "divergence":
        update = weighted_laplacian_apply(rho, drive, mesh, PERIODIC)
    elif scheme == "upwind":
        slope = diff_space(drive, mesh.dx, PERIODIC)
        donor = np.where(slope < 0, rho, np.roll(rho, -1))
        update = diff_space_backward(donor * slope, mesh.dx, PERIODIC)
    else:
        raise FlowError(f"unknown scheme {scheme!r}")
    rho_new = rho + dt_solver * update
    negative = rho_new < DENSITY_FLOOR
    n_neg = int(negative.sum())
    if n_neg > 0.01 * rho.size and np.any(rho_new < -DENSITY_FLOOR):
        raise FlowError(
            f"density went negative at {n_neg}/{rho.size} nodes at t={state.time:.4g}; "
            f"reduce dt_solver (currently {dt_solver:g})"
        )
    rho_new = np.maximum(rho_new, DENSITY_FLOOR)
    return FlowState(time=state.time + dt_solver, density=rho_new,
                     floor_hits=state.floor_hits + n_neg)


def gradient_flow_simulate(rho0: np.ndarray, spec: EnergySpec, mesh: SpaceTimeMesh,
                           dt_solver: float | None = None,
                           scheme: str = "divergence") -> tuple[DensityTrajectory, dict]:
    """Integrate the gradient flow and sample at the data times t_1..t_L.

    Returns the trajectory (periodic boundary mode) and a diagnostics dict
    with, per output time, the floor hits (nodes raised to DENSITY_FLOOR,
    summed over the solver steps since the previous output time) and the
    discrete free energy.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (mesh.N,):
        raise FlowError(f"initial density must have {mesh.N} values")
    if dt_solver is None:
        dt_solver = default_gradient_dt(mesh, spec, rho0)
        if scheme == "upwind" and spec.U.kind == NONE:
            dt_solver = min(mesh.dt, 2.5 * dt_solver)  # advective bound suffices
    x = mesh.x
    v_grid = field_on_grid(spec.V, x)
    wmat = interaction_matrix(spec.W, mesh)
    wconv = None if wmat is None else mesh.dx * wmat
    state = FlowState(time=0.0, density=rho0.copy())
    samples = np.empty((mesh.L, mesh.N))
    energies = []
    floor_hits = []
    for l in range(mesh.L):
        target = mesh.t[l]
        n_sub = max(1, math.ceil((target - state.time) / dt_solver - 1e-12))
        dt = (target - state.time) / n_sub
        hits_before = state.floor_hits
        for _ in range(n_sub):
            state = gradient_flow_step(state, spec, mesh, dt, wconv=wconv,
                                       v_grid=v_grid, scheme=scheme)
        samples[l] = state.density
        floor_hits.append(state.floor_hits - hits_before)
        energies.append(free_energy(state.density, spec, mesh, wmat=wmat, v_grid=v_grid))
    traj = DensityTrajectory(mesh, samples, boundary_mode=PERIODIC)
    diagnostics = {
        "dt_solver": dt_solver,
        "floor_hits": floor_hits,
        "free_energy": energies,
    }
    return traj, diagnostics


def free_energy(rho: np.ndarray, spec: EnergySpec, mesh: SpaceTimeMesh,
                wmat: np.ndarray | None = None, v_grid: np.ndarray | None = None) -> float:
    """Discrete energy: internal + potential + 1/2 interaction terms."""
    x = mesh.x
    if v_grid is None:
        v_grid = field_on_grid(spec.V, x)
    total = mesh.dx * float(np.sum(spec.U.u(rho) if spec.U.pointwise else 0.0))
    total += mesh.dx * float(np.sum(v_grid * rho))
    if spec.W is not None:
        if wmat is None:
            wmat = interaction_matrix(spec.W, mesh)
        total += 0.5 * mesh.dx**2 * float(rho @ wmat @ rho)
    return total


# ---------------------------------------------------------------------------
# Hamiltonian flow via characteristics
# ---------------------------------------------------------------------------

def _wrap(values: np.ndarray, a: float, length: float) -> np.ndarray:
    return a + np.mod(values - a, length)


def _minimal_image(diff: np.ndarray, length: float) -> np.ndarray:
    return diff - length * np.round(diff / length)


_SERIES_START = 32       # first sample count of a series
_SERIES_LIMIT = 2**16    # last sample count tried before W is rejected
_JUMP_TOL = 1e-2         # largest jump of G or G' across the period boundary,
                         # relative to the size of its terms, taken for the
                         # truncation of a periodic wrap
_SERIES_TOL = 32.0       # allowed miss of a series at its samples, in eps
                         # times the size of the terms of G
_PHASE_BLOCK = 2**19     # particle x mode entries per block of the phase matrix


def _seam_sums(q: np.ndarray, masses: np.ndarray,
               length: float) -> tuple[np.ndarray, np.ndarray]:
    """sum_j m_j mi(q_i - q_j) and sum_j m_j mi(q_i - q_j)^2 for every
    particle i, mi the minimal image, in O(n log n).

    With x the positions wrapped into [-L/2, L/2), mi(x_i - x_j) is
    x_i - x_j, less L where x_j < x_i - L/2 and plus L where
    x_j > x_i + L/2; the mass and first moment on either side come from
    one sort and prefix sums.
    """
    x = np.mod(q, length) - 0.5 * length
    order = np.argsort(x)
    xs = x[order]
    cum_m = np.concatenate([[0.0], np.cumsum(masses[order])])
    cum_mx = np.concatenate([[0.0], np.cumsum(masses[order] * xs)])
    lo = np.searchsorted(xs, x - 0.5 * length, side="left")
    hi = np.searchsorted(xs, x + 0.5 * length, side="right")
    m_below, mx_below = cum_m[lo], cum_mx[lo]
    m_above, mx_above = cum_m[-1] - cum_m[hi], cum_mx[-1] - cum_mx[hi]
    total, first, second = cum_m[-1], cum_mx[-1], float(masses @ x**2)
    linear = total * x - first - length * (m_below - m_above)
    quadratic = (total * x**2 - 2.0 * x * first + second
                 + 2.0 * length * ((x * m_above - mx_above) - (x * m_below - mx_below))
                 + length**2 * (m_above + m_below))
    return linear, quadratic


def _phase(q: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of omega_k q_i, (particles x modes)."""
    angle = np.multiply.outer(q, omega)
    return np.cos(angle), np.sin(angle)


class InteractionSeries:
    """W (order 0) and W' (order 1) on a torus of length ``length``: per
    order, a truncated Fourier series plus the polynomials that carry its
    jumps across the period boundary.

    For G = W^(order), on [-L/2, L/2] G(d) = f(d) + J1 d / L + J2 d^2 / (2 L)
    with J1 = G(L/2) - G(-L/2) and J2 = G'(L/2) - G'(-L/2), so f and f'
    are continuous on the torus even where G and G' are not (the truncated
    wrap of a heavy-tailed kernel leaves them jumps of up to about 1e-4 of
    the size of their terms).  f is sampled at the minimal images of
    p L / P for P = 32, 64, ..., and the first P whose modes k < P/4
    reproduce the samples to _SERIES_TOL eps times the size of the terms of
    G (``W.magnitude``, the scale of the samples' roundoff) stops the
    search; those modes are kept, already multiplied by their weights
    (1, 2, 2, ...) of the real series, in ``coeffs[order]``.
    ``PeriodicityError`` when no P up to 2^16 qualifies, or when a jump
    exceeds _JUMP_TOL of the size of its terms: W is then not wrapped with
    the domain length as its period, or with too few copies.
    """

    def __init__(self, W, length: float):
        ends = np.array([0.5, -0.5]) * length
        self.length = length
        self.coeffs, self.omega, self.jumps = [], [], []
        for order in (0, 1):
            names = ("W", "W'", "W''")[order:order + 2]
            jumps = tuple(float(w[0] - w[1]) for w in (np.asarray(
                W.value(ends, order=k), dtype=float) for k in (order, order + 1)))
            P = _SERIES_START
            while True:
                d = _minimal_image(length * np.arange(P) / P, length)
                f = (np.asarray(W.value(d, order=order), dtype=float)
                     - jumps[0] / length * d - jumps[1] / (2.0 * length) * d**2)
                c = np.fft.rfft(f) / P
                c[P // 4:] = 0.0
                scale = float(np.max(W.magnitude(d, order=order)))
                miss = float(np.max(np.abs(np.fft.irfft(c, n=P) * P - f)))
                if miss <= _SERIES_TOL * np.finfo(float).eps * scale:
                    break
                if P == _SERIES_LIMIT:
                    raise PeriodicityError(
                        f"the Fourier series of {names[0]} on the torus of length "
                        f"{length:g} has not converged at {P} samples: its first "
                        f"{P // 4} modes miss the samples by {miss / scale:.2g} of the "
                        f"size of its terms; it is not smooth across the period "
                        f"boundary (wrap W with the domain length as its period)"
                    )
                P *= 2
            sizes = (scale, float(np.max(W.magnitude(d, order=order + 1))))
            for name, jump, size in zip(names, jumps, sizes):
                if abs(jump) > _JUMP_TOL * size:
                    raise PeriodicityError(
                        f"{name} jumps by {abs(jump) / size:.2g} of the size of "
                        f"its terms across the period boundary of the torus of "
                        f"length {length:g}, more than the {_JUMP_TOL:g} a "
                        f"truncated periodic wrap leaves; W is not periodic there "
                        f"(wrap W with the domain length as its period and enough "
                        f"copies)"
                    )
            # a jump within the roundoff of its terms is dropped with its seam
            # sum, which moves G by at most 2 eps times the size of its terms
            self.jumps.append(tuple(0.0 if abs(j) <= 4.0 * np.finfo(float).eps * size
                                    else j for j, size in zip(jumps, sizes)))
            c[1:] *= 2.0
            self.coeffs.append(c[:P // 4])
            self.omega.append(2.0 * np.pi / length * np.arange(P // 4))

    def pair_sums(self, q: np.ndarray, masses: np.ndarray, order: int) -> np.ndarray:
        """sum_j m_j W^(order)(mi(q_i - q_j)) for every particle i; q need
        not be wrapped.

        With M_k = sum_j m_j exp(i omega_k q_j) = Mc_k + i Ms_k, the series
        part is Re sum_k c_k exp(i omega_k q_i) conj(M_k), done in real
        arithmetic on the cos and sin matrices.  These are formed over row
        blocks of about _PHASE_BLOCK entries, each block twice (once for
        M, once for the sums) when there is more than one.
        """
        coeffs, omega, jumps = self.coeffs[order], self.omega[order], self.jumps[order]
        rows = max(1, _PHASE_BLOCK // omega.size)
        blocks = [slice(lo, lo + rows) for lo in range(0, q.size, rows)]
        first = _phase(q[blocks[0]], omega)
        mass_cos = masses[blocks[0]] @ first[0]
        mass_sin = masses[blocks[0]] @ first[1]
        for blk in blocks[1:]:
            cos, sin = _phase(q[blk], omega)
            mass_cos += masses[blk] @ cos
            mass_sin += masses[blk] @ sin
        # c_k conj(M_k) = u_k + i v_k
        u = coeffs.real * mass_cos + coeffs.imag * mass_sin
        v = coeffs.imag * mass_cos - coeffs.real * mass_sin
        sums = np.empty(q.size)
        sums[blocks[0]] = first[0] @ u - first[1] @ v
        for blk in blocks[1:]:
            cos, sin = _phase(q[blk], omega)
            sums[blk] = cos @ u - sin @ v
        if any(jumps):
            linear, quadratic = _seam_sums(q, masses, self.length)
            sums += (jumps[0] / self.length * linear
                     + jumps[1] / (2.0 * self.length) * quadratic)
        return sums


def _particle_force(q: np.ndarray, masses: np.ndarray, V,
                    series: InteractionSeries | None, a: float,
                    length: float) -> np.ndarray:
    """Acceleration -(V + W conv rho)'(q) with mean-field particle masses.

    V is evaluated at the wrapped positions, which is exact for periodic V;
    the interaction comes from the Fourier series of W'.
    """
    force = np.zeros_like(q)
    if V is not None:
        force -= np.asarray(V.value(_wrap(q, a, length), order=1), dtype=float)
    if series is not None:
        force -= series.pair_sums(q, masses, 1)
    return force


def _particle_energy(q: np.ndarray, v: np.ndarray, masses: np.ndarray, V,
                     series: InteractionSeries | None, a: float,
                     length: float) -> float:
    """Total discrete energy 1/2 sum m v^2 + sum m V(q) + 1/2 sum m m' W(q - q'),
    V at the wrapped positions and W from its Fourier series."""
    total = 0.5 * float(masses @ v**2)
    if V is not None:
        total += float(masses @ np.asarray(V.value(_wrap(q, a, length)), dtype=float))
    if series is not None:
        total += 0.5 * float(masses @ series.pair_sums(q, masses, 0))
    return total


def _pchip_edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, reset to 0 where its sign differs
    from the end secant m0 and clamped to 3 m0 where the first two secants
    differ in sign (Moler, Numerical Computing with MATLAB, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(knots: np.ndarray, values: np.ndarray,
           x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope at x of the monotone piecewise-cubic Hermite (PCHIP)
    interpolant through at least 3 strictly increasing knots.

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants with weights w1 = 2 h_k + h_{k-1}, w2 = h_k + 2 h_{k-1}, and 0
    where those secants differ in sign or either is 0 (Fritsch & Butland,
    SIAM J. Sci. Stat. Comput. 1984); end slopes come from
    ``_pchip_edge_slope``.  Points outside the knots are extrapolated with
    the end cubics.  The coefficients and the power-form evaluation follow
    scipy's ``PchipInterpolator`` operation for operation.
    """
    h = np.diff(knots)
    if not np.all(h > 0):
        raise FlowError("push-forward knots are not strictly increasing")
    m = np.diff(values) / h
    d = np.zeros_like(values)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    inner = np.sign(m[1:]) * np.sign(m[:-1]) > 0
    d[1:-1][inner] = 1.0 / ((w1[inner] / m[:-1][inner] + w2[inner] / m[1:][inner])
                            / (w1[inner] + w2[inner]))
    d[0] = _pchip_edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c3 = t / h
    c2 = (m - d[:-1]) / h - t
    k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, h.size - 1)
    u = x - knots[k]
    u2 = u * u
    value = values[k] + d[k] * u + c2[k] * u2 + c3[k] * (u2 * u)
    slope = d[k] + (2.0 * c2[k]) * u + (3.0 * c3[k]) * u2
    return value, slope


def _push_forward_density(q: np.ndarray, mu0: np.ndarray,
                          mesh: SpaceTimeMesh) -> tuple[np.ndarray, int]:
    """Resample the transported density onto the grid.

    Uses the monotone (PCHIP) interpolant of the inverse transport map s with
    rho(x) = mu0(s(x)) s'(x), evaluated from one periodic unrolling of the
    particle positions (``_pchip``: harmonic-mean interior slopes and
    three-point end slopes, Fritsch-Butland/Moler; grid points beyond the
    outermost knots extrapolate with the end cubics).  Values below
    DENSITY_FLOOR are raised to it; the number of such grid nodes is
    returned with the density.
    """
    length = mesh.domain_length
    N = mesh.N
    x = mesh.x
    qw = _wrap(q, mesh.a, length)
    order = np.argsort(qw, kind="stable")
    q_sorted = qw[order]
    x_pre = x[order]
    # unroll preimages so the map x -> q stays monotone on one period
    lift = np.cumsum(np.append(0.0, np.diff(x_pre) < 0)) * length
    x_lift = x_pre + lift
    # extend by one particle on each side for full coverage of [a, b]
    q_ext = np.concatenate([[q_sorted[-1] - length], q_sorted, [q_sorted[0] + length]])
    x_ext = np.concatenate([[x_lift[-1] - length], x_lift, [x_lift[0] + length]])
    s, ds = _pchip(q_ext, x_ext, x)
    # mu0 is a grid function; interpolate it periodically at the preimages
    x_grid_ext = np.concatenate([[x[0] - mesh.dx], x])
    mu_ext = np.concatenate([[mu0[-1]], mu0])
    s_wrapped = _wrap(s, x_grid_ext[0], length)
    mu_at_s = np.interp(s_wrapped, x_grid_ext, mu_ext)
    rho = mu_at_s * np.maximum(ds, 0.0)
    floored = rho < DENSITY_FLOOR
    rho[floored] = DENSITY_FLOOR
    return rho, int(floored.sum())


def hamiltonian_flow_simulate(mu0: np.ndarray, phi0, spec: EnergySpec,
                              mesh: SpaceTimeMesh, dt_solver: float | None = None,
                              series: InteractionSeries | None = None,
                              ) -> tuple[DensityTrajectory, dict]:
    """Integrate the Hamiltonian flow on the torus by velocity Verlet.

    Particles start on the grid with q_i = x_i, velocity phi0'(x_i), and
    fixed quadrature masses mu0(x_i) dx.  The interaction force and energy
    come from the Fourier series of W' and W (``InteractionSeries``), built
    once before the first step (or passed in as ``series``, built from
    ``spec.W`` on this mesh's torus), so each step costs O(n K + n log n)
    for n particles and K modes; W must be smooth on the torus apart from
    jumps of W, W' and W'' across the period boundary, else
    ``PeriodicityError``.  Neighbours that meet by a data time, N - 1 and 0
    across the period boundary included, raise ``FlowError``.  The density
    at the data times comes from the 1-D push-forward rule; the diagnostics
    count, per data time, the grid nodes raised to DENSITY_FLOOR, and record
    the initial and final energies (conserved only for an even W) and the
    kept mode count of W' (0 without W).  Requires U = none.
    """
    if spec.U.kind != NONE:
        raise FlowError("Hamiltonian characteristics require U = none")
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (mesh.N,):
        raise FlowError(f"initial density must have {mesh.N} values")
    length = mesh.domain_length
    if series is None and spec.W is not None:
        series = InteractionSeries(spec.W, length)
    q = mesh.x.astype(float).copy()
    v = field_on_grid(phi0, q, order=1)
    masses = mu0 * mesh.dx
    if dt_solver is None:
        vmax = max(float(np.max(np.abs(v))), 1e-12)
        dt_solver = min(mesh.dt, 0.2 * mesh.dx / vmax, 5e-3)
    samples = np.empty((mesh.L, mesh.N))
    floor_hits = []
    time = 0.0
    force = _particle_force(q, masses, spec.V, series, mesh.a, length)
    kinetic0 = 0.5 * float(masses @ v**2)
    energy0 = _particle_energy(q, v, masses, spec.V, series, mesh.a, length)
    for l in range(mesh.L):
        target = mesh.t[l]
        n_sub = max(1, math.ceil((target - time) / dt_solver - 1e-12))
        dt = (target - time) / n_sub
        for _ in range(n_sub):
            q = q + dt * v + 0.5 * dt**2 * force
            new_force = _particle_force(q, masses, spec.V, series, mesh.a, length)
            v = v + 0.5 * dt * (force + new_force)
            force = new_force
            time += dt
        crossed = np.diff(q, append=q[0] + length) <= 0
        if np.any(crossed):
            first = int(np.argmax(crossed))
            raise FlowError(
                f"particle crossing at t={time:.6g} between particles "
                f"{first} and {(first + 1) % q.size}"
            )
        samples[l], hits = _push_forward_density(q, mu0, mesh)
        floor_hits.append(hits)
    traj = DensityTrajectory(mesh, samples, boundary_mode=PERIODIC)
    diagnostics = {
        "dt_solver": dt_solver,
        "kinetic_initial": kinetic0,
        "kinetic_final": 0.5 * float(masses @ v**2),
        "energy_initial": energy0,
        "energy_final": _particle_energy(q, v, masses, spec.V, series, mesh.a, length),
        "floor_hits": floor_hits,
        "interaction_modes": 0 if series is None else series.omega[1].size,
    }
    return traj, diagnostics
