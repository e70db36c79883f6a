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
sum of sigma up to a constant, which periodicity of phi fixes.  The grid
convolution dx sum_m W(x_n - x_m) rho_m reads W once, on the 2N-1 pair
differences of ``mesh.difference_grid``, as np.convolve(dx W, rho, "valid").

The Hamiltonian flow is integrated on characteristics: particles obey
q'' = -(V + W conv rho)'(q) with the mean-field convolution carried by fixed
particle masses, stepped by velocity Verlet; the density is recovered from
the 1-D push-forward rule rho_t(q_i) * dq_i/dx = mu0(x_i) and resampled onto
the grid through monotone interpolation of the transport map.

On the torus [a, a + L) the potential and every particle pair sum, V' and
the sums over W' for the force, V and the sums over W for the energy, go
through Fourier series.  For G = W or W', write G(d) = f(d) + J1 d/L +
J2 d^2/(2L) on [-L/2, L/2], with J1 and J2 the jumps of G and G' across
the period boundary (a truncated wrap of a heavy-tailed kernel leaves
small ones), so that f and f' are continuous on the torus; for G = V or
V' the same holds with d the minimal-image offset y = wrap(x) - a - L/2
from the middle of the torus, whose boundary is at a.
f(d) = Re sum_k w_k c_k exp(i omega_k d) with omega_k = 2 pi k / L and
weights w = (1, 2, 2, ...), so

    sum_j m_j f(q_i - q_j)
        = Re sum_k w_k c_k exp(i omega_k y_i) sum_j m_j exp(-i omega_k y_j),

since the pair differences are those of the offsets y, and the two
polynomial terms are sums of the first two powers of the minimal-image
differences, which one sort and prefix sums give.  V's series is read off
the same phases exp(i omega_k y_i), so a Verlet step forms one phase
matrix for both and costs O(n K + n log n) for n particles and K modes
instead of n kernel sums for V and n^2 for W, which pays while K is small
against n times the kernel terms of W (K = 8 against 96 x 18 on the
benchmark's flow).  Flows that share a start, mesh and step are stepped
in lockstep: B of them form one B x n phase matrix per step.

Each order's coefficients are built once per simulation from P samples of
f at the minimal images of p L / P, P = 32, 64, ..., until the modes
k < P/4 reproduce the samples to 32 eps times the size of the terms of G
(the scale of the roundoff of the samples); those modes are kept.  A V or
W that is not smooth on the torus beyond those jumps (not wrapped with its
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
from dataclasses import dataclass

import numpy as np

from .mesh import (
    PERIODIC,
    DensityTrajectory,
    SpaceTimeMesh,
    diff_space,
    diff_space_backward,
    difference_grid,
)

DENSITY_FLOOR = 1e-10
SCHEMES = ("divergence", "upwind")  # spatial fluxes of ``gradient_flow_step``
# pseudo-inverse inputs whose Riemann mean exceeds this fraction of their
# scale are rejected; smaller means are projected out
_MEAN_TOL = 1e-8


class FlowError(RuntimeError):
    """Solver failure: CFL violation, particle crossing, singular system."""


class PeriodicityError(FlowError):
    """The Fourier series of a potential V or an interaction kernel W, or
    of its derivative, did not converge on the torus: it is not periodic
    and smooth there, or is lost in roundoff.  ``function`` is "V" or
    "W"."""

    def __init__(self, function: str, message: str):
        super().__init__(message)
        self.function = function


# ---------------------------------------------------------------------------
# Internal energies and scalar fields
# ---------------------------------------------------------------------------

ENTROPY = "entropy"
POWER = "power"
NONE = "none"


@dataclass(frozen=True)
class InternalEnergy:
    """Internal-energy density U(rho) with the derivatives the schemes need."""

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in (ENTROPY, POWER, NONE):
            raise ValueError(f"unknown internal energy {self.kind!r}")
        if self.kind == POWER and (self.exponent is None or self.exponent <= 1):
            raise ValueError("power internal energy requires exponent m > 1")

    def u(self, rho: np.ndarray) -> np.ndarray:
        if self.kind == ENTROPY:
            return rho * np.log(rho)
        if self.kind == POWER:
            m = self.exponent
            return rho**m / (m - 1.0)
        return np.zeros_like(rho)

    def du(self, rho: np.ndarray) -> np.ndarray:
        if self.kind == ENTROPY:
            return np.log(rho) + 1.0
        if self.kind == POWER:
            m = self.exponent
            return m / (m - 1.0) * rho ** (m - 1.0)
        return np.zeros_like(rho)

    def d2u(self, rho: np.ndarray) -> np.ndarray:
        if self.kind == ENTROPY:
            return 1.0 / rho
        if self.kind == POWER:
            m = self.exponent
            return m * rho ** (m - 2.0)
        return np.zeros_like(rho)

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
    """State of the grid solver: time, density and nodes floored so far."""

    time: float
    density: np.ndarray | None = None
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

def _offset_kernel(W, mesh: SpaceTimeMesh, order: int = 0) -> np.ndarray:
    """dx W^(order) on the 2N-1 pair differences of ``difference_grid``, whose
    valid convolution with rho is dx sum_m W^(order)(x_n - x_m) rho_m."""
    offsets = difference_grid(mesh.N, mesh.dx)
    return mesh.dx * np.asarray(W.value(offsets, order=order), dtype=float)


def default_gradient_dt(mesh: SpaceTimeMesh, spec: EnergySpec, rho0: np.ndarray) -> float:
    """Stability-motivated default step: min(dt, 0.2 dx^2 / max rho) with a
    diffusive term, otherwise an advective bound from the drift slope."""
    if spec.U.kind in (ENTROPY, POWER):
        return min(mesh.dt, 0.2 * mesh.dx**2 / float(np.max(rho0)))
    drift = field_on_grid(spec.V, mesh.x, order=1)
    if spec.W is not None:
        drift = drift + np.convolve(_offset_kernel(spec.W, mesh, order=1), rho0, "valid")
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
    ``wconv`` is dx W on the 2N-1 pair differences (``_offset_kernel``),
    built from spec.W when not given; a simulation builds it once.
    """
    rho = state.density
    if v_grid is None:
        v_grid = field_on_grid(spec.V, mesh.x)
    if wconv is None and spec.W is not None:
        wconv = _offset_kernel(spec.W, mesh)
    drive = spec.U.du(rho) + v_grid
    if wconv is not None:
        drive = drive + np.convolve(wconv, rho, "valid")
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

    W is read on the 2N-1 pair differences once per derivative order.
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
    v_grid = field_on_grid(spec.V, mesh.x)
    wconv = None if spec.W is None else _offset_kernel(spec.W, mesh)
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
        energies.append(free_energy(state.density, spec, mesh, wconv=wconv, v_grid=v_grid))
    traj = DensityTrajectory(mesh, samples, boundary_mode=PERIODIC)
    diagnostics = {
        "dt_solver": dt_solver,
        "floor_hits": floor_hits,
        "free_energy": energies,
    }
    return traj, diagnostics


def free_energy(rho: np.ndarray, spec: EnergySpec, mesh: SpaceTimeMesh,
                wconv: np.ndarray | None = None, v_grid: np.ndarray | None = None) -> float:
    """Discrete energy: internal + potential + 1/2 interaction (through ``wconv``) terms."""
    if v_grid is None:
        v_grid = field_on_grid(spec.V, mesh.x)
    total = mesh.dx * float(np.sum(spec.U.u(rho)))
    total += mesh.dx * float(np.sum(v_grid * rho))
    if spec.W is not None:
        if wconv is None:
            wconv = _offset_kernel(spec.W, mesh)
        total += 0.5 * mesh.dx * float(rho @ np.convolve(wconv, rho, "valid"))
    return total


# ---------------------------------------------------------------------------
# Hamiltonian flow via characteristics
# ---------------------------------------------------------------------------

def _wrap(values: np.ndarray, a: float, length: float) -> np.ndarray:
    return a + np.mod(values - a, length)


def _minimal_image(diff: np.ndarray, length: float) -> np.ndarray:
    return diff - length * np.round(diff / length)


_SERIES_START = 32       # first sample count of a series
_SERIES_LIMIT = 2**16    # last sample count tried before V or W is rejected
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


def _phase(y: np.ndarray, modes: int, length: float) -> np.ndarray:
    """exp(i omega_k y), omega_k = 2 pi k / L, for the modes k < ``modes``
    as the last axis.

    Only exp(i omega_1 y) comes from cos and sin; the other columns come
    by doubling: columns w .. 2w - 1 are columns 0 .. w - 1 times
    exp(i omega_w y), the square of column w / 2.  Column k is then a
    product of at most 2 log2 k factors, and its phase carries an error of
    order k eps, as cos(omega_k y) does through the rounding of omega_k y.
    """
    phase = np.empty(y.shape + (modes,), dtype=complex)
    phase[..., 0] = 1.0
    if modes > 1:
        angle = 2.0 * np.pi / length * y
        phase[..., 1].real = np.cos(angle)
        phase[..., 1].imag = np.sin(angle)
    w = 2
    while w < modes:
        top = min(2 * w, modes)
        phase[..., w:top] = phase[..., :top - w] * (phase[..., w // 2] ** 2)[..., None]
        w *= 2
    return phase


def _sample(G, centre: float, d: np.ndarray, order: int) -> np.ndarray:
    """G^(order)(centre + d), corrected to first order for the rounding of
    centre + d: x = fl(centre + d) misses centre + d by the exact error
    ``err`` of the two-sum (Knuth, TAOCP vol. 2, 4.2.2), and G^(order)(x)
    misses by err G^(order+1)(x), which would otherwise exceed the
    roundoff of the values for a G narrow against |centre|.  At centre 0,
    as for W, err is 0 and the values are G's own."""
    x = centre + d
    b = x - centre
    err = (centre - (x - b)) + (d - b)
    values = np.asarray(G.value(x, order=order), dtype=float)
    if np.any(err):
        values = values + err * np.asarray(G.value(x, order=order + 1), dtype=float)
    return values


def _torus_series(G, name: str, centre: float, length: float,
                  order: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Fourier coefficients and seam jumps of G^(order)(centre + d) for d
    on [-L/2, L/2], the seam of the torus of length L at d = +-L/2.

    With J1 = G(centre + L/2) - G(centre - L/2) and J2 the same for G',
    G(centre + d) = f(d) + J1 d / L + J2 d^2 / (2 L), so f and f' are
    continuous on the torus even where G and G' are not (the truncated
    wrap of a heavy-tailed kernel leaves them jumps of up to about 1e-4 of
    the size of their terms).  f is sampled (``_sample``) at the minimal
    images d of p L / P for P = 32, 64, ..., and the first P whose modes
    k < P/4 reproduce the samples to _SERIES_TOL eps times the size of the
    terms of G (``G.magnitude``, the scale of the samples' roundoff) stops
    the search.  Those modes are kept, multiplied by their weights (1, 2,
    2, ...) of the real series, so that f(d) = Re sum_k c_k exp(i omega_k d)
    at any d, wrapped or not.  A jump within the roundoff of its terms is
    returned as 0: dropped with its seam term, it moves G by at most 2 eps
    times the size of its terms.  ``PeriodicityError`` naming ``name`` when
    no P up to 2^16 qualifies, or when a jump exceeds _JUMP_TOL of the size
    of its terms: G is then not periodic with the torus's length as its
    period, or is a periodic wrap with too few copies.
    """
    names = (name, name + "'", name + "''")[order:order + 2]
    ends = np.array([0.5, -0.5]) * length
    jumps = tuple(float(g[0] - g[1]) for g in (
        _sample(G, centre, ends, k) for k in (order, order + 1)))
    P = _SERIES_START
    while True:
        d = _minimal_image(length * np.arange(P) / P, length)
        f = (_sample(G, centre, d, order)
             - jumps[0] / length * d - jumps[1] / (2.0 * length) * d**2)
        c = np.fft.rfft(f) / P
        c[P // 4:] = 0.0
        scale = float(np.max(G.magnitude(centre + d, order=order)))
        miss = float(np.max(np.abs(np.fft.irfft(c, n=P) * P - f)))
        if miss <= _SERIES_TOL * np.finfo(float).eps * scale:
            break
        if P == _SERIES_LIMIT:
            raise PeriodicityError(
                name,
                f"the Fourier series of {names[0]} on the torus of length "
                f"{length:g} has not converged at {P} samples: its first "
                f"{P // 4} modes miss the samples by {miss / scale:.2g} of the "
                f"size of its terms; it is not smooth across the period "
                f"boundary (wrap {name} with the domain length as its period)"
            )
        P *= 2
    sizes = (scale, float(np.max(G.magnitude(centre + d, order=order + 1))))
    for part, jump, size in zip(names, jumps, sizes):
        if abs(jump) > _JUMP_TOL * size:
            raise PeriodicityError(
                name,
                f"{part} jumps by {abs(jump) / size:.2g} of the size of "
                f"its terms across the period boundary of the torus of "
                f"length {length:g}, more than the {_JUMP_TOL:g} a "
                f"truncated periodic wrap leaves; {name} is not periodic there "
                f"(wrap {name} with the domain length as its period and enough "
                f"copies)"
            )
    c[1:] *= 2.0
    return c[:P // 4], tuple(0.0 if abs(j) <= 4.0 * np.finfo(float).eps * size else j
                             for j, size in zip(jumps, sizes))


class EnergySeries:
    """V and W of one energy as Fourier series tables on the torus
    [a, a + L): ``potential[order]`` and ``interaction[order]``, order 0
    and 1, hold the coefficients and seam jumps (``_torus_series``) of
    V^(order) and W^(order), None for an absent function.

    W^(order) is tabled in the minimal-image pair difference, so its seam
    is at +-L/2; V^(order) in the minimal-image offset from the middle
    ``centre`` = a + L/2 of the torus, so its seam is at a, where a wrap
    into [a, a + L) puts it.  A V or W that is not periodic on the torus
    raises ``PeriodicityError`` naming it.
    """

    def __init__(self, spec: EnergySpec, a: float, length: float):
        self.centre, self.length = a + 0.5 * length, length
        self.potential = None if spec.V is None else [
            _torus_series(spec.V, "V", self.centre, length, order) for order in (0, 1)]
        self.interaction = None if spec.W is None else [
            _torus_series(spec.W, "W", 0.0, length, order) for order in (0, 1)]

    def modes(self) -> dict:
        """The kept mode counts of V' and W', 0 for an absent function."""
        return {f"{key}_modes": 0 if table is None else table[1][0].size
                for key, table in (("potential", self.potential),
                                   ("interaction", self.interaction))}


class _Lockstep:
    """One order of the tables of B energies on one torus, stacked by flow:
    coefficient rows of V and of W over the modes k < K, K the most any of
    the tables keeps (zero beyond a table's own), and the flows whose V or
    W has seam jumps."""

    def __init__(self, tables: list[EnergySeries], order: int):
        self.centre, self.length = tables[0].centre, tables[0].length
        parts = [(table.potential, table.interaction) for table in tables]
        self.modes = max([part[order][0].size for row in parts for part in row
                          if part is not None], default=0)
        coeffs = np.zeros((2, len(tables), self.modes), dtype=complex)
        self.seams = ([], [])      # (flow, jumps) of V, of W
        for b, row in enumerate(parts):
            for i, part in enumerate(row):
                if part is not None:
                    c, jumps = part[order]
                    coeffs[i, b, :c.size] = c
                    if any(jumps):
                        self.seams[i].append((b, jumps))
        self.potential = coeffs[0]
        self.interaction = coeffs[1] if any(row[1] is not None for row in parts) else None

    def __call__(self, q: np.ndarray, masses: np.ndarray,
                 pair_weight: float = 1.0) -> np.ndarray:
        """V^(order)(q_bi) + pair_weight sum_j m_j W^(order)(mi(q_bi - q_bj))
        for every flow b and particle i of the positions q (B x n), which
        need not be wrapped.

        Both series are read at y, the minimal-image offsets of q from the
        middle of the torus: V's is tabled in y, and W's pair sums do not
        change when every particle moves by the same amount.  With
        E_bik = exp(i omega_k y_bi), M_bk = sum_j m_j E_bjk and c_k, w_k the
        coefficients of V and W, the series part is
        Re sum_k (c_k + pair_weight w_k conj(M_bk)) E_bik: one phase matrix
        E (``_phase``) for both functions.  It is formed over blocks of
        about _PHASE_BLOCK entries, each block twice (once for M, once for
        the sums) when there is more than one and some flow has a W.
        """
        B, n = q.shape
        L = self.length
        y = _minimal_image(q - self.centre, L)
        fields = np.zeros((B, n))
        if self.modes:
            rows = max(1, _PHASE_BLOCK // (B * self.modes))
            blocks = [slice(lo, lo + rows) for lo in range(0, n, rows)]
            first = _phase(y[:, blocks[0]], self.modes, L)
            coeffs = self.potential
            if self.interaction is not None:
                moments = masses[blocks[0]] @ first
                for blk in blocks[1:]:
                    moments += masses[blk] @ _phase(y[:, blk], self.modes, L)
                coeffs = coeffs + pair_weight * self.interaction * moments.conj()
            coeffs = coeffs[..., None]
            fields[:, blocks[0]] = (first @ coeffs)[..., 0].real
            for blk in blocks[1:]:
                fields[:, blk] = (_phase(y[:, blk], self.modes, L) @ coeffs)[..., 0].real
        for b, (j1, j2) in self.seams[0]:
            fields[b] += j1 / L * y[b] + j2 / (2.0 * L) * y[b]**2
        for b, (j1, j2) in self.seams[1]:
            linear, quadratic = _seam_sums(y[b], masses, L)
            fields[b] += pair_weight * (j1 / L * linear + j2 / (2.0 * L) * quadratic)
        return fields


def _particle_energy(q: np.ndarray, v: np.ndarray, masses: np.ndarray,
                     tables: _Lockstep) -> np.ndarray:
    """Total discrete energy 1/2 sum m v^2 + sum m V(q) + 1/2 sum m m' W(q - q')
    of every flow of the positions and velocities q, v (B x n), from the
    order-0 ``tables``."""
    return (0.5 * v**2 + tables(q, masses, pair_weight=0.5)) @ masses


def _pchip_edge_slope(h0: np.ndarray, h1: np.ndarray, m0: np.ndarray,
                      m1: np.ndarray) -> np.ndarray:
    """One-sided three-point end slope, reset to 0 where its sign differs
    from the end secant m0 and clamped to 3 m0 where the first two secants
    differ in sign (Moler, Numerical Computing with MATLAB, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    clamp = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(clamp, 3.0 * m0, d))


def _pchip(knots: np.ndarray, values: np.ndarray,
           x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope at x of the monotone piecewise-cubic Hermite (PCHIP)
    interpolant through at least 3 strictly increasing knots, for each row
    of ``knots`` and ``values`` (B x knots), at the same x.

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
    w1 = 2.0 * h[:, 1:] + h[:, :-1]
    w2 = h[:, 1:] + 2.0 * h[:, :-1]
    inner = np.sign(m[:, 1:]) * np.sign(m[:, :-1]) > 0
    left, right = np.where(inner, m[:, :-1], 1.0), np.where(inner, m[:, 1:], 1.0)
    d = np.empty_like(values)
    d[:, 1:-1] = np.where(inner, 1.0 / ((w1 / left + w2 / right) / (w1 + w2)), 0.0)
    ends, inward = [0, -1], [1, -2]
    d[:, ends] = _pchip_edge_slope(h[:, ends], h[:, inward], m[:, ends], m[:, inward])
    t = (d[:, :-1] + d[:, 1:] - 2.0 * m) / h
    c3 = t / h
    c2 = (m - d[:, :-1]) / h - t
    k = np.stack([np.searchsorted(row, x, side="right") for row in knots])
    at = (np.arange(knots.shape[0])[:, None], np.clip(k - 1, 0, h.shape[1] - 1))
    u = x - knots[at]
    u2 = u * u
    c2k, c3k, dk = c2[at], c3[at], d[at]
    value = values[at] + dk * u + c2k * u2 + c3k * (u2 * u)
    slope = dk + (2.0 * c2k) * u + (3.0 * c3k) * u2
    return value, slope


def _push_forward_density(q: np.ndarray, mu0: np.ndarray,
                          mesh: SpaceTimeMesh) -> tuple[np.ndarray, np.ndarray]:
    """Resample the transported densities onto the grid, one per row of the
    positions q (B flows x N particles).

    Uses the monotone (PCHIP) interpolant of the inverse transport map s with
    rho(x) = mu0(s(x)) s'(x), evaluated from one periodic unrolling of the
    particle positions (``_pchip``: harmonic-mean interior slopes and
    three-point end slopes, Fritsch-Butland/Moler; grid points beyond the
    outermost knots extrapolate with the end cubics).  Values below
    DENSITY_FLOOR are raised to it; the number of such grid nodes per flow
    is returned with the densities.
    """
    length = mesh.domain_length
    x = mesh.x
    qw = _wrap(q, mesh.a, length)
    order = np.argsort(qw, kind="stable")
    q_sorted = qw[np.arange(q.shape[0])[:, None], order]
    x_pre = x[order]
    # unroll preimages so the map x -> q stays monotone on one period
    x_lift = x_pre.copy()
    x_lift[:, 1:] += np.cumsum(np.diff(x_pre) < 0, axis=1) * length
    # extend by one particle on each side for full coverage of [a, b]
    q_ext = np.concatenate([q_sorted[:, -1:] - length, q_sorted,
                            q_sorted[:, :1] + length], axis=1)
    x_ext = np.concatenate([x_lift[:, -1:] - length, x_lift,
                            x_lift[:, :1] + length], axis=1)
    s, ds = _pchip(q_ext, x_ext, x)
    # mu0 is a grid function; interpolate it periodically at the preimages
    x_grid_ext = np.concatenate([[x[0] - mesh.dx], x])
    mu_ext = np.concatenate([[mu0[-1]], mu0])
    s_wrapped = _wrap(s, x_grid_ext[0], length)
    mu_at_s = np.interp(s_wrapped, x_grid_ext, mu_ext)
    rho = mu_at_s * np.maximum(ds, 0.0)
    floored = rho < DENSITY_FLOOR
    rho[floored] = DENSITY_FLOOR
    return rho, floored.sum(axis=1)


def hamiltonian_flow_simulate(mu0: np.ndarray, phi0,
                              spec: EnergySpec | list[EnergySpec],
                              mesh: SpaceTimeMesh, dt_solver: float | None = None,
                              series: list[EnergySeries] | None = None):
    """Integrate the Hamiltonian flow on the torus by velocity Verlet.

    ``spec`` is one energy, or a list of B energies that share (mu0, phi0,
    mesh, dt_solver) and are integrated in lockstep as the flows b = 0 ..
    B - 1: their positions are one B x n array, and each step forms one
    phase matrix for all B n particles.  One energy is the case B = 1 of
    the same loop.  Particles start on the grid with q_i = x_i, velocity
    phi0'(x_i), and fixed quadrature masses mu0(x_i) dx.  The force and
    energy come from the Fourier series tables of V, V', W and W'
    (``EnergySeries``), built once per energy before the first step (or
    passed in as ``series``, one per energy, built on this mesh's torus).
    A step reads V' and the pair sums of W' of every flow off one phase
    matrix exp(i omega_k y), y the particles' offsets from the middle of
    the torus and k below the most modes any V' or W' keeps, so it costs
    O(B n K + B n log n) for n particles and K modes, and no kernel is
    evaluated in it; V and W must be smooth on the torus apart from
    jumps of the function and its first two derivatives across the period
    boundary, else ``PeriodicityError``.  Neighbours that meet by a data
    time, N - 1 and 0 across the period boundary included, raise
    ``FlowError``, prefixed "flow b: " when B > 1, b the first flow with a
    crossing.  The density at the data times comes from the 1-D
    push-forward rule; each flow's diagnostics count, per data time, the
    grid nodes raised to DENSITY_FLOOR, and record the initial and final
    energies (conserved only for an even W) and the kept mode counts of V'
    and W' (``EnergySeries.modes``).  Requires U = none.  Returns the
    trajectory and diagnostics of one energy, or for a list the list of
    each, in the order of the energies.
    """
    specs = [spec] if isinstance(spec, EnergySpec) else list(spec)
    if any(s.U.kind != NONE for s in specs):
        raise FlowError("Hamiltonian characteristics require U = none")
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (mesh.N,):
        raise FlowError(f"initial density must have {mesh.N} values")
    length = mesh.domain_length
    if series is None:
        series = [EnergySeries(s, mesh.a, length) for s in specs]
    forces, energies = _Lockstep(series, 1), _Lockstep(series, 0)
    B = len(specs)
    q = np.tile(mesh.x.astype(float), (B, 1))
    v = np.tile(field_on_grid(phi0, mesh.x, order=1), (B, 1))
    masses = mu0 * mesh.dx
    if dt_solver is None:
        vmax = max(float(np.max(np.abs(v))), 1e-12)
        dt_solver = min(mesh.dt, 0.2 * mesh.dx / vmax, 5e-3)
    samples = np.empty((B, mesh.L, mesh.N))
    floor_hits = np.empty((B, mesh.L), dtype=int)
    time = 0.0
    force = -forces(q, masses)
    kinetic0 = 0.5 * v**2 @ masses
    energy0 = _particle_energy(q, v, masses, energies)
    for l in range(mesh.L):
        target = mesh.t[l]
        n_sub = max(1, math.ceil((target - time) / dt_solver - 1e-12))
        dt = (target - time) / n_sub
        for _ in range(n_sub):
            q = q + dt * v + 0.5 * dt**2 * force
            new_force = -forces(q, masses)
            v = v + 0.5 * dt * (force + new_force)
            force = new_force
            time += dt
        crossed = np.diff(q, axis=1, append=q[:, :1] + length) <= 0
        if np.any(crossed):
            b, first = divmod(int(np.argmax(crossed)), mesh.N)
            raise FlowError(
                f"{f'flow {b}: ' if B > 1 else ''}particle crossing at t={time:.6g} "
                f"between particles {first} and {(first + 1) % mesh.N}"
            )
        samples[:, l], floor_hits[:, l] = _push_forward_density(q, mu0, mesh)
    kinetic = 0.5 * v**2 @ masses
    energy = _particle_energy(q, v, masses, energies)
    trajs, diagnostics = [], []
    for b, table in enumerate(series):
        trajs.append(DensityTrajectory(mesh, samples[b], boundary_mode=PERIODIC))
        diagnostics.append({
            "dt_solver": dt_solver,
            "kinetic_initial": float(kinetic0[b]),
            "kinetic_final": float(kinetic[b]),
            "energy_initial": float(energy0[b]),
            "energy_final": float(energy[b]),
            "floor_hits": floor_hits[b].tolist(),
            **table.modes(),
        })
    if isinstance(spec, EnergySpec):
        return trajs[0], diagnostics[0]
    return trajs, diagnostics
