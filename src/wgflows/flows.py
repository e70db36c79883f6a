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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

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
        wmat1 = np.asarray(spec.W.value(x[:, None] - x[None, :], order=1), dtype=float)
        drift = drift + mesh.dx * wmat1 @ rho0
    vmax = float(np.max(np.abs(drift)))
    if vmax == 0.0:
        return mesh.dt
    return min(mesh.dt, 0.2 * mesh.dx / vmax)


def gradient_flow_step(state: FlowState, spec: EnergySpec, mesh: SpaceTimeMesh,
                       dt_solver: float, wmat: np.ndarray | None = None,
                       v_grid: np.ndarray | None = None,
                       scheme: str = "divergence") -> FlowState:
    """One explicit-Euler step of the gradient flow on the periodic grid.

    ``scheme`` picks the spatial flux: "divergence" is the weighted-Laplacian
    stencil shared with the estimator (needs a diffusive internal energy for
    stability); "upwind" selects the donor cell by the face velocity, which
    keeps pure-drift flows positive under the advective CFL condition.
    """
    if spec.U.kind == FISHER:
        raise FlowError("gradient solver does not integrate the fisher energy")
    rho = state.density
    x = mesh.x
    if v_grid is None:
        v_grid = field_on_grid(spec.V, x)
    if wmat is None:
        wmat = interaction_matrix(spec.W, mesh)
    drive = spec.U.du(rho) + v_grid
    if wmat is not None:
        drive = drive + mesh.dx * wmat @ rho
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
            state = gradient_flow_step(state, spec, mesh, dt, wmat=wmat,
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


_PAIR_BLOCK = 4096  # pair differences per block of the particle interaction


def _pair_sums(qw: np.ndarray, masses: np.ndarray, W, order: int,
               length: float) -> np.ndarray:
    """sum_j m_j W^(order)(q_i - q_j) for every particle i.

    Pair differences use the minimal image, which is exact for periodic W.
    The pairs are evaluated over row blocks of about _PAIR_BLOCK pairs,
    which bounds the (pairs x generators) temporaries of a kernel-sum W; at
    n x n they are large enough to be mapped afresh from the operating
    system at every step.
    """
    sums = np.empty_like(qw)
    rows = max(1, _PAIR_BLOCK // qw.size)
    for lo in range(0, qw.size, rows):
        diff = _minimal_image(qw[lo:lo + rows, None] - qw[None, :], length)
        sums[lo:lo + rows] = np.asarray(W.value(diff, order=order), dtype=float) @ masses
    return sums


def _particle_force(q: np.ndarray, masses: np.ndarray, spec: EnergySpec,
                    a: float, length: float) -> np.ndarray:
    """Acceleration -(V + W conv rho)'(q) with mean-field particle masses.

    Positions are wrapped, which is exact for periodic V and W.
    """
    qw = _wrap(q, a, length)
    force = np.zeros_like(q)
    if spec.V is not None:
        force -= np.asarray(spec.V.value(qw, order=1), dtype=float)
    if spec.W is not None:
        force -= _pair_sums(qw, masses, spec.W, 1, length)
    return force


def _push_forward_density(q: np.ndarray, mu0: np.ndarray,
                          mesh: SpaceTimeMesh) -> tuple[np.ndarray, int]:
    """Resample the transported density onto the grid.

    Uses the monotone (PCHIP) interpolant of the inverse transport map s with
    rho(x) = mu0(s(x)) s'(x), evaluated from one periodic unrolling of the
    particle positions.  Values below DENSITY_FLOOR are raised to it; the
    number of such grid nodes is returned with the density.
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
    inverse_map = PchipInterpolator(q_ext, x_ext)
    s = inverse_map(x)
    ds = inverse_map.derivative()(x)
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
                              ) -> tuple[DensityTrajectory, dict]:
    """Integrate the Hamiltonian flow on the torus by velocity Verlet.

    Particles start on the grid with q_i = x_i, velocity phi0'(x_i), and
    fixed quadrature masses mu0(x_i) dx.  The density samples at the data
    times come from the 1-D push-forward rule; the diagnostics count, per
    data time, the grid nodes where that density was raised to
    DENSITY_FLOOR.  Requires U = none.
    """
    if spec.U.kind != NONE:
        raise FlowError("Hamiltonian characteristics require U = none")
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (mesh.N,):
        raise FlowError(f"initial density must have {mesh.N} values")
    length = mesh.domain_length
    q = mesh.x.astype(float).copy()
    v = field_on_grid(phi0, q, order=1)
    masses = mu0 * mesh.dx
    if dt_solver is None:
        vmax = max(float(np.max(np.abs(v))), 1e-12)
        dt_solver = min(mesh.dt, 0.2 * mesh.dx / vmax, 5e-3)
    samples = np.empty((mesh.L, mesh.N))
    floor_hits = []
    time = 0.0
    force = _particle_force(q, masses, spec, mesh.a, length)
    kinetic0 = 0.5 * float(masses @ v**2)
    for l in range(mesh.L):
        target = mesh.t[l]
        n_sub = max(1, math.ceil((target - time) / dt_solver - 1e-12))
        dt = (target - time) / n_sub
        for _ in range(n_sub):
            q = q + dt * v + 0.5 * dt**2 * force
            new_force = _particle_force(q, masses, spec, mesh.a, length)
            v = v + 0.5 * dt * (force + new_force)
            force = new_force
            time += dt
        if np.any(np.diff(q) <= 0):
            first = int(np.argmax(np.diff(q) <= 0))
            raise FlowError(
                f"particle crossing at t={time:.6g} between particles "
                f"{first} and {first + 1}"
            )
        samples[l], hits = _push_forward_density(q, mu0, mesh)
        floor_hits.append(hits)
    traj = DensityTrajectory(mesh, samples, boundary_mode=PERIODIC)
    diagnostics = {
        "dt_solver": dt_solver,
        "kinetic_initial": kinetic0,
        "kinetic_final": 0.5 * float(masses @ v**2),
        "energy_final": particle_energy(q, v, masses, spec, mesh),
        "floor_hits": floor_hits,
    }
    return traj, diagnostics


def particle_energy(q: np.ndarray, v: np.ndarray, masses: np.ndarray,
                    spec: EnergySpec, mesh: SpaceTimeMesh) -> float:
    """Total discrete energy 1/2 sum m v^2 + sum m V(q) + 1/2 sum m m' W(q - q')."""
    length = mesh.domain_length
    qw = _wrap(q, mesh.a, length)
    total = 0.5 * float(masses @ v**2)
    if spec.V is not None:
        total += float(masses @ np.asarray(spec.V.value(qw), dtype=float))
    if spec.W is not None:
        total += 0.5 * float(masses @ _pair_sums(qw, masses, spec.W, 0, length))
    return total
