"""Forward models: gradient-flow PDE stepping, Hamiltonian particle flow,
weighted Laplacian, and the geodesic correction term.

The 1-D density evolutions generated here are

    d/dt rho = div(rho grad(U'(rho) + V + W conv rho))            (gradient)
    d2/dt2 rho + Gamma(d/dt rho, d/dt rho) = div(rho grad(V + W conv rho))
                                                                  (Hamiltonian)

with Gamma the quadratic correction of the Otto geometry,

    Gamma(s, s) = -( Lap_s eta + 1/2 Lap_rho |grad eta|^2 ),  Lap_rho eta = s.

On the grid, div(rho grad phi) is discretized in conservation form as a
backward difference of the forward-difference flux,

    (Lap_rho phi)_n = d-( rho * d+ phi )_n,

which telescopes (exact mass conservation on the torus) and is symmetric
negative semidefinite, so Lap_rho eta = s has a solution for every
zero-mean s.  Gamma needs only its flux velocity v = d+ eta = J / rho, and
in 1-D J integrates in closed form: J = rho d+ eta is a running sum of s up
to a constant, which periodicity of eta fixes, so

    Gamma(s, s) = -d-( s v + 1/2 rho d+(v^2) )

with no potential formed, row by row over a whole trajectory.  The
gradient simulator reads W once, on the 2N-1 pair differences of
``mesh.difference_grid``, and one function forms every grid convolution
dx sum_m W(x_n - x_m) rho_m, or of W', as np.convolve(dx W, rho, "valid").

The Hamiltonian flow is integrated on characteristics: particles obey
q'' = -(V + W conv rho)'(q) with the mean-field convolution carried by fixed
particle masses, stepped by velocity Verlet; the density is recovered from
the 1-D push-forward rule rho_t(q_i) * dq_i/dx = mu0(x_i) and resampled onto
the grid through monotone interpolation of the transport map.

On the torus [a, a + L) the potential and every particle pair sum, V' and
the sums over W' for the force, V and the sums over W for the energy, go
through Fourier series.  G = W or W' is read at the minimal-image pair
difference d in [-L/2, L/2], G = V or V' at the minimal-image offset
y = wrap(x) - a - L/2 from the middle of the torus, whose boundary is at
a; with omega_k = 2 pi k / L and weights w = (1, 2, 2, ...),
G(d) = Re sum_k w_k c_k exp(i omega_k d), so

    sum_j m_j G(q_i - q_j)
        = Re sum_k w_k c_k exp(i omega_k y_i) sum_j m_j exp(-i omega_k y_j),

since the pair differences are those of the offsets y.  V's series is
read off the same phases exp(i omega_k y_i), so a Verlet step forms one
phase matrix for both and costs O(n K) for n particles and K modes
instead of n kernel sums for V and n^2 for W, which pays while K is small
against n times the kernel terms of W (K = 8 against 96 x 18 on the
benchmark's flow).  Flows that share a start, mesh and step are stepped
in lockstep: B of them form one B x n phase matrix per step.

Each order's coefficients are built once per simulation (``_torus_series``),
and a V or W that is not smooth and periodic on the torus (a kernel sum
not wrapped with the domain length as its period) is rejected with
``PeriodicityError``, naming its flow, before any flow takes a step.  A
smooth periodic G has exponentially decaying coefficients (Trefethen &
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
SCHEMES = ("divergence", "upwind")  # spatial fluxes of ``_GridEnergy.step``
# geodesic-correction inputs whose Riemann mean exceeds this fraction of
# their scale are rejected; smaller means are projected out of the flux
_MEAN_TOL = 1e-8


class FlowError(RuntimeError):
    """Solver failure: CFL violation, particle crossing, singular system."""


class PeriodicityError(FlowError):
    """The Fourier series of a potential V or an interaction kernel W, or
    of its derivative, did not converge on the torus: it is not periodic
    and smooth there, or is lost in roundoff.  ``function`` is "V" or
    "W", and ``flow`` the index of its energy in the list given to
    ``hamiltonian_flow_simulate``."""

    def __init__(self, function: str, message: str):
        super().__init__(message)
        self.function = function
        self.flow: int | None = None


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
        if self.kind == POWER and (self.exponent is None or not 1 < self.exponent < np.inf):
            raise ValueError("power internal energy requires a finite exponent m > 1")

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


# ---------------------------------------------------------------------------
# Weighted Laplacian, geodesic correction
# ---------------------------------------------------------------------------

def weighted_laplacian_apply(rho: np.ndarray, phi: np.ndarray, mesh: SpaceTimeMesh) -> np.ndarray:
    """Divergence-form discrete div(rho grad phi) on the periodic grid."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not np.all(rho > 0):
        raise FlowError("weighted Laplacian needs a strictly positive weight")
    flux = rho * diff_space(phi, mesh.dx, PERIODIC)
    return diff_space_backward(flux, mesh.dx)


def christoffel_term(rho: np.ndarray, rho_dot: np.ndarray, mesh: SpaceTimeMesh) -> np.ndarray:
    """Quadratic geodesic correction Gamma(rho_dot, rho_dot) on the torus,
    row by row along the last axis of (..., N) arrays.

    Gamma = -d-( rho_dot v + 1/2 rho d+(v^2) ) with v = J / rho the flux
    velocity of rho_dot: J = dx cumsum(rho_dot - mean) + J0, whose backward
    difference is rho_dot - mean, and J0 = -sum(J / rho) / sum(1 / rho), so
    that v is the forward difference of a periodic potential.  Each row
    must have positive rho and a Riemann mean of rho_dot within
    ``_MEAN_TOL`` of its scale; that mean is projected out of J.
    """
    rho = np.asarray(rho, dtype=float)
    rho_dot = np.asarray(rho_dot, dtype=float)
    if not np.all(rho > 0):
        raise FlowError("geodesic correction needs a strictly positive density")
    scale = np.max(np.abs(rho_dot), axis=-1)
    mean = rho_dot.mean(axis=-1)
    biased = np.abs(mean) * mesh.dx * rho.shape[-1] > _MEAN_TOL * scale * mesh.domain_length
    if np.any(biased):
        raise FlowError("geodesic correction input has non-zero mean "
                        f"{np.max(np.abs(mean[biased])) * mesh.domain_length:.3g}")
    flux = mesh.dx * np.cumsum(rho_dot - mean[..., None], axis=-1)
    flux -= (np.sum(flux / rho, axis=-1) / np.sum(1.0 / rho, axis=-1))[..., None]
    v = flux / rho
    return -diff_space_backward(rho_dot * v + 0.5 * rho * diff_space(v**2, mesh.dx, PERIODIC),
                                mesh.dx)


# ---------------------------------------------------------------------------
# Gradient flow solver
# ---------------------------------------------------------------------------

def _convolve(kernel: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The grid convolution of a ``_GridEnergy.kernel`` with rho: every
    W conv rho and W' conv rho of the gradient flow."""
    return np.convolve(kernel, rho, "valid")


class _GridEnergy:
    """An energy read onto the grid once per simulation: U, V at the grid
    points and dx W on the pair differences (``kernel``, or None)."""

    def __init__(self, spec: EnergySpec, mesh: SpaceTimeMesh):
        self.spec, self.mesh = spec, mesh
        self.v = field_on_grid(spec.V, mesh.x)
        self.w = None if spec.W is None else self.kernel(0)

    def kernel(self, order: int) -> np.ndarray:
        """dx W^(order) on the 2N-1 pair differences of ``difference_grid``,
        whose ``_convolve`` with rho is dx sum_m W^(order)(x_n - x_m) rho_m."""
        offsets = difference_grid(self.mesh.N, self.mesh.dx)
        return self.mesh.dx * np.asarray(self.spec.W.value(offsets, order=order), dtype=float)

    def drive(self, rho: np.ndarray) -> np.ndarray:
        """U'(rho) + V + W conv rho, whose gradient drives the flux."""
        drive = self.spec.U.du(rho) + self.v
        if self.w is not None:
            drive = drive + _convolve(self.w, rho)
        return drive

    def free(self, rho: np.ndarray) -> float:
        """Discrete free energy: internal + potential + 1/2 interaction terms."""
        total = self.mesh.dx * float(np.sum(self.spec.U.u(rho)))
        total += self.mesh.dx * float(np.sum(self.v * rho))
        if self.w is not None:
            total += 0.5 * self.mesh.dx * float(rho @ _convolve(self.w, rho))
        return total

    def default_dt(self, rho0: np.ndarray, scheme: str) -> float:
        """Stability-motivated default step: min(dt, 0.2 dx^2 / max rho0) with
        a diffusive U, otherwise an advective bound from the drift slope, 2.5
        times wider for the upwind flux, which keeps a pure drift positive."""
        mesh = self.mesh
        if self.spec.U.kind != NONE:
            return min(mesh.dt, 0.2 * mesh.dx**2 / float(np.max(rho0)))
        drift = field_on_grid(self.spec.V, mesh.x, order=1)
        if self.w is not None:
            drift = drift + _convolve(self.kernel(1), rho0)
        vmax = float(np.max(np.abs(drift)))
        if vmax == 0.0:
            return mesh.dt
        return min(mesh.dt, (2.5 if scheme == "upwind" else 1.0) * (0.2 * mesh.dx / vmax))

    def step(self, rho: np.ndarray, dt_solver: float, scheme: str,
             time: float) -> tuple[np.ndarray, int]:
        """One explicit-Euler step of the gradient flow on the periodic grid
        from the density rho at ``time``: the new density and the number of
        its nodes raised to DENSITY_FLOOR.

        ``scheme`` picks the spatial flux: "divergence" is the weighted-Laplacian
        stencil shared with the estimator (needs a diffusive internal energy for
        stability); "upwind" selects the donor cell by the face velocity, which
        keeps pure-drift flows positive under the advective CFL condition.
        """
        drive = self.drive(rho)
        if scheme == "divergence":
            update = weighted_laplacian_apply(rho, drive, self.mesh)
        else:
            slope = diff_space(drive, self.mesh.dx, PERIODIC)
            donor = np.where(slope < 0, rho, np.roll(rho, -1))
            update = diff_space_backward(donor * slope, self.mesh.dx)
        rho_new = rho + dt_solver * update
        n_neg = int((rho_new < DENSITY_FLOOR).sum())
        if n_neg > 0.01 * rho.size and np.any(rho_new < -DENSITY_FLOOR):
            raise FlowError(
                f"density went negative at {n_neg}/{rho.size} nodes at t={time:.4g}; "
                f"reduce dt_solver (currently {dt_solver:g})"
            )
        return np.maximum(rho_new, DENSITY_FLOOR), n_neg


def gradient_flow_simulate(rho0: np.ndarray, spec: EnergySpec, mesh: SpaceTimeMesh,
                           dt_solver: float | None = None,
                           scheme: str = "divergence") -> tuple[DensityTrajectory, dict]:
    """Integrate the gradient flow and sample at the data times t_1..t_L.

    The energy is read onto the grid once (``_GridEnergy``), W once per
    derivative order; ``scheme``, one of SCHEMES, picks the flux.  Returns
    the trajectory (periodic boundary mode) and a diagnostics dict with, per
    output time, the floor hits (nodes raised to DENSITY_FLOOR, summed over
    the solver steps since the previous output time) and the discrete free
    energy.
    """
    rho = np.asarray(rho0, dtype=float)
    if rho.shape != (mesh.N,):
        raise FlowError(f"initial density must have {mesh.N} values")
    if scheme not in SCHEMES:
        raise FlowError(f"unknown scheme {scheme!r}")
    energy = _GridEnergy(spec, mesh)
    if dt_solver is None:
        dt_solver = energy.default_dt(rho, scheme)
    time = 0.0
    samples = np.empty((mesh.L, mesh.N))
    energies = []
    floor_hits = []
    for l in range(mesh.L):
        target = mesh.t[l]
        n_sub = max(1, math.ceil((target - time) / dt_solver - 1e-12))
        dt = (target - time) / n_sub
        hits = 0
        for _ in range(n_sub):
            rho, floored = energy.step(rho, dt, scheme, time)
            hits += floored
            time += dt
        samples[l] = rho
        floor_hits.append(hits)
        energies.append(energy.free(rho))
    traj = DensityTrajectory(mesh, samples, boundary_mode=PERIODIC)
    diagnostics = {
        "dt_solver": dt_solver,
        "floor_hits": floor_hits,
        "free_energy": energies,
    }
    return traj, diagnostics


# ---------------------------------------------------------------------------
# Hamiltonian flow via characteristics
# ---------------------------------------------------------------------------

def _wrap(values: np.ndarray, a: float, length: float) -> np.ndarray:
    return a + np.mod(values - a, length)


def _minimal_image(diff: np.ndarray, length: float) -> np.ndarray:
    return diff - length * np.round(diff / length)


_SERIES_START = 32       # first sample count of a series
_SERIES_LIMIT = 2**16    # last sample count tried before V or W is rejected
_SERIES_TOL = 32.0       # allowed miss of a series at its samples, in eps
                         # times the size of the terms of G
_PHASE_BLOCK = 2**19     # particle x mode entries per block of the phase matrix


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


def _torus_series(G, name: str, centre: float, length: float, order: int) -> np.ndarray:
    """Fourier coefficients of G^(order)(centre + d) for d on [-L/2, L/2],
    on the torus of length L.

    G is sampled (``_sample``) at the minimal images d of p L / P for
    P = 32, 64, ..., and the first P whose modes k < P/4 reproduce the
    samples to _SERIES_TOL eps times the size of the terms of G
    (``G.magnitude``, the scale of the samples' roundoff) stops the search.
    Those modes are kept, multiplied by their weights (1, 2, 2, ...) of the
    real series, so that G(centre + d) = Re sum_k c_k exp(i omega_k d) at
    any d, wrapped or not.  ``PeriodicityError`` naming ``name`` when no P
    up to 2^16 qualifies: G is then not smooth and periodic with the
    torus's length as a period.
    """
    P, part = _SERIES_START, name + "'" * order
    while True:
        d = _minimal_image(length * np.arange(P) / P, length)
        f = _sample(G, centre, d, order)
        c = np.fft.rfft(f) / P
        c[P // 4:] = 0.0
        scale = float(np.max(G.magnitude(centre + d, order=order)))
        miss = float(np.max(np.abs(np.fft.irfft(c, n=P) * P - f)))
        if miss <= _SERIES_TOL * np.finfo(float).eps * scale:
            break
        if P == _SERIES_LIMIT:
            raise PeriodicityError(
                name,
                f"the Fourier series of {part} on the torus of "
                f"length {length:g} has not converged at {P} samples: its first "
                f"{P // 4} modes miss the samples by {miss / scale:.2g} of the "
                f"size of its terms; it is not smooth across the period "
                f"boundary (wrap {name} with the domain length as its period)"
            )
        P *= 2
    c[1:] *= 2.0
    return c[:P // 4]


def _energy_tables(specs: list[EnergySpec], a: float,
                   length: float) -> tuple[_Lockstep, _Lockstep]:
    """The order-0 and order-1 tables of V and W of the energies ``specs``
    on the torus [a, a + L), stacked by flow (``_Lockstep``).

    W^(order) is tabled in the minimal-image pair difference, V^(order) in
    the minimal-image offset from the middle a + L/2 of the torus.  The
    series (``_torus_series``) are built flow by flow, V before W and order
    0 before order 1, and the first V or W in that order that is not
    periodic on the torus raises its ``PeriodicityError``, with ``flow``
    set to its index in ``specs``.
    """
    centre = a + 0.5 * length
    parts = []      # per flow, V and W: their coefficients by order
    for b, spec in enumerate(specs):
        try:
            parts.append([None if G is None else [
                _torus_series(G, name, at, length, order) for order in (0, 1)]
                for name, G, at in (("V", spec.V, centre), ("W", spec.W, 0.0))])
        except PeriodicityError as exc:
            exc.flow = b
            raise
    return _Lockstep(parts, 0, centre, length), _Lockstep(parts, 1, centre, length)


class _Lockstep:
    """One order of the tables of B energies on one torus, stacked by flow:
    coefficient rows of V and of W over the modes k < K, K the most any of
    the tables keeps (zero beyond a table's own), and the kept mode counts
    of each flow's V and W (0 for an absent function)."""

    def __init__(self, parts: list, order: int, centre: float, length: float):
        self.centre, self.length = centre, length
        self.kept = [tuple(0 if part is None else part[order].size for part in row)
                     for row in parts]
        self.modes = max((k for row in self.kept for k in row), default=0)
        coeffs = np.zeros((2, len(parts), self.modes), dtype=complex)
        for b, row in enumerate(parts):
            for i, part in enumerate(row):
                if part is not None:
                    coeffs[i, b, :part[order].size] = part[order]
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
        coefficients of V and W, the fields are
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


def hamiltonian_flow_simulate(mu0: np.ndarray, phi0, specs: list[EnergySpec],
                              mesh: SpaceTimeMesh, dt_solver: float | None = None):
    """Integrate the Hamiltonian flows of the B energies ``specs`` on the
    torus by velocity Verlet.

    The energies share (mu0, phi0, mesh, dt_solver) and are integrated in
    lockstep as the flows b = 0 .. B - 1: their positions are one B x n
    array, and each step forms one phase matrix for all B n particles.
    Particles start on the grid with q_i = x_i, velocity phi0'(x_i), and
    fixed quadrature masses mu0(x_i) dx.  The force and energy come from
    the Fourier series tables of V, V', W and W' of every energy
    (``_energy_tables``), all built before the first step.  A step reads V'
    and the pair sums of W' of every flow off one phase matrix
    exp(i omega_k y), y the particles' offsets from the middle of the torus
    and k below the most modes any V' or W' keeps, so it costs
    O(B n K) for n particles and K modes, and no kernel is evaluated in
    it; V and W must be smooth and periodic on the torus, else
    ``PeriodicityError`` with ``flow`` = b.  Neighbours that
    meet by a data time, N - 1 and 0 across the period boundary included,
    raise ``FlowError``, prefixed "flow b: " when B > 1, b the first flow
    with a crossing.  The density at the data times comes from the 1-D
    push-forward rule; each flow's diagnostics count, per data time, the
    grid nodes raised to DENSITY_FLOOR, and record the initial and final
    energies (conserved only for an even W) and the kept mode counts of V'
    and W'.  Requires U = none.  Returns the list of trajectories and the
    list of diagnostics, in the order of the energies.
    """
    if any(s.U.kind != NONE for s in specs):
        raise FlowError("Hamiltonian characteristics require U = none")
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (mesh.N,):
        raise FlowError(f"initial density must have {mesh.N} values")
    length = mesh.domain_length
    energies, forces = _energy_tables(specs, mesh.a, length)
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
    for b, (v_modes, w_modes) in enumerate(forces.kept):
        trajs.append(DensityTrajectory(mesh, samples[b], boundary_mode=PERIODIC))
        diagnostics.append({
            "dt_solver": dt_solver,
            "kinetic_initial": float(kinetic0[b]),
            "kinetic_final": float(kinetic[b]),
            "energy_initial": float(energy0[b]),
            "energy_final": float(energy[b]),
            "floor_hits": floor_hits[b].tolist(),
            "potential_modes": v_modes,
            "interaction_modes": w_modes,
        })
    return trajs, diagnostics
