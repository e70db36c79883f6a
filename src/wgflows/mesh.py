"""Uniform space-time meshes, forward differences, and trajectory file I/O.

The sampling grid on [0, T] x [a, b] is

    x_n = a + n * dx,   t_l = l * dt,   dx = (b - a) / N,   dt = T / L,

for n = 1..N and l = 1..L, so the spatial grid excludes the left endpoint
and includes the right one.  Arrays are indexed 0-based: ``values[l, n]``
holds the sample at ``(t_{l+1}, x_{n+1})`` of the grid above.

All forward differences use the one-sided stencil with a truncation branch
at the last index, e.g. in space

    (d+ v)_n = (v_{n+1} - v_n) / dx      for n < N,
    (d+ v)_N = -v_N / dx                 in "paper-truncated" mode,
    (d+ v)_N = (v_1 - v_N) / dx          in "periodic" mode.

The truncation branch is exact only for fields vanishing past the boundary;
periodic mode is the right choice on the torus.  Time differences always use
the truncation branch (there is no periodicity in time).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PERIODIC = "periodic"
TRUNCATED = "paper-truncated"
BOUNDARY_MODES = (PERIODIC, TRUNCATED)

MASS_TOLERANCE = 0.05


class MeshError(ValueError):
    """Invalid mesh parameters or mismatched grid data."""


@dataclass(frozen=True)
class SpaceTimeMesh:
    """Uniform grid on [0, T] x [a, b] with N space and L time samples."""

    a: float
    b: float
    T: float
    N: int
    L: int

    def __post_init__(self):
        if not self.b > self.a:
            raise MeshError(f"need b > a, got a={self.a}, b={self.b}")
        if not self.T > 0:
            raise MeshError(f"need T > 0, got {self.T}")
        if self.N < 1 or self.L < 1:
            raise MeshError(f"need N, L >= 1, got N={self.N}, L={self.L}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.N

    @property
    def dt(self) -> float:
        return self.T / self.L

    @property
    def domain_length(self) -> float:
        return self.b - self.a

    @property
    def x(self) -> np.ndarray:
        """Spatial grid points x_n = a + n*dx, n = 1..N."""
        return self.a + self.dx * np.arange(1, self.N + 1)

    @property
    def t(self) -> np.ndarray:
        """Temporal grid points t_l = l*dt, l = 1..L."""
        return self.dt * np.arange(1, self.L + 1)


def difference_grid(N: int, dx: float) -> np.ndarray:
    """Pair differences x_n - x_m = d*dx, d = -(N-1)..N-1, d at index d + N - 1."""
    return dx * np.arange(-(N - 1), N)


def diff_space(values: np.ndarray, dx: float, mode: str) -> np.ndarray:
    """Forward difference along the last axis with the chosen boundary branch."""
    if mode not in BOUNDARY_MODES:
        raise MeshError(f"unknown boundary mode {mode!r}")
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[..., :-1] = (v[..., 1:] - v[..., :-1]) / dx
    if mode == PERIODIC:
        out[..., -1] = (v[..., 0] - v[..., -1]) / dx
    else:
        out[..., -1] = -v[..., -1] / dx
    return out


def diff_space_backward(values: np.ndarray, dx: float) -> np.ndarray:
    """Periodic backward difference along the last axis, the negative
    adjoint of the periodic ``diff_space``."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[..., 1:] = (v[..., 1:] - v[..., :-1]) / dx
    out[..., 0] = (v[..., 0] - v[..., -1]) / dx
    return out


def diff_time(values: np.ndarray, dt: float) -> np.ndarray:
    """Forward difference along the first axis with the truncation branch."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[:-1] = (v[1:] - v[:-1]) / dt
    out[-1] = -v[-1] / dt
    return out


def diff_time2(values: np.ndarray, dt: float) -> np.ndarray:
    """Double forward difference in time (composition of diff_time)."""
    return diff_time(diff_time(values, dt), dt)


@dataclass
class DensityTrajectory:
    """Positive density samples rho(t_l, x_n) on a SpaceTimeMesh.

    ``values`` has shape (L, N).  Construction rejects non-positive and
    non-finite samples;
    per-slice mass away from 1 beyond MASS_TOLERANCE only warns, since data
    restricted to a sub-window legitimately loses mass.
    """

    mesh: SpaceTimeMesh
    values: np.ndarray
    boundary_mode: str = TRUNCATED

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.L, self.mesh.N):
            raise MeshError(
                f"values shape {self.values.shape} does not match mesh "
                f"(L={self.mesh.L}, N={self.mesh.N})"
            )
        if self.boundary_mode not in BOUNDARY_MODES:
            raise MeshError(f"unknown boundary mode {self.boundary_mode!r}")
        if not np.all((self.values > 0) & np.isfinite(self.values)):
            raise MeshError("density trajectory must be finite and strictly positive")
        masses = self.mesh.dx * self.values.sum(axis=1)
        worst = float(np.max(np.abs(masses - 1.0)))
        if worst > MASS_TOLERANCE:
            warnings.warn(
                f"per-slice mass deviates from 1 by up to {worst:.3g}; "
                "data is used as-is (no renormalization)",
                stacklevel=2,
            )

    def dx_plus(self) -> np.ndarray:
        """Spatial forward differences of every slice."""
        return diff_space(self.values, self.mesh.dx, self.boundary_mode)

    def dt_plus(self) -> np.ndarray:
        return diff_time(self.values, self.mesh.dt)

    def dtt_plus(self) -> np.ndarray:
        return diff_time2(self.values, self.mesh.dt)


# ---------------------------------------------------------------------------
# Trajectory file format: CSV of shape (L, N) plus a JSON sidecar.
# ---------------------------------------------------------------------------

META_KEYS = ("a", "b", "T", "N", "L", "boundary_mode")


class TrajectoryFormatError(ValueError):
    """Raised when a trajectory CSV and its sidecar disagree."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def meta_path_for(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def write_trajectory(traj: DensityTrajectory, csv_path: str | Path) -> None:
    """Write the samples as CSV and the mesh description as a JSON sidecar."""
    csv_path = Path(csv_path)
    with open(csv_path, "w", encoding="utf-8") as fh:
        for row in traj.values:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")
    meta = {
        "a": traj.mesh.a,
        "b": traj.mesh.b,
        "T": traj.mesh.T,
        "N": traj.mesh.N,
        "L": traj.mesh.L,
        "boundary_mode": traj.boundary_mode,
    }
    with open(meta_path_for(csv_path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_trajectory(csv_path: str | Path) -> DensityTrajectory:
    """Read a trajectory CSV; the sidecar is mandatory and must match.

    Every fault of the files, including samples ``DensityTrajectory``
    rejects (non-positive or non-finite), raises ``TrajectoryFormatError``.
    """
    csv_path = Path(csv_path)
    meta_path = meta_path_for(csv_path)
    if not meta_path.exists():
        raise TrajectoryFormatError(
            "meta_missing", f"sidecar {meta_path} not found for {csv_path}"
        )
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise TrajectoryFormatError(
            "meta_invalid", f"sidecar {meta_path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise TrajectoryFormatError(
            "meta_invalid", f"sidecar {meta_path} must be a JSON object, got {meta!r}")
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise TrajectoryFormatError(
            "meta_invalid", f"sidecar {meta_path} missing keys {missing}"
        )
    numbers = []
    for key in "abTNL":
        kind, value = int if key in "NL" else float, meta[key]
        try:
            valid = (isinstance(value, (int, float)) and not isinstance(value, bool)
                     and np.isfinite(value) and (kind is float or value % 1 == 0))
        except TypeError:  # an integer too large for a float
            valid = False
        if not valid:
            raise TrajectoryFormatError(
                "meta_invalid", f"sidecar {meta_path}: {key} must be a finite "
                f"{'integer' if kind is int else 'number'}, got {value!r}")
        numbers.append(kind(value))
    if meta["boundary_mode"] not in BOUNDARY_MODES:
        raise TrajectoryFormatError(
            "meta_invalid", f"sidecar {meta_path}: boundary_mode must be one of "
            f"{BOUNDARY_MODES}, got {meta['boundary_mode']!r}")
    try:
        mesh = SpaceTimeMesh(*numbers)
    except MeshError as exc:
        raise TrajectoryFormatError("meta_invalid", f"sidecar {meta_path}: {exc}") from None
    try:
        values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise TrajectoryFormatError("data_invalid", f"{csv_path}: {exc}") from None
    if values.shape != (mesh.L, mesh.N):
        raise TrajectoryFormatError(
            "shape_mismatch",
            f"CSV shape {values.shape} disagrees with sidecar "
            f"(L={mesh.L}, N={mesh.N})",
        )
    try:
        return DensityTrajectory(mesh, values, boundary_mode=meta["boundary_mode"])
    except MeshError as exc:
        raise TrajectoryFormatError("data_invalid", f"{csv_path}: {exc}") from None
