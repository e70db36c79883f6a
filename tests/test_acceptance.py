"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import json
import shutil
import time

import numpy as np
from mpmath import mp

from wgflows.analysis import (
    SweepPlan,
    bump_density,
    run_sweep,
    stability_experiment,
    wasserstein2_1d,
    wrap_periodic,
)
from wgflows.cli import main as cli_main
from wgflows.estimator import (
    EstimationProblem,
    assemble_data_functional,
    loss_at,
    operator_image,
    solve,
    stationarity_residual,
)
from wgflows.flows import EnergySpec, InternalEnergy, SmoothFunction, gradient_flow_simulate
from wgflows.kernels import gaussian_kernel, imq_kernel
from wgflows.mesh import PERIODIC, DensityTrajectory, SpaceTimeMesh
from wgflows.rkhs import ConvolvedSections, PlainSections, RkhsFunction, rkhs_inner

from conftest import (
    apply_flow_operator,
    diff_section,
    plain_sections,
    random_trajectory,
    section_grams,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: {status}{extra}")
    assert ok, f"criterion {number} {name} failed{extra}"


# ---------------------------------------------------------------------------
# Criterion 1: representer equivalence against a high-precision brute-force
# oracle over the 2NL section basis.
# ---------------------------------------------------------------------------

def _mp_kernel(k):
    if k.family == "gaussian":
        l = mp.mpf(k.lengthscale)
        return lambda x, y: mp.exp(-((x - y) ** 2) / (2 * l**2))
    if k.family == "imq":
        l, b = mp.mpf(k.lengthscale), mp.mpf(k.beta)
        return lambda x, y: (1 + (x - y) ** 2 / l**2) ** (-b)
    raise ValueError(f"no mp oracle kernel for family {k.family!r}")


def _gap_partials(K, i, j, gaps, at):
    """``d^i/dx^i d^j/dy^j K`` by two-variable ``mp.diff`` for each integer
    index gap ``g`` in ``gaps``; ``at(g)`` is a node pair whose index gap is
    ``g``. Only gaps ``>= 0`` are differentiated: for an even kernel of
    ``x - y`` the partial at ``-g`` is ``(-1)^(i+j)`` times the one at ``g``."""
    out = {g: mp.diff(K, at(g), (i, j)) for g in gaps if g >= 0}
    sign = (-1) ** (i + j)
    out.update({g: sign * out[-g] for g in gaps if g < 0})
    return out


@mp.workdps(300)
def _oracle_normal_equations(problem):
    """Regularized normal equations over the 2NL section basis, solved at
    300 decimal digits with kernel partials from arbitrary-precision
    numerical differentiation (independent of the analytic recurrences).

    Both oracle kernels (Gaussian and IMQ, the only families ``_mp_kernel``
    accepts) are even functions of ``x - y``, so each partial is computed
    once per integer index gap and negative gaps take the parity sign. The
    300-digit precision holds only for the duration of the call."""
    traj = problem.traj
    mesh = traj.mesh
    N, L = mesh.N, mesh.L
    M = N * L
    x = [mp.mpf(v) for v in mesh.x]
    rho = [[mp.mpf(v) for v in row] for row in traj.values]
    dx, dt = mp.mpf(mesh.dx), mp.mpf(mesh.dt)
    a = [[(rho[l][(n + 1) % N] - rho[l][n]) / dx for n in range(N)]
         for l in range(L)]  # periodic slopes
    ft = [[(rho[l + 1][n] - rho[l][n]) / dt if l < L - 1 else -rho[L - 1][n] / dt
           for n in range(N)] for l in range(L)]
    K1 = _mp_kernel(problem.kernel1)
    K2 = _mp_kernel(problem.kernel2)
    orders = [(i, j) for i in (1, 2) for j in (1, 2)]
    # K1 partials at node pairs (x[n], x[m]), keyed by the gap n - m.
    K1d = {ij: _gap_partials(K1, *ij, range(-(N - 1), N), lambda g: (x[g], x[0]))
           for ij in orders}
    # K2 partials at difference-grid pairs (du[d1], du[d2]), d1, d2 in
    # -(N-1)..N-1, keyed by the gap d1 - d2.
    du = {d: mp.mpf(d) * dx for d in range(-(N - 1), N)}
    K2d = {ij: _gap_partials(K2, *ij, range(-2 * (N - 1), 2 * N - 1),
                             lambda g: (du[g - (N - 1)], du[-(N - 1)]))
           for ij in orders}

    def g1_entry(l, n, k, m):
        return (a[l][n] * a[k][m] * K1d[(1, 1)][n - m]
                + a[l][n] * rho[k][m] * K1d[(1, 2)][n - m]
                + rho[l][n] * a[k][m] * K1d[(2, 1)][n - m]
                + rho[l][n] * rho[k][m] * K1d[(2, 2)][n - m])

    def conv2(i, j, l, n, k, m):
        s = mp.mpf(0)
        for p in range(N):
            for q in range(N):
                s += K2d[(i, j)][(n - p) - (m - q)] * rho[l][p] * rho[k][q]
        return dx * dx * s

    def g2_entry(l, n, k, m):
        return (a[l][n] * a[k][m] * conv2(1, 1, l, n, k, m)
                + a[l][n] * rho[k][m] * conv2(1, 2, l, n, k, m)
                + rho[l][n] * a[k][m] * conv2(2, 1, l, n, k, m)
                + rho[l][n] * rho[k][m] * conv2(2, 2, l, n, k, m))

    nodes = [(l, n) for l in range(L) for n in range(N)]
    G1 = mp.matrix(M)
    G2 = mp.matrix(M)
    for i, (l, n) in enumerate(nodes):
        for j, (k, m) in enumerate(nodes):
            G1[i, j] = g1_entry(l, n, k, m)
            G2[i, j] = g2_entry(l, n, k, m)
    S = dt * dx
    lam1 = mp.mpf(problem.lambda1)
    lam2 = mp.mpf(problem.lambda2)
    rho_flat = [rho[l][n] for (l, n) in nodes]
    f = [ft[l][n] for (l, n) in nodes]
    A = mp.matrix(2 * M)
    b = mp.matrix(2 * M, 1)
    for i in range(M):
        for j in range(M):
            A[i, j] = S * sum(G1[t, i] * rho_flat[t] * G1[t, j] for t in range(M)) \
                + lam1 * G1[i, j]
            A[i, M + j] = S * sum(G1[t, i] * rho_flat[t] * G2[t, j] for t in range(M))
            A[M + i, j] = S * sum(G2[t, i] * rho_flat[t] * G1[t, j] for t in range(M))
            A[M + i, M + j] = S * sum(G2[t, i] * rho_flat[t] * G2[t, j]
                                      for t in range(M)) + lam2 * G2[i, j]
        b[i] = S * sum(G1[t, i] * rho_flat[t] * f[t] for t in range(M))
        b[M + i] = S * sum(G2[t, i] * rho_flat[t] * f[t] for t in range(M))
    sol = mp.lu_solve(A, b)
    return (np.array([float(sol[i]) for i in range(M)]),
            np.array([float(sol[M + i]) for i in range(M)]))


def test_criterion_01_representer_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(10):
        N, L = int(rng.integers(3, 6)), int(rng.integers(1, 3))
        mesh = SpaceTimeMesh(0.0, 1.0, 0.4, N, L)
        traj = DensityTrajectory(mesh, 0.5 + rng.random((L, N)),
                                 boundary_mode=PERIODIC)
        problem = EstimationProblem(
            traj,
            gaussian_kernel(float(rng.uniform(0.3, 0.6))),
            imq_kernel(float(rng.uniform(0.3, 0.6)),
                       beta=float(rng.uniform(1.0, 2.5))),
            lambda1=float(10 ** rng.uniform(-2, 0)),
            lambda2=float(10 ** rng.uniform(-2, 0)),
        )
        result = solve(problem)
        u, v = _oracle_normal_equations(problem)
        rho_flat = traj.values.ravel()
        mine = np.concatenate([rho_flat * result.C1, rho_flat * result.C2])
        rel = np.linalg.norm(np.concatenate([u, v]) - mine) / np.linalg.norm(mine)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(1, "representer/oracle equivalence",
           worst <= 1e-6 and elapsed <= 60.0,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_coefficient_identity():
    rng = np.random.default_rng(2)
    traj = random_trajectory(N=8, L=3, mode=PERIODIC, seed=21)
    k1, k2 = gaussian_kernel(0.25), imq_kernel(0.3, beta=1.5)
    worst = 0.0
    for _ in range(20):
        lam1, lam2 = 10 ** rng.uniform(-4, 1, 2)
        res = solve(EstimationProblem(traj, k1, k2, lambda1=float(lam1),
                                      lambda2=float(lam2)))
        scale = np.max(np.abs(lam1 * res.C1))
        gap = np.max(np.abs(lam1 * res.C1 - lam2 * res.C2))
        worst = max(worst, gap / max(scale, 1e-300))
    report(2, "coefficient identity", worst <= 1e-10, f"worst rel {worst:.2e}")


def test_criterion_03_stationarity():
    rng = np.random.default_rng(3)
    traj = random_trajectory(N=8, L=3, mode=PERIODIC, seed=33)
    problem = EstimationProblem(traj, gaussian_kernel(0.25),
                                imq_kernel(0.3, beta=1.5),
                                lambda1=0.05, lambda2=0.08)
    result = solve(problem)
    directions = []
    for _ in range(5):
        l = int(rng.integers(0, traj.mesh.L))
        n = int(rng.integers(0, traj.mesh.N))
        directions.append((diff_section(problem.kernel1, traj, l, n, PlainSections),
                           diff_section(problem.kernel2, traj, l, n, ConvolvedSections)))
    worst = stationarity_residual(result, problem)
    ok_stationary = worst <= 1e-6 * max(result.loss_value, 1.0)

    # finite-difference agreement of the closed-form derivative, checked away
    # from the minimizer where the derivative is order one
    f_flat = assemble_data_functional(traj, "gradient").ravel()
    rho_flat = traj.values.ravel()
    worst_fd = 0.0
    for fdir, gdir in directions:
        phi = result.Vhat + 0.7 * fdir
        psi = result.What + 0.7 * gdir
        resid = operator_image(problem, phi, psi) - f_flat
        closed = (2 * problem.node_weight * float((resid * operator_image(
            problem, fdir, gdir)) @ rho_flat)
            + 2 * problem.lambda1 * rkhs_inner(phi, fdir)
            + 2 * problem.lambda2 * rkhs_inner(psi, gdir))
        h = 1e-5
        fd = (loss_at(problem, phi + h * fdir, psi + h * gdir)
              - loss_at(problem, phi + (-h) * fdir, psi + (-h) * gdir)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - closed) / max(abs(closed), 1e-12))
    report(3, "stationarity of the minimizer",
           ok_stationary and worst_fd <= 1e-4,
           f"|grad L| {worst:.2e}, FD gap {worst_fd:.2e}")


def test_criterion_04_discrete_reproducing_properties():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        traj = random_trajectory(N=int(rng.integers(6, 12)),
                                 L=int(rng.integers(2, 4)),
                                 mode=PERIODIC if trial % 2 else "paper-truncated",
                                 seed=int(rng.integers(0, 10**6)))
        kernel = gaussian_kernel(float(rng.uniform(0.2, 0.5)))
        m = int(rng.integers(1, 4))
        nodes = [(int(rng.integers(0, traj.mesh.L)),
                  int(rng.integers(0, traj.mesh.N))) for _ in range(m)]
        f = plain_sections(kernel, traj, nodes, rng.standard_normal(m))
        l = int(rng.integers(0, traj.mesh.L))
        n = int(rng.integers(0, traj.mesh.N))
        s_plain = diff_section(kernel, traj, l, n, PlainSections)
        gap1 = abs(rkhs_inner(f, s_plain)
                   - apply_flow_operator(traj, f, None, l, n))
        s_conv = diff_section(kernel, traj, l, n, ConvolvedSections)
        gap2 = abs(rkhs_inner(f, s_conv)
                   - apply_flow_operator(traj, None, f, l, n))
        scale = max(1.0, abs(rkhs_inner(f, s_plain)))
        worst = max(worst, gap1 / scale, gap2 / scale)
    report(4, "discrete reproducing properties", worst <= 1e-8,
           f"worst gap {worst:.2e}")


def test_criterion_05_heat_flow_oracle():
    t0 = time.perf_counter()
    mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 128, 8)

    def wrapped_gaussian(x, mu, var):
        out = np.zeros_like(x)
        for k in range(-8, 9):
            out += np.exp(-((x - mu + k) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        return out

    var0 = 0.18**2
    rho0 = wrapped_gaussian(mesh.x, 0.5, var0)
    traj, diag = gradient_flow_simulate(
        rho0, EnergySpec(U=InternalEnergy("entropy")), mesh)
    worst = max(
        float(np.max(np.abs(traj.values[l]
                            - wrapped_gaussian(mesh.x, 0.5, var0 + 2 * t))))
        for l, t in enumerate(mesh.t))
    bound = 5 * (mesh.dx + diag["dt_solver"])
    elapsed = time.perf_counter() - t0
    report(5, "forward heat-flow oracle",
           worst <= bound and elapsed <= 10.0,
           f"err {worst:.4f} <= {bound:.4f}, {elapsed:.1f}s")


def _desk_scale_plan():
    k1, k2 = gaussian_kernel(0.2), gaussian_kernel(0.15)
    truth_v = RkhsFunction.from_points(k1, [0.4, 0.8, 1.2],
                                       [0.018, -0.032, 0.016])
    truth_w = RkhsFunction.from_points(k2, [-0.3, 0.0, 0.3],
                                       [-0.0432, 0.0768, -0.0384])
    return SweepPlan(
        N_list=(32, 48, 64, 96), alpha=0.2, beta=1.2,
        truth_v=truth_v, truth_w=truth_w, T=12.5, window=(0.0, 1.6),
        scheme="upwind", initial_center=[0.55, 1.0],
        initial_sigma=[0.16, 0.2], initial_uniform_weight=0.2,
        drop_last_time_rows=1, seed=1,
    )


def test_criterion_06_recovery_at_desk_scale():
    t0 = time.perf_counter()
    report_data = run_sweep(_desk_scale_plan())
    elapsed = time.perf_counter() - t0
    rels = report_data.relative_errors
    decreasing = all(a > b for a, b in zip(rels, rels[1:]))
    ok = (rels[-1] <= 0.2 and decreasing
          and report_data.slope is not None and report_data.slope <= -0.15
          and elapsed <= 600.0)
    report(6, "recovery at desk scale", ok,
           f"rels {['%.3f' % r for r in rels]}, slope {report_data.slope:.3f}, "
           f"{elapsed:.0f}s")


def test_criterion_07_wasserstein_correctness():
    mesh = SpaceTimeMesh(0.0, 1.0, 0.1, 200, 1)
    worst_shift = 0.0
    for c in (0.05, 0.1):
        rho = bump_density(mesh.x, 1.0, 0.4, 0.08, 0.0)
        sigma = bump_density(mesh.x, 1.0, 0.4 + c, 0.08, 0.0)
        worst_shift = max(worst_shift,
                          abs(wasserstein2_1d(rho, sigma, mesh) - c))
    mesh8 = SpaceTimeMesh(0.0, 1.0, 0.1, 8, 1)
    rng = np.random.default_rng(5)
    worst_oracle = 0.0
    for _ in range(5):
        c1 = rng.integers(1, 9, 8).astype(float)
        c2 = rng.integers(1, 9, 8).astype(float)
        h1 = c1 / (c1.sum() * mesh8.dx)
        h2 = c2 / (c2.sum() * mesh8.dx)
        units = int(c1.sum() * c2.sum())
        xs = np.repeat(mesh8.x, np.rint(h1 * mesh8.dx * units).astype(int))
        ys = np.repeat(mesh8.x, np.rint(h2 * mesh8.dx * units).astype(int))
        oracle = np.sqrt(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
        mine = wasserstein2_1d(h1, h2, mesh8, cdf_kind="step")
        worst_oracle = max(worst_oracle, abs(mine - oracle))
    report(7, "Wasserstein-2 correctness",
           worst_shift <= 2 * mesh.dx and worst_oracle <= 1e-8,
           f"shift err {worst_shift:.2e}, oracle gap {worst_oracle:.2e}")


def test_criterion_08_stability_ordering():
    mesh = SpaceTimeMesh(0.0, 1.0, 0.5, 48, 5)
    k = gaussian_kernel(0.25)
    truth_v = wrap_periodic(
        RkhsFunction.from_points(k, [0.3, 0.7], [0.04, -0.04]), 1.0)
    truth_w = wrap_periodic(
        RkhsFunction.from_points(k, [-0.2, 0.2], [0.02, -0.02]), 1.0)
    truth = (truth_v, truth_w)
    mu0 = bump_density(mesh.x, 1.0, 0.5, 0.12, 0.2)
    phi0 = SmoothFunction.cosine_sum(1.0, [0.03], [1])

    def estimator_with(eps):
        bump = wrap_periodic(RkhsFunction.from_points(k, [0.5], [eps]), 1.0)
        return (truth_v + bump, truth_w)

    *records, same = stability_experiment(
        truth, [estimator_with(eps) for eps in (4e-3, 1e-3, 2.5e-4)] + [truth],
        mu0, phi0, mesh)
    sups = [out["sup_w2"] for out in records]
    errors = [out["rkhs_error"] for out in records]
    identical = same["sup_w2"]
    decreasing_err = all(a > b for a, b in zip(errors, errors[1:]))
    ordered = all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))
    report(8, "flow stability ordering",
           decreasing_err and ordered and identical <= 2 * mesh.dx,
           f"sup_w2 {['%.2e' % s for s in sups]}, identical {identical:.2e}")


def test_criterion_09_uniqueness_orthogonality():
    worst = 0.0
    found_null = 0
    for seed in (14, 27, 41):
        traj = random_trajectory(N=8, L=3, mode=PERIODIC, seed=seed)  # NL <= 64
        problem = EstimationProblem(traj, gaussian_kernel(0.25),
                                    imq_kernel(0.3, beta=1.5),
                                    lambda1=0.2, lambda2=0.07)
        result = solve(problem)
        G1, G2 = section_grams(problem)
        design = np.hstack([G1, G2])
        _, svals, vt = np.linalg.svd(design)
        null = vt[np.sum(svals > 1e-10 * svals[0]):]
        rho = traj.values.ravel()
        M = problem.node_count
        for vec in null[:10]:
            u, v = vec[:M], vec[M:]
            pair_norm_sq = u @ G1 @ u + v @ G2 @ v
            if pair_norm_sq < 1e-12:
                continue
            found_null += 1
            inner = (problem.lambda1 * (rho * result.C1) @ (G1 @ u)
                     + problem.lambda2 * (rho * result.C2) @ (G2 @ v))
            norms = (np.hypot(problem.lambda1 * result.rkhs_norms["V"],
                              problem.lambda2 * result.rkhs_norms["W"])
                     * np.sqrt(pair_norm_sq))
            worst = max(worst, abs(inner) / max(norms, 1e-300))
    report(9, "uniqueness/orthogonality", found_null > 0 and worst <= 1e-8,
           f"{found_null} null pairs, worst rel inner {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "kind": "gradient",
        "mesh": {"a": 0.0, "b": 1.0, "T": 0.05, "N": 24, "L": 5},
        "energy": {
            "V": {"type": "kernel_sum",
                  "kernel": {"family": "gaussian", "lengthscale": 0.2},
                  "centers": [0.35, 0.7], "weights": [0.05, -0.05],
                  "wrap_period": 1.0},
            "U": "entropy",
        },
        "initial_density": {"type": "bump", "center": 0.5, "sigma": 0.15,
                            "uniform_weight": 0.3},
        "seed": 7,
        "out": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    est = tmp_path / "est"

    def pipeline():
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli_main([
            "estimate", "--data", str(tmp_path / "run" / "trajectory.csv"),
            "--kernel1", '{"family":"gaussian","lengthscale":0.2}',
            "--kernel2", '{"family":"imq","lengthscale":0.25,"beta":1.5}',
            "--lambda1", "0.05", "--lambda2", "0.05",
            "--u", "entropy", "--out", str(est), "--seed", "7"]) == 0

    pipeline()
    tracked = [
        tmp_path / "run" / "trajectory.csv",
        tmp_path / "run" / "trajectory.meta.json",
        tmp_path / "run" / "run_info.json",
        tmp_path / "run" / "manifest.json",
        est / "coeff_c1.bin",
        est / "coeff_c2.bin",
        est / "reconstruction.csv",
        est / "diagnostics.json",
        est / "manifest.json",
    ]
    first = {p: p.read_bytes() for p in tracked}
    shutil.rmtree(tmp_path / "run")
    shutil.rmtree(est)
    pipeline()
    identical = all(p.read_bytes() == first[p] for p in tracked)
    report(10, "CLI determinism", identical,
           f"{len(tracked)} artifacts byte-identical")
