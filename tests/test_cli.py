import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from wgflows import analysis, cli, estimator, mesh
from wgflows.analysis import DROP_LAST_TIME_ROWS
from wgflows.cli import main
from wgflows.estimator import EstimationProblem
from wgflows.flows import DENSITY_FLOOR, InternalEnergy
from wgflows.kernels import SmoothKernel
from wgflows.mesh import read_trajectory

from conftest import stacked_factor

KERNEL1 = '{"family":"gaussian","lengthscale":0.2}'
KERNEL2 = '{"family":"imq","lengthscale":0.25,"beta":1.5}'


def simulate_config(out, N=24, L=5, kind="gradient"):
    cfg = {
        "kind": kind,
        "mesh": {"a": 0.0, "b": 1.0, "T": 0.05, "N": N, "L": L},
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
        "out": str(out),
    }
    if kind == "hamiltonian":
        cfg["energy"]["U"] = "none"
        cfg["initial_phase"] = {"type": "cosine_sum", "period": 1.0,
                                "amplitudes": [0.02], "modes": [1]}
    return cfg


WRAPPED_W = {"type": "kernel_sum",
             "kernel": {"family": "gaussian", "lengthscale": 0.25},
             "centers": [-0.2, 0.2], "weights": [0.02, -0.02],
             "wrap_period": 1.0}
COSINE = {"type": "cosine_sum", "period": 1.0, "amplitudes": [0.03], "modes": [1]}


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_trajectory_and_manifest(self, tmp_path):
        cfg = simulate_config(tmp_path / "run")
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_path]) == 0
        out = tmp_path / "run"
        traj = read_trajectory(out / "trajectory.csv")
        assert traj.values.shape == (5, 24)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "trajectory.csv" in manifest["outputs"]
        assert "trajectory.meta.json" in manifest["outputs"]
        info = json.loads((out / "run_info.json").read_text())
        assert info["seed"] == 7
        assert "free_energy" in info["diagnostics"]

    def test_hamiltonian_kind(self, tmp_path):
        cfg = simulate_config(tmp_path / "ham", kind="hamiltonian")
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_path]) == 0
        traj = read_trajectory(tmp_path / "ham" / "trajectory.csv")
        assert np.all(traj.values > 0)
        info = json.loads((tmp_path / "ham" / "run_info.json").read_text())
        assert info["diagnostics"]["floor_hits"] == [0] * 5
        assert info["diagnostics"]["interaction_modes"] == 0

    def test_hamiltonian_records_interaction_modes(self, tmp_path):
        # a wrapped Gaussian W of lengthscale 0.25 converges at 32 samples
        cfg = simulate_config(tmp_path / "ham", kind="hamiltonian")
        cfg["energy"]["W"] = WRAPPED_W
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_path]) == 0
        info = json.loads((tmp_path / "ham" / "run_info.json").read_text())
        assert info["diagnostics"]["interaction_modes"] == 8

    def test_hamiltonian_heavy_tailed_w(self, tmp_path):
        # 64 wrapped IMQ copies leave W' a jump of 2e-9 of its peak across
        # the period boundary; the force series carries it
        cfg = simulate_config(tmp_path / "ham", kind="hamiltonian")
        cfg["energy"]["W"] = {**WRAPPED_W, "centers": [0.1], "weights": [0.02],
                              "kernel": {"family": "imq", "lengthscale": 0.25,
                                         "beta": 1.5}}
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_path]) == 0
        info = json.loads((tmp_path / "ham" / "run_info.json").read_text())
        assert info["diagnostics"]["interaction_modes"] > 0

    def test_hamiltonian_floor_hits_per_output_time(self, tmp_path):
        # a bump without a uniform part has tails far below DENSITY_FLOOR
        cfg = simulate_config(tmp_path / "ham", kind="hamiltonian")
        cfg["initial_density"] = {"type": "bump", "center": 0.5, "sigma": 0.05,
                                  "uniform_weight": 0.0}
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_path]) == 0
        traj = read_trajectory(tmp_path / "ham" / "trajectory.csv")
        info = json.loads((tmp_path / "ham" / "run_info.json").read_text())
        hits = info["diagnostics"]["floor_hits"]
        assert len(hits) == 5 and all(h > 0 for h in hits)
        assert hits == [int(np.sum(row == DENSITY_FLOOR)) for row in traj.values]

    def test_locked_directory_rejected(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").touch()
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(out)))
        assert run(["simulate", "--config", cfg_path]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text("{not json")
        assert run(["simulate", "--config", cfg_path]) == 2


def stability_config(out):
    truth_v = {"type": "kernel_sum",
               "kernel": {"family": "gaussian", "lengthscale": 0.25},
               "centers": [0.3, 0.7], "weights": [0.04, -0.04],
               "wrap_period": 1.0}
    truth_w = WRAPPED_W

    def perturbed(eps):
        out = json.loads(json.dumps(truth_v))
        out["centers"] = out["centers"] + [0.5]
        out["weights"] = out["weights"] + [eps]
        return out

    return {
        "mesh": {"a": 0.0, "b": 1.0, "T": 0.5, "N": 32, "L": 4},
        "truth_v": truth_v,
        "truth_w": truth_w,
        "initial_density": {"type": "bump", "center": 0.5, "sigma": 0.12,
                            "uniform_weight": 0.2},
        "initial_phase": {"type": "cosine_sum", "period": 1.0,
                          "amplitudes": [0.03], "modes": [1]},
        "estimates": [
            {"V": perturbed(2e-3), "W": truth_w},
            {"V": perturbed(5e-4), "W": truth_w},
            {"V": truth_v, "W": truth_w},
        ],
        "seed": 5,
        "out": str(out),
    }


def sweep_config(out):
    return {
        "N_list": [12, 16],
        "alpha": 0.2,
        "beta": 1.2,
        "T": 12.5,
        "window": [0.0, 1.6],
        "scheme": "upwind",
        "initial_center": [0.55, 1.0],
        "initial_sigma": [0.16, 0.2],
        "initial_uniform_weight": 0.2,
        "truth_v": {"type": "kernel_sum",
                    "kernel": {"family": "gaussian", "lengthscale": 0.2},
                    "centers": [0.4, 0.8, 1.2],
                    "weights": [0.018, -0.032, 0.016]},
        "truth_w": {"type": "kernel_sum",
                    "kernel": {"family": "gaussian", "lengthscale": 0.15},
                    "centers": [-0.3, 0.0, 0.3],
                    "weights": [-0.043, 0.077, -0.038]},
        "seed": 3,
        "out": str(out),
    }


ESTIMATE_ARGS = {"--kernel1": KERNEL1, "--kernel2": KERNEL2,
                 "--lambda1": "0.05", "--lambda2": "0.05"}
BAD_ESTIMATE_ARGS = {
    "malformed_kernel_json": {"--kernel1": '{"family": "gaussian",'},
    "unknown_kernel_family": {"--kernel1": '{"family":"matern","lengthscale":0.2}'},
    "negative_lambda": {"--lambda1": "-1"},
    "unknown_internal_energy": {"--u": "bogus"},
    # argparse reads any float, non-finite ones too
    "nan_lambda": {"--lambda1": "nan"},
    "infinite_lambda": {"--lambda2": "inf"},
}
BAD_SIMULATE_EDITS = {
    "mesh_without_N": lambda cfg: cfg["mesh"].pop("N"),
    "unknown_energy_U": lambda cfg: cfg["energy"].update(U="bogus"),
    "energy_U_not_a_label": lambda cfg: cfg["energy"].update(U=None),
    "kernel_sum_without_centers": lambda cfg: cfg["energy"]["V"].pop("centers"),
    "kernel_sum_without_weights": lambda cfg: cfg["energy"]["V"].pop("weights"),
    # Hamiltonian characteristics carry no internal energy (the config's U is
    # entropy), and no simulator integrates a fisher energy
    "hamiltonian_with_entropy": lambda cfg: cfg.update(kind="hamiltonian"),
    "hamiltonian_with_fisher": lambda cfg: cfg.update(
        kind="hamiltonian", energy={**cfg["energy"], "U": "fisher"}),
    "gradient_with_fisher": lambda cfg: cfg["energy"].update(U="fisher"),
    # numbers and booleans pass one type check: no string, no truncation
    "seed_not_an_integer": lambda cfg: cfg.update(seed="seven"),
    "mesh_N_not_integral": lambda cfg: cfg["mesh"].update(N=32.5),
    "mesh_T_a_string": lambda cfg: cfg["mesh"].update(T="0.05"),
    "wrap_period_a_string": lambda cfg: cfg["energy"]["V"].update(wrap_period="1"),
    "uniform_weight_a_boolean": lambda cfg: cfg["initial_density"].update(uniform_weight=True),
    "unknown_scheme": lambda cfg: cfg.update(scheme="bogus"),
    "dt_solver_not_a_number": lambda cfg: cfg.update(dt_solver="fast"),
    "zero_dt_solver": lambda cfg: cfg.update(dt_solver=0),
    # function and density spec values pass the same checks
    "density_center_a_string": lambda cfg: cfg["initial_density"].update(center="mid"),
    "kernel_sum_centers_a_string": lambda cfg: cfg["energy"]["V"].update(centers="x"),
    "wrap_copies_a_string": lambda cfg: cfg["energy"]["V"].update(wrap_copies="two"),
    # parallel lists match in length, and a wrap keeps at least the base copy
    "kernel_sum_weights_short": lambda cfg: cfg["energy"]["V"].update(weights=[0.05]),
    "kernel_sum_weights_long": lambda cfg: cfg["energy"]["V"].update(
        weights=[0.05, -0.05, 0.01]),
    "density_sigma_list_for_one_center": lambda cfg: cfg["initial_density"].update(
        sigma=[0.1, 0.2]),
    "density_bump_weights_short": lambda cfg: cfg["initial_density"].update(
        center=[0.3, 0.7], sigma=0.1, bump_weights=[1.0]),
    "negative_wrap_copies": lambda cfg: cfg["energy"]["V"].update(wrap_copies=-1),
    # Python's json reads NaN and Infinity, which are no JSON numbers
    "mesh_T_infinite": lambda cfg: cfg["mesh"].update(T=float("inf")),
    "density_sigma_nan": lambda cfg: cfg["initial_density"].update(sigma=float("nan")),
    # a bump density's parameters are range-checked
    "density_sigma_zero": lambda cfg: cfg["initial_density"].update(sigma=0),
    "density_sigma_negative": lambda cfg: cfg["initial_density"].update(sigma=-0.1),
    "density_uniform_weight_negative": lambda cfg: cfg["initial_density"].update(
        uniform_weight=-2),
    "density_bump_weights_zero": lambda cfg: cfg["initial_density"].update(
        center=[0.3, 0.7], sigma=0.1, bump_weights=[0, 0]),
    # every config section is a JSON object, and so is the config
    "mesh_not_an_object": lambda cfg: cfg.update(mesh="abc"),
    "energy_not_an_object": lambda cfg: cfg.update(energy="x"),
    "density_not_an_object": lambda cfg: cfg.update(initial_density=[0.5]),
    # a path is a JSON string
    "out_not_a_string": lambda cfg: cfg.update(out=5),
}
# estimate config keys, with the arguments of ESTIMATE_ARGS
BAD_ESTIMATE_CONFIGS = {
    "drop_rows_not_integral": {"drop_last_time_rows": 1.7},
    "eval_count_not_integral": {"eval_grid": {"count": 20.5}},
    "eval_min_a_string": {"eval_grid": {"min": "0"}},
    "eval_count_negative": {"eval_grid": {"count": -3}},
    "eval_count_zero": {"eval_grid": {"count": 0}},
    "center_not_a_boolean": {"center_interaction": "false"},
    "lambda3_nan": {"kernel3": json.loads(KERNEL1), "lambda3": float("nan")},
    "lambda3_infinite": {"kernel3": json.loads(KERNEL1), "lambda3": float("inf")},
    "eval_grid_not_an_object": {"eval_grid": 5},
    # a path is a JSON string (these rows leave out the --data or --out flag)
    "estimate_data_not_a_string": {"data": 5},
    "estimate_data_a_list": {"data": ["t.csv"]},
    "estimate_out_not_a_string": {"out": 5},
}
BAD_SWEEP_EDITS = {
    "sweep_unknown_u": {"u": "bogus"},
    "sweep_unknown_scheme": {"scheme": "bogus"},
    "sweep_alpha_a_string": {"alpha": "0.2"},
    "sweep_fine_factor_not_integral": {"fine_factor": 4.5},
    # the plan's own range checks
    "sweep_alpha_out_of_range": {"alpha": 0.5},
    "sweep_beta_not_above_3_alpha": {"beta": 0.5},
    "sweep_fine_factor_below_4": {"fine_factor": 2},
    "sweep_N_list_not_increasing": {"N_list": [16, 12]},
    "sweep_N_list_from_zero": {"N_list": [0, 16]},
    "sweep_negative_T": {"T": -1.0},
    "sweep_negative_c_lambda": {"c_lambda": -1.0},
    "sweep_zero_c_L": {"c_L": 0.0},
    # list keys convert every entry through one type check
    "sweep_N_list_not_a_list": {"N_list": 16},
    "sweep_N_list_entry_a_string": {"N_list": ["a", 16]},
    "sweep_N_list_entry_a_boolean": {"N_list": [True, 16]},
    "sweep_window_a_string": {"window": "ab"},
    "sweep_window_not_a_pair": {"window": [0.0, 0.8, 1.6]},
    "sweep_window_reversed": {"window": [1.6, 0.0]},
    # the initial bump passes the same checks as a density spec
    "sweep_initial_sigma_a_string": {"initial_sigma": "wide"},
    "sweep_initial_center_entry_a_string": {"initial_center": [0.3, "x"]},
    "sweep_initial_sigma_negative": {"initial_sigma": -0.1},
    "sweep_initial_sigma_not_one_per_center": {"initial_sigma": [0.1, 0.2, 0.3]},
    "sweep_initial_uniform_weight_above_1": {"initial_uniform_weight": 1.5},
    "sweep_out_not_a_string": {"out": 5},
    # the truths' RKHS errors need kernel expansions
    "sweep_truth_v_zero": {"truth_v": {"type": "zero"}},
    "sweep_truth_w_cosine_sum": {"truth_w": COSINE},
}
BAD_STABILITY_EDITS = {
    "stability_no_quantiles": {"n_quantiles": 0},
    "stability_dt_solver_not_a_number": {"dt_solver": "fast"},
    "stability_negative_dt_solver": {"dt_solver": -0.01},
    "stability_phase_without_amplitudes": {"initial_phase": {
        "type": "cosine_sum", "period": 1.0, "modes": [1]}},
    "stability_estimates_not_a_list": {"estimates": 3},
    "stability_amplitudes_not_one_per_mode": {"initial_phase": {
        "type": "cosine_sum", "period": 1.0, "amplitudes": [0.03, 0.01], "modes": [1]}},
    "stability_phases_not_one_per_mode": {"initial_phase": {
        "type": "cosine_sum", "period": 1.0, "amplitudes": [0.03], "modes": [1],
        "phases": [0.0, 0.5]}},
    "stability_out_not_a_string": {"out": 5},
    # truths and estimates are kernel expansions, whose RKHS errors it reports
    "stability_truth_v_zero": {"truth_v": {"type": "zero"}},
    "stability_truth_w_cosine_sum": {"truth_w": COSINE},
    "stability_estimate_v_zero": {"estimates": [{"V": {"type": "zero"}, "W": WRAPPED_W}]},
    "stability_estimate_w_cosine_sum": {"estimates": [{"V": WRAPPED_W, "W": WRAPPED_W},
                                                      {"V": WRAPPED_W, "W": COSINE}]},
}
# the key each row's message names, where its edit is no one-key path
NAMED_KEYS = {
    "density_center_a_string": "initial_density.center",
    "kernel_sum_centers_a_string": "V.centers",
    "wrap_copies_a_string": "V.wrap_copies",
    "stability_phase_without_amplitudes": "initial_phase.amplitudes",
    "kernel_sum_weights_short": "V.weights",
    "kernel_sum_weights_long": "V.weights",
    "density_sigma_list_for_one_center": "initial_density.sigma",
    "density_bump_weights_short": "initial_density.bump_weights",
    "negative_wrap_copies": "V.wrap_copies",
    "stability_amplitudes_not_one_per_mode": "initial_phase.amplitudes",
    "stability_phases_not_one_per_mode": "initial_phase.phases",
    "mesh_T_infinite": "mesh.T",
    "density_sigma_nan": "initial_density.sigma",
    "density_sigma_zero": "initial_density.sigma",
    "density_sigma_negative": "initial_density.sigma",
    "density_uniform_weight_negative": "initial_density.uniform_weight",
    "density_bump_weights_zero": "initial_density.bump_weights",
    "mesh_not_an_object": "mesh",
    "energy_not_an_object": "energy",
    "density_not_an_object": "initial_density",
    "lambda3_nan": "lambda3",
    "lambda3_infinite": "lambda3",
    "out_not_a_string": "out",
    "sweep_truth_v_zero": "truth_v",
    "sweep_truth_w_cosine_sum": "truth_w",
    "stability_truth_v_zero": "truth_v",
    "stability_truth_w_cosine_sum": "truth_w",
    "stability_estimate_v_zero": "estimate 0 V",
    "stability_estimate_w_cosine_sum": "estimate 1 W",
}


def edited_key(edit: dict) -> str:
    """The dotted path of the one key a config edit sets."""
    (key, value), = edit.items()
    return key + ("." + edited_key(value) if isinstance(value, dict) else "")


@pytest.mark.parametrize("case", [*BAD_ESTIMATE_ARGS, *BAD_ESTIMATE_CONFIGS,
                                  *BAD_SIMULATE_EDITS, *BAD_SWEEP_EDITS,
                                  *BAD_STABILITY_EDITS])
def test_config_errors_exit_2(tmp_path, capsys, case):
    cfg = simulate_config(tmp_path / "run")
    if case in BAD_SIMULATE_EDITS:
        BAD_SIMULATE_EDITS[case](cfg)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = run(["simulate", "--config", cfg_path])
    out = tmp_path / "run"
    if case in BAD_ESTIMATE_ARGS or case in BAD_ESTIMATE_CONFIGS:
        assert rc == 0
        out = tmp_path / "est"
        est_cfg = BAD_ESTIMATE_CONFIGS.get(case, {})
        args = {**ESTIMATE_ARGS, **BAD_ESTIMATE_ARGS.get(case, {})}
        # flags override file keys, so a config that sets a path gets no flag
        args.update({f"--{key}": path for key, path in
                     (("data", tmp_path / "run" / "trajectory.csv"), ("out", out))
                     if key not in est_cfg})
        est_path = tmp_path / "est.json"
        est_path.write_text(json.dumps(est_cfg))
        rc = run(["estimate", "--config", est_path, *[v for kv in args.items() for v in kv]])
    for command, edits, make_config in (("sweep", BAD_SWEEP_EDITS, sweep_config),
                                        ("stability", BAD_STABILITY_EDITS,
                                         stability_config)):
        if case in edits:
            assert rc == 0
            out = tmp_path / command
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({**make_config(out), **edits[case]}))
            rc = run([command, "--config", path])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] != "runtime_error"
    assert not out.exists()  # refused before any work
    edit = {**BAD_ESTIMATE_CONFIGS, **BAD_SWEEP_EDITS, **BAD_STABILITY_EDITS}.get(case)
    if case in NAMED_KEYS:
        assert NAMED_KEYS[case] in err["message"]
    elif edit is not None:
        assert edited_key(edit) in err["message"]


@pytest.mark.parametrize("command", ["simulate", "estimate", "sweep", "stability", "w2"])
def test_config_not_an_object_exits_2(tmp_path, capsys, command):
    """A config file holding a JSON list, not an object, exits 2 before any
    output directory is made."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([simulate_config(tmp_path / "run")]))
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config_invalid"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3), (3.0, int, 3), (-1, int, -1), (True, bool, True), (False, bool, False),
    (2, float, 2.0), (0.5, float, 0.5), ("t.csv", str, "t.csv"),
])
def test_config_value_accepts(value, kind, expected):
    got = cli.config_value({"key": value}, "key", kind)
    assert got == expected and type(got) is kind


@pytest.mark.parametrize("value, kind", [
    (1.5, int), ("3", int), (True, int), (None, int), (float("inf"), int),
    ("false", bool), (0, bool), (1.0, bool), ("0.5", float), (False, float), ([1.0], float),
    (float("nan"), float), (float("inf"), float), (float("-inf"), float), (float("nan"), int),
    (5, str), (["t.csv"], str), (None, str), ({"path": "t.csv"}, str),
])
def test_config_value_rejects(value, kind):
    with pytest.raises(cli.ConfigError) as info:
        cli.config_value({"key": value}, "key", kind)
    assert info.value.code == "config_invalid"


def test_fisher_label_refused(tmp_path, capsys):
    """``fisher`` is no internal energy: it has no pointwise U', so no
    simulator or estimator could use it.  It is refused when the energy is
    built, and ``estimate --u fisher`` exits 2."""
    with pytest.raises(ValueError, match="unknown internal energy"):
        InternalEnergy("fisher")
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(simulate_config(tmp_path / "run")))
    assert run(["simulate", "--config", cfg_path]) == 0
    args = {**ESTIMATE_ARGS, "--u": "fisher"}
    assert run(["estimate", "--data", tmp_path / "run" / "trajectory.csv",
                "--out", tmp_path / "est", *[v for kv in args.items() for v in kv]]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config_invalid"


# W must be periodic on the torus for the Hamiltonian pair-sum series
NONPERIODIC_W = {
    "kernel_sum_without_wrap_period": {k: v for k, v in WRAPPED_W.items()
                                       if k != "wrap_period"},
    "one_copy_of_wide_gaussian": {**WRAPPED_W, "wrap_copies": 1,
                                  "kernel": {"family": "gaussian", "lengthscale": 0.5}},
}


@pytest.mark.parametrize("case", NONPERIODIC_W)
@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_nonperiodic_w_exits_2(tmp_path, capsys, monkeypatch, command, case):
    simulated = []
    simulate = analysis.hamiltonian_flow_simulate

    def counting(*args, **kwargs):
        simulated.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(analysis, "hamiltonian_flow_simulate", counting)
    if command == "simulate":
        cfg = simulate_config(tmp_path / "run", kind="hamiltonian")
        cfg["energy"]["W"] = NONPERIODIC_W[case]
    else:
        cfg = stability_config(tmp_path / "run")
        cfg["estimates"][1]["W"] = NONPERIODIC_W[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run([command, "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "w_not_periodic"
    # stability names the failing W before it simulates any flow
    assert err["message"].startswith("energy.W" if command == "simulate" else "estimate 1 W")
    assert simulated == []



# V must be periodic on the torus for the Hamiltonian potential series
NONPERIODIC_V = {
    "kernel_sum_without_wrap_period": {
        "type": "kernel_sum", "kernel": {"family": "gaussian", "lengthscale": 0.25},
        "centers": [0.3, 0.7], "weights": [0.04, -0.04]},
    "one_copy_of_wide_gaussian": {
        "type": "kernel_sum", "kernel": {"family": "gaussian", "lengthscale": 0.5},
        "centers": [0.3], "weights": [0.04], "wrap_period": 1.0, "wrap_copies": 1},
}


@pytest.mark.parametrize("case", NONPERIODIC_V)
@pytest.mark.parametrize("command, name", [("simulate", "energy.V"),
                                           ("stability", "truth V"),
                                           ("stability", "estimate 1 V")])
def test_nonperiodic_v_exits_2(tmp_path, capsys, monkeypatch, command, name, case):
    simulated = []
    simulate = analysis.hamiltonian_flow_simulate

    def counting(*args, **kwargs):
        simulated.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(analysis, "hamiltonian_flow_simulate", counting)
    if command == "simulate":
        cfg = simulate_config(tmp_path / "run", kind="hamiltonian")
        cfg["energy"]["V"] = NONPERIODIC_V[case]
    else:
        cfg = stability_config(tmp_path / "run")
        if name == "truth V":
            cfg["truth_v"] = NONPERIODIC_V[case]
        else:
            cfg["estimates"][1]["V"] = NONPERIODIC_V[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run([command, "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "v_not_periodic"
    # stability names the failing V before it simulates any flow
    assert err["message"].startswith(f"{name}: ")
    assert simulated == []


class TestEstimate:
    @pytest.fixture
    def data_dir(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(tmp_path / "run")))
        assert run(["simulate", "--config", cfg_path]) == 0
        return tmp_path / "run"

    def test_end_to_end(self, tmp_path, data_dir):
        out = tmp_path / "est"
        cfg_path = tmp_path / "est.json"
        cfg_path.write_text(json.dumps({"drop_last_time_rows": 0}))
        rc = run(["estimate", "--config", cfg_path, "--data", data_dir / "trajectory.csv",
                  "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                  "--lambda1", "0.05", "--lambda2", "0.05",
                  "--u", "entropy", "--out", out, "--seed", "7"])
        assert rc == 0
        header = json.loads((out / "coeff_header.json").read_text())
        c1 = np.frombuffer((out / "coeff_c1.bin").read_bytes(), dtype="<f8")
        assert c1.size == header["length"] == 24 * 5
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["loss"] >= 0
        assert diag["core_route"] in ("rows", "moments")
        recon = (out / "reconstruction.csv").read_text().splitlines()
        assert recon[0] == "x,vhat,what"
        assert len(recon) == 202

    def test_section_map_built_once_per_command(self, tmp_path, data_dir, monkeypatch):
        """Spatial differences are taken once per use: the fit slopes (solve,
        stationarity) and the data functional's two are one call each."""
        calls = []

        def counted(diff_space):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return diff_space(*args, **kwargs)
            return wrapper

        for module in (mesh, estimator):
            monkeypatch.setattr(module, "diff_space", counted(module.diff_space))
        assert run(["estimate", "--data", data_dir / "trajectory.csv",
                    "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                    "--lambda1", "0.05", "--lambda2", "0.05", "--u", "entropy",
                    "--out", tmp_path / "est"]) == 0
        assert len(calls) == 4

    def test_missing_sidecar_exit_2(self, tmp_path, data_dir, capsys):
        bogus = tmp_path / "lonely.csv"
        bogus.write_text("1.0,2.0\n")
        rc = run(["estimate", "--data", bogus,
                  "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                  "--lambda1", "1", "--lambda2", "1", "--out", tmp_path / "x"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "meta_missing"

    @pytest.mark.parametrize("sample", ["0", "inf"])
    def test_invalid_sample_exit_2(self, tmp_path, data_dir, capsys, sample):
        """A zero or infinite density sample is a data error, not a crash."""
        csv = data_dir / "trajectory.csv"
        rows = csv.read_text().splitlines()
        rows[1] = ",".join([sample] + rows[1].split(",")[1:])
        csv.write_text("\n".join(rows) + "\n")
        rc = run(["estimate", "--data", csv,
                  "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                  "--lambda1", "0.05", "--lambda2", "0.05", "--out", tmp_path / "x"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "data_invalid"

    def test_missing_kernel_exit_2(self, tmp_path, data_dir):
        rc = run(["estimate", "--data", data_dir / "trajectory.csv",
                  "--lambda1", "1", "--lambda2", "1", "--out", tmp_path / "x"])
        assert rc == 2

    def test_diagnostics_reports_stationarity(self, tmp_path, data_dir):
        out = tmp_path / "est2"
        rc = run(["estimate", "--data", data_dir / "trajectory.csv",
                  "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                  "--lambda1", "0.05", "--lambda2", "0.05",
                  "--u", "entropy", "--out", out])
        assert rc == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["stationarity_residual"] <= 1e-6 * max(diag["loss"], 1.0)

    def test_three_function_estimate(self, tmp_path, data_dir):
        out = tmp_path / "est3"
        rc = run(["estimate", "--data", data_dir / "trajectory.csv",
                  "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                  "--kernel3", '{"family":"gaussian","lengthscale":0.3}',
                  "--lambda1", "0.05", "--lambda2", "0.05", "--lambda3", "0.1",
                  "--out", out])
        assert rc == 0
        assert (out / "coeff_c3.bin").exists()
        recon = (out / "reconstruction.csv").read_text().splitlines()
        assert recon[0] == "x,vhat,what,uhat"
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["kept_rank"]["U"][1] == 2 * 24
        assert diag["stationarity_residual"] <= 1e-6 * max(diag["loss"], 1.0)

    def test_readme_quick_start_reports_rank_and_jitter(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(tmp_path / "run", N=64, L=12)))
        assert run(["simulate", "--config", cfg_path]) == 0
        data, out = tmp_path / "run" / "trajectory.csv", tmp_path / "est"
        assert run(["estimate", "--data", data, "--kernel1", KERNEL1,
                    "--kernel2", KERNEL2, "--lambda1", "0.05", "--lambda2", "0.05",
                    "--u", "entropy", "--out", out]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["jitter"] == 0.0
        assert diag["cg_iterations"] >= 1 and diag["cg_residual"] <= estimator._CG_TOL
        # the default fit leaves out the last of the 12 time rows, as sweeps do
        assert DROP_LAST_TIME_ROWS == analysis.SweepPlan.drop_last_time_rows == 1
        assert len(diag["residual_row_max"]) == 12 - DROP_LAST_TIME_ROWS
        assert max(diag["residual_row_max"]) == diag["residual_max"]
        assert {name: total for name, (_, total) in diag["kept_rank"].items()} \
            == {"V": 2 * 64, "W": 2 * (2 * 64 - 1)}
        problem = EstimationProblem(
            read_trajectory(data), SmoothKernel.from_config(json.loads(KERNEL1)),
            SmoothKernel.from_config(json.loads(KERNEL2)), lambda1=0.05,
            lambda2=0.05, known_u=InternalEnergy("entropy"),
            drop_last_time_rows=DROP_LAST_TIME_ROWS)
        P, _ = stacked_factor(problem)
        assert sum(kept for kept, _ in diag["kept_rank"].values()) == P.shape[1]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(tmp_path / "run")))
        est = tmp_path / "est"

        def pipeline():
            assert run(["simulate", "--config", cfg_path]) == 0
            assert run(["estimate", "--data", tmp_path / "run" / "trajectory.csv",
                        "--kernel1", KERNEL1, "--kernel2", KERNEL2,
                        "--lambda1", "0.05", "--lambda2", "0.05",
                        "--u", "entropy", "--out", est, "--seed", "7"]) == 0

        pipeline()
        keep = tmp_path / "first"
        keep.mkdir()
        files = [
            ("run", "trajectory.csv"), ("run", "trajectory.meta.json"),
            ("run", "run_info.json"), ("run", "manifest.json"),
            ("est", "coeff_c1.bin"), ("est", "coeff_c2.bin"),
            ("est", "coeff_header.json"), ("est", "reconstruction.csv"),
            ("est", "diagnostics.json"), ("est", "manifest.json"),
        ]
        for sub, fname in files:
            shutil.copy(tmp_path / sub / fname, keep / f"{sub}_{fname}")
        shutil.rmtree(tmp_path / "run")
        shutil.rmtree(est)
        pipeline()
        for sub, fname in files:
            assert (tmp_path / sub / fname).read_bytes() == \
                (keep / f"{sub}_{fname}").read_bytes(), f"{sub}/{fname} differs"


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        cfg = sweep_config(tmp_path / "sweep")
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", cfg_path]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("N,lambda,L,rkhs_error")
        assert len(lines) == 3
        summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
        assert "predicted_exponent_bands" in summary


class TestStabilityCommand:
    def test_three_estimates(self, tmp_path):
        cfg_path = tmp_path / "stab.json"
        cfg_path.write_text(json.dumps(stability_config(tmp_path / "stab")))
        assert run(["stability", "--config", cfg_path]) == 0
        summary = json.loads((tmp_path / "stab" / "summary.json").read_text())
        assert summary["non_increasing_w2"] is True

    def test_estimate_without_v_exits_2(self, tmp_path):
        cfg = stability_config(tmp_path / "stab")
        del cfg["estimates"][1]["V"]
        cfg_path = tmp_path / "stab.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["stability", "--config", cfg_path]) == 2

    def test_true_flow_simulated_once(self, tmp_path, monkeypatch):
        # one lockstep integration covers the truth once and each estimate
        # once, in that order, even the last estimate, which is the truth
        calls = []
        simulate = analysis.hamiltonian_flow_simulate

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(analysis, "hamiltonian_flow_simulate", counting)
        cfg = stability_config(tmp_path / "stab")
        cfg_path = tmp_path / "stab.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["stability", "--config", cfg_path]) == 0
        (_, _, specs, *_), = calls
        pairs = [(cfg["truth_v"], cfg["truth_w"])] + [(e["V"], e["W"])
                                                      for e in cfg["estimates"]]
        assert len(specs) == len(pairs) == 4
        x = np.linspace(0.0, 1.0, 17)
        for spec, (v, w) in zip(specs, pairs):
            assert np.array_equal(spec.V.value(x), cli.function_from_spec(v, "V").value(x))
            assert np.array_equal(spec.W.value(x), cli.function_from_spec(w, "W").value(x))
        timings = json.loads((tmp_path / "stab" / "timings.json").read_text())["seconds"]
        assert {"flows", "estimate 0", "estimate 1", "estimate 2"} <= set(timings)
        assert "true flow" not in timings
        assert all(timings[key] >= 0 for key in timings)


@pytest.mark.parametrize("command, make_config",
                         [("stability", stability_config), ("sweep", sweep_config)])
def test_rerun_artifacts_byte_identical_apart_from_timings(tmp_path, command, make_config):
    """Wall-clock data goes to timings.json only, so reruns match byte for byte."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(out)))

    def artifacts():
        assert run([command, "--config", cfg_path]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
        timings = json.loads((out / "timings.json").read_text())["seconds"]
        shutil.rmtree(out)
        return files, timings

    (first, timings), (second, _) = artifacts(), artifacts()
    assert "manifest.json" in first and sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    assert len(timings) > 2   # the command's stage, total, and one entry per item


@pytest.fixture(scope="module")
def w2_runs(tmp_path_factory):
    """Gradient runs for ``w2``: "base", one on another grid, one on
    another time axis."""
    root = tmp_path_factory.mktemp("w2")
    other_times = simulate_config(root / "other_times")
    other_times["mesh"]["T"] = 0.04
    for cfg in (simulate_config(root / "base"), simulate_config(root / "other_grid", N=20),
                other_times):
        cfg_path = root / (Path(cfg["out"]).name + ".json")
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_path]) == 0
    return root


# w2 config edits and the run --sigma reads; the base run has L = 5
BAD_W2_CONFIGS = {
    "row_past_last": ({"row": 5}, "base"),
    "row_before_first": ({"row": -6}, "base"),
    "no_quantiles": ({"n_quantiles": 0}, "base"),
    "quantiles_not_an_integer": ({"n_quantiles": "many"}, "base"),
    "row_not_integral": ({"row": 1.5}, "base"),
    "periodic_not_a_boolean": ({"periodic": "false"}, "base"),
    "seed_not_an_integer": ({"seed": "seven"}, "base"),
    "sigma_on_other_grid": ({}, "other_grid"),
    "sigma_on_other_times": ({}, "other_times"),
    # a path is a JSON string
    "rho_not_a_string": ({"rho": 5}, "base"),
    "sigma_a_list": ({"sigma": ["t.csv"]}, "base"),
    "out_not_a_string": ({"out": 5}, "base"),
}


@pytest.mark.parametrize("case", BAD_W2_CONFIGS)
def test_w2_config_errors_exit_2(tmp_path, capsys, w2_runs, case):
    edits, sigma = BAD_W2_CONFIGS[case]
    cfg_path = tmp_path / "w2.json"
    cfg_path.write_text(json.dumps({"rho": str(w2_runs / "base" / "trajectory.csv"),
                                    "sigma": str(w2_runs / sigma / "trajectory.csv"),
                                    **edits}))
    # an --out flag would override the config's out key
    for out in ([], ["--out", tmp_path / "w2"])[:1 if "out" in edits else 2]:
        assert run(["w2", "--config", cfg_path, *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "config_invalid"
    assert not (tmp_path / "w2").exists()  # refused before any work


@pytest.mark.parametrize("command", ["w2", "stability"])
def test_n_quantiles_key_refused(tmp_path, capsys, w2_runs, command):
    """The W2 distance is exact, so ``n_quantiles`` has no meaning left: a
    config that carries it, even at its former default, exits 2 naming it."""
    out = tmp_path / "out"
    data = str(w2_runs / "base" / "trajectory.csv")
    cfg = ({"rho": data, "sigma": data, "out": str(out)} if command == "w2"
           else stability_config(out))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "n_quantiles": 512}))
    assert run([command, "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config_invalid" and "n_quantiles" in err["message"]
    assert not out.exists()  # refused before any work


def test_non_finite_output_exits_1(tmp_path, capsys, monkeypatch, w2_runs):
    """JSON artifacts and stdout are strict: a non-finite value is a
    runtime error, never a NaN token, and leaves no partial file."""
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.write_json(tmp_path / "bad.json", {"value": float("nan")})
    assert not (tmp_path / "bad.json").exists()
    monkeypatch.setattr(cli, "wasserstein2_1d", lambda *args, **kwargs: float("inf"))
    data = w2_runs / "base" / "trajectory.csv"
    for out in ([], ["--out", tmp_path / "w2"]):
        assert run(["w2", "--rho", data, "--sigma", data, *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "runtime_error"
    assert not (tmp_path / "w2" / "w2.json").exists()


class TestW2Command:
    def test_distance_between_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(tmp_path / "runA")))
        assert run(["simulate", "--config", cfg_path]) == 0
        rc = run(["w2", "--rho", tmp_path / "runA" / "trajectory.csv",
                  "--sigma", tmp_path / "runA" / "trajectory.csv"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["w2"] == pytest.approx(0.0, abs=1e-12)
