"""Experiment harness: data generators, config loading and validation, the
replication runner, output persistence, and the command-line interface.

Generator laws are checked against their defining distributions with
ESS-free 3-sigma binomial/moment bands at fixed seeds; runner determinism is
checked bytewise, including serial-vs-parallel equality.
"""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

import gibbsinf
from gibbsinf.errors import ConfigError, PreconditionError
from gibbsinf.harness import (AUCSim, HeavyTailSim, MCID1, MCID2,
                              MeanCurveSim, QuantileRegSim, SparseClassSim,
                              build_generator, cli_main, compute_row,
                              holdout_misclassification, load_config,
                              row_seed, run_experiment,
                              validate_experiment_config, write_outputs)
from gibbsinf.harness.config import resolve_proposal_scale
from gibbsinf.harness.runner import _blocks, default_workers
from gibbsinf.sampler import hash64, make_rng


def _tiny_config(**overrides) -> dict:
    cfg = {
        "schema": 1,
        "generator": {"name": "quantilereg", "tau": 0.5,
                      "betaStar": [1.0, 2.0], "noiseSd": 1.0},
        "loss": {"name": "check", "tau": 0.5},
        "prior": {"name": "gaussian", "mean": 0.0, "sd": 10.0},
        "rate": {"name": "fixed", "omega": 1.0},
        "mh": {"steps": 600, "burnIn": 100, "thin": 5, "proposalScale": 0.3},
        "divergence": {"name": "euclid"},
        "nGrid": [50, 100],
        "replications": 2,
        "baseSeed": 7,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# generator laws


def test_threshold_sim_covariate_law():
    # Z uniform on (0,3); X = mu(Z) + N(0,1) with mu(z) = z^3 - 3z^2 + 5,
    # so moments of X follow from 1-d quadrature over z
    gen = MCID1()
    z, x = gen.sample_zx(make_rng(hash64(50, 1)), 200_000)
    assert z.min() >= 0.0 and z.max() <= 3.0
    t = np.linspace(0.0, 3.0, 20_001)
    mu = t ** 3 - 3 * t ** 2 + 5
    want_mean = np.trapezoid(mu, t) / 3.0
    want_var = np.trapezoid(mu ** 2, t) / 3.0 - want_mean ** 2 + 1.0
    assert abs(x.mean() - want_mean) < 3 * math.sqrt(want_var / 200_000)
    assert abs(x.var() / want_var - 1.0) < 0.02


def test_threshold_sim_margin_identity():
    # the flip probability jumps by 2*Phi(jump/eta_sd) - 1 across the
    # threshold; the generator must report exactly that margin
    gen = MCID1()
    assert gen.margin == pytest.approx(
        2 * float(ndtr(gen.jump / gen.eta_sd)) - 1, abs=1e-14)


def test_threshold_sim_flip_probability_law():
    # P(Y = 1 | z, x) must equal eta(z, x): check on a coarse (z, x) cell
    gen = MCID1()
    rng = make_rng(hash64(50, 7))
    gd = gen.sample(200_000, rng)
    z, x, y = gd.data.z, gd.data.x, gd.data.y
    sel = (z > 1.0) & (z < 1.2) & (x > gen.mean_x(z))  # above the threshold
    p_hat = float((y[sel] == 1).mean())
    p_want = float(np.mean(gen.eta(z[sel], x[sel])))
    assert abs(p_hat - p_want) < 3 * math.sqrt(0.25 / sel.sum())
    assert p_want > 0.5  # above the threshold the label leans positive


def test_bayes_rate_against_independent_quadrature():
    gen = MCID1()
    want, err = integrate.quad(
        lambda t: 2.0 * ndtr(-(t + gen.jump) / gen.eta_sd)
        * stats.norm.pdf(t, scale=gen.x_sd), 0.0, np.inf)
    assert err < 1e-8
    assert gen.bayes_rate() == pytest.approx(want, abs=1e-6)


def test_truth_threshold_misclassification_matches_bayes_rate():
    gen = MCID1()
    gd = gen.sample(100_000, make_rng(hash64(50, 6)))
    rate = holdout_misclassification(gen.threshold, gd.data)
    bayes = gen.bayes_rate()
    assert abs(rate - bayes) < 3 * math.sqrt(bayes * (1 - bayes) / 100_000)


def test_tensor_sim_shapes():
    gen = MCID2()
    basis = gen.default_basis(4)
    gd = gen.sample(500, make_rng(hash64(50, 8)))
    assert gd.data.z.shape == (500, 2)
    assert basis.design(gd.data.z).shape == (500, 16)
    assert set(np.unique(gd.data.y)) <= {-1, 1}


def test_ranking_sim_concordance_law():
    gen = AUCSim(1.0)
    pairs = gen.sample_pairs(make_rng(hash64(50, 2)), 100_000)
    want = float(ndtr(1.0 / math.sqrt(2.0)))
    assert gen.theta_star == pytest.approx(want, abs=1e-12)
    emp = float((pairs.u1 > pairs.u0).mean())
    assert abs(emp - want) < 3 * math.sqrt(want * (1 - want) / 100_000)


def test_ranking_sim_two_sample_split():
    # n is the per-group size: n scores in each group, n*n loss terms
    gd = AUCSim(1.0).sample(200, make_rng(hash64(50, 9)))
    assert len(gd.data.scores0) == 200
    assert len(gd.data.scores1) == 200
    assert gd.data.n_terms == 200 * 200


def test_quantile_sim_conditional_quantile():
    gen = QuantileRegSim(0.7, (1.0, 2.0), 1.0)
    gd = gen.sample(200_000, make_rng(hash64(50, 3)))
    resid = gd.data.y - gen.quantile(gd.data.x)
    cover = float((resid <= 0).mean())
    assert abs(cover - 0.7) < 3 * math.sqrt(0.7 * 0.3 / 200_000)
    # the dictionary truth shifts the intercept by sd * z_tau
    want = np.array([1.0, 2.0]) + np.array(
        [float(stats.norm.ppf(0.7)), 0.0])
    assert np.allclose(gen.theta_star, want, atol=1e-12)


def test_heavy_tail_sim_noise_variance():
    gen = HeavyTailSim(5.0)
    gd = gen.sample(200_000, make_rng(hash64(50, 4)))
    noise = gd.data.y - gd.data.x @ gen.theta_star
    want = 5.0 / 3.0  # df / (df - 2)
    assert abs(noise.var() / want - 1.0) < 0.05
    assert np.all(gd.data.x[:, 0] == 1.0)


def test_sparse_class_sim_flip_rate_and_truth():
    gen = SparseClassSim(q=10, support=(0, 1), beta_values=(2.0, -1.5),
                         flip_rho=0.1)
    assert np.array_equal(
        gen.theta_star_dense,
        np.array([1.0, 2.0, -1.5] + [0.0] * 8))
    gd = gen.sample(100_000, make_rng(hash64(50, 5)))
    assert gd.data.x.shape == (100_000, 11)
    clean = (gd.data.x @ gen.theta_star_dense > 0).astype(int)
    flipped = float((gd.data.y != clean).mean())
    assert abs(flipped - 0.1) < 3 * math.sqrt(0.1 * 0.9 / 100_000)


def test_mean_curve_sim_fixed_design():
    gen = MeanCurveSim("sine", 0.3)
    gd = gen.sample(10, make_rng(1))
    assert np.allclose(gd.data.x, np.arange(1, 11) / 10.0, atol=1e-15)
    # responses center on the curve
    gd_big = gen.sample(50_000, make_rng(2))
    resid = gd_big.data.y - gen.fn(gd_big.data.x)
    assert abs(resid.mean()) < 3 * 0.3 / math.sqrt(50_000)


def test_generator_parameter_validation():
    with pytest.raises(ConfigError):
        QuantileRegSim(1.5)
    with pytest.raises(ConfigError):
        HeavyTailSim(2.0)
    with pytest.raises(ConfigError):
        MeanCurveSim("no-such-curve")
    with pytest.raises(ConfigError):
        build_generator({"name": "no-such-generator"})
    with pytest.raises(ConfigError):
        build_generator({"no_name": True})


# ---------------------------------------------------------------------------
# config loading and validation


def test_load_config_missing_file_names_path(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="absent.json"):
        load_config(path)


def test_load_config_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "schema": 1,\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_load_config_schema_gate(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text('{"schema": 2}')
    with pytest.raises(ConfigError, match="schema"):
        load_config(path)
    path_list = tmp_path / "arr.json"
    path_list.write_text('[1, 2]')
    with pytest.raises(ConfigError, match="object"):
        load_config(path_list)


def test_validate_config_field_errors():
    cfg = _tiny_config()
    del cfg["rate"]
    with pytest.raises(ConfigError, match="'rate'"):
        validate_experiment_config(cfg)
    with pytest.raises(ConfigError, match="unknown"):
        validate_experiment_config(_tiny_config(bogusKey=1))
    with pytest.raises(ConfigError, match="nGrid"):
        validate_experiment_config(_tiny_config(nGrid=[]))
    with pytest.raises(ConfigError, match="nGrid"):
        validate_experiment_config(_tiny_config(nGrid=[50.5]))
    with pytest.raises(ConfigError, match="replications"):
        validate_experiment_config(_tiny_config(replications=0))
    with pytest.raises(ConfigError, match="fullReplications"):
        validate_experiment_config(_tiny_config(fullReplications=-1))


def test_resolve_proposal_scale_forms():
    assert resolve_proposal_scale({"proposalScale": 0.3}, 100) == 0.3
    assert resolve_proposal_scale({}, 100) is None
    got = resolve_proposal_scale(
        {"proposalScale": {"c": 2.0, "gamma": 0.5}}, 400)
    assert got == pytest.approx(0.1)
    vec = resolve_proposal_scale({"proposalScale": [0.1, 0.2]}, 100)
    assert np.allclose(vec, [0.1, 0.2])
    with pytest.raises(ConfigError, match="gamma"):
        resolve_proposal_scale({"proposalScale": {"c": 2.0}}, 100)


def test_pilot_start_requires_threshold_loss():
    cfg = _tiny_config()
    cfg["mh"]["init"] = "pilot"
    cfg["nGrid"] = [50]
    cfg["replications"] = 1
    res = run_experiment(cfg, workers=1)
    assert res.rows[0]["error"] is not None
    assert "pilot" in res.rows[0]["error"]


# ---------------------------------------------------------------------------
# runner determinism and aggregation


def test_row_grid_and_seeds():
    cfg = _tiny_config()
    res = run_experiment(cfg, workers=1)
    assert len(res.rows) == 4
    assert [(r["n"], r["rep"]) for r in res.rows] == [
        (50, 0), (50, 1), (100, 0), (100, 1)]
    for i, n in enumerate(cfg["nGrid"]):
        for j in range(cfg["replications"]):
            row = res.rows[i * cfg["replications"] + j]
            assert row["seed"] == row_seed(7, i, j) == hash64(7, i, j)
    assert all(r["error"] is None for r in res.rows)
    assert res.summary["rowCount"] == 4
    assert res.summary["errorCount"] == 0
    assert res.summary["config"] == cfg


def test_compute_row_reproduces_runner_rows():
    cfg = _tiny_config()
    res = run_experiment(cfg, workers=1)
    assert compute_row(cfg, 1, 0) == res.rows[2]
    assert compute_row(cfg, 0, 1) == res.rows[1]


def test_serial_and_parallel_runs_are_identical():
    cfg = _tiny_config()
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


def test_split_block_is_byte_identical_to_one_block(tmp_path):
    # four replications at one n: one block of four serially, two blocks of
    # two on two workers; block size must never change a byte
    cfg = _tiny_config(nGrid=[50], replications=4)
    assert _blocks(1, 4, 1) == [(0, range(0, 4))]
    assert _blocks(1, 4, 2) == [(0, range(0, 2)), (0, range(2, 4))]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        write_outputs(run_experiment(cfg, workers=workers), out)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("results.csv", "radii.csv", "summary.json")})
    assert outputs[0] == outputs[1]
    rows = run_experiment(cfg, workers=1).rows
    assert [compute_row(cfg, 0, j) for j in range(4)] == rows


def test_blocks_cover_every_row_once_in_order():
    for n_count, reps, workers in ((3, 4, 2), (1, 5, 3), (2, 1, 8), (4, 10, 1)):
        blocks = _blocks(n_count, reps, workers)
        cells = [(i, j) for i, block in blocks for j in block]
        assert cells == [(i, j) for i in range(n_count) for j in range(reps)]
        assert len(blocks) >= min(workers, n_count * reps)


def test_timings_add_wall_ms_and_change_nothing_else():
    cfg = _tiny_config(nGrid=[50], replications=3)
    plain = run_experiment(cfg, workers=1).rows
    timed = run_experiment(cfg, workers=1, timings=True).rows
    assert all(r["wall_ms"] > 0.0 for r in timed)
    assert [dict(r, wall_ms=None) for r in timed] == plain


def test_nan_initial_density_is_a_row_error():
    # a NaN coordinate makes the start's density NaN; that chain would
    # never accept, so the row reports it instead
    cfg = _tiny_config(nGrid=[50])
    cfg["mh"] = dict(cfg["mh"], init=[float("nan"), 1.0])
    rows = run_experiment(cfg, workers=1).rows
    assert len(rows) == 2
    assert all(r["error"] == "InitializationError: initial point has NaN "
               "target density" for r in rows)


def test_rate_fit_requires_three_sizes():
    with_three = run_experiment(_tiny_config(nGrid=[50, 100, 200],
                                             replications=1), workers=1)
    assert "rateFit" in with_three.summary
    assert with_three.summary["rateFit"]["slope"] < 0
    with_two = run_experiment(_tiny_config(replications=1), workers=1)
    assert "rateFit" not in with_two.summary


def test_full_flag_switches_replication_count():
    cfg = _tiny_config(nGrid=[50], replications=1, fullReplications=3)
    assert len(run_experiment(cfg, workers=1).rows) == 1
    assert len(run_experiment(cfg, workers=1, full=True).rows) == 3


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("GIBBS_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("GIBBS_WORKERS", "zero")
    with pytest.raises(ConfigError):
        default_workers()
    monkeypatch.delenv("GIBBS_WORKERS")
    assert default_workers() >= 1


def test_write_outputs_files_and_round_trip(tmp_path):
    res = run_experiment(_tiny_config(), workers=1)
    out = tmp_path / "out"
    paths = write_outputs(res, out)
    for key in ("results", "radii", "summary"):
        assert os.path.exists(paths[key])
    raw = open(paths["results"], "rb").read()
    assert b"\r" not in raw  # unix line endings on every platform
    lines = raw.decode().splitlines()
    assert lines[0].split(",")[:4] == ["n", "rep", "seed", "omega"]
    assert len(lines) == 1 + 4
    # floats are written with repr, so parsing them back is exact
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["radius_q90"]) == res.rows[0]["radius_q90"]
    assert int(first["seed"]) == res.rows[0]["seed"]
    summary = json.load(open(paths["summary"]))
    assert summary["rowCount"] == 4
    radii = open(paths["radii"]).read().splitlines()
    assert radii[0] == "n,rep,radius_q90"
    assert len(radii) == 1 + 4


def test_reruns_are_byte_identical(tmp_path):
    cfg = _tiny_config()
    pa = write_outputs(run_experiment(cfg, workers=1), tmp_path / "a")
    pb = write_outputs(run_experiment(cfg, workers=2), tmp_path / "b")
    for key in ("results", "radii", "summary"):
        assert open(pa[key], "rb").read() == open(pb[key], "rb").read()


# ---------------------------------------------------------------------------
# command-line interface


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_experiment_run_success(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out_dir = tmp_path / "out"
    code, out, _ = _run_cli(["experiment", "run", str(cfg_path),
                             "--out", str(out_dir), "--workers", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 4
    assert payload["errors"] == 0
    assert sorted(os.listdir(out_dir)) == ["radii.csv", "results.csv",
                                           "summary.json"]


def test_cli_missing_config_is_usage_error(tmp_path):
    code, _, err = _run_cli(["experiment", "run",
                             str(tmp_path / "nope.json"),
                             "--out", str(tmp_path / "out")])
    assert code == 1
    assert "nope.json" in err


@pytest.mark.parametrize("field,name", [
    ("generator", "mcid3"), ("loss", "mcdi"), ("prior", "cauchy"),
    ("rate", "constant"), ("divergence", "kl")])
def test_unknown_component_name_fails_before_any_cell(tmp_path, field, name):
    cfg = _tiny_config()
    cfg[field] = {**cfg[field], "name": name}
    with pytest.raises(ConfigError, match=f"{field} '{name}'.*allowed"):
        run_experiment(cfg, workers=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(cfg_path),
                             "--out", str(out_dir), "--workers", "1"])
    assert code == 1
    assert name in err
    assert not out_dir.exists()


@pytest.mark.parametrize("init", ["pilot", [1.0, 2.0]], ids=["pilot", "list"])
def test_spikeslab_init_fails_before_any_cell(tmp_path, init):
    # the sparse sampler always starts from a prior draw, so an init there
    # is a config error rather than a setting that is silently dropped
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "sparse_trend.json"))
    cfg["mh"]["init"] = init
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1
    assert "init" in err and "spikeslab" in err
    assert not out.exists()


def test_non_object_mh_section_fails_before_any_cell():
    with pytest.raises(ConfigError, match="mh"):
        run_experiment(_tiny_config(mh="fast"), workers=1)


def test_cli_runtime_error_exit_code(tmp_path):
    # a theta* vastly worse than the grid point overflows the annealed
    # moment exponent: a runtime failure, not a config one
    cfg_path = tmp_path / "mgf.json"
    cfg_path.write_text(json.dumps({"schema": 1, "mgf": {
        "generator": {"name": "quantilereg", "tau": 0.5},
        "loss": {"name": "check", "tau": 0.5},
        "grid": [[1.0, 2.0]],
        "thetaStar": [5000.0, 0.0],
        "omega": 1.0, "nDraws": 200, "seed": 0}}))
    code, _, err = _run_cli(["diagnose", "mgf", str(cfg_path)])
    assert code == 2
    assert "Overflow" in err


def test_cli_diagnose_mgf_reports_constants(tmp_path):
    cfg_path = tmp_path / "mgf.json"
    cfg_path.write_text(json.dumps({"schema": 1, "mgf": {
        "generator": {"name": "quantilereg", "tau": 0.5},
        "loss": {"name": "check", "tau": 0.5},
        "grid": [[1.2, 2.0], [1.8, 2.0]],
        "omega": 1.0, "nDraws": 2000, "seed": 0}}))
    code, out, _ = _run_cli(["diagnose", "mgf", str(cfg_path)])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 2
    assert payload["min_k_hat"] > 0


def test_cli_diagnose_rate_recovers_slope(tmp_path):
    csv_path = tmp_path / "radii.csv"
    with open(csv_path, "w") as fh:
        fh.write("n,rep,radius_q90\n")
        for n in (100, 400, 1600):
            fh.write(f"{n},0,{2.0 * n ** -0.5!r}\n")
    code, out, _ = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == pytest.approx(-0.5, abs=1e-10)
    assert payload["nPairs"] == 3


def test_cli_diagnose_rate_rejects_thin_input(tmp_path):
    csv_path = tmp_path / "radii.csv"
    csv_path.write_text("n,rep,radius_q90\n100,0,0.5\n")
    code, _, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 1
    assert "3 distinct" in err


def test_cli_sample_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(nGrid=[50])))
    code1, out1, _ = _run_cli(["sample", str(cfg_path)])
    code2, out2, _ = _run_cli(["sample", str(cfg_path)])
    assert code1 == code2 == 0
    assert out1 == out2
    summary = json.loads(out1)
    assert summary["kept"] == 100
    assert summary["n"] == 50


def test_cli_sample_writes_draws(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(nGrid=[50])))
    out_dir = tmp_path / "chain"
    code, out, _ = _run_cli(["sample", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    draws = open(out_dir / "draws.csv").read().splitlines()
    assert draws[0] == "theta0,theta1"
    assert len(draws) == 1 + 100
    chain_info = json.load(open(out_dir / "chain.json"))
    assert chain_info["kept"] == 100


# ---------------------------------------------------------------------------
# bundled experiment configs


def _bundled_config_paths():
    cfg_dir = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    return sorted(
        os.path.join(cfg_dir, f) for f in os.listdir(cfg_dir)
        if f.endswith(".json"))


def test_bundled_configs_present():
    names = {os.path.basename(p) for p in _bundled_config_paths()}
    assert {"mcid1.json", "mcid2.json", "quantile_rootn.json",
            "auc_coverage.json", "sparse_trend.json"} <= names


@pytest.mark.parametrize("path", _bundled_config_paths(),
                         ids=lambda p: os.path.basename(p))
def test_bundled_config_runs_one_cell(path):
    cfg = load_config(path)
    validate_experiment_config(cfg)
    assert cfg["baseSeed"] == 1
    assert cfg["fullReplications"] > cfg["replications"]
    row = compute_row(cfg, 0, 0)
    assert row["error"] is None
    assert row["radius_q90"] >= 0.0
    assert 0.0 < row["accept_rate"] < 1.0


def test_cli_import_does_not_load_scipy_stats():
    # importing scipy.stats is a large share of the CLI's start-up time, and
    # nothing in the package needs it
    src = os.path.dirname(os.path.dirname(gibbsinf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, gibbsinf.harness.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
