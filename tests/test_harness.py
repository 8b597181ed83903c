"""Experiment harness: data generators, config loading and validation, the
replication runner, output persistence, and the command-line interface.

Generator laws are checked against their defining distributions with
ESS-free 3-sigma binomial/moment bands at fixed seeds; runner determinism is
checked bytewise, including serial-vs-parallel equality.
"""

import hashlib
import io
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import re
import signal
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from types import ModuleType

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

import gibbsinf
from gibbsinf.errors import ConfigError, PreconditionError
from gibbsinf.harness import (AUCSim, HeavyTailSim, MCID1, MCID2,
                              MeanCurveSim, QuantileRegSim, SparseClassSim,
                              build_generator, cli, cli_main, compute_row,
                              fit_cell, holdout_misclassification, load_config,
                              row_seed, run_experiment, runner,
                              validate_experiment_config, write_outputs)
from gibbsinf.harness import config
from gibbsinf.harness.config import (build_mh, build_prior, build_rate,
                                     resolve_proposal_scale)
from gibbsinf.harness.runner import (RESULT_COLUMNS, _blocks, _summarize,
                                     default_workers, write_radii_csv)
from gibbsinf.losses import MCIDLoss
from gibbsinf.sampler import credible_interval, hash64, make_rng


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
    data = gen.sample(200_000, rng)
    z, x, y = data.z, data.x, data.y
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
    data = gen.sample(100_000, make_rng(hash64(50, 6)))
    rate = holdout_misclassification(gen.truth_fn, data)
    bayes = gen.bayes_rate()
    assert abs(rate - bayes) < 3 * math.sqrt(bayes * (1 - bayes) / 100_000)


def test_tensor_sim_shapes():
    gen = MCID2()
    basis = gen.default_basis(4)
    data = gen.sample(500, make_rng(hash64(50, 8)))
    assert data.z.shape == (500, 2)
    assert basis.design(data.z).shape == (500, 16)
    assert set(np.unique(data.y)) <= {-1, 1}


def test_ranking_sim_concordance_law():
    gen = AUCSim(1.0)
    pairs = gen.mc_sample(make_rng(hash64(50, 2)), 100_000)
    want = float(ndtr(1.0 / math.sqrt(2.0)))
    assert gen.theta_star == pytest.approx(want, abs=1e-12)
    emp = float((pairs.u1 > pairs.u0).mean())
    assert abs(emp - want) < 3 * math.sqrt(want * (1 - want) / 100_000)


def test_ranking_sim_two_sample_split():
    # n is the per-group size: n scores in each group, n*n loss terms
    data = AUCSim(1.0).sample(200, make_rng(hash64(50, 9)))
    assert len(data.scores0) == 200
    assert len(data.scores1) == 200
    assert data.n_terms == 200 * 200


def test_quantile_sim_conditional_quantile():
    gen = QuantileRegSim(0.7, (1.0, 2.0), 1.0)
    data = gen.sample(200_000, make_rng(hash64(50, 3)))
    resid = data.y - gen.quantile(data.x)
    cover = float((resid <= 0).mean())
    assert abs(cover - 0.7) < 3 * math.sqrt(0.7 * 0.3 / 200_000)
    # the dictionary truth shifts the intercept by sd * z_tau
    want = np.array([1.0, 2.0]) + np.array(
        [float(stats.norm.ppf(0.7)), 0.0])
    assert np.allclose(gen.theta_star, want, atol=1e-12)


def test_heavy_tail_sim_noise_variance():
    gen = HeavyTailSim(5.0)
    data = gen.sample(200_000, make_rng(hash64(50, 4)))
    noise = data.y - data.x @ gen.theta_star
    want = 5.0 / 3.0  # df / (df - 2)
    assert abs(noise.var() / want - 1.0) < 0.05
    assert np.all(data.x[:, 0] == 1.0)


def test_sparse_class_sim_flip_rate_and_truth():
    gen = SparseClassSim(q=10, support=(0, 1), beta_values=(2.0, -1.5),
                         flip_rho=0.1)
    assert np.array_equal(
        gen.theta_star,
        np.array([1.0, 2.0, -1.5] + [0.0] * 8))
    data = gen.sample(100_000, make_rng(hash64(50, 5)))
    assert data.x.shape == (100_000, 11)
    clean = (data.x @ gen.theta_star > 0).astype(int)
    flipped = float((data.y != clean).mean())
    assert abs(flipped - 0.1) < 3 * math.sqrt(0.1 * 0.9 / 100_000)


def test_mean_curve_sim_fixed_design():
    gen = MeanCurveSim("sine", 0.3)
    data = gen.sample(10, make_rng(1))
    assert np.allclose(data.x, np.arange(1, 11) / 10.0, atol=1e-15)
    # responses center on the curve
    big = gen.sample(50_000, make_rng(2))
    resid = big.y - gen.truth_fn(big.x)
    assert abs(resid.mean()) < 3 * 0.3 / math.sqrt(50_000)


def _array_digest(obj, fields) -> str:
    """sha256 over the named arrays of obj: name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name in fields:
        a = getattr(obj, name)
        if a is not None:
            a = np.asarray(a)
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("index, gen, digest", [
    (0, MCID1(), "9d9f3b4290e16d8a7e64e0dcdcc60907b8fb9c917631a5527d468dfea7712384"),
    (1, MCID2(), "a95eab417469562571157873fa91cd0a1b737697e3aa57fa6b754e0aa021f3e6"),
    (2, QuantileRegSim(0.3),
     "033b00c8badd678e7050fd8ef1e2a1a0fb3e0355cfc1d228c2a44628dab8f129"),
    (3, HeavyTailSim(5.0),
     "f289ae813c729f57bb138acdf8e9d25f8aeab8c2dc720ac2f3616b509a1eb323"),
    (4, MeanCurveSim("bump", 0.3),
     "c29fbcc65ccb45fd55fb5ad66480a270f10d0b59f9d1465dc54595e89c9e3156"),
    (5, AUCSim(0.8), "4e79c5a5b40cc2bc01d39e5bb1d41db40a48efec10166398a5ae30d8110a30c5"),
    (6, SparseClassSim(12, (1, 4), (1.5, -2.0), flip_rho=0.1),
     "fc8d7d0ad2d7a1cf946b56026e4eb9c46ce8e5c7863a8a8c8f745cfeabfd9e55")],
    ids=["mcid1", "mcid2", "quantilereg", "heavytail", "meancurve", "aucsim",
         "sparseclass"])
def test_generator_samples_match_recorded_digests(index, gen, digest):
    # the arrays of one 50-point dataset per generator, recorded as a sha256;
    # any change to a generator's variates or their order shows here
    data = gen.sample(50, make_rng(hash64(97, index)))
    assert _array_digest(data, ("x", "y", "z", "scores0", "scores1")) == digest


@pytest.mark.parametrize("gen", [
    MCID1(), MCID2(), QuantileRegSim(0.3), HeavyTailSim(5.0), MeanCurveSim(),
    AUCSim(0.8), SparseClassSim(12, (1, 4), (1.5, -2.0))],
    ids=["mcid1", "mcid2", "quantilereg", "heavytail", "meancurve", "aucsim",
         "sparseclass"])
@pytest.mark.parametrize("n", [0, -1])
def test_every_generator_rejects_a_sample_size_below_one(gen, n):
    # aucsim's Monte-Carlo pairs raised a ShapeError at n = 0 and NumPy's
    # ValueError at n = -1
    with pytest.raises(PreconditionError, match="n must be at least 1"):
        gen.sample(n, make_rng(1))
    with pytest.raises(PreconditionError, match="n must be at least 1"):
        gen.mc_sample(make_rng(1), n)


def test_ranking_mc_pairs_match_recorded_digest():
    pairs = AUCSim(0.8).mc_sample(make_rng(hash64(97, 7)), 50)
    assert _array_digest(pairs, ("u0", "u1")) == \
        "55a9101c14129e20edfd2727746a66809a31c594681f3f031bce32d0586034b7"


def test_generator_parameter_validation():
    # a generator rejects a parameter as every component does, and the
    # config builder turns that into a ConfigError naming the generator
    with pytest.raises(PreconditionError):
        QuantileRegSim(1.5)
    with pytest.raises(PreconditionError):
        HeavyTailSim(2.0)
    with pytest.raises(PreconditionError):
        MeanCurveSim("no-such-curve")
    with pytest.raises(ConfigError, match="generator parameters for 'heavytail'.*exceed 2"):
        build_generator({"name": "heavytail", "df": 2.0})
    with pytest.raises(ConfigError):
        build_generator({"name": "no-such-generator"})
    with pytest.raises(ConfigError):
        build_generator({"no_name": True})


_NON_FINITE_GENERATORS = [
    (QuantileRegSim, (0.5, (1.0, 2.0), math.nan)),
    (QuantileRegSim, (0.5, (1.0, 2.0), math.inf)),
    (QuantileRegSim, (0.5, (math.nan, 1.0))), (AUCSim, (math.nan,)),
    (AUCSim, (math.inf,)), (HeavyTailSim, (math.nan,)),
    (HeavyTailSim, (math.inf,)), (HeavyTailSim, (5.0, (math.nan, 1.0))),
    (MeanCurveSim, ("sine", math.nan)), (MeanCurveSim, ("sine", math.inf)),
    (SparseClassSim, (5, (0,), [math.nan])),
    (SparseClassSim, (math.inf, (0,), [1.0])),
    (SparseClassSim, (math.nan, (0,), [1.0])),
]


@pytest.mark.parametrize("make,args", _NON_FINITE_GENERATORS,
                         ids=[f"{m.__name__}{a}" for m, a in _NON_FINITE_GENERATORS])
def test_generators_reject_non_finite_numbers(make, args):
    # at construction, not at sample: a NaN sparse coefficient samples
    # without error, every clean label 0 and the labels from the flips alone
    with pytest.raises(PreconditionError):
        make(*args)


# ---------------------------------------------------------------------------
# config loading and validation


def test_load_config_missing_file_names_path(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="absent.json"):
        load_config(path)


def _unreadable(tmp_path, fault):
    """An input path that cannot be read as text."""
    path = tmp_path / "input.json"
    if fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'\xff\xfe{"schema": 1}')
    return path


@pytest.mark.parametrize("fault", ["notUtf8", "directory"])
def test_load_config_unreadable_file_names_path(tmp_path, fault):
    with pytest.raises(ConfigError, match="input.json"):
        load_config(_unreadable(tmp_path, fault))


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
    # true and 1.0 compare equal to 1 in Python, but are not the integer 1
    for schema in ("true", "1.0"):
        path.write_text(f'{{"schema": {schema}}}')
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
    with pytest.raises(ConfigError, match="schema must be the integer 1"):
        validate_experiment_config(_tiny_config(schema=2))
    with pytest.raises(ConfigError, match="nGrid"):
        validate_experiment_config(_tiny_config(nGrid=[]))
    with pytest.raises(ConfigError, match="nGrid"):
        validate_experiment_config(_tiny_config(nGrid=[50.5]))
    with pytest.raises(ConfigError, match="replications"):
        validate_experiment_config(_tiny_config(replications=0))
    with pytest.raises(ConfigError, match="fullReplications"):
        validate_experiment_config(_tiny_config(fullReplications=-1))
    # JSON true and false load as bool, a subclass of int: nGrid [true] used
    # to run one row at n = 1
    with pytest.raises(ConfigError, match="nGrid"):
        validate_experiment_config(_tiny_config(nGrid=[50, True]))
    for field in ("replications", "baseSeed", "fullReplications"):
        with pytest.raises(ConfigError, match=field):
            validate_experiment_config(_tiny_config(**{field: True}))


def test_resolve_proposal_scale_forms():
    assert resolve_proposal_scale({"proposalScale": 0.3}, 100) == 0.3
    assert resolve_proposal_scale({}, 100) is None
    got = resolve_proposal_scale(
        {"proposalScale": {"c": 2.0, "gamma": 0.5}}, 400)
    assert got == pytest.approx(0.1)
    vec = resolve_proposal_scale({"proposalScale": [0.1, 0.2]}, 100)
    assert np.allclose(vec, [0.1, 0.2])
    with pytest.raises(ConfigError, match="gamma"):
        build_mh({"proposalScale": {"c": 2.0}}, 100, seed=0)


def test_pilot_start_requires_threshold_loss():
    # the check loss has no basis to fit a pilot on; this used to fail
    # every row, and is now a config error before any cell runs
    cfg = _tiny_config()
    cfg["mh"]["init"] = "pilot"
    cfg["nGrid"] = [50]
    cfg["replications"] = 1
    with pytest.raises(ConfigError, match="init 'pilot'.*mcid"):
        run_experiment(cfg, workers=1)


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


def test_default_workers_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("GIBBS_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5},
                        raising=False)
    assert default_workers() == 2
    monkeypatch.setenv("GIBBS_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.delenv("GIBBS_WORKERS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 64


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("GIBBS_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("GIBBS_WORKERS", "zero")
    with pytest.raises(ConfigError):
        default_workers()
    monkeypatch.delenv("GIBBS_WORKERS")
    assert default_workers() >= 1


def test_run_experiment_rejects_a_worker_count_below_one(tmp_path):
    # 0 workers used to raise ZeroDivisionError while splitting the blocks,
    # and -1 to return no rows without an error
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            run_experiment(_tiny_config(), workers=workers)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out_dir = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(cfg_path),
                             "--out", str(out_dir), "--workers", "0"])
    assert code == 1
    assert err == "error: workers must be at least 1; got 0\n"
    assert not out_dir.exists()


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
# the process pool kept across run_experiment calls


@pytest.fixture
def fresh_pool():
    """Each pool test starts without a kept pool and leaves none behind."""
    runner.shutdown_pool()
    yield
    runner.shutdown_pool()


def _workers():
    """The live worker processes this process started, by pid."""
    return {p.pid: p for p in multiprocessing.active_children()}


def _output_bytes(result, out) -> dict:
    paths = write_outputs(result, out)
    return {key: open(path, "rb").read() for key, path in paths.items()}


def test_pool_is_started_once_and_reused(tmp_path, fresh_pool):
    cfg = _tiny_config()
    serial = _output_bytes(run_experiment(cfg, workers=1), tmp_path / "serial")
    assert _workers() == {}
    first = _output_bytes(run_experiment(cfg, workers=2), tmp_path / "first")
    started = set(_workers())
    assert len(started) == 2
    second = _output_bytes(run_experiment(cfg, workers=2), tmp_path / "second")
    assert set(_workers()) == started      # the second call started none
    assert first == serial and second == serial


def test_new_worker_count_replaces_the_pool(tmp_path, fresh_pool):
    cfg = _tiny_config()
    serial = _output_bytes(run_experiment(cfg, workers=1), tmp_path / "serial")
    run_experiment(cfg, workers=2)
    old = _workers()
    assert len(old) == 2
    three = _output_bytes(run_experiment(cfg, workers=3), tmp_path / "three")
    assert three == serial
    now = _workers()
    assert len(now) == 3 and not set(now) & set(old)
    assert all(p.exitcode is not None for p in old.values())


def test_killed_idle_worker_is_replaced(tmp_path, fresh_pool):
    cfg = _tiny_config()
    serial = _output_bytes(run_experiment(cfg, workers=1), tmp_path / "serial")
    run_experiment(cfg, workers=2)
    victim = next(iter(_workers().values()))
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    after = _output_bytes(run_experiment(cfg, workers=2), tmp_path / "after")
    assert after == serial
    assert len(_workers()) == 2 and victim.pid not in _workers()


def test_threads_take_turns_on_the_pool(fresh_pool):
    # each call may replace the pool another thread is about to use
    cfg = _tiny_config()
    serial = run_experiment(cfg, workers=1).rows
    results, errors = [], []

    def calls(counts):
        try:
            results.extend(run_experiment(cfg, workers=w).rows for w in counts)
        except Exception as exc:     # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=calls, args=(counts,))
               for counts in ((2, 3, 2), (3, 2, 3))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert results == [serial] * 6


def _rows_on_two_workers(queue):
    os.setpgrp()    # so a hung child can be killed with its workers
    queue.put(run_experiment(_tiny_config(), workers=2).rows)


def test_forked_child_starts_its_own_pool(fresh_pool):
    # the child inherits the pool object but none of its workers or threads;
    # submitting to it would wait forever
    serial = run_experiment(_tiny_config(), workers=1).rows
    run_experiment(_tiny_config(), workers=2)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_rows_on_two_workers, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == serial
    finally:
        child.join(timeout=30)
        if child.is_alive():
            os.killpg(child.pid, signal.SIGKILL)
    assert child.exitcode == 0


def test_idle_workers_exit_when_their_owner_is_killed(fresh_pool):
    # SIGKILL skips every exit hook, so nothing shuts the owner's pool down.
    # The owner is forked with os.fork: a multiprocessing child would not
    # keep its pool after the call.
    report_r, report_w = os.pipe()
    done_r, done_w = os.pipe()      # the owner and its workers inherit done_w
    owner = os.fork()
    if owner == 0:
        try:
            before = set(multiprocessing.active_children())
            run_experiment(_tiny_config(), workers=2)
            pids = [p.pid for p in set(multiprocessing.active_children()) - before]
            os.write(report_w, json.dumps(pids).encode())
            signal.pause()      # idle, pool kept, until the test kills it
        finally:
            os._exit(1)
    os.close(report_w)
    os.close(done_w)
    try:
        assert multiprocessing.connection.wait([report_r], timeout=30)
        pids = json.loads(os.read(report_r, 4096))
        assert len(pids) == 2
        os.kill(owner, signal.SIGKILL)
        os.waitpid(owner, 0)
        # done_r reads end-of-file once the last holder of done_w is gone
        gone = multiprocessing.connection.wait([done_r], timeout=30)
        if not gone:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        assert gone and os.read(done_r, 1) == b""
    finally:
        os.close(report_r)
        os.close(done_r)
        try:
            if os.waitpid(owner, os.WNOHANG) == (0, 0):     # still running
                os.kill(owner, signal.SIGKILL)
                os.waitpid(owner, 0)
        except ChildProcessError:       # already reaped
            pass


def test_cli_run_on_two_workers_exits(tmp_path):
    # the pool must not hold up interpreter exit: the command line releases
    # it after its one call, and a library caller leaves it to the exit hooks
    src = os.path.dirname(os.path.dirname(gibbsinf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out_dir = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "gibbsinf", "experiment", "run",
                    str(cfg_path), "--workers", "2", "--out", str(out_dir)],
                   env=env, check=True, capture_output=True, timeout=60)
    assert sorted(os.listdir(out_dir)) == ["radii.csv", "results.csv",
                                           "summary.json"]
    code = ("import json, sys; from gibbsinf.harness import run_experiment; "
            "run_experiment(json.load(open(sys.argv[1])), workers=2)")
    subprocess.run([sys.executable, "-c", code, str(cfg_path)], env=env,
                   check=True, capture_output=True, timeout=60)


def test_cli_run_releases_its_workers(tmp_path, fresh_pool):
    # the command line makes one call, so it keeps no pool after it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))
    code, _, _ = _run_cli(["experiment", "run", str(path), "--workers", "2",
                           "--out", str(tmp_path / "out")])
    assert code == 0 and _workers() == {}


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


def test_cli_experiment_run_validates_once(tmp_path, monkeypatch):
    # validation builds every component at every n, so the command makes
    # one call, the one in run_experiment; a bad config still exits 1
    # before any output is written
    calls = []
    original = runner.validate_experiment_config
    for module in (runner, cli):
        monkeypatch.setattr(module, "validate_experiment_config",
                            lambda cfg: calls.append(1) or original(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    code, _, _ = _run_cli(["experiment", "run", str(cfg_path),
                           "--out", str(tmp_path / "out"), "--workers", "1"])
    assert code == 0
    assert len(calls) == 1
    calls.clear()
    cfg_path.write_text(json.dumps(_tiny_config(prior={"name": "gaussian"})))
    out_dir = tmp_path / "bad"
    code, _, err = _run_cli(["experiment", "run", str(cfg_path),
                             "--out", str(out_dir), "--workers", "1"])
    assert code == 1
    assert "sd" in err
    assert len(calls) == 1
    assert not out_dir.exists()


def test_cli_missing_config_is_usage_error(tmp_path):
    code, _, err = _run_cli(["experiment", "run",
                             str(tmp_path / "nope.json"),
                             "--out", str(tmp_path / "out")])
    assert code == 1
    assert "nope.json" in err


@pytest.mark.parametrize("fault", ["notUtf8", "directory"])
@pytest.mark.parametrize("command", [["experiment", "run"], ["diagnose", "rate"]],
                         ids=["config", "results"])
def test_cli_unreadable_input_is_usage_error(tmp_path, command, fault):
    # a directory or a file that is not UTF-8 used to exit 2 as a runtime
    # error, though it is a fault of the input
    path = _unreadable(tmp_path, fault)
    out_dir = tmp_path / "out"
    extra = ["--out", str(out_dir)] if command[0] == "experiment" else []
    code, _, err = _run_cli([*command, str(path), *extra])
    assert code == 1, err
    assert err.startswith("error: ") and str(path) in err, err
    assert not out_dir.exists()


@pytest.mark.parametrize("where", ["file", "underFile"])
@pytest.mark.parametrize("command", ["experiment", "sample"])
def test_cli_out_that_cannot_be_a_directory_fails_before_any_work(
        tmp_path, monkeypatch, command, where):
    # such an --out used to exit 2 with FileExistsError after every cell,
    # or the chain, had run
    calls = []
    for name in ("run_experiment", "fit_cell"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(1))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken if where == "file" else taken / "sub" / "out"
    argv = [command, "run"] if command == "experiment" else [command]
    code, _, err = _run_cli([*argv, str(cfg_path), "--out", str(out)])
    assert code == 1, err
    assert err.startswith("error: --out") and "not a directory" in err, err
    assert calls == []
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("field,name", [
    ("generator", "mcid3"), ("loss", "mcdi"), ("prior", "cauchy"),
    ("rate", "constant"), ("divergence", "kl"),
    # the Monte-Carlo function divergences take a function-valued reference,
    # which the runner never has, so no experiment config may name them
    ("divergence", "l2p"), ("divergence", "mcid_measure")])
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


def test_integer_too_large_for_a_float_is_a_config_error(tmp_path):
    # JSON reads 1 followed by 400 zeros as a Python int, and float() of it
    # raised OverflowError, which escaped the CLI as a bare traceback
    cfg = _tiny_config(prior={"name": "gaussian", "mean": 0.0, "sd": 10 ** 400})
    with pytest.raises(ConfigError, match="prior 'gaussian' sd must be a finite "
                                          "number"):
        run_experiment(cfg, workers=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(cfg_path),
                             "--out", str(out_dir), "--workers", "1"])
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert "prior 'gaussian' sd must be a finite number" in err
    assert not out_dir.exists()


def test_mh_init_too_large_for_a_float_fails_before_any_cell(tmp_path):
    # an mh init entry of 1 followed by 400 zeros passed validation, and its
    # float conversion in build_components escaped as an OverflowError
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid1.json"))
    cfg["mh"]["init"] = [10 ** 400, 0, 0, 0, 0, 0]
    with pytest.raises(ConfigError, match="mh init must be 'pilot' or a list "
                                          "of numbers in float range"):
        validate_experiment_config(cfg)
    path = tmp_path / "mcid1.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1
    assert err.startswith("error: ") and "mh init" in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minusInf"])
def test_nonfinite_float_in_mh_init_is_left_to_its_row(coordinate):
    # a start of NaN or zero density is an InitializationError of its row
    cfg = _tiny_config()
    cfg["mh"] = dict(cfg["mh"], init=[coordinate, 1.0])
    validate_experiment_config(cfg)


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


@pytest.mark.parametrize("generator", ["mcid1", "quantilereg", "sparseclass"])
def test_aucdata_rate_needs_aucsim_before_any_cell(tmp_path, generator):
    # the data-driven ranking rate reads two-sample scores; any other
    # generator's data has none, and the run used to die in the rate with
    # an uncaught TypeError
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid1.json"))
    cfg["rate"] = {"name": "aucdata", "multiplier": 1.0}
    if generator == "quantilereg":
        cfg.update(generator=_tiny_config()["generator"],
                   loss=_tiny_config()["loss"])
    elif generator == "sparseclass":
        cfg.update(generator={"name": "sparseclass", "q": 5, "support": [0],
                              "betaValues": [1.0]},
                   loss={"name": "zeroone"},
                   prior={"name": "spikeslab", "q": 5, "a": 1.0, "c": 1.0})
    with pytest.raises(ConfigError, match="rate 'aucdata'.*aucsim"):
        validate_experiment_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1
    assert "rate" in err and generator in err
    assert not out.exists()


@pytest.mark.parametrize("rate,n", [
    ({"name": "heavytail", "s": 5}, 1),
    ({"name": "power", "c": 1.0, "gamma": 400}, 20)],
    ids=["heavytail", "powerUnderflow"])
def test_rate_that_cannot_resolve_at_some_n_fails_before_any_cell(tmp_path,
                                                                 rate, n):
    # the log-n schedule has no value at n = 1: the config used to pass
    # validation, and every n = 1 row failed with a PreconditionError; the
    # power rate's 20^(-400) underflows to 0, and its chains sampled the
    # prior without an error
    cfg = _tiny_config(rate=rate, nGrid=[1, 20])
    with pytest.raises(ConfigError, match=f"rate {rate['name']!r} cannot "
                                          f"resolve at n = {n}"):
        validate_experiment_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1 and f"rate {rate['name']!r}" in err and f"n = {n}" in err, err
    assert not out.exists()


def test_holdout_without_the_mcid_loss_fails_before_any_cell(tmp_path):
    # only mcid rows score a holdout sample; on any other loss the key used
    # to be dropped without a word
    cfg = _tiny_config(holdout=500)
    with pytest.raises(ConfigError, match="holdout.*loss 'check'"):
        validate_experiment_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1 and "holdout" in err and "'check'" in err, err
    assert not out.exists()


_GENERATOR_SPECS = {
    "mcid1": {"name": "mcid1"}, "mcid2": {"name": "mcid2"},
    "quantilereg": {"name": "quantilereg", "tau": 0.5},
    "heavytail": {"name": "heavytail", "df": 5.0},
    "meancurve": {"name": "meancurve"},
    "aucsim": {"name": "aucsim", "mu": 1.0},
    "sparseclass": {"name": "sparseclass", "q": 5, "support": [0],
                    "betaValues": [1.0]}}
_LOSS_SPECS = {
    "check": {"name": "check", "tau": 0.5}, "squared": {"name": "squared"},
    "cappedsquared": {"name": "cappedsquared", "cap": 4.0},
    "zeroone": {"name": "zeroone"}, "mcid": {"name": "mcid"},
    "auc": {"name": "auc"}}
# a divergence each generator's truth can be measured with
_GENERATOR_DIVERGENCE = {"mcid1": "empirical_l2", "mcid2": "empirical_l2",
                         "meancurve": "empirical_l2"}


_SHORT_MH = {"steps": 60, "burnIn": 10, "thin": 5, "proposalScale": 0.1}


def _pair_config(generator: str, loss: str) -> dict:
    return _tiny_config(
        generator=_GENERATOR_SPECS[generator], loss=_LOSS_SPECS[loss],
        prior={"name": "spikeslab", "q": 5} if loss == "zeroone"
        else {"name": "gaussian", "sd": 5.0},
        divergence={"name": _GENERATOR_DIVERGENCE.get(generator, "euclid")},
        mh=dict(_SHORT_MH), nGrid=[20], replications=1)


@pytest.mark.parametrize("loss", sorted(_LOSS_SPECS))
@pytest.mark.parametrize("generator", sorted(_GENERATOR_SPECS))
def test_validation_accepts_a_generator_loss_pair_exactly_when_it_runs(
        generator, loss):
    cfg = _pair_config(generator, loss)
    try:
        validate_experiment_config(cfg)
        accepted = True
    except ConfigError as exc:
        assert f"loss {loss!r}" in str(exc) and repr(generator) in str(exc)
        accepted = False
    row = compute_row(cfg, 0, 0)     # the cell itself, with no validation
    assert (row["error"] is None) == accepted, row["error"]


# the generator/loss pairs validation accepts, and the divergences whose
# rows run on each: the coefficient divergences on a coefficient truth, abs
# on the scalar ranking index, empirical_l2 on a function truth
_PAIR_DIVERGENCES = {
    ("quantilereg", "check"): ("euclid", "risk_diff_sqrt"),
    ("heavytail", "cappedsquared"): ("euclid", "risk_diff_sqrt"),
    ("heavytail", "squared"): ("euclid", "risk_diff_sqrt"),
    ("aucsim", "auc"): ("abs", "euclid", "risk_diff_sqrt"),
    ("sparseclass", "zeroone"): ("euclid", "risk_diff_sqrt"),
    ("mcid1", "mcid"): ("empirical_l2",),
    ("mcid2", "mcid"): ("empirical_l2",),
    ("meancurve", "check"): ("empirical_l2",),
    ("meancurve", "squared"): ("empirical_l2",)}


@pytest.mark.parametrize("divergence", ["abs", "empirical_l2", "euclid",
                                        "risk_diff_sqrt"])
@pytest.mark.parametrize("generator,loss", sorted(_PAIR_DIVERGENCES))
def test_validation_accepts_a_divergence_exactly_when_its_rows_run(
        generator, loss, divergence):
    cfg = _pair_config(generator, loss)
    cfg["divergence"] = {"name": divergence}
    if divergence == "risk_diff_sqrt":
        cfg["divergence"]["nDraws"] = 64
    accepted = divergence in _PAIR_DIVERGENCES[generator, loss]
    if accepted:
        validate_experiment_config(cfg)
    else:
        with pytest.raises(ConfigError, match=f"divergence {divergence!r}.*"
                                              f"{generator!r}"):
            validate_experiment_config(cfg)
    row = compute_row(cfg, 0, 0)     # the cell itself, with no validation
    assert (row["error"] is None) == accepted, row["error"]


@pytest.mark.parametrize("generator,loss,prior,field", [
    ("quantilereg", "mcid", "gaussian", "loss"),
    ("mcid1", "check", "gaussian", "loss"),
    ("sparseclass", "zeroone", "gaussian", "prior"),
    ("mcid1", "mcid", "spikeslab", "prior")])
def test_incompatible_components_fail_before_any_cell(tmp_path, generator,
                                                      loss, prior, field):
    # each used to exit 0 with every row failed
    cfg = _pair_config(generator, loss)
    cfg["prior"] = {"name": "spikeslab", "q": 5} if prior == "spikeslab" \
        else {"name": prior, "sd": 5.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1
    assert f"{field} {cfg[field]['name']!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [
    math.nan, math.inf, -0.3, 0.0, [0.1, math.nan], [0.1, -0.2], [],
    {"c": math.nan, "gamma": 0.5}, {"c": 1.0, "gamma": -math.inf},
    {"c": -1.0, "gamma": 0.5}, {"c": 1.0}, "fast", True, [True], [0.3, True],
    {"c": True, "gamma": 0.5}, {"c": 1.0, "gamma": False}])
def test_bad_proposal_scale_fails_before_any_cell(tmp_path, scale):
    cfg = _tiny_config()
    cfg["mh"]["proposalScale"] = scale
    with pytest.raises(ConfigError, match="proposalScale"):
        validate_experiment_config(cfg)
    # json writes NaN and Infinity literals, and reads them back
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1 and "proposalScale" in err
    assert not out.exists()


def test_nan_proposal_scale_sample_exits_1(tmp_path):
    # a NaN scale used to run a chain that never moved, and exit 0
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid1.json"))
    cfg["mh"].update(steps=200, burnIn=50, proposalScale=math.nan)
    path = tmp_path / "mcid1.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run_cli(["sample", str(path)])
    assert code == 1 and "proposalScale" in err and not out


@pytest.mark.parametrize("name", ["mcid1", "sparse_trend"])
@pytest.mark.parametrize("field,mh,holdout", [
    ("mh", {"steps": 100, "burnIn": 100}, None),
    ("mh", {"steps": 90, "burnIn": 100}, None),
    ("mh", {"steps": 107, "burnIn": 100, "thin": 5}, None),
    ("mh", {"alphaFlipProb": 1.5}, None),
    ("holdout", {}, 0),
    ("holdout", {}, 2.5),
    ("mh", {"steps": True, "burnIn": 0, "thin": 1}, None),
    ("mh", {"burnIn": False}, None),
    ("mh", {"thin": True}, None),
    ("holdout", {}, True),
    ("mh", {"burnin": 100}, None),
    ("mh", {"steps": 30000.5}, None),
    ("mh", {"steps": "30000"}, None)],
    ids=["steps=burnIn", "steps<burnIn", "thin", "alphaFlipProb", "holdout0",
         "holdout2.5", "stepsTrue", "burnInFalse", "thinTrue", "holdoutTrue",
         "burninTypo", "stepsFraction", "stepsString"])
def test_bad_mh_counts_and_holdout_fail_before_any_cell(tmp_path, name, field,
                                                        mh, holdout):
    # each used to exit 0 with every row failed, to run with the size cut to
    # 2 (holdout 2.5), to run with a boolean read as 1 or 0, to run with the
    # default burnIn (a "burnin" typo), or to read steps with int()
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", f"{name}.json"))
    cfg["replications"] = 2
    cfg["mh"].update({"steps": 600, "burnIn": 100, "thin": 5}, **mh)
    if holdout is not None:
        cfg["holdout"] = holdout
    with pytest.raises(ConfigError, match=field):
        validate_experiment_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1 and field in err
    assert not out.exists()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,params", [
    ("prior", {"sd": True}),
    ("generator", {"betaStar": [True, 2.0]}),
    ("loss", {"tau": False}),
    ("rate", {"omega": True}),
    ("prior", {"sd": [1, {"deep": False}]}),
    ("prior", {"sd": _NAN}),
    ("prior", {"sd": _INF}),
    ("prior", {"mean": -_INF}),
    ("rate", {"omega": _NAN}),
    ("generator", {"betaStar": [_NAN, 2.0]}),
    ("prior", {"sd": "10"}),
    ("prior", {"mean": "0"}),
    ("loss", {"tau": "0.5"}),
    ("rate", {"omega": "1"}),
    ("mh", {"alphaFlipProb": "0.1"}),
    ("generator", {"betaStar": ["1", "2"]}),
    ("generator", {"noiseSd": "1"})],
    ids=["priorSd", "generatorBetaStar", "lossTau", "rateOmega", "nested",
         "priorSdNaN", "priorSdInfinity", "priorMeanMinusInfinity",
         "rateOmegaNaN", "generatorBetaStarNaN", "priorSdString",
         "priorMeanString", "lossTauString", "rateOmegaString",
         "alphaFlipProbString", "generatorBetaStarStrings",
         "generatorNoiseSdString"])
def test_booleans_and_nonfinite_numbers_in_component_specs_fail_before_any_cell(
        tmp_path, field, params):
    # no component takes a boolean, a non-finite number or a string for a
    # number: sd true used to build a prior with sd 1.0, JSON NaN or Infinity
    # passed every builder check, then failed every row, and the run exited
    # 0; "sd": "10" ran as 10.0, and "noiseSd": "1" ended in a TypeError
    cfg = _tiny_config()
    cfg[field] = dict(cfg[field], **params)
    key = next(iter(params))
    with pytest.raises(ConfigError, match=f"{field} {key!r} must not hold a "
                                          f"(boolean|non-finite number|string)"):
        validate_experiment_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1 and f"{field} {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("field,spec,pair,words", [
    ("generator", {"name": "quantilereg", "tau": 0.5, "tua": 0.5}, None,
     ["'quantilereg'", "tua", "allowed keys: tau, betaStar, noiseSd"]),
    ("loss", {"name": "check", "tua": 0.3}, None, ["'check'", "tua"]),
    ("prior", {"name": "gaussian", "sdd": 10.0}, None, ["'gaussian'", "sdd"]),
    ("rate", {"name": "fixed", "omegaa": 1.0}, None, ["'fixed'", "omegaa"]),
    ("divergence", {"name": "risk_diff_sqrt", "nDrawz": 64}, None,
     ["'risk_diff_sqrt'", "nDrawz"]),
    ("generator", {"name": "heavytail"}, ("heavytail", "cappedsquared"),
     ["'heavytail'", "df"]),
    ("generator", {"name": "aucsim"}, ("aucsim", "auc"), ["'aucsim'", "mu"]),
    ("rate", {"name": "heavytail", "s": 2}, None,
     ["'heavytail'", "s must exceed 3"]),
    ("prior", {"name": "gaussian", "mean": 0.0}, None,
     ["'gaussian'", "missing parameter 'sd'"]),
    ("prior", {"name": "laplace"}, None, ["'laplace'", "missing parameter 'rate'"]),
    ("loss", {"name": "check", "tau": 1.5}, None, ["'check'", "tau must lie in"]),
    ("loss", {"name": "mcid", "numBasis": 2}, ("mcid1", "mcid"),
     ["'mcid'", "J >= 4"]),
    ("loss", {"name": "cappedsquared", "cap": "auto"},
     ("heavytail", "cappedsquared"), ["'cappedsquared'", "heavytail rate"]),
    ("divergence", {"name": "risk_diff_sqrt", "nDraws": 1}, None,
     ["'risk_diff_sqrt'", "at least 2"]),
    ("divergence", {"name": "empirical_l2", "gridSize": -3}, ("mcid1", "mcid"),
     ["'empirical_l2'", "gridSize must be a positive integer"]),
    ("loss", {"name": "mcid", "numBasis": 0}, ("mcid1", "mcid"),
     ["'mcid'", "numBasis must be a positive integer"]),
    ("divergence", {"name": "empirical_l2", "gridSize": 0}, ("mcid1", "mcid"),
     ["'empirical_l2'", "gridSize must be a positive integer"]),
    ("divergence", {"name": "risk_diff_sqrt", "nDraws": 64.5}, None,
     ["'risk_diff_sqrt'", "nDraws must be a positive integer"]),
    ("mh", dict(_SHORT_MH, init="prior"), None, ["init", "'pilot' or a list"]),
    ("mh", dict(_SHORT_MH, init=[1.0, 2.0, 3.0]), None, ["init", "2 entries"]),
    ("mh", dict(_SHORT_MH, proposalScale=[0.1, 0.2, 0.3]), None,
     ["proposalScale", "2 entries"]),
    ("mh", dict(_SHORT_MH, proposalScale=[0.1, 5.0, 7.0]),
     ("sparseclass", "zeroone"),
     ["proposalScale", "spikeslab"]),
    ("loss", {"name": "squared", "numBasis": 5}, ("heavytail", "squared"),
     ["'squared'", "numBasis", "'heavytail' has none"]),
    ("prior", {"name": "spikeslab", "q": 4}, ("sparseclass", "zeroone"),
     ["'spikeslab' has parameter width 5", "'sparseclass' has width 6"]),
    ("rate", {"name": "aucdata", "multiplier": [1.0]}, ("aucsim", "auc"),
     ["'aucdata'", "[c, gamma]", "[1.0]"]),
    ("rate", {"name": "aucdata", "multiplier": [1.0, 0.5, 9.0]}, ("aucsim", "auc"),
     ["'aucdata'", "[c, gamma]", "[1.0, 0.5, 9.0]"]),
    ("rate", {"name": "aucdata", "multiplier": 0.5}, ("aucsim", "auc"),
     ["'aucdata'", "multiplier must be a finite number >= 1; got 0.5"]),
    ("generator", dict(_GENERATOR_SPECS["sparseclass"], q=50.7),
     ("sparseclass", "zeroone"), ["'sparseclass'", "q must be an integer; got 50.7"]),
    ("prior", {"name": "spikeslab", "q": 50.7}, ("sparseclass", "zeroone"),
     ["'spikeslab'", "q must be an integer; got 50.7"]),
    ("generator", dict(_GENERATOR_SPECS["sparseclass"], support=[0.9, 1.2],
                       betaValues=[1.0, 1.0]),
     ("sparseclass", "zeroone"), ["'sparseclass'", "support must be a list of integers"]),
    ("rate", {"name": "aucdata", "multiplier": "2"}, ("aucsim", "auc"),
     ["rate 'multiplier' must not hold a string", "'aucdata' multiplier must be"]),
    ("prior", {"name": "spikeslab", "q": 5, "lam": None}, ("sparseclass", "zeroone"),
     ["prior 'lam' must not hold null", "'spikeslab' lam must be a finite number"]),
    ("mh", dict(_SHORT_MH, alphaFlipProb=0.3), ("mcid1", "mcid"),
     ["mh alphaFlipProb", "random-walk chain takes none"])],
    ids=["generatorTua", "lossTua", "priorSdd", "rateOmegaa", "divergenceNDrawz",
         "heavytailNoDf", "aucsimNoMu", "heavytailRateS2", "gaussianNoSd",
         "laplaceNoRate", "checkTau1.5", "mcidNumBasis2", "capAutoUnderFixed",
         "nDraws1", "gridSizeNegative", "numBasis0", "gridSize0", "nDrawsFraction",
         "initWord", "initLength", "scaleLength", "spikeslabScaleList",
         "numBasisWithoutBasis", "spikeslabQ", "aucdataOneNumber",
         "aucdataThreeNumbers", "aucdataBelow1", "sparseclassQFraction",
         "spikeslabQFraction", "sparseclassSupportFractions",
         "aucdataMultiplierString", "spikeslabLamNull",
         "alphaFlipProbOnRandomWalk"])
def test_bad_component_parameters_fail_before_any_cell(tmp_path, field, spec,
                                                       pair, words):
    # a key typo used to be ignored, so the run took the default (or, on a
    # generator, failed every row), and a missing or rejected component
    # parameter failed every row; each exited 0.  numBasis 0 and gridSize 0
    # used to mean the default, and a fractional nDraws was cut by int().
    # An init or a scale list that does not fit the parameter failed every
    # row, and the sparse sampler took the first entry of a scale list.  A
    # spikeslab q other than the generator's failed every row in a matmul.
    # An aucdata multiplier of one number in a list ended the run in an
    # IndexError traceback, a third number was dropped, and a multiplier
    # below 1 failed every row; a fractional q or support index was cut by
    # int().  A string multiplier ran as its number, a null lam as the
    # default, and an alphaFlipProb on a random-walk chain was dropped
    cfg = _pair_config(*pair) if pair else _tiny_config()
    cfg[field] = spec
    with pytest.raises(ConfigError, match=field) as info:
        validate_experiment_config(cfg)
    assert all(word in str(info.value) for word in words), str(info.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = _run_cli(["experiment", "run", str(path), "--out", str(out)])
    assert code == 1 and all(word in err for word in words), err
    assert not out.exists()


def test_component_build_failure_is_an_error_in_every_row():
    # without validation a block still never raises on a component its
    # builder rejects: each of its rows carries the error
    cfg = _tiny_config(prior={"name": "gaussian", "mean": 0.0})
    rows = runner.compute_rows(cfg, 0, range(2))
    error = "ConfigError: prior 'gaussian' missing parameter 'sd'"
    assert [row["error"] for row in rows] == [error, error]
    assert compute_row(cfg, 1, 0)["error"] == error


def test_bundled_configs_pass_validation():
    # every key of every bundled config is one its component takes
    folder = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(os.listdir(folder))
    assert len(names) == 5
    for name in names:
        validate_experiment_config(load_config(os.path.join(folder, name)))


def test_readme_lists_the_keys_of_every_parameter_spec():
    # README's table of keys documents the parameter specs: each row lists
    # the keys its section's spec takes, in the spec's order
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", fh.read(), re.M)
    specs = {(field, name): list(row[0])
             for field, table in config._COMPONENTS.items()
             for name, row in table.items()}
    specs.update({(section, section): list(spec) for section, spec in (
        ("config", config._EXPERIMENT), ("mh", config._MH), ("mgf", config._MGF))})
    listed = {}
    for section, names, keys in rows:
        if section in {field for field, _ in specs}:
            for name in re.findall(r"`(\w+)`", names) or [section]:
                listed[section, name] = re.findall(r"`(\w+)`:", keys)
    assert listed == specs


@pytest.mark.parametrize("build,spec,key", [
    (lambda s: build_prior(s, 2), {"name": "gaussian", "mean": 0.0, "sd": True},
     "prior 'sd'"),
    (build_generator, {"name": "sparseclass", "q": True, "support": [0],
                       "betaValues": [1.0]}, "generator 'q'"),
    (lambda s: build_prior(s, 2), {"name": "gaussian", "mean": 0.0, "sd": _NAN},
     "prior 'sd'"),
    (lambda s: build_prior(s, 2), {"name": "gaussian", "mean": _INF, "sd": 1.0},
     "prior 'mean'"),
    (build_rate, {"name": "fixed", "omega": _NAN}, "rate 'omega'"),
    (build_generator, {"name": "quantilereg", "tau": 0.5,
                       "betaStar": [_NAN, 2.0]}, "generator 'betaStar'"),
    (lambda s: build_prior(s, 2), {"name": "gaussian", "sd": "10"}, "prior 'sd'"),
    (build_rate, {"name": "aucdata", "multiplier": "2"}, "rate 'multiplier'"),
    (build_generator, {"name": "quantilereg", "tau": 0.5,
                       "betaStar": ["1", "2"]}, "generator 'betaStar'"),
    (lambda s: build_prior(s, 6), {"name": "spikeslab", "q": 5, "lam": None},
     "prior 'lam'")],
    ids=["priorSd", "generatorQ", "priorSdNaN", "priorMeanInfinity",
         "rateOmegaNaN", "generatorBetaStarNaN", "priorSdString",
         "rateMultiplierString", "generatorBetaStarStrings", "spikeslabLamNull"])
def test_builders_reject_booleans_and_nonfinite_numbers_in_component_specs(
        build, spec, key):
    # a JSON null is a value of no type: "lam": null used to mean the default
    with pytest.raises(ConfigError, match=f"{key} must not hold (a (boolean|"
                                          f"non-finite number|string)|null)"):
        build(spec)


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


_MGF_SECTION = {"generator": {"name": "quantilereg", "tau": 0.5},
                "loss": {"name": "check", "tau": 0.5},
                "grid": [[1.2, 2.0]], "omega": 1.0, "nDraws": 200, "seed": 0}


@pytest.mark.parametrize("key, value", [
    ("grid", 5), ("grid", []), ("grid", [[1.0]]), ("grid", [1.2, 2.0]),
    ("grid", [[1.2, "a"]]), ("grid", [[1.2, None]]), ("grid", [[1.0, 2.0]]),
    ("thetaStar", [1.0]), ("thetaStar", [1.0, True]),
    ("omega", "abc"), ("omega", 0.0), ("omega", -1.0), ("omega", True),
    ("r", 0), ("r", [2.0]),
    ("nDraws", True), ("nDraws", 1.5), ("nDraws", 1), ("nDraws", "200"),
    ("seed", True), ("seed", 0.5), ("seed", None), ("nDrawz", 50),
])
def test_cli_diagnose_mgf_rejects_a_malformed_section(tmp_path, key, value):
    # every malformed field is a config error (exit 1) naming the field,
    # raised before any sample is drawn; an unknown key (nDrawz) used to be
    # ignored, and the run took the 100,000-draw default
    cfg_path = tmp_path / "mgf.json"
    cfg_path.write_text(json.dumps({"schema": 1,
                                    "mgf": {**_MGF_SECTION, key: value}}))
    code, out, err = _run_cli(["diagnose", "mgf", str(cfg_path)])
    assert code == 1, err
    assert err.startswith("error: ") and f"mgf {key}" in err, err
    assert out == ""


def test_cli_diagnose_mgf_rejects_a_loss_that_cannot_take_the_data(tmp_path):
    # the check loss cannot take two-sample scores: this used to draw the
    # Monte-Carlo sample and exit 2 with a ShapeError from the loss
    cfg_path = tmp_path / "mgf.json"
    cfg_path.write_text(json.dumps({"schema": 1, "mgf": {
        **_MGF_SECTION, "generator": {"name": "aucsim", "mu": 1.0},
        "thetaStar": [0.5, 0.5]}}))
    code, out, err = _run_cli(["diagnose", "mgf", str(cfg_path)])
    assert code == 1, err
    assert "loss 'check'" in err and "'aucsim'" in err, err
    assert out == ""


def test_cli_diagnose_mgf_takes_the_zero_one_loss_on_sparseclass(tmp_path):
    # the paper's sparse-classification example: the parameter is the
    # (1 + q) row (alpha, beta), as wide as the generator's theta*.  This
    # used to exit 1: "cannot infer parameter dimension for 'zeroone'"
    grid = [[1.0, 0.5, 0.0], [1.0, 1.0, 0.5], [1.0, 0.0, 1.0]]
    cfg_path = tmp_path / "mgf.json"
    cfg_path.write_text(json.dumps({"schema": 1, "mgf": {
        "generator": {"name": "sparseclass", "q": 2, "support": [0],
                      "betaValues": [1.0]},
        "loss": {"name": "zeroone"}, "grid": grid,
        "omega": 1.0, "nDraws": 2000, "seed": 0}}))
    code, out, err = _run_cli(["diagnose", "mgf", str(cfg_path)])
    assert code == 0, err
    points = json.loads(out)["points"]
    assert [list(p["theta"]) for p in points] == grid
    assert all(math.isfinite(p["k_hat"]) and p["d"] > 0 for p in points)


def test_cli_diagnose_mgf_exits_2_on_a_moment_that_underflows(tmp_path):
    # exp(-omega * excess) underflows to 0 on every draw at the grid point;
    # this used to exit 2 with "ValueError: math domain error"
    cfg_path = tmp_path / "mgf.json"
    cfg_path.write_text(json.dumps({"schema": 1, "mgf": {
        **_MGF_SECTION, "grid": [[50.0, 50.0]], "omega": 100.0,
        "nDraws": 100}}))
    code, out, err = _run_cli(["diagnose", "mgf", str(cfg_path)])
    assert code == 2, err
    assert err.startswith("runtime error: OverflowGuardError: ")
    assert "underflows" in err and "[50.0, 50.0]" in err, err
    assert out == ""


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


def test_cli_diagnose_rate_skips_a_zero_radius_as_the_summary_does(tmp_path):
    # a divergence clipped at zero (risk_diff_sqrt) can write a zero radius;
    # the summary's rateFit skipped it while `diagnose rate` exited 1 on it
    rows = []
    for n in (100, 400, 1600):
        for rep in range(2):
            radius = 0.0 if (n, rep) == (400, 1) else (1.0 + rep) * n ** -0.5
            rows.append({**{c: None for c in RESULT_COLUMNS}, "n": n,
                         "rep": rep, "omega": 1.0, "accept_rate": 0.3,
                         "radius_q90": radius})
    summary = _summarize({"schema": 1}, rows)
    csv_path = tmp_path / "radii.csv"
    write_radii_csv(rows, csv_path)
    code, out, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 0, err
    payload = json.loads(out)
    assert {k: payload[k] for k in ("slope", "intercept")} == summary["rateFit"]
    assert payload["nPairs"] == 5


def test_cli_diagnose_rate_rejects_a_negative_radius(tmp_path):
    csv_path = tmp_path / "radii.csv"
    csv_path.write_text("n,radius_q90\n100,0.5\n400,-0.1\n1600,0.1\n")
    code, _, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 1, err
    assert err.startswith("error: ") and "positive and finite" in err, err


def test_cli_diagnose_rate_reads_only_radius_q90(tmp_path):
    # neither results.csv nor radii.csv has a bare `radius` column
    csv_path = tmp_path / "radii.csv"
    csv_path.write_text("n,radius\n100,0.2\n400,0.1\n1600,0.05\n")
    code, _, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 1, err
    assert err.startswith("error: ") and "radius_q90" in err, err


def test_cli_diagnose_rate_rejects_thin_input(tmp_path):
    csv_path = tmp_path / "radii.csv"
    csv_path.write_text("n,rep,radius_q90\n100,0,0.5\n")
    code, _, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 1
    assert "3 distinct" in err


@pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
def test_cli_diagnose_rate_rejects_a_non_numeric_cell(tmp_path, cell):
    csv_path = tmp_path / "radii.csv"
    csv_path.write_text(f"n,radius_q90\n100,0.5\n400,{cell}\n1600,0.1\n")
    code, _, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 1, err
    assert "line 3" in err and "radius_q90" in err, err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_cli_diagnose_rate_rejects_a_non_positive_n(tmp_path, n):
    csv_path = tmp_path / "radii.csv"
    csv_path.write_text(f"n,radius_q90\n100,0.5\n{n},0.3\n1600,0.1\n")
    code, _, err = _run_cli(["diagnose", "rate", str(csv_path)])
    assert code == 1, err
    assert err.startswith("error: ") and "positive and finite" in err, err


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


def test_pilot_started_mcid2_chain_matches_recorded_digest():
    # the chain `gibbsinf sample configs/mcid2.json` runs (replication 0 at
    # nGrid[0], pilot start), shortened; digest and accept count recorded
    # before the random-walk sampler evaluated proposals ahead
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid2.json"))
    cfg["mh"].update(steps=6000, burnIn=1000, thin=5)
    fit = fit_cell(cfg, cfg["nGrid"][0], row_seed(cfg["baseSeed"], 0, 0))
    assert fit.data.n == 1000 and fit.chain.draws.shape == (1000, 16)
    assert fit.chain.accepted == 1413
    assert hashlib.sha256(fit.chain.draws.tobytes()).hexdigest() == (
        "03ac50664a8673c21c77f54118d8e9fb8c26276d9f2d7c28658392543dabec4b")


def test_pilot_started_mcid2_chain_with_a_short_last_chunk_matches_recorded_digest():
    # another replication of the `gibbsinf sample configs/mcid2.json` chain,
    # 13 full chunks of lookahead and a 7-step one; digest and accept count
    # recorded before the sampler took its accept decisions on Python floats
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid2.json"))
    cfg["mh"].update(steps=3335, burnIn=500, thin=5)
    fit = fit_cell(cfg, cfg["nGrid"][0], row_seed(cfg["baseSeed"], 0, 1))
    assert fit.chain.draws.shape == (567, 16)
    assert fit.chain.accepted == 795
    assert hashlib.sha256(fit.chain.draws.tobytes()).hexdigest() == (
        "735aaf7b9b90181f77dd495f6dd8f9d01cbcf2ca7cd6bcfd1981fb29195e3390")


def test_mcid1_block_of_eight_chains_matches_recorded_digest(monkeypatch):
    # one block of the mcid1 protocol, shortened: eight chains in lockstep,
    # where nearly every step that moves moves only some of the chains;
    # digest of the draws and the accept counts recorded before the sampler
    # took its accept decisions on Python floats
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid1.json"))
    cfg["mh"].update(steps=2600, burnIn=600, thin=5)
    chains = []
    original = runner.mh_run_block
    monkeypatch.setattr(runner, "mh_run_block",
                        lambda starts: chains.extend(original(starts)) or chains)
    rows = runner.compute_rows(cfg, 0, range(8))
    assert [row["error"] for row in rows] == [None] * 8
    assert [c.accepted for c in chains] == [1064, 1267, 1033, 1208, 858, 1201,
                                            709, 960]
    digest = hashlib.sha256()
    for c in chains:
        digest.update(c.draws.tobytes())
    assert digest.hexdigest() == (
        "cf9ace8fdcb64ca6aaf1e7c2c6a5ca84c8cb18d091c6206ae58c26c35f31ea60")


def test_quantile_block_of_four_chains_at_n3200_matches_recorded_digest(monkeypatch):
    # one block of the quantile_rootn protocol at its largest n, shortened:
    # four chains in lockstep on the check loss; digest of the draws and the
    # accept counts recorded before the block evaluated its densities into
    # buffers made once per block
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "quantile_rootn.json"))
    cfg["mh"].update(steps=1800, burnIn=300, thin=5)
    chains = []
    original = runner.mh_run_block
    monkeypatch.setattr(runner, "mh_run_block",
                        lambda starts: chains.extend(original(starts)) or chains)
    rows = runner.compute_rows(cfg, 2, range(4))
    assert [row["n"] for row in rows] == [3200] * 4
    assert [row["error"] for row in rows] == [None] * 4
    assert [c.accepted for c in chains] == [924, 987, 912, 977]
    digest = hashlib.sha256()
    for c in chains:
        digest.update(c.draws.tobytes())
    assert digest.hexdigest() == (
        "38bb6a5a8278d3afefe36827f800f6931fad426fc7cd61bd8b81b2edca06769b")


@pytest.mark.parametrize("name, replications, digest", [
    ("mcid1", 4,
     "2b8098affd82310a94516dabda91591d43bb7cf3d42db5373de68d6769ee6fca"),
    ("sparse_trend", 2,
     "b477c958aa14ecd9169c0c097adea3ee443a3a69152ea5ecd23a5d5d7372df84"),
], ids=["mcid1", "sparse_trend"])
def test_short_bundled_runs_write_recorded_output_bytes(tmp_path, name,
                                                        replications, digest):
    # a shortened run of a bundled config, serial; one sha256 over
    # results.csv, summary.json and radii.csv, recorded before the fitted
    # threshold became a plain coefficient array: mcid1 covers the holdout
    # misclassification columns, sparse_trend the spike-slab draw matrices
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", f"{name}.json"))
    cfg["mh"].update(steps=1200, burnIn=200, thin=5)
    cfg["replications"] = replications
    out = _output_bytes(run_experiment(cfg, workers=1), tmp_path)
    sha = hashlib.sha256()
    for key in ("results", "summary", "radii"):
        sha.update(out[key])
    assert sha.hexdigest() == digest


def test_sample_chain_evaluates_several_proposals_per_risk_call(monkeypatch):
    # the 20k-step chain of the benchmark's cli-sample workload: one risk
    # call per step (20000) without the sampler's lookahead
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid2.json"))
    cfg["mh"].update(steps=20_000, burnIn=4_000)
    rows = []
    original = MCIDLoss.kernel

    def kernel(self, prepared, k=None):
        sums, n, values = original(self, prepared, k)
        return (lambda B: rows.append(B[..., 0].size) or sums(B)), n, values
    monkeypatch.setattr(MCIDLoss, "kernel", kernel)
    fit = fit_cell(cfg, cfg["nGrid"][0], row_seed(cfg["baseSeed"], 0, 0))
    assert fit.chain.steps == 20_000
    assert len(rows) <= 9_000
    assert sum(rows) <= 1.5 * 20_000


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


def test_cli_sample_sparse_summary_covers_every_coordinate(tmp_path):
    # mean[j] and intervals[j] describe the same coordinate of the dense
    # (alpha, beta) draw, alpha first
    q = 5
    cfg = _tiny_config(
        generator={"name": "sparseclass", "q": q, "support": [0, 1],
                   "betaValues": [2.0, -1.5], "flipRho": 0.1},
        loss={"name": "zeroone"},
        prior={"name": "spikeslab", "q": q, "a": 1.0, "c": 1.0},
        mh={"steps": 600, "burnIn": 100, "thin": 5},
        divergence={"name": "euclid"}, nGrid=[100])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "chain"
    code, _, _ = _run_cli(["sample", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    lines = open(out_dir / "draws.csv").read().splitlines()
    assert lines[0] == "alpha," + ",".join(f"beta{j}" for j in range(q))
    draws = np.loadtxt(out_dir / "draws.csv", delimiter=",", skiprows=1)
    info = json.load(open(out_dir / "chain.json"))
    assert len(info["mean"]) == len(info["intervals"]) == 1 + q
    for j in range(1 + q):
        assert info["intervals"][j] == list(credible_interval(draws[:, j]))


def test_cli_sample_chain_json_reports_sparse_move_health(tmp_path):
    # spike-slab chains report proposals and acceptances per move and the
    # mean |S|; random-walk chains keep their meta as it was
    q = 5
    sparse = _tiny_config(
        generator={"name": "sparseclass", "q": q, "support": [0, 1],
                   "betaValues": [2.0, -1.5], "flipRho": 0.1},
        loss={"name": "zeroone"},
        prior={"name": "spikeslab", "q": q, "a": 1.0, "c": 1.0},
        mh={"steps": 600, "burnIn": 100, "thin": 5},
        divergence={"name": "euclid"}, nGrid=[100])
    metas = []
    for name, cfg in (("sparse", sparse), ("walk", _tiny_config())):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / name
        code, _, _ = _run_cli(["sample", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        metas.append(json.load(open(out_dir / "chain.json"))["meta"])
    sparse_meta, walk_meta = metas
    assert sorted(sparse_meta["moves"]) == ["add", "flip", "remove", "walk"]
    assert 0.0 <= sparse_meta["mean_support_size"] <= q
    assert sorted(walk_meta) == ["burn_in", "dim", "loss", "n_terms", "omega",
                                 "prior", "proposal_scale", "thin"]


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


@pytest.mark.parametrize("package", [gibbsinf, gibbsinf.harness],
                         ids=lambda m: m.__name__)
def test_star_import_exports_named_objects_only(package):
    # `from package import *` gives each listed name once, and no submodule
    names = package.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(package, name), ModuleType), name
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    # importing SciPy is most of the CLI's start-up time, and the package
    # computes its special functions and B-splines without it; the sample
    # run also catches an import deferred to run time
    src = os.path.dirname(os.path.dirname(gibbsinf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "mcid2.json")) as fh:
        cfg = json.load(fh)
    cfg["mh"].update(steps=200, burnIn=50, thin=1)
    cfg_path = tmp_path / "mcid2_short.json"
    cfg_path.write_text(json.dumps(cfg))
    code = ("import sys, gibbsinf, gibbsinf.harness.cli as cli\n"
            "def scipy_mods():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "print('scipy.stats' in sys.modules)\n"
            "print(scipy_mods())\n"
            "assert cli.main(['sample', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(scipy_mods())\n")
    out = subprocess.run([sys.executable, "-c", code, str(cfg_path),
                          str(tmp_path / "out")], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[1] == "[]"    # after import
    assert lines[-1] == "[]"   # after the sample run


def test_serial_runs_do_not_load_the_process_pool_modules(tmp_path):
    # concurrent.futures (and the logging it imports) load with the first
    # process pool: importing the CLI, validating, sampling and a serial
    # run need neither
    src = os.path.dirname(os.path.dirname(gibbsinf.__file__))
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(_tiny_config(nGrid=[50], replications=1)))
    code = ("import sys, gibbsinf.harness.cli as cli\n"
            "def loaded():\n"
            "    return [m for m in ('concurrent.futures', 'logging')\n"
            "            if m in sys.modules]\n"
            "print(loaded())\n"
            "assert cli.main(['sample', sys.argv[1]]) == 0\n"
            "assert cli.main(['experiment', 'run', sys.argv[1], '--out',\n"
            "                 sys.argv[2], '--workers', '1']) == 0\n"
            "print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(cfg_path),
                          str(tmp_path / "out")], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=120)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"     # after import
    assert lines[-1] == "[]"    # after the sample and the serial run
