"""Experiment configuration: versioned JSON schema and component builders.

A config is a plain JSON object (schema version 1) naming each component:

    {
      "schema": 1,
      "generator": {"name": "mcid1"},
      "loss": {"name": "mcid", "numBasis": 6},
      "prior": {"name": "gaussian", "mean": 0.0, "sd": 6.0},
      "rate": {"name": "fixed", "omega": 1.0},
      "mh": {"steps": 6000, "burnIn": 1000, "thin": 5, "proposalScale": 0.55},
      "divergence": {"name": "empirical_l2"},
      "nGrid": [100],
      "replications": 50,
      "baseSeed": 20240801,
      "holdout": 100
    }

Everything a run needs is derived from this dict plus the derived row seed,
which is what makes serial and parallel execution byte-identical.
proposalScale may be a number or {"c": c, "gamma": g} for a per-n scale
c * n^(-g).  The optional "fullReplications" count is activated by the CLI
flag --full.
"""

from __future__ import annotations

import json

import numpy as np

from ..diagnostics import (AbsScalarDistance, EmpiricalL2, EuclideanDistance,
                           L2PDistance, MCIDMeasure, RiskDiffSqrt)
from ..errors import ConfigError
from ..losses import (AUCLoss, CappedSquaredLoss, CheckLoss, MCIDLoss,
                      SquaredLoss, ZeroOneLinearLoss)
from ..model import CubicBSpline
from ..priors import GaussianIID, LaplaceIID, SpikeSlab
from ..rates import (AUCDataDriven, FixedRate, HeavyTailRate, PowerLawRate,
                     TsybakovRate)
from ..sampler import MHConfig
from .generators import (AUCSim, HeavyTailSim, MCID1, MCID2, MeanCurveSim,
                         QuantileRegSim, SparseClassSim, affine_features)

SCHEMA_VERSION = 1

_EXPERIMENT_KEYS = {"schema", "generator", "loss", "prior", "rate", "mh",
                    "divergence", "nGrid", "replications", "baseSeed",
                    "holdout", "fullReplications"}


def load_config(path) -> dict:
    """Read and validate a JSON config file.

    Raises ConfigError naming the file when missing, and quoting the line and
    column when the JSON itself is malformed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config field 'schema' must be {SCHEMA_VERSION}")
    return cfg


def validate_experiment_config(cfg: dict) -> None:
    """Check an experiment config before any cell runs.

    Besides the required fields and their types, every component's name
    must be one its builder table knows.  Errors that depend on the cell,
    such as a parameter the chosen component rejects, surface per row.
    """
    required = ["generator", "loss", "prior", "rate", "mh", "divergence",
                "nGrid", "replications", "baseSeed"]
    for key in required:
        if key not in cfg:
            raise ConfigError(f"config field {key!r} is required")
    unknown = set(cfg) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    n_grid = cfg["nGrid"]
    if not isinstance(n_grid, list) or not n_grid or \
            any(not isinstance(n, int) or n < 1 for n in n_grid):
        raise ConfigError("nGrid must be a nonempty list of positive integers")
    if not isinstance(cfg["replications"], int) or cfg["replications"] < 1:
        raise ConfigError("replications must be a positive integer")
    if not isinstance(cfg["baseSeed"], int):
        raise ConfigError("baseSeed must be an integer")
    full = cfg.get("fullReplications")
    if full is not None and (not isinstance(full, int) or full < 1):
        raise ConfigError("fullReplications must be a positive integer")
    for field, table in _COMPONENTS.items():
        _builder(table, cfg[field], field)
    if not isinstance(cfg["mh"], dict):
        raise ConfigError("mh spec must be an object")
    if cfg["prior"]["name"] == "spikeslab" and cfg["mh"].get("init") is not None:
        # the sparse sampler always starts from a prior draw
        raise ConfigError("mh init is not supported with the spikeslab prior")


def _namespec(spec, what: str) -> tuple[str, dict]:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' field")
    rest = {k: v for k, v in spec.items() if k != "name"}
    return str(spec["name"]), rest


def _builder(table: dict, spec, what: str):
    """(name, builder, remaining fields) for a component spec."""
    name, kw = _namespec(spec, what)
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; allowed names: "
                          f"{', '.join(sorted(table))}")
    return name, table[name], kw


_GENERATORS = {
    "mcid1": lambda kw: MCID1(**kw),
    "mcid2": lambda kw: MCID2(**kw),
    "quantilereg": lambda kw: QuantileRegSim(
        tau=kw.pop("tau"), beta_star=kw.pop("betaStar", (1.0, 2.0)),
        noise_sd=kw.pop("noiseSd", 1.0), **kw),
    "heavytail": lambda kw: HeavyTailSim(
        df=kw.pop("df"), theta_star=kw.pop("thetaStar", (1.0, 2.0, -1.0)), **kw),
    "meancurve": lambda kw: MeanCurveSim(
        curve=kw.pop("curve", "sine"), noise_sd=kw.pop("noiseSd", 0.3), **kw),
    "aucsim": lambda kw: AUCSim(mu=kw.pop("mu"), **kw),
    "sparseclass": lambda kw: SparseClassSim(
        q=kw.pop("q"), support=kw.pop("support"),
        beta_values=kw.pop("betaValues"), flip_rho=kw.pop("flipRho", 0.1), **kw),
}


def build_generator(spec: dict):
    name, build, kw = _builder(_GENERATORS, spec, "generator")
    try:
        return build(kw)
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"bad generator parameters for {name!r}: {exc}") from None


def build_basis(generator, loss_spec: dict):
    """The function basis implied by the loss spec and generator."""
    num = loss_spec.get("numBasis")
    if isinstance(generator, MCID1):
        return generator.default_basis(num or 6)
    if isinstance(generator, MCID2):
        return generator.default_basis(num or 4)
    if isinstance(generator, MeanCurveSim):
        return CubicBSpline((0.0, 1.0), num or 8)
    domain = loss_spec.get("domain")
    if num and domain:
        lo, hi = float(domain[0]), float(domain[1])
        return CubicBSpline((lo, hi), int(num))
    return None


def _capped_squared_loss(kw, generator, schedule, n):
    """A "cap": "auto" entry takes the heavy-tail schedule's truncation level
    t_n at the current sample size."""
    cap = kw.get("cap", "auto")
    if cap == "auto":
        if not isinstance(schedule, HeavyTailRate) or n is None:
            raise ConfigError("cap 'auto' needs a heavytail rate schedule")
        cap = schedule.cap_at(n)
    return CappedSquaredLoss(features=None, cap=float(cap))


def _mcid_loss(kw, generator, schedule, n):
    basis = build_basis(generator, kw)
    if basis is None:
        raise ConfigError("mcid loss needs a basis (numBasis/domain)")
    return MCIDLoss(basis=basis)


_LOSSES = {
    "check": lambda kw, *_: CheckLoss(tau=float(kw.get("tau", 0.5)),
                                      features=affine_features()),
    "squared": lambda kw, generator, *_: SquaredLoss(
        features=build_basis(generator, kw)),
    "cappedsquared": _capped_squared_loss,
    "zeroone": lambda *_: ZeroOneLinearLoss(),
    "mcid": _mcid_loss,
    "auc": lambda *_: AUCLoss(),
}


def build_loss(spec: dict, generator, schedule=None, n: int | None = None):
    """Construct the loss; the capped squared cap may be schedule-resolved."""
    _, build, kw = _builder(_LOSSES, spec, "loss")
    return build(kw, generator, schedule, n)


def parameter_dim(loss, generator) -> int:
    """Dimension of the continuous parameter the sampler walks on."""
    basis = getattr(loss, "basis", None) or getattr(loss, "features", None)
    if basis is not None:
        return basis.num_basis
    if isinstance(loss, CappedSquaredLoss):
        if isinstance(generator, HeavyTailSim):
            return generator.dim
        raise ConfigError("cannot infer parameter dimension for capped loss")
    if isinstance(loss, (CheckLoss, SquaredLoss, AUCLoss)):
        return 1
    raise ConfigError(f"cannot infer parameter dimension for {loss.kind!r}")


_PRIORS = {
    "gaussian": lambda kw, dim: GaussianIID(mean=float(kw.get("mean", 0.0)),
                                            sd=float(kw["sd"]), dim=dim),
    "laplace": lambda kw, dim: LaplaceIID(rate=float(kw["rate"]), dim=dim),
    "spikeslab": lambda kw, dim: SpikeSlab(
        q=int(kw["q"]), a=float(kw.get("a", 1.0)), c=float(kw.get("c", 1.0)),
        lam=None if kw.get("lam") is None else float(kw["lam"])),
}


def build_prior(spec: dict, dim: int):
    name, build, kw = _builder(_PRIORS, spec, "prior")
    try:
        return build(kw, dim)
    except KeyError as exc:
        raise ConfigError(f"prior {name!r} missing parameter {exc}") from None


def _aucdata_rate(kw):
    mult = kw.get("multiplier")
    if isinstance(mult, list):
        mult = (float(mult[0]), float(mult[1]))
    elif mult is not None:
        mult = float(mult)
    return AUCDataDriven(multiplier=mult)


_RATES = {
    "fixed": lambda kw: FixedRate(omega=float(kw["omega"])),
    "power": lambda kw: PowerLawRate(c=float(kw["c"]), gamma=float(kw["gamma"])),
    "heavytail": lambda kw: HeavyTailRate(s=float(kw["s"])),
    "tsybakov": lambda kw: TsybakovRate(gamma=float(kw["gamma"])),
    "aucdata": _aucdata_rate,
}


def build_rate(spec: dict):
    name, build, kw = _builder(_RATES, spec, "rate")
    try:
        return build(kw)
    except KeyError as exc:
        raise ConfigError(f"rate {name!r} missing parameter {exc}") from None


def _empirical_l2(kw, generator, loss, basis):
    if basis is None:
        raise ConfigError("empirical_l2 divergence needs a function basis")
    if not hasattr(generator, "divergence_grid"):
        raise ConfigError("generator provides no divergence grid")
    grid = generator.divergence_grid(int(kw["gridSize"])) \
        if kw.get("gridSize") else generator.divergence_grid()
    return EmpiricalL2(basis, grid)


def _l2p(kw, generator, loss, basis):
    if not hasattr(generator, "sample_x"):
        raise ConfigError("l2p divergence needs a covariate sampler")
    return L2PDistance(generator.sample_x, n_draws=int(kw.get("nDraws", 4096)))


def _mcid_measure(kw, generator, loss, basis):
    if not hasattr(generator, "sample_zx"):
        raise ConfigError("mcid_measure divergence needs a (z,x) sampler")
    return MCIDMeasure(generator.sample_zx, n_draws=int(kw.get("nDraws", 4096)))


_DIVERGENCES = {
    "euclid": lambda *_: EuclideanDistance(),
    "abs": lambda *_: AbsScalarDistance(),
    "empirical_l2": _empirical_l2,
    "risk_diff_sqrt": lambda kw, generator, loss, basis: RiskDiffSqrt(
        loss, generator.mc_sample, n_draws=int(kw.get("nDraws", 4096))),
    "l2p": _l2p,
    "mcid_measure": _mcid_measure,
}


def build_divergence(spec: dict, generator, loss, basis=None):
    """Divergence used for radius/point-estimate reporting.

    MC divergences draw their reference samples from the generator's own
    law, so reported divergences are against the population, not the
    fitting data.
    """
    _, build, kw = _builder(_DIVERGENCES, spec, "divergence")
    return build(kw, generator, loss, basis)


# the components named in an experiment config, with their builder tables
_COMPONENTS = {"generator": _GENERATORS, "loss": _LOSSES, "prior": _PRIORS,
               "rate": _RATES, "divergence": _DIVERGENCES}


def resolve_proposal_scale(mh_spec: dict, n: int):
    scale = mh_spec.get("proposalScale")
    if scale is None:
        return None
    if isinstance(scale, dict):
        try:
            return float(scale["c"]) * float(n) ** (-float(scale["gamma"]))
        except KeyError as exc:
            raise ConfigError(f"proposalScale object missing {exc}") from None
    if isinstance(scale, list):
        return np.asarray(scale, dtype=float)
    return float(scale)


def build_mh(spec: dict, n: int, seed: int, init=None) -> MHConfig:
    if not isinstance(spec, dict):
        raise ConfigError("mh spec must be an object")
    try:
        return MHConfig(
            steps=int(spec.get("steps", 50_000)),
            burn_in=int(spec.get("burnIn", 10_000)),
            thin=int(spec.get("thin", 5)),
            proposal_scale=resolve_proposal_scale(spec, n),
            seed=seed,
            init=init,
            alpha_flip_prob=float(spec.get("alphaFlipProb", 0.05)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mh parameters: {exc}") from None
