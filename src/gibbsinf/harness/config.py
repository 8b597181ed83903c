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
import math

import numpy as np

from ..diagnostics import (AbsScalarDistance, EmpiricalL2, EuclideanDistance,
                           RiskDiffSqrt)
from ..errors import ConfigError, PreconditionError
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
    must be one its builder table knows, the loss, the rate and the
    divergence must take the kind of data the generator emits, the zeroone
    loss and the spikeslab prior come together, no component spec holds a
    boolean, the proposal scale must be positive and finite, the mh section
    must hold only its own keys, with integer steps, burnIn and thin, and
    make a sampler configuration at every n, and a holdout size must be a
    positive integer.  Errors that depend on the cell, such as a parameter
    the chosen component rejects, surface per row.
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
            any(not _is_int(n) or n < 1 for n in n_grid):
        raise ConfigError("nGrid must be a nonempty list of positive integers")
    if not _is_int(cfg["replications"]) or cfg["replications"] < 1:
        raise ConfigError("replications must be a positive integer")
    if not _is_int(cfg["baseSeed"]):
        raise ConfigError("baseSeed must be an integer")
    for key in ("fullReplications", "holdout"):
        value = cfg.get(key)
        if value is not None and (not _is_int(value) or value < 1):
            raise ConfigError(f"{key} must be a positive integer")
    for field, table in _COMPONENTS.items():
        _builder(table, cfg[field], field)
    if not isinstance(cfg["mh"], dict):
        raise ConfigError("mh spec must be an object")
    _check_proposal_scale(cfg["mh"].get("proposalScale"))
    for n in n_grid:
        build_mh(cfg["mh"], n, seed=0)
    generator = cfg["generator"]["name"]
    kind = _GENERATOR_TYPES[generator].data_kind
    for field, takes in (("loss", _LOSS_DATA_KINDS), ("rate", _RATE_DATA_KINDS),
                         ("divergence", _DIVERGENCE_DATA_KINDS)):
        name = cfg[field]["name"]
        if kind not in takes.get(name, (kind,)):
            fits = [g for g, t in _GENERATOR_TYPES.items()
                    if t.data_kind in takes[name]]
            raise ConfigError(f"{field} {name!r} cannot take the {kind} data of "
                              f"generator {generator!r}; generators it takes: "
                              f"{', '.join(fits)}")
    loss, prior = cfg["loss"]["name"], cfg["prior"]["name"]
    if (loss == "zeroone") != (prior == "spikeslab"):
        # the sparse sampler needs both; no other sampler takes either
        raise ConfigError(f"prior {prior!r} does not go with loss {loss!r}: "
                          f"the spikeslab prior and the zeroone loss are used "
                          f"together or not at all")
    if prior == "spikeslab" and cfg["mh"].get("init") is not None:
        # the sparse sampler always starts from a prior draw
        raise ConfigError("mh init is not supported with the spikeslab prior")


def _is_int(value) -> bool:
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_proposal_scale(scale) -> None:
    """A proposalScale is absent, a positive finite number, a nonempty list
    of them, or {"c": c, "gamma": g} with c positive and both finite."""
    def finite(v):
        if isinstance(v, bool):
            return False
        try:
            return math.isfinite(float(v))
        except (TypeError, ValueError):
            return False

    def positive(v):
        return finite(v) and float(v) > 0

    if scale is None:
        return
    if isinstance(scale, dict):
        ok = positive(scale.get("c")) and finite(scale.get("gamma"))
    elif isinstance(scale, list):
        ok = bool(scale) and all(positive(v) for v in scale)
    else:
        ok = positive(scale)
    if not ok:
        raise ConfigError(f"mh proposalScale must be a positive finite number, "
                          f"a list of them, or an object with a positive finite "
                          f"'c' and a finite 'gamma'; got {scale!r}")


def _holds_bool(value) -> bool:
    if isinstance(value, dict):
        return any(_holds_bool(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _namespec(spec, what: str) -> tuple[str, dict]:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' field")
    rest = {k: v for k, v in spec.items() if k != "name"}
    for key, value in rest.items():
        # no component takes a boolean, and Python reads true as 1
        if _holds_bool(value):
            raise ConfigError(f"{what} {key!r} must not hold a boolean; "
                              f"got {value!r}")
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


# generator names and their classes, whose `data_kind` says what they emit
_GENERATOR_TYPES = {g.name: g for g in (MCID1, MCID2, QuantileRegSim, HeavyTailSim,
                                        MeanCurveSim, AUCSim, SparseClassSim)}


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


# the generator data kinds each loss can fit and be scored on.  The check
# loss fits {1, x} to a scalar covariate, the squared loss a spline basis of
# it, the capped squared loss the generator's own design; the quantile
# design's truth lies over {1, x}, so only the check loss is scored on it.
_LOSS_DATA_KINDS = {
    "check": ("linear-regression", "curve-regression"),
    "squared": ("curve-regression",),
    "cappedsquared": ("multiple-regression",),
    "zeroone": ("linear-classification",),
    "mcid": ("threshold",),
    "auc": ("two-sample",),
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


# the data-driven ranking rate reads two-sample scores; the others take any
_RATE_DATA_KINDS = {"aucdata": ("two-sample",)}


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


_DIVERGENCES = {
    "euclid": lambda *_: EuclideanDistance(),
    "abs": lambda *_: AbsScalarDistance(),
    "empirical_l2": _empirical_l2,
    "risk_diff_sqrt": lambda kw, generator, loss, basis: RiskDiffSqrt(
        loss, generator.mc_sample, n_draws=int(kw.get("nDraws", 4096))),
}


# the generator data kinds whose truth each divergence can measure: the
# coefficient-space divergences need a coefficient truth (theta_star), abs a
# scalar one, and empirical_l2 a true function and a grid to compare it on
_COEFFICIENT_TRUTH = ("linear-regression", "multiple-regression", "two-sample",
                      "linear-classification")
_DIVERGENCE_DATA_KINDS = {
    "euclid": _COEFFICIENT_TRUTH,
    "risk_diff_sqrt": _COEFFICIENT_TRUTH,
    "abs": ("two-sample",),
    "empirical_l2": ("threshold", "curve-regression"),
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


_MH_KEYS = ("steps", "burnIn", "thin", "proposalScale", "init", "alphaFlipProb")


def build_mh(spec: dict, n: int, seed: int, init=None) -> MHConfig:
    if not isinstance(spec, dict):
        raise ConfigError("mh spec must be an object")
    unknown = set(spec) - set(_MH_KEYS)
    if unknown:
        raise ConfigError(f"unknown mh keys: {sorted(unknown)}; allowed keys: "
                          f"{', '.join(_MH_KEYS)}")
    for key in ("steps", "burnIn", "thin"):
        if key in spec and not _is_int(spec[key]):
            raise ConfigError(f"mh {key} must be an integer; got {spec[key]!r}")
    if isinstance(spec.get("alphaFlipProb"), bool):
        raise ConfigError("mh alphaFlipProb must be a number, not a boolean")
    try:
        return MHConfig(
            steps=spec.get("steps", 50_000),
            burn_in=spec.get("burnIn", 10_000),
            thin=spec.get("thin", 5),
            proposal_scale=resolve_proposal_scale(spec, n),
            seed=seed,
            init=init,
            alpha_flip_prob=float(spec.get("alphaFlipProb", 0.05)),
        )
    except (TypeError, ValueError, PreconditionError) as exc:
        raise ConfigError(f"bad mh parameters: {exc}") from None
